"""Shared fixtures: seeded generators, the frozen intersection fixture, and
references kept from the paths they were replaced by: the coding, connection,
frequency and trend loops that take one lookup per iterate, the k-step table
that the Rauzy–Veech towers replaced, built by squaring and by k one-step
passes, the counting walk over that table that the induction replaced, the
``Fraction`` Horner and slope classifier of the curve scan, and the criterion
kernels that read a rational's parts and normalise it more than once: the
scaling to one denominator, the crossing locus through its parameter t, the
power curve by fresh powers, and the prefix-invariance definition of
irreducibility.

Set the SEED environment variable to rerun every randomized suite on a
different deterministic stream; the default keeps CI byte-stable.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import settings

from ietkit import (
    Connection,
    MonotonicityClass,
    OrbitStats,
    apply,
    as_scalar,
    build_iet,
    build_suspension,
    random_irreducible,
    validate_permutation,
)
import ietkit.iet as iet
import ietkit.rauzy as rauzy
from ietkit.errors import DomainViolation, _quoted

SEED = int(os.environ.get("SEED", "57721"))

# No deadline: a loaded host can take longer than Hypothesis's default 200 ms
# over one example without any fault in the code.
settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

# Non-monotone slopes whose chains properly cross; found by seeded search and
# checked by hand: top segment 3 runs (2,1)->(4,-2), bottom segment 3 runs
# (2,-2)->(3,1), and they cross at (8/3, 0).
FROZEN_CROSSING = {
    "perm": (3, 1, 4, 2),
    "lengths": (1, 1, 2, 1),
    "heights": (3, -2, -3, 0),
    "chain_a": "top",
    "index_a": 3,
    "chain_b": "bottom",
    "index_b": 3,
    "locus": (Fraction(8, 3), Fraction(0)),
}


def frozen_crossing_diagram():
    return build_suspension(
        validate_permutation(list(FROZEN_CROSSING["perm"])),
        FROZEN_CROSSING["lengths"],
        FROZEN_CROSSING["heights"],
    )


def random_length(rng: random.Random) -> Fraction:
    """A rational in (0, 10]."""
    den = rng.randint(1, 12)
    return Fraction(rng.randint(1, 10 * den), den)


def random_height(rng: random.Random) -> Fraction:
    den = rng.randint(1, 12)
    return Fraction(rng.randint(-10 * den, 10 * den), den)


def distinct_slopes(rng: random.Random, d: int, *, decreasing: bool) -> list[Fraction]:
    """d distinct rationals, sorted strictly monotone; signs unrestricted."""
    pool: set[Fraction] = set()
    while len(pool) < d:
        pool.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
    return sorted(pool, reverse=decreasing)


def monotone_instance(rng: random.Random, *, decreasing: bool, d: int | None = None):
    """(sigma, a, b) with random irreducible sigma and strictly monotone slopes."""
    if d is None:
        d = rng.randint(2, 8)
    sigma = random_irreducible(d, rng.getrandbits(32))
    a = [random_length(rng) for _ in range(d)]
    kappa = distinct_slopes(rng, d, decreasing=decreasing)
    b = [k * x for k, x in zip(kappa, a)]
    return sigma, a, b


def _suite(decreasing: bool, count: int = 10_000):
    # String seeds hash deterministically (unlike tuples under PYTHONHASHSEED).
    rng = random.Random(f"{SEED}/monotone-suite/{decreasing}")
    return [monotone_instance(rng, decreasing=decreasing) for _ in range(count)]


@pytest.fixture(scope="session")
def decreasing_suite():
    return _suite(decreasing=True)


@pytest.fixture(scope="session")
def increasing_suite():
    return _suite(decreasing=False)


@pytest.fixture()
def rng():
    return random.Random(SEED)


@pytest.fixture()
def step_budget(monkeypatch):
    """Fails a count once it has taken more than ``budget[0]`` steps through
    a partition or a level, each one lookup, instead of letting it run.

    An orbit test that counts to 10^7 steps or more sets its budget to ten
    times the lookups it took when the budget was set, so that a count that
    loses its way fails in seconds, naming the test, instead of running for
    hours."""
    budget = [0]
    look = rauzy.bisect_right

    def counted(starts, y):
        budget[0] -= 1
        assert budget[0] >= 0, "over the step budget"
        return look(starts, y)

    monkeypatch.setattr(rauzy, "bisect_right", counted)
    return budget


# ---------------------------------------------------------------------------
# Scan references: Horner's rule over Fractions, which rebuilds the derivative
# rows on every call, and the slope classifier that compares Fraction slopes.


def reference_poly_eval(coeffs, s: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def reference_curve_point(spec, s):
    s = as_scalar(s)
    a = tuple(reference_poly_eval(row, s) for row in spec.coeffs)
    for i, v in enumerate(a, start=1):
        if v <= 0:
            raise DomainViolation(f"component {i} is {_quoted(v, str)} at s = {_quoted(s, str)}")
    b = tuple(reference_poly_eval([k * c for k, c in enumerate(row)][1:], s) for row in spec.coeffs)
    return a, b


def reference_classify_slopes(slopes) -> MonotonicityClass:
    pairs = list(zip(slopes, slopes[1:]))
    if any(x == y for x, y in pairs):
        return MonotonicityClass.HAS_TIES
    if all(x > y for x, y in pairs):
        return MonotonicityClass.STRICTLY_DECREASING
    if all(x < y for x, y in pairs):
        return MonotonicityClass.STRICTLY_INCREASING
    return MonotonicityClass.NON_MONOTONE


# ---------------------------------------------------------------------------
# Criterion references: each reads a value's numerator and denominator
# separately, or builds its results through intermediate ``Fraction``s.


def reference_scaled(values) -> tuple[int, list[int]]:
    """The lcm of the denominators and every value as an integer over it,
    dividing the lcm once per value."""
    denom = math.lcm(*(v.denominator for v in values))
    return denom, [v.numerator * (denom // v.denominator) for v in values]


def reference_crossing(p0, p1, q0, q1):
    """The crossing point of two properly crossing segments, as p0 + t (p1 - p0)
    with t a ``Fraction``."""
    dpx, dpy = p1[0] - p0[0], p1[1] - p0[1]
    dqx, dqy = q1[0] - q0[0], q1[1] - q0[1]
    t = Fraction((q0[0] - p0[0]) * dqy - (q0[1] - p0[1]) * dqx, dpx * dqy - dpy * dqx)
    return p0[0] + t * dpx, p0[1] + t * dpy


def reference_mahler_curve(d: int, s) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """a_i = s**i, each a fresh power, and b_i = i * s**(i - 1)."""
    s = as_scalar(s)
    a = tuple(s**i for i in range(1, d + 1))
    b = tuple(i * power for i, power in enumerate((Fraction(1),) + a[:-1], start=1))
    return a, b


def reference_is_irreducible(images) -> bool:
    """No proper prefix {1..k} is mapped onto itself."""
    return not any(set(images[:k]) == set(range(1, k + 1)) for k in range(1, len(images)))


# ---------------------------------------------------------------------------
# Orbit references: the coding, connection, frequency and trend loops that
# take every one of the n steps, one lookup each, so they rely neither on
# periodicity nor on a k-step table.


def scaled_ints(t, x0) -> tuple[int, int, list[int], list[int]]:
    """(x0, total, breaks, translations) over the lcm of their denominators,
    as ints: the references' own scaling, shared with no loop they check."""
    values = [Fraction(x0), *t.disc_top, *t.translations]
    den = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    breaks = ints[1 : t.d + 1]
    return ints[0], breaks[-1], breaks, ints[t.d + 1 :]


def reference_orbit_coding(t, x0, n: int) -> list[int]:
    x, _, breaks, trans = scaled_ints(t, x0)
    codes = []
    for _ in range(n):
        j = bisect_right(breaks, x)
        codes.append(j + 1)
        x += trans[j]
    return codes


def reference_find_connections(t, max_m: int) -> list[Connection]:
    _, _, breaks, trans = scaled_ints(t, 0)
    targets = {breaks[j]: j + 1 for j in range(t.d - 1)}
    found = []
    for i in range(1, t.d):
        x = breaks[i - 1]
        for m in range(1, max_m + 1):
            x += trans[bisect_right(breaks, x)]
            if x in targets:
                found.append(Connection(m, i, targets[x]))
    return sorted(found, key=lambda c: (c.m, c.i, c.j))


def reference_visit_frequencies(t, x0, n: int, cells: int = 64) -> OrbitStats:
    x, total, breaks, trans = scaled_ints(t, x0)
    interval_counts = [0] * t.d
    cell_counts = [0] * cells
    for _ in range(n):
        j = bisect_right(breaks, x)
        interval_counts[j] += 1
        cell_counts[x * cells // total] += 1
        x += trans[j]
    frequencies = tuple(Fraction(c, n) for c in interval_counts)
    expected = tuple(length / t.total for length in t.lengths)
    return OrbitStats(
        n_iterations=n,
        frequencies=frequencies,
        expected=expected,
        discrepancy=max(abs(f - e) for f, e in zip(frequencies, expected)),
        refinement_cells=cells,
        refinement_discrepancy=max(abs(Fraction(c, n) - Fraction(1, cells)) for c in cell_counts),
    )


def reference_discrepancy_trend(t, x0, schedule) -> list[tuple[int, Fraction]]:
    x, _, breaks, trans = scaled_ints(t, x0)
    expected = tuple(length / t.total for length in t.lengths)
    counts = [0] * t.d
    out = []
    marks = iter(schedule)
    mark = next(marks)
    for step in range(1, schedule[-1] + 1):
        j = bisect_right(breaks, x)
        counts[j] += 1
        x += trans[j]
        if step == mark:
            out.append((step, max(abs(Fraction(c, step) - e) for c, e in zip(counts, expected))))
            mark = next(marks, None)
    return out


def cell_partition(t, x0, cells: int) -> tuple[list[int], list[int], list[int], int]:
    """(points, shift, breaks, x): [0, total) cut at the breaks and the cell
    starts, as ``visit_frequencies`` cuts it for cells^2 <= n, with each
    gap's shift, over the package's own scaling."""
    x, total, breaks, trans = iet._scaled_ints(t, x0)
    cuts = {-(-c * total // cells) for c in range(1, cells)}
    points = sorted(cuts.union(breaks[:-1]).difference((total,)))
    return points, [trans[bisect_right(breaks, s)] for s in [0, *points]], breaks, x


# The k-step table that the orbit loops once walked, kept for the
# references: k derived from the work and the pieces, and the table built by
# squaring.  A table costs about k visits per piece to build and read, and
# may cost at most a 1/TABLE_SHARE share of the loop's steps; k is at most
# MAX_BLOCK, and the table at most MAX_TABLE_PIECES pieces.
TABLE_SHARE = 32
MAX_BLOCK = 32
MAX_TABLE_PIECES = 1 << 17


def reference_block_length(work: int, pieces: int) -> int:
    """Steps per lookup for a loop of ``work`` steps over ``pieces`` pieces:
    the largest power of two within the share, MAX_BLOCK and the cap."""
    k = min(MAX_BLOCK, MAX_TABLE_PIECES // pieces, work // (TABLE_SHARE * pieces))
    return 1 << max(k.bit_length() - 1, 0)


class Table(NamedTuple):
    """A k-step partition of [0, total): gap i of ``cuts``, with 0 in front,
    moves by ``moves[i]`` in k steps.  ``levels`` holds one (first, second)
    pair per squaring, top level first: piece i of the 2h-step table is
    h-step piece ``first[i]`` whose h-image starts in h-step piece
    ``second[i]``."""

    cuts: list[int]
    moves: list[int]
    k: int
    levels: list[tuple[list[int], list[int]]]


def reference_square(cuts: list[int], shifts: list[int], total: int) -> tuple[list[int], ...]:
    """The table of T^(2h) from that of T^h, as (cuts, moves, first, second):
    each piece is cut where its h-image crosses a cut."""
    starts, moves, first, second = [], [], [], []
    for i, (s, e, m) in enumerate(zip((0, *cuts), (*cuts, total), shifts)):
        j = bisect_right(cuts, s + m)
        starts.append(s)
        moves.append(m + shifts[j])
        first.append(i)
        second.append(j)
        for c in cuts[j : bisect_left(cuts, e + m, j)]:
            j += 1
            starts.append(c - m)
            moves.append(m + shifts[j])
            first.append(i)
            second.append(j)
    del starts[0]
    return starts, moves, first, second


def reference_table(points: list[int], shift: list[int], total: int, k: int) -> Table:
    """The k-step table of [0, total) cut at the sorted ``points``, gap j
    moving by ``shift[j]``, for k a power of two, by log2(k) squarings."""
    cuts, moves, levels = points, shift, []
    for _ in range(k.bit_length() - 1):
        cuts, moves, first, second = reference_square(cuts, moves, total)
        levels.append((first, second))
    return Table(cuts, moves, k, levels[::-1])


def reference_walk(points: list[int], shift: list[int], breaks: list[int], x: int, marks) -> list[list[int]]:
    """Visits per gap of the sorted ``points`` at each of the increasing
    ``marks``, counted by the k-step walk that the induction replaced.

    One k-step table, sized by the last mark or the period bound, serves
    the whole walk.  The walk looks up one table piece per k steps, tests for
    a return at block ends, and counts a stretch past the return after
    L = lcm(p, k) steps as whole blocks of L plus one rerun of the rest;
    visits per table piece go down the table's levels to both halves.
    """
    total = breaks[-1]
    work = min(marks[-1], total // math.gcd(*breaks))
    cuts, moves, k, levels = reference_table(points, shift, total, reference_block_length(work, len(shift)))

    def expand(counts):
        for first, second in levels:
            down = [0] * (first[-1] + 1)
            for i, j, c in zip(first, second, counts):
                if c:
                    down[i] += c
                    down[j] += c
            counts = down
        return counts

    def walk(x, n):
        counts = [0] * len(moves)
        start = x
        blocks = n // k
        for b in range(1, blocks + 1):
            p = bisect_right(cuts, x)
            counts[p] += 1
            x += moves[p]
            if x == start:
                q, r = divmod(n, b * k)
                rest, x = walk(x, r)
                return [c * q + e for c, e in zip(expand(counts), rest)], x
        counts = expand(counts)
        for _ in range(n - blocks * k):
            j = bisect_right(points, x)
            counts[j] += 1
            x += shift[j]
        return counts, x

    out, counts = [], [0] * len(shift)
    for done, mark in zip([0, *marks], marks):
        steps, x = walk(x, mark - done)
        counts = [c + s for c, s in zip(counts, steps)]
        out.append(counts)
    return out


def reference_steps(points: list[int], shift: list[int], x: int, k: int) -> list[int]:
    """The pieces of x, T(x), ..., T^(k-1)(x) among the gaps of ``points``."""
    out = []
    for _ in range(k):
        j = bisect_right(points, x)
        out.append(j)
        x += shift[j]
    return out


def reference_blocks(points: list[int], shift: list[int], total: int, k: int) -> tuple[list[int], list[int]]:
    """(cuts, moves) of the k-step table by k one-step passes: each pass
    follows every piece one step further and splits it where its image
    crosses a cut of ``points``."""
    starts, moves = [0], [0]
    for _ in range(k):
        next_starts, next_moves = [], []
        for s, e, m in zip(starts, starts[1:] + [total], moves):
            j = bisect_right(points, s + m)
            next_starts.append(s)
            next_moves.append(m + shift[j])
            for c in points[j : bisect_left(points, e + m)]:
                j += 1
                next_starts.append(c - m)
                next_moves.append(m + shift[j])
        starts, moves = next_starts, next_moves
    return starts[1:], moves


def period_of(t, x0, cap: int = 3000) -> int | None:
    """Steps until the orbit of x0 first returns, by ``apply`` on Fractions;
    None when it has not returned within cap steps."""
    x = x0
    for p in range(1, cap + 1):
        x = apply(t, x)
        if x == x0:
            return p
    return None


def across_periods(p: int | None, rng: random.Random) -> set[int]:
    """Step counts n < p, n = p, n = k p and n = k p + r, plus one drawn at random."""
    counts = {1, rng.randint(1, 4000)}
    if p is not None:
        k = rng.randint(2, 5)
        counts |= {p - 1, p, p + 1, k * p, k * p + rng.randint(1, p)}
    return {n for n in counts if n >= 1}


def random_rational_exchange(rng: random.Random, digits: int, start: str):
    """(t, x0): d <= 24 and each length p/q with q up to 10^digits; x0 is 0,
    a break point or an interior rational point as ``start`` says."""
    d = rng.randint(2, 24)
    sigma = random_irreducible(d, rng.getrandbits(32))
    top = 10 ** digits
    lengths = []
    for _ in range(d):
        q = rng.randint(1, top)
        lengths.append(Fraction(rng.randint(1, 3 * q), q))
    t = build_iet(sigma, lengths)
    x0 = {
        "zero": Fraction(0),
        "break": rng.choice(t.disc_top[:-1]),
        "interior": t.total * Fraction(rng.randint(0, 999), 1000),
    }[start]
    return t, x0
