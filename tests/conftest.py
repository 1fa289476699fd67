"""Shared fixtures: seeded generators, the frozen intersection fixture, and
references kept from the paths they were replaced by: the coding, connection,
frequency and trend loops that take one lookup per iterate, the k-step table
built by k one-step passes, and the ``Fraction`` Horner and slope classifier
of the curve scan.

Set the SEED environment variable to rerun every randomized suite on a
different deterministic stream; the default keeps CI byte-stable.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

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
from ietkit.errors import DomainViolation

SEED = int(os.environ.get("SEED", "57721"))

settings.register_profile("ci", derandomize=True, max_examples=60)
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
            raise DomainViolation(f"component {i} is {v} at s = {s}")
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
