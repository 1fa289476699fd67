"""Empirical equidistribution statistics for long exact orbits.

These are evidence, not proof: a unique ergodicity claim is never emitted.
The orbit is iterated in exact arithmetic (rescaled to one common integer
denominator, so cost per step stays flat) and compared against the Lebesgue
prediction a_j / |I| per interval, plus a uniform refinement into equal cells.

Over that denominator the exchange is a bijection of the finite set of
integers in [0, total), so the orbit is purely periodic.  One walk counts
visits per piece of a sorted partition.  It takes k steps per lookup in the
k-step table of ``ietkit.iet._blocks``, with k derived from the smaller of n
and the period bound (the number of integers the orbit can reach) and from
the partition's size.  It counts visits per table piece and, once at the
end, ``ietkit.iet._expand`` pushes them down the table's levels, so no
itinerary is stored or replayed.  It tests for the first return at block
ends, so it sees a return after p steps at L = lcm(p, k), and counts n steps
as q blocks of L plus one rerun of the first n mod L steps, which cannot
return early.  The trend builds that table once and walks the breaks from
mark to mark.  ``visit_frequencies`` with cells^2 <= n walks the breaks and
the cell starts, whose pieces each lie in one interval and one cell; the
sqrt(n) gate keeps that partition small against the orbit.  With more cells
the plain loop takes all n steps and counts only the cells it visits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidBound
from .iet import Iet, ScalarLike, _check_domain, _expand, _scaled_ints, _table, _Table, as_scalar

__all__ = ["OrbitStats", "visit_frequencies", "discrepancy_trend"]

DEFAULT_REFINEMENT = 64


@dataclass(frozen=True)
class OrbitStats:
    """Visit statistics of one finite orbit (all entries exact).

    ``discrepancy`` is max_j |frequency_j - expected_j| over the exchanged
    intervals; ``refinement_discrepancy`` is the same statistic over
    ``refinement_cells`` equal cells of [0, |I|), each with expected mass
    1/cells.  The two partitions differ, so neither bounds the other; when the
    cells happen to coincide with the intervals the statistics agree exactly.
    """

    n_iterations: int
    frequencies: tuple[Fraction, ...]
    expected: tuple[Fraction, ...]
    discrepancy: Fraction
    refinement_cells: int
    refinement_discrepancy: Fraction


def _walk(points: list[int], shift: list[int], x: int, n: int, table: _Table) -> tuple[list[int], int]:
    """Visits per piece over n steps from x, and the point reached.

    Piece j is the j-th gap of the sorted ``points`` and moves by
    ``shift[j]``; ``table`` is their k-step table from ``ietkit.iet._table``.
    The walk looks up one table piece per k steps and tests for a return to
    x at block ends, so it sees a return after L = lcm(p, k) steps when the
    orbit returns after p; the counts are then q blocks of L plus one rerun
    of r steps, q, r = divmod(n, L), and the point reached is the end of that
    rerun.

    >>> _walk([1], [1, -1], 0, 5, _Table([1], [1, -1], 1, []))
    ([3, 2], 1)
    >>> from ietkit.iet import _blocks
    >>> _walk([1], [1, -1], 0, 5, _blocks([1], [1, -1], 2, 2))
    ([3, 2], 1)
    """
    cuts, moves, k, _ = table
    counts = [0] * len(moves)
    start = x
    blocks = n // k
    for b in range(1, blocks + 1):
        p = bisect_right(cuts, x)
        counts[p] += 1
        x += moves[p]
        if x == start:
            q, r = divmod(n, b * k)
            rest, x = _walk(points, shift, x, r, table)
            return [c * q + e for c, e in zip(_expand(counts, table), rest)], x
    counts = _expand(counts, table)
    for _ in range(n - blocks * k):
        j = bisect_right(points, x)
        counts[j] += 1
        x += shift[j]
    return counts, x


def _walk_table(points: list[int], shift: list[int], breaks: list[int], n: int) -> _Table:
    """The k-step table for a walk of n steps over the gaps of ``points``.

    Every shift is a multiple of g, the gcd of the breaks, so the orbit stays
    on one residue class mod g and returns within total // g steps; the walk
    stops there, so its work is the smaller of the two.
    """
    total = breaks[-1]
    return _table(points, shift, total, min(n, total // math.gcd(*breaks)))


def _orbit_counts(
    t: Iet, x0: Fraction, n: int, cells: int
) -> tuple[list[int], dict[int, int]]:
    x, total, breaks, trans = _scaled_ints(t, x0)
    interval_counts = [0] * t.d
    cell_counts: dict[int, int] = {}
    if cells * cells > n:
        for _ in range(n):
            j = bisect_right(breaks, x)
            interval_counts[j] += 1
            c = x * cells // total
            cell_counts[c] = cell_counts.get(c, 0) + 1
            x += trans[j]
        return interval_counts, cell_counts
    # Cell c holds the integers from ceil(c * total / cells) on; cut at those
    # starts and at the interior breaks, each piece lies in one interval and
    # one cell.  When cells > total, some starts coincide or reach total.
    cuts = {-(-c * total // cells) for c in range(1, cells)}
    points = sorted(cuts.union(breaks[:-1]).difference((total,)))
    starts = [0, *points]
    intervals = [bisect_right(breaks, s) for s in starts]
    shift = [trans[j] for j in intervals]
    counts, _ = _walk(points, shift, x, n, _walk_table(points, shift, breaks, n))
    for s, j, c in zip(starts, intervals, counts):
        interval_counts[j] += c
        cell = s * cells // total
        cell_counts[cell] = cell_counts.get(cell, 0) + c
    return interval_counts, cell_counts


def visit_frequencies(
    t: Iet, x0: ScalarLike, n: int, cells: int = DEFAULT_REFINEMENT
) -> OrbitStats:
    """Exact visit fractions of the first n orbit points, against Lebesgue.

    The orbit is periodic, so with at most sqrt(n) cells its counts are read
    off one period and the remainder; the statistics are the same as those of
    n plain steps.

    >>> from ietkit.perm import validate_permutation
    >>> from ietkit.iet import build_iet
    >>> stats = visit_frequencies(build_iet(validate_permutation([2, 1]), [1, 1]), Fraction(1, 4), 1000)
    >>> stats.frequencies, stats.discrepancy
    ((Fraction(1, 2), Fraction(1, 2)), Fraction(0, 1))
    """
    if n < 1:
        raise InvalidBound(f"need at least one iterate, got {n}")
    if cells < 1:
        raise InvalidBound(f"need at least one refinement cell, got {cells}")
    x0 = as_scalar(x0)
    _check_domain(t, x0)
    interval_counts, cell_counts = _orbit_counts(t, x0, n, cells)
    # Cells with equal counts share one deviation, so each count is taken
    # once; a cell the orbit missed counts 0.
    counts = set(cell_counts.values())
    if len(cell_counts) < cells:
        counts.add(0)
    frequencies = tuple(Fraction(c, n) for c in interval_counts)
    expected = tuple(length / t.total for length in t.lengths)
    uniform = Fraction(1, cells)
    return OrbitStats(
        n_iterations=n,
        frequencies=frequencies,
        expected=expected,
        discrepancy=max(abs(f - e) for f, e in zip(frequencies, expected)),
        refinement_cells=cells,
        refinement_discrepancy=max(abs(Fraction(c, n) - uniform) for c in counts),
    )


def discrepancy_trend(
    t: Iet, x0: ScalarLike, schedule: Sequence[int]
) -> list[tuple[int, Fraction]]:
    """Interval discrepancy sampled along one continued orbit.

    The schedule must be strictly increasing positive counts; the value at
    each n equals visit_frequencies(t, x0, n).discrepancy (prefix consistency).
    One walk runs from mark to mark: a stretch longer than the period stops
    at the first return and adds at most one rerun of the remainder.
    """
    if any(n < 1 for n in schedule) or any(
        a >= b for a, b in zip(schedule, schedule[1:])
    ):
        raise InvalidBound(f"schedule must be strictly increasing and positive: {schedule}")
    x0 = as_scalar(x0)
    _check_domain(t, x0)
    if not schedule:
        return []
    x, _, breaks, trans = _scaled_ints(t, x0)
    points = breaks[:-1]
    table = _walk_table(points, trans, breaks, schedule[-1])
    expected = tuple(length / t.total for length in t.lengths)
    counts = [0] * t.d
    out = []
    for done, mark in zip([0, *schedule], schedule):
        steps, x = _walk(points, trans, x, mark - done, table)
        counts = [c + s for c, s in zip(counts, steps)]
        out.append((mark, max(abs(Fraction(c, mark) - e) for c, e in zip(counts, expected))))
    return out
