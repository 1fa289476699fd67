"""Empirical equidistribution statistics for long exact orbits.

These are evidence, not proof: a unique ergodicity claim is never emitted.
The orbit is iterated in exact arithmetic (rescaled to one common integer
denominator, so cost per step stays flat) and compared against the Lebesgue
prediction a_j / |I| per interval, plus a uniform refinement into equal cells.

Over that denominator the orbit is purely periodic, and the counting loop of
``ietkit.rauzy`` counts it: at most 8 plain steps, then one Rauzy–Veech
induction climbed for the last count, through whose towers it steps,
climbing again only when the orbit keeps to a small part of the interval,
and counting whole periods by divmod once the orbit returns; see that
module for the induction.  ``visit_frequencies`` with cells^2 <= n counts
the pieces cut by the breaks and the cell starts, whose pieces each lie in
one interval and one cell; the sqrt(n) gate keeps that partition small
against the orbit.
With more cells a plain loop counts only the cells it visits, and stops at
the first return: it counts the periods in n and reruns the remainder.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .errors import InvalidBound, _quoted, _record
from .iet import Iet, ScalarLike, _scaled_ints
from .rauzy import _visits

__all__ = ["OrbitStats", "visit_frequencies", "discrepancy_trend"]

DEFAULT_REFINEMENT = 64


@_record
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


def _plain_counts(
    x: int, n: int, cells: int, breaks: list[int], trans: list[int]
) -> tuple[list[int], dict[int, int]]:
    """Visits per interval and per visited cell over n plain steps from x.

    The loop stops at the first return to x, after p steps, and counts q
    periods plus a rerun of r steps, q, r = divmod(n, p), which cannot
    return early.

    >>> _plain_counts(0, 5, 4, [1, 2], [1, -1])
    ([3, 2], {0: 3, 2: 2})
    """
    total = breaks[-1]
    interval_counts = [0] * len(breaks)
    cell_counts: dict[int, int] = {}
    start = x
    for p in range(1, n + 1):
        j = bisect_right(breaks, x)
        interval_counts[j] += 1
        c = x * cells // total
        cell_counts[c] = cell_counts.get(c, 0) + 1
        x += trans[j]
        if x == start and p < n:
            q, r = divmod(n, p)
            rest, rest_cells = _plain_counts(start, r, cells, breaks, trans)
            return (
                [v * q + e for v, e in zip(interval_counts, rest)],
                {k: v * q + rest_cells.get(k, 0) for k, v in cell_counts.items()},
            )
    return interval_counts, cell_counts


def _orbit_counts(
    t: Iet, x0: ScalarLike, n: int, cells: int
) -> tuple[list[int], dict[int, int]]:
    x, total, breaks, trans = _scaled_ints(t, x0)
    if cells * cells > n:
        return _plain_counts(x, n, cells, breaks, trans)
    interval_counts = [0] * t.d
    cell_counts: dict[int, int] = {}
    # Cell c holds the integers from ceil(c * total / cells) on; cut at those
    # starts and at the interior breaks, each piece lies in one interval and
    # one cell.  When cells > total, some starts coincide or reach total.
    cuts = {-(-c * total // cells) for c in range(1, cells)}
    points = sorted(cuts.union(breaks[:-1]).difference((total,)))
    starts = [0, *points]
    intervals = [bisect_right(breaks, s) for s in starts]
    shift = [trans[j] for j in intervals]
    [counts] = _visits(points, shift, breaks, x, [n])
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
    After at most 8 plain steps, one induction, climbed for the last mark,
    serves the whole schedule, and the orbit goes on from mark to mark
    through its towers, climbing again only if it keeps to a small part of
    the interval; once it is back where it began stepping at a level, whole
    periods are counted by divmod.  A rejected schedule is quoted in full
    only when it is short.
    """
    if any(n < 1 for n in schedule) or any(
        a >= b for a, b in zip(schedule, schedule[1:])
    ):
        raise InvalidBound(
            f"schedule must be strictly increasing and positive: {_quoted(schedule, str)}"
        )
    x, _, breaks, trans = _scaled_ints(t, x0)
    expected = tuple(length / t.total for length in t.lengths)
    return [
        (mark, max(abs(Fraction(c, mark) - e) for c, e in zip(counts, expected)))
        for mark, counts in zip(schedule, _visits(breaks[:-1], trans, breaks, x, schedule))
    ]
