"""Empirical equidistribution statistics for long exact orbits.

These are evidence, not proof: a unique ergodicity claim is never emitted.
The orbit is iterated in exact arithmetic (rescaled to one common integer
denominator, so cost per step stays flat) and compared against the Lebesgue
prediction a_j / |I| per interval, plus a uniform refinement into equal cells.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidBound
from .iet import Iet, ScalarLike, _check_domain, _scaled_ints, as_scalar

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


def _orbit_counts(
    t: Iet, x0: Fraction, n: int, cells: int
) -> tuple[list[int], list[int]]:
    x, total, breaks, trans = _scaled_ints(t, x0)
    interval_counts = [0] * t.d
    cell_counts = [0] * cells
    for _ in range(n):
        j = bisect_right(breaks, x)
        interval_counts[j] += 1
        cell_counts[x * cells // total] += 1
        x += trans[j]
    return interval_counts, cell_counts


def visit_frequencies(
    t: Iet, x0: ScalarLike, n: int, cells: int = DEFAULT_REFINEMENT
) -> OrbitStats:
    """Exact visit fractions of the first n orbit points, against Lebesgue.

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
    frequencies = tuple(Fraction(c, n) for c in interval_counts)
    expected = tuple(length / t.total for length in t.lengths)
    uniform = Fraction(1, cells)
    return OrbitStats(
        n_iterations=n,
        frequencies=frequencies,
        expected=expected,
        discrepancy=max(abs(f - e) for f, e in zip(frequencies, expected)),
        refinement_cells=cells,
        # Cells with equal counts share one deviation, so each count is taken once.
        refinement_discrepancy=max(abs(Fraction(c, n) - uniform) for c in set(cell_counts)),
    )


def discrepancy_trend(
    t: Iet, x0: ScalarLike, schedule: Sequence[int]
) -> list[tuple[int, Fraction]]:
    """Interval discrepancy sampled along one continued orbit.

    The schedule must be strictly increasing positive counts; the value at
    each n equals visit_frequencies(t, x0, n).discrepancy (prefix consistency).
    """
    if not schedule:
        return []
    if any(n < 1 for n in schedule) or any(
        a >= b for a, b in zip(schedule, schedule[1:])
    ):
        raise InvalidBound(f"schedule must be strictly increasing and positive: {schedule}")
    x0 = as_scalar(x0)
    _check_domain(t, x0)
    x, _, breaks, trans = _scaled_ints(t, x0)
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
            disc = max(abs(Fraction(c, step) - e) for c, e in zip(counts, expected))
            out.append((step, disc))
            mark = next(marks, None)
    return out
