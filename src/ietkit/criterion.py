"""The convexity criterion: monotone slopes certify a positive pair.

When the slopes kappa_i = b_i / a_i are strictly decreasing, the top chain is
convex and the closed suspension curve is simple for every irreducible
permutation; the mirrored statement holds for strictly increasing slopes with
the roles of the two chains exchanged.  This module turns that lemma into a
checked verdict: it classifies the slope sequence, runs the exact intersection
test, and refuses to certify anything for ties or non-monotone data.  A
monotone instance whose curve fails the intersection test would falsify the
lemma itself, so it raises ``LemmaViolation`` instead of returning.

The power-curve family a_i(s) = s^i with derivative b_i(s) = i s^(i-1) has
slopes exactly i/s, strictly increasing for every s > 0, which makes the whole
family certifiable at once; ``scan_curve`` sweeps any polynomial curve family
the same way, rationalizing every grid point before deciding.  A sample
decides its verdict alone: the intersection test runs only for monotone
slopes, where it guards the lemma, and no profile is built.  A ``CurveSpec``
keeps each component and its derivative as integer coefficients over one
common denominator, so at s = p/q a point is a homogeneous Horner sum in
integers, every row over one positive scale, whose sign is the domain check.
A sample classifies its slopes and runs the vertex sweep on those integers,
and builds neither a ``Fraction`` nor a diagram; a contact at monotone
slopes is handed to ``convexity_criterion``, which raises.  The slope
classes, here and in the criterion, are signs of integer cross products, and
the profile's signs are read off the diagram's integer profile.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    DomainViolation,
    InvalidBound,
    InvalidSize,
    LemmaViolation,
    NonPositiveParameter,
    ReduciblePermutation,
    _lazy,
    _quoted,
    _record,
)
from .iet import ScalarLike, _positive_lengths, as_scalar
from .perm import Permutation, _scaled, is_irreducible
from .suspension import (
    PositivityClass,
    SuspensionDiagram,
    Witness,
    _chains,
    _first_contact,
    _sign,
    _witness,
    build_suspension,
    pointwise_positive,
)

__all__ = [
    "MonotonicityClass",
    "Verdict",
    "CriterionReport",
    "CurveSpec",
    "ScanSummary",
    "slope_monotonicity",
    "convexity_criterion",
    "mahler_curve",
    "curve_spec",
    "curve_point",
    "mahler_spec",
    "scan_curve",
]


class MonotonicityClass(Enum):
    STRICTLY_DECREASING = "StrictlyDecreasing"
    STRICTLY_INCREASING = "StrictlyIncreasing"
    NON_MONOTONE = "NonMonotone"
    HAS_TIES = "HasTies"


class Verdict(Enum):
    POSITIVE_PAIR_BY_LEMMA = "PositivePairByLemma"
    POSITIVE_PAIR_BY_MIRRORED_LEMMA = "PositivePairByMirroredLemma"
    INCONCLUSIVE_NON_MONOTONE = "InconclusiveNonMonotone"
    DEGENERATE_TIES = "DegenerateTies"


_POSITIVE_VERDICTS = frozenset(
    {Verdict.POSITIVE_PAIR_BY_LEMMA, Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA}
)

_VERDICTS = {
    MonotonicityClass.STRICTLY_DECREASING: Verdict.POSITIVE_PAIR_BY_LEMMA,
    MonotonicityClass.STRICTLY_INCREASING: Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA,
    MonotonicityClass.HAS_TIES: Verdict.DEGENERATE_TIES,
    MonotonicityClass.NON_MONOTONE: Verdict.INCONCLUSIVE_NON_MONOTONE,
}


@_record
class CriterionReport:
    """Outcome of the criterion with its supporting evidence.

    ``chains_exchanged`` records that the increasing-slope path was taken, in
    which case the exchanged-order chain plays the upper role.  A positive
    verdict certifies simplicity only; whether the pair is connection-free is
    a separate, measure-one hypothesis, so ``connection_check_advised`` asks
    the caller to probe rational samples with ``find_connections``.
    ``diagram`` is the suspension the verdict was decided on.
    """

    monotonicity: MonotonicityClass
    simple: bool
    positivity: PositivityClass
    verdict: Verdict
    witness: Witness | None
    chains_exchanged: bool
    connection_check_advised: bool
    diagram: SuspensionDiagram

    def __post_init__(self) -> None:
        if self.verdict is Verdict.POSITIVE_PAIR_BY_LEMMA:
            assert self.monotonicity is MonotonicityClass.STRICTLY_DECREASING and self.simple
        if self.verdict is Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA:
            assert self.monotonicity is MonotonicityClass.STRICTLY_INCREASING and self.simple


def _classify_slopes(widths: Sequence[int], heights: Sequence[int]) -> MonotonicityClass:
    """Classify the slopes Y_i / X_i of integer vectors, every width X_i > 0.

    kappa_i - kappa_{i+1} has the sign of Y_i X_{i+1} - Y_{i+1} X_i, and a
    common positive scale of the widths, or of the heights, changes no sign.
    """
    signs = {
        _sign(y0 * x1 - y1 * x0)
        for x0, y0, x1, y1 in zip(widths, heights, widths[1:], heights[1:])
    }
    if 0 in signs:
        return MonotonicityClass.HAS_TIES
    if signs <= {1}:
        return MonotonicityClass.STRICTLY_DECREASING
    if signs == {-1}:
        return MonotonicityClass.STRICTLY_INCREASING
    return MonotonicityClass.NON_MONOTONE


def slope_monotonicity(a: Sequence[ScalarLike], b: Sequence[ScalarLike]) -> MonotonicityClass:
    """Exact classification of the slope sequence b_i / a_i.

    A single slope counts as strictly decreasing (the vacuous case).

    >>> slope_monotonicity([1, 1, 1], [1, 0, -1])
    <MonotonicityClass.STRICTLY_DECREASING: 'StrictlyDecreasing'>
    """
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} lengths vs {len(b)} heights")
    _, widths = _scaled(_positive_lengths(a))
    _, heights = _scaled([as_scalar(v) for v in b])
    return _classify_slopes(widths, heights)


def convexity_criterion(
    sigma: Permutation, a: Sequence[ScalarLike], b: Sequence[ScalarLike]
) -> CriterionReport:
    """Run the full pipeline: slopes, exact intersection test, sign of the profile.

    Strictly decreasing slopes yield ``PositivePairByLemma``; strictly
    increasing ones yield ``PositivePairByMirroredLemma`` with the chain roles
    exchanged (the union of the chains, hence the intersection test, is the
    same either way; the exchange concerns which chain is regarded as upper).
    Ties are never certified, and non-monotone data gets an inconclusive
    verdict because the criterion is sufficient only.  The verdict is the
    one ``scan_curve`` decides; the report adds the intersection test for
    every class and the profile's signs.  This is the only code that raises
    ``LemmaViolation``: a scan sample whose sweep finds a contact calls it.
    """
    if not is_irreducible(sigma):
        raise ReduciblePermutation(f"{sigma} splits at an invariant prefix")
    if sigma.d < 2:
        raise InvalidSize("the criterion needs at least two symbols")
    diagram = build_suspension(sigma, a, b)
    denom, steps, top, bottom, _ = diagram._integers
    monotonicity = _classify_slopes(*steps)
    verdict = _VERDICTS[monotonicity]
    witness = _witness(denom, top, bottom)
    positive = verdict in _POSITIVE_VERDICTS
    if positive and witness is not None:
        direction = "decreasing" if verdict is Verdict.POSITIVE_PAIR_BY_LEMMA else "increasing"
        raise LemmaViolation(
            f"{direction} slopes but self-intersecting curve: {sigma}, "
            f"a={diagram.lengths}, b={diagram.heights}, witness={witness}"
        )
    # In field order; passing the eight fields by keyword costs about 0.4 us.
    return CriterionReport(
        monotonicity,
        witness is None,
        pointwise_positive(diagram),
        verdict,
        witness,
        monotonicity is MonotonicityClass.STRICTLY_INCREASING,
        positive,
        diagram,
    )


def mahler_curve(d: int, s: ScalarLike) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The power curve a_i = s^i with derivative b_i = i s^(i-1); slopes i/s.

    One running product gives both: a_i = a_(i-1) s and b_i = a_(i-1) i,
    from a_0 = 1, so each power costs one multiplication of the previous
    one instead of a fresh s^i.

    >>> mahler_curve(3, 2)
    ((Fraction(2, 1), Fraction(4, 1), Fraction(8, 1)), (Fraction(1, 1), Fraction(4, 1), Fraction(12, 1)))
    """
    if d < 2:
        raise InvalidSize("need at least two symbols")
    s = as_scalar(s)
    if s <= 0:
        raise NonPositiveParameter(f"curve parameter {_quoted(s, str)} is not positive")
    a, b = [], []
    power = Fraction(1)
    for i in range(1, d + 1):
        b.append(power * i)
        power *= s
        a.append(power)
    return tuple(a), tuple(b)


@_record
class CurveSpec:
    """A polynomial curve s -> a(s): row i holds the coefficients of a_i(s),
    constant term first.  Heights come from the exact symbolic derivative."""

    d: int
    coeffs: tuple[tuple[Fraction, ...], ...]

    @_lazy
    def _integer_rows(self) -> tuple[int, int, tuple[list[int], ...]]:
        """``(longest, L, rows)``: ``longest`` is the length of the longest
        row, L the lcm of every coefficient denominator of the components and
        their derivatives, and ``rows`` holds a_1, ..., a_d and then their
        derivatives, each as its coefficients times L, highest degree first.
        A constant's derivative row is (0,)."""
        rows = (
            *self.coeffs,
            *([k * c for k, c in enumerate(row)][1:] or [Fraction(0)] for row in self.coeffs),
        )
        denom = math.lcm(*(c.denominator for row in rows for c in row))
        scaled = tuple([c.numerator * (denom // c.denominator) for c in row[::-1]] for row in rows)
        return max(len(row) for row in self.coeffs), denom, scaled


def curve_spec(rows: Sequence[Sequence[ScalarLike]]) -> CurveSpec:
    """Validate and freeze polynomial rows into a CurveSpec."""
    if not rows:
        raise InvalidSize("a curve needs at least one component")
    frozen = tuple(tuple(as_scalar(c) for c in row) for row in rows)
    if any(not row for row in frozen):
        raise InvalidSize("every component needs at least one coefficient")
    return CurveSpec(len(frozen), frozen)


def mahler_spec(d: int) -> CurveSpec:
    """CurveSpec rows for the power curve: row i is s^i."""
    if d < 2:
        raise InvalidSize("need at least two symbols")
    return CurveSpec(d, tuple((Fraction(0),) * i + (Fraction(1),) for i in range(1, d + 1)))


def _integer_point(spec: CurveSpec, s: Fraction) -> tuple[int, list[int]]:
    """``(M, values)``: a_1(s), ..., a_d(s) and then their derivatives at s,
    each times one positive scale M; raises DomainViolation naming the first
    a_i(s) <= 0.

    At s = p/q, homogeneous Horner sums a row of n + 1 coefficients c_k over
    L in integers, sum_k c_k p^k q^(n-k) = L q^n c(p/q).  Times
    q^(longest - 1 - n), every row is over M = L q^(longest - 1), so no
    ``Fraction`` is built and no gcd is taken.
    """
    p, q = s.numerator, s.denominator
    longest, denom, rows = spec._integer_rows
    q_powers = [1]
    for _ in range(longest - 1):
        q_powers.append(q_powers[-1] * q)
    values = []
    for row in rows:
        acc = 0
        for c, q_k in zip(row, q_powers):
            acc = acc * p + c * q_k
        values.append(acc * q_powers[longest - len(row)])
    scale = denom * q_powers[-1]
    for i, v in enumerate(values[: spec.d], start=1):
        if v <= 0:
            value = _quoted(Fraction(v, scale), str)
            raise DomainViolation(f"component {i} is {value} at s = {_quoted(s, str)}")
    return scale, values


def curve_point(
    spec: CurveSpec, s: ScalarLike
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Evaluate (a(s), da/ds(s)) exactly; raises DomainViolation off the domain.

    The components and derivatives are the integers of a scan sample, each
    over one positive scale, so a component is off the domain exactly when
    its integer is <= 0; only here do they become ``Fraction``s.
    """
    scale, values = _integer_point(spec, as_scalar(s))
    point = tuple(Fraction(v, scale) for v in values)
    return point[: spec.d], point[spec.d :]


def _sample_verdict(spec: CurveSpec, sigma: Permutation, s: Fraction) -> Verdict:
    """The verdict ``convexity_criterion`` gives at s, decided on integers.

    Every width and height of ``_integer_point`` has the same positive scale,
    so the slope class and the signs of the vertex sweep are those of the
    diagram at s.  A contact found by the sweep at monotone slopes is handed
    to ``convexity_criterion`` at the ``Fraction`` point, which raises
    LemmaViolation, or InvalidSize for one symbol, whose sweep reports the
    two coinciding chains.  Should the criterion return instead, the two
    sweeps disagree, and the sample raises AssertionError.
    """
    _, values = _integer_point(spec, s)
    widths, heights = values[: sigma.d], values[sigma.d :]
    verdict = _VERDICTS[_classify_slopes(widths, heights)]
    if verdict not in _POSITIVE_VERDICTS:
        return verdict
    top, bottom, _ = _chains(sigma, widths, heights)
    if _first_contact(top, bottom) is None:
        return verdict
    convexity_criterion(sigma, *curve_point(spec, s))
    raise AssertionError(f"the vertex sweep found a contact at s = {s} that the criterion does not")


@_record
class ScanSummary:
    """The verdict at every grid point, with per-verdict sample fractions and
    the exceptional samples (everything that did not certify) as (s, verdict)
    pairs derived from them."""

    verdicts: tuple[Verdict, ...]
    grid: tuple[Fraction, ...]

    @property
    def samples(self) -> int:
        return len(self.grid)

    @property
    def exceptional(self) -> tuple[tuple[Fraction, Verdict], ...]:
        return tuple(
            (s, v) for s, v in zip(self.grid, self.verdicts) if v not in _POSITIVE_VERDICTS
        )

    @property
    def verdict_fractions(self) -> dict[Verdict, Fraction]:
        return {v: Fraction(n, self.samples) for v, n in Counter(self.verdicts).items()}


def scan_curve(
    spec: CurveSpec, sigma: Permutation, s_grid: Sequence[ScalarLike]
) -> ScanSummary:
    """Decide the criterion's verdict at every grid point of a polynomial curve family.

    Grid points (typically floats) are rationalized exactly first, so each
    sample's verdict carries exact-arithmetic certainty at that s.  Each
    sample decides its verdict only, as ``convexity_criterion`` would: the
    intersection test runs for monotone slopes alone, and no profile is built.
    A sample is decided on the integers of its Horner sums, so one that
    certifies or not builds no ``Fraction`` and no diagram; only a sample
    whose vertex sweep finds a contact runs the criterion itself, which
    raises the error.
    """
    if not is_irreducible(sigma):
        raise ReduciblePermutation(f"{sigma} splits at an invariant prefix")
    if spec.d != sigma.d:
        raise DimensionMismatch(f"curve has {spec.d} components for {sigma.d} symbols")
    grid = tuple(as_scalar(s) for s in s_grid)
    if not grid:
        raise InvalidBound("empty sample grid")
    return ScanSummary(tuple(_sample_verdict(spec, sigma, s) for s in grid), grid)
