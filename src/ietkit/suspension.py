"""Suspension polygons over an interval exchange, tested exactly for simplicity.

Each symbol i carries the plane vector (a_i, b_i) with slope
``kappa_i = b_i / a_i``.  Adding the vectors up in identity order gives the
top chain; adding them up in exchanged (sigma-inverse) order gives the bottom
chain.  Both run from the origin to the common endpoint sum((a_i, b_i)), and
their union is a closed curve.  When that curve is simple it bounds a polygon
whose vertical flow suspends the exchange, and the per-interval return time of
that flow is the profile L = Omega b^T.

Everything here is decided in exact rational arithmetic.  A diagram stores
only (sigma, a, b).  On first need the lengths and heights are scaled once to
integers over one common denominator D, the lcm of all their denominators,
and ``perm._sums`` adds each up in both orders: the x and y partial sums are
the two integer chains.  The return profile is read off the y sums only
when it is first read, so deciding simplicity computes no profile.  The
rational chains, the slopes and the profile are derived from that integer
state when first read; the slope signs and the profile's signs are read off
the integers directly.

Every a_i is positive, so both chains are graphs of piecewise-linear
functions over one interval that agree at its ends.  The curve is simple
exactly when the top chain lies strictly on one side of the bottom chain at
every interior vertex of either chain: 2(d - 1) integer cross products in
one left-to-right sweep that stops at the first zero or change of sign.
With d = 1 there is no interior vertex and the two chains coincide.  Where
the sweep stops, the leftmost contact lies in one top and one bottom
segment, and that pair is the first offender.  One exact relation of the
two integer segments is the witness, classified on the integers and with
each coordinate of its locus built once over D: an integer n as n / D, a
crossing coordinate n / m as n / (m D).  No epsilon appears anywhere.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .errors import DegenerateSegment, DimensionMismatch, _lazy, _record
from .iet import ScalarLike, _checked_lengths, as_scalar
from .perm import Permutation, _omega_times, _scaled, _sums

__all__ = [
    "Point",
    "SegmentClass",
    "SegmentRelation",
    "SuspensionDiagram",
    "IntersectionReport",
    "Witness",
    "PositivityClass",
    "build_suspension",
    "return_time_profile",
    "segment_relation",
    "self_intersects",
    "pointwise_positive",
]

Point = tuple[Fraction, Fraction]
_Coord = Union[Fraction, int]
_RawPoint = tuple[_Coord, _Coord]


class SegmentClass(Enum):
    DISJOINT = "Disjoint"
    PROPER_CROSSING = "ProperCrossing"
    ENDPOINT_TOUCH = "EndpointTouch"
    COLLINEAR_OVERLAP = "CollinearOverlap"


@_record
class SegmentRelation:
    """Exact relation of two closed segments.

    ``locus`` is the single contact point for crossings and touches, the pair
    of overlap endpoints for collinear overlaps, and None when disjoint.
    """

    classification: SegmentClass
    locus: _RawPoint | tuple[_RawPoint, _RawPoint] | None


@_record
class Witness:
    """A forbidden contact between two chain segments (indices are 1-based)."""

    chain_a: str
    index_a: int
    chain_b: str
    index_b: int
    relation: SegmentRelation


@_record
class IntersectionReport:
    simple: bool
    witness: Witness | None

    def __post_init__(self) -> None:
        assert self.simple == (self.witness is None)


_IntChain = list[tuple[int, int]]
_IntPair = tuple[list[int], list[int]]


def _sign(value: _Coord) -> int:
    return (value > 0) - (value < 0)


class PositivityClass(Enum):
    ALL_POSITIVE = "AllPositive"
    ALL_NEGATIVE = "AllNegative"
    MIXED = "Mixed"
    HAS_ZERO = "HasZero"


@_record
class SuspensionDiagram:
    """An exchange together with heights: vectors, slopes, chains, return profile.

    Construct through :func:`build_suspension`; the constructor itself does
    not re-check its inputs.  Only ``sigma``, ``lengths`` and ``heights`` are
    stored; every other attribute is derived from them when first read.
    ``top_chain`` lists the d+1 vertices reached by the identity-order
    concatenation, ``bottom_chain`` those of the exchanged-order one; the two
    share their first and last vertices.  ``first_slope_vs_bottom_first`` and
    ``first_slope_vs_bottom_last`` are the signs of kappa_1 minus the slope
    of, respectively, the first and the last bottom-chain segment.  Both
    comparisons are kept because either one may be used to decide which chain
    deserves to be called upper; this module takes no side.
    """

    sigma: Permutation
    lengths: tuple[Fraction, ...]
    heights: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return self.sigma.d

    @_lazy
    def _integers(self) -> tuple[int, _IntPair, _IntChain, _IntChain, _IntPair]:
        """``(D, (X, Y), top, bottom, y sums)``: each (a_i, b_i) is the step
        (X_i, Y_i) over D, the lcm of every length and height denominator, so
        every X_i is positive; a chain vertex (X, Y) stands for (X / D, Y / D),
        and the y sums are the chains' heights in both orders.  No profile is
        computed here: ``_profile`` reads it off the y sums when first needed."""
        denom, scaled = _scaled(self.lengths + self.heights)
        steps = scaled[: self.d], scaled[self.d :]
        top, bottom, y_sums = _chains(self.sigma, *steps)
        assert top[-1] == bottom[-1]
        return denom, steps, top, bottom, y_sums

    @_lazy
    def _profile(self) -> list[int]:
        """Omega b, each entry over D."""
        return _omega_times(self.sigma, self._integers[4])

    @_lazy
    def top_chain(self) -> tuple[Point, ...]:
        denom, _, top, _, _ = self._integers
        return tuple(_over(pt, denom) for pt in top)

    @_lazy
    def bottom_chain(self) -> tuple[Point, ...]:
        denom, _, _, bottom, _ = self._integers
        return tuple(_over(pt, denom) for pt in bottom)

    @_lazy
    def return_profile(self) -> tuple[Fraction, ...]:
        denom = self._integers[0]
        return tuple(Fraction(v, denom) for v in self._profile)

    @_lazy
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(h / a for a, h in zip(self.lengths, self.heights))

    def _first_slope_vs(self, j: int) -> int:
        """sign(kappa_1 - kappa_j) = sign(Y_1 X_j - Y_j X_1), as X_1, X_j > 0."""
        xs, ys = self._integers[1]
        return _sign(ys[0] * xs[j - 1] - ys[j - 1] * xs[0])

    @_lazy
    def first_slope_vs_bottom_first(self) -> int:
        return self._first_slope_vs(self.sigma.inverse[0])

    @_lazy
    def first_slope_vs_bottom_last(self) -> int:
        return self._first_slope_vs(self.sigma.inverse[-1])


def _chains(
    sigma: Permutation, xs: Sequence[int], ys: Sequence[int]
) -> tuple[_IntChain, _IntChain, _IntPair]:
    """The integer top and bottom chains of the vectors (xs[i], ys[i]), and
    the y sums in both orders."""
    x_top, x_bottom = _sums(sigma, xs)
    y_sums = _sums(sigma, ys)
    return list(zip(x_top, y_sums[0])), list(zip(x_bottom, y_sums[1])), y_sums


def _checked_heights(sigma: Permutation, b: Sequence[ScalarLike]) -> tuple[Fraction, ...]:
    if len(b) != sigma.d:
        raise DimensionMismatch(f"{len(b)} heights for {sigma.d} symbols")
    return tuple(map(as_scalar, b))


def return_time_profile(sigma: Permutation, b: Sequence[ScalarLike]) -> tuple[Fraction, ...]:
    """The vector Omega b^T of per-interval return times.

    Computed in integers scaled to the common denominator of b, by the same
    O(d) kernel that gives an exchange its translations.

    >>> from ietkit.perm import validate_permutation
    >>> return_time_profile(validate_permutation([3, 2, 1]), [1, 0, -1])
    (Fraction(1, 1), Fraction(2, 1), Fraction(1, 1))
    """
    denom, scaled = _scaled(_checked_heights(sigma, b))
    return tuple(Fraction(v, denom) for v in _omega_times(sigma, _sums(sigma, scaled)))


def build_suspension(
    sigma: Permutation, a: Sequence[ScalarLike], b: Sequence[ScalarLike]
) -> SuspensionDiagram:
    """Validate (sigma, a, b) and wrap it as a diagram."""
    return SuspensionDiagram(sigma, _checked_lengths(sigma, a), _checked_heights(sigma, b))


def _orient(o: _RawPoint, p: _RawPoint, q: _RawPoint) -> _Coord:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _in_box(s0: _RawPoint, s1: _RawPoint, pt: _RawPoint) -> bool:
    return (
        min(s0[0], s1[0]) <= pt[0] <= max(s0[0], s1[0])
        and min(s0[1], s1[1]) <= pt[1] <= max(s0[1], s1[1])
    )


def segment_relation(
    p0: _RawPoint, p1: _RawPoint, q0: _RawPoint, q1: _RawPoint
) -> SegmentRelation:
    """Classify two closed segments exactly via orientation tests.

    Coordinates may be rationals or integers; the verdict is tolerance-free
    either way.  Crossing points come back as exact rationals: at the
    parameter t = num / den along p, each coordinate is the one fraction
    (p0 den + num dp) / den, normalised once.  Touch and overlap points are
    returned as given.

    >>> segment_relation((0, 0), (1, 1), (0, 1), (1, 0)).classification
    <SegmentClass.PROPER_CROSSING: 'ProperCrossing'>
    >>> segment_relation((0, 0), (2, 0), (1, 0), (3, 0)).locus
    ((1, 0), (2, 0))
    """
    return _segment_relation(p0, p1, q0, q1, None)


def _over(pt: _RawPoint, scale: int | None) -> _RawPoint:
    """pt as given, or with each coordinate divided by scale as one ``Fraction``."""
    if scale is None:
        return pt
    return Fraction(pt[0], scale), Fraction(pt[1], scale)


def _segment_relation(
    p0: _RawPoint, p1: _RawPoint, q0: _RawPoint, q1: _RawPoint, scale: int | None
) -> SegmentRelation:
    """``segment_relation``, with every locus coordinate divided by a positive
    ``scale`` unless it is None.

    The one classification of the package: the public function takes scale
    None, and a witness takes the common denominator D of its integer chains.
    A crossing coordinate (p0 den + num dp) / den is then built as the one
    ``Fraction`` of that numerator over den D, and a touch or overlap
    coordinate n as n / D, so no ``Fraction`` is divided again.
    """
    if p0 == p1 or q0 == q1:
        raise DegenerateSegment("segment endpoints coincide")
    o1 = _orient(p0, p1, q0)
    o2 = _orient(p0, p1, q1)
    o3 = _orient(q0, q1, p0)
    o4 = _orient(q0, q1, p1)

    if o1 == 0 and o2 == 0:
        # All four points on one line; compare along the dominant axis of p.
        axis = 0 if abs(p1[0] - p0[0]) >= abs(p1[1] - p0[1]) else 1
        lo = max(min(p0[axis], p1[axis]), min(q0[axis], q1[axis]))
        hi = min(max(p0[axis], p1[axis]), max(q0[axis], q1[axis]))
        if lo > hi:
            return SegmentRelation(SegmentClass.DISJOINT, None)
        corners = (p0, p1, q0, q1)
        at_lo = _over(next(pt for pt in corners if pt[axis] == lo), scale)
        if lo == hi:
            return SegmentRelation(SegmentClass.ENDPOINT_TOUCH, at_lo)
        at_hi = _over(next(pt for pt in corners if pt[axis] == hi), scale)
        return SegmentRelation(SegmentClass.COLLINEAR_OVERLAP, (at_lo, at_hi))

    if o1 and o2 and o3 and o4 and (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0):
        dpx, dpy = p1[0] - p0[0], p1[1] - p0[1]
        dqx, dqy = q1[0] - q0[0], q1[1] - q0[1]
        num = (q0[0] - p0[0]) * dqy - (q0[1] - p0[1]) * dqx
        den = dpx * dqy - dpy * dqx
        over = den if scale is None else den * scale
        locus = (Fraction(p0[0] * den + num * dpx, over), Fraction(p0[1] * den + num * dpy, over))
        return SegmentRelation(SegmentClass.PROPER_CROSSING, locus)

    for oz, pt, s0, s1 in ((o1, q0, p0, p1), (o2, q1, p0, p1), (o3, p0, q0, q1), (o4, p1, q0, q1)):
        if oz == 0 and _in_box(s0, s1, pt):
            return SegmentRelation(SegmentClass.ENDPOINT_TOUCH, _over(pt, scale))
    return SegmentRelation(SegmentClass.DISJOINT, None)


def _first_contact(top: _IntChain, bottom: _IntChain) -> tuple[int, int] | None:
    """The top and bottom segment (1-based) that hold the leftmost contact of
    the two chains away from their shared ends, or None if there is none.

    Both chains are graphs over [0, X] of piecewise-linear functions T and B
    with T = B at 0 and X, and T - B is linear between consecutive vertex
    x-coordinates of the two chains taken together.  So the chains meet
    nowhere else exactly when T - B has one strict sign at every interior
    vertex of both chains.  The vertices are visited left to right, a top
    vertex first on a tie; each is tested against the segment of the other
    chain whose closed x-range holds it, by one cross product whose sign is
    that of T - B there.  At the first zero or change of sign the leftmost
    contact lies after the previous vertex and no later than this one, so in
    the top segment i and bottom segment j that the sweep is in.  A zero
    at the very first vertex means T - B vanishes on the whole first piece:
    the two first segments overlap.  With one symbol there is no interior
    vertex and the chains coincide, so the pair is (1, 1).

    >>> _first_contact([(0, 0), (1, 1), (3, 0)], [(0, 0), (2, -1), (3, 0)]) is None
    True
    >>> _first_contact([(0, 0), (1, 1), (3, 0)], [(0, 0), (2, 1), (3, 0)])
    (2, 1)
    >>> _first_contact([(0, 0), (2, 0)], [(0, 0), (2, 0)])
    (1, 1)
    """
    d = len(top) - 1
    i = j = 1
    above = None
    # The ends of top segment i, (tx0, ty0)-(tx1, ty1), and of bottom segment j.
    (tx0, ty0), (tx1, ty1) = top[0], top[1]
    (bx0, by0), (bx1, by1) = bottom[0], bottom[1]
    while i < d or j < d:
        # A vertex against the other chain's segment, by one cross product
        # signed so that gap > 0 where the top chain is above.
        on_top = j == d or (i < d and tx1 <= bx1)
        if on_top:
            gap = (bx1 - bx0) * (ty1 - by0) - (by1 - by0) * (tx1 - bx0)
        else:
            gap = (ty1 - ty0) * (bx1 - tx0) - (tx1 - tx0) * (by1 - ty0)
        if gap == 0 or (above is not None and (gap > 0) != above):
            return i, j
        above = gap > 0
        if on_top:
            i += 1
            tx0, ty0 = tx1, ty1
            tx1, ty1 = top[i]
        else:
            j += 1
            bx0, by0 = bx1, by1
            bx1, by1 = bottom[j]
    return None if above is not None else (1, 1)


def _witness(denom: int, top: _IntChain, bottom: _IntChain) -> Witness | None:
    """The first offender of the integer chains over D, with its exact locus,
    or None when their union is a simple curve; ``self_intersects`` explains
    why the one pair that ``_first_contact`` names is the first offender.  A
    named pair that shows no contact raises ``AssertionError``."""
    pair = _first_contact(top, bottom)
    if pair is None:
        return None
    i, j = pair
    rel = _segment_relation(top[i - 1], top[i], bottom[j - 1], bottom[j], denom)
    if rel.classification is SegmentClass.DISJOINT:
        raise AssertionError("the vertex signs found a contact that no segment pair shows")
    return Witness("top", i, "bottom", j, rel)


def self_intersects(diagram: SuspensionDiagram) -> IntersectionReport:
    """Decide whether the union of the two chains is a simple closed curve.

    Permitted contacts, and nothing else: the shared start point between the
    two first segments, the shared end point between the two last segments,
    and the shared vertex between consecutive segments of one chain.  Any
    other touch, any proper crossing, and any collinear overlap defeats
    simplicity; the first offending pair (in top-then-bottom, left-to-right
    order) is reported with its exact locus.

    Precondition: both chains are strictly x-monotone, which holds for every
    diagram from ``build_suspension`` because every a_i is positive.  Then
    two segments of one chain meet only at a shared vertex, and the curve is
    simple exactly when the top chain lies strictly on one side of the
    bottom chain at every interior vertex of either chain, which
    ``_first_contact`` decides with at most 2(d - 1) sign tests.  A simple
    curve is reported from those signs alone.

    Otherwise the sweep names top segment i and bottom segment j, which
    hold the leftmost contact.  No earlier top segment meets the bottom
    chain, and top segment i meets no earlier bottom segment, so (i, j) is
    the first offender, and one classification of the pair gives its class
    and locus.  It is never the pair (d, d) of the permitted end contact,
    and it is (1, 1) only for an overlap.  A named pair that shows no
    contact raises ``AssertionError``.

    The tests run on the diagram's integer chains, both axes scaled by one
    common denominator D.  Scaling both axes by the same positive factor
    keeps the sign of every orientation test, the crossing parameter and
    the dominant axis along which ``segment_relation`` orders an overlap's
    ends.  So the classification and the first offender are those of the
    rational chains, and the witness is the integer relation with every
    coordinate divided by D.  The classification does that division
    itself: each locus coordinate is built once, as one ``Fraction``
    n / (m D) for a crossing coordinate n / m and n / D for an integer
    one.  ``convexity_criterion`` takes the same witness from the same
    integers, without this report.
    """
    denom, _, top, bottom, _ = diagram._integers
    witness = _witness(denom, top, bottom)
    return IntersectionReport(witness is None, witness)


def pointwise_positive(diagram: SuspensionDiagram) -> PositivityClass:
    """Sign classification of the return profile; a zero anywhere wins.

    The signs are read off the integer profile, whose common denominator is
    positive, so no ``Fraction`` is built; its minimum and maximum decide
    the two sign-definite classes.
    """
    profile = diagram._profile
    if min(profile) > 0:
        return PositivityClass.ALL_POSITIVE
    if max(profile) < 0:
        return PositivityClass.ALL_NEGATIVE
    return PositivityClass.HAS_ZERO if 0 in profile else PositivityClass.MIXED
