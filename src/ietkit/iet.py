"""The interval exchange transformation itself.

An exchange is specified by a permutation ``sigma`` and a positive length
vector ``a``.  The interval [0, sum(a)) is cut into half-open pieces
I_j = [x_{j-1}, x_j) at the partial sums x_j, and each piece is translated so
that the pieces stack in the order prescribed by sigma.  The translation of
I_j is x'_{sigma(j)} - x_j, the j-th entry of the row vector a Omega.
An exchange stores only (sigma, a), scaled once to integers over the lcm D of
the lengths' denominators: the break points and the translations, -Omega a^T,
are read off the same two partial-sum lists, the kernel that the chains and
the return profile of a suspension share, and divided by D when first read.

All dynamics here is exact: lengths are ``fractions.Fraction`` values and
points are compared by rational equality, never by tolerance.  A point x lies
in piece ``bisect_right(breaks, x)`` (0-based), which is the one lookup rule
used everywhere, whatever d.  Long orbits rescale every quantity to a common
denominator once and then iterate in plain integers, which is the same
arithmetic without per-step gcd work.

Orbit coding and the connection search read their results off one level
of a Rauzy–Veech induction, in ``ietkit.rauzy``, climbed as far as the
loop's work (n, or (d - 1) * max_m) needs against the nodes made.  Over one
denominator the exchange is a bijection of the finite set of integers in
[0, total), so every orbit is purely periodic, and the level's towers,
each a piece of [0, L) or a cylinder cut off, with its excursion, cover
[0, total).  T^t is a translation on a tower's base for every t below its
height, so a break is met only where a floor starts, and each tower
carries those floors as its hits.  A coding adds one node's word per
induced step, and a break's connections are the rest of its tower's hits,
then the hits of the towers whose bases the orbit lands on exactly, until
it is back on its own base after one period.  Orbit visits are counted by
the same induction.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DimensionMismatch,
    InvalidBound,
    NonPositiveLength,
    OutOfDomain,
    _lazy,
    _quoted,
    _record,
)
from .perm import Permutation, _omega_times, _scaled, _sums

__all__ = [
    "Scalar",
    "ScalarLike",
    "as_scalar",
    "Iet",
    "Connection",
    "build_iet",
    "apply",
    "apply_inverse",
    "image_partition",
    "orbit_coding",
    "find_connections",
]

# Exact rational scalar used by every predicate; floats are rationalized at the
# boundary (binary floats convert exactly) and never compared by tolerance.
Scalar = Fraction
ScalarLike = Union[Fraction, int, str, float]


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce to an exact rational; binary floats convert without rounding.

    Non-finite floats and malformed values ("abc", "1/0", None, a non-finite
    Decimal) raise OutOfDomain.  Strings with an exponent ("1e3") are malformed
    too: Fraction would build 10**exponent, which for "1e999999999999999999"
    never finishes.  For the same reason a Decimal whose exponent is larger in
    magnitude than ``sys.get_int_max_str_digits()`` (4300 where that limit is
    0 or missing) is malformed, whichever its sign and whatever its digits.
    The message quotes a rejected value whose repr has at most 100
    characters, and names a longer one by its type and length.  A Fraction
    comes back as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise OutOfDomain(f"non-finite scalar {value!r}")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise OutOfDomain(f"malformed scalar {_quoted(value)}")
    if isinstance(value, Decimal) and value.is_finite():
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if abs(value.as_tuple().exponent) > limit:
            raise OutOfDomain(f"malformed scalar {_quoted(value)}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise OutOfDomain(f"malformed scalar {_quoted(value)}") from exc


@_record
class Iet:
    """An interval exchange, built by :func:`build_iet`, which checks its inputs.

    Only ``sigma`` and ``lengths`` are stored; the other attributes are
    derived from ``_integers`` when first read.  ``disc_top`` holds x_1..x_d
    (right endpoints of the source intervals), ``disc_bottom`` holds
    x'_1..x'_d (right endpoints of the image intervals), and
    ``translations[j-1]`` is added to points of I_j.
    """

    sigma: Permutation
    lengths: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return self.sigma.d

    @_lazy
    def _integers(self) -> tuple[int, list[int], list[int], list[int]]:
        """``(D, top, bottom, shifts)``: disc_top, disc_bottom and the
        translations as integers over D, the lcm of the length denominators."""
        denom, scaled = _scaled(self.lengths)
        sums = _sums(self.sigma, scaled)
        # Omega is antisymmetric, so the row vector a Omega is -(Omega a^T).
        shifts = [-v for v in _omega_times(self.sigma, sums)]
        return denom, sums[0][1:], sums[1][1:], shifts

    @_lazy
    def disc_top(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._integers[0]) for v in self._integers[1])

    @_lazy
    def disc_bottom(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._integers[0]) for v in self._integers[2])

    @_lazy
    def translations(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._integers[0]) for v in self._integers[3])

    @_lazy
    def total(self) -> Fraction:
        return Fraction(self._integers[1][-1], self._integers[0])


@_record
class Connection:
    """A finite orbit segment joining two interior break points: T^m(x_i) = x_j."""

    m: int
    i: int
    j: int


def _positive_lengths(a: Sequence[ScalarLike]) -> tuple[Fraction, ...]:
    """The exact lengths, each checked positive: the package's one length check."""
    if not a:
        raise NonPositiveLength("empty length vector")
    lengths = tuple(map(as_scalar, a))
    for i, v in enumerate(lengths, start=1):
        if v.numerator <= 0:
            raise NonPositiveLength(f"a_{i} = {_quoted(v, str)} is not positive")
    return lengths


def _checked_lengths(sigma: Permutation, a: Sequence[ScalarLike]) -> tuple[Fraction, ...]:
    if len(a) != sigma.d:
        raise DimensionMismatch(f"{len(a)} lengths for {sigma.d} symbols")
    return _positive_lengths(a)


def build_iet(sigma: Permutation, a: Sequence[ScalarLike]) -> Iet:
    """Construct the exchange for (sigma, a); translations are -Omega a^T.

    >>> from ietkit.perm import validate_permutation
    >>> t = build_iet(validate_permutation([2, 1]), [1, 2])
    >>> t.translations
    (Fraction(2, 1), Fraction(-1, 1))
    """
    t = Iet(sigma, _checked_lengths(sigma, a))
    t._integers  # scaled here, so the kernel's check runs at construction
    return t


def _check_domain(t: Iet, x: Fraction) -> None:
    if not 0 <= x < t.total:
        raise OutOfDomain(f"{_quoted(x, str)} outside [0, {_quoted(t.total, str)})")


def apply(t: Iet, x: ScalarLike) -> Fraction:
    """Evaluate the exchange at x; points on a break belong to the right piece."""
    x = as_scalar(x)
    _check_domain(t, x)
    return x + t.translations[bisect_right(t.disc_top, x)]


def apply_inverse(t: Iet, y: ScalarLike) -> Fraction:
    """The unique x with apply(t, x) == y, found through the image partition."""
    y = as_scalar(y)
    _check_domain(t, y)
    source = t.sigma.inverse[bisect_right(t.disc_bottom, y)]
    return y - t.translations[source - 1]


def image_partition(t: Iet) -> list[tuple[tuple[Fraction, Fraction], int]]:
    """The image intervals in left-to-right order, tagged by source index.

    Returns ``[((left, right), j), ...]``: the image of I_j is [left, right).
    The pieces tile [0, total) exactly, which is the bijectivity witness.
    """
    ends = (Fraction(0), *t.disc_bottom)
    return [((ends[k], ends[k + 1]), j) for k, j in enumerate(t.sigma.inverse)]


def _scaled_ints(t: Iet, x0: ScalarLike) -> tuple[int, int, list[int], list[int]]:
    """Everything over one denominator: (x0, total, breaks, translations) as
    ints, once x0 is coerced and checked to lie in [0, total): the one entry
    of every orbit routine.  The exchange's integer form is over D, so the
    common denominator is D times the part of x0's denominator that D lacks."""
    x0 = as_scalar(x0)
    _check_domain(t, x0)
    denom, top, _, shifts = t._integers
    q = x0.denominator // math.gcd(denom, x0.denominator)
    breaks = [v * q for v in top]
    return x0.numerator * (denom * q // x0.denominator), breaks[-1], breaks, [v * q for v in shifts]


def orbit_coding(t: Iet, x0: ScalarLike, n: int) -> list[int]:
    """Interval indices (1-based) visited by x0 over n steps, computed exactly.

    Entry k is the piece containing the k-th iterate, starting with x0 itself;
    n = 0 gives the empty coding.  The coding is read off one Rauzy–Veech
    level, climbed as far as n needs (``ietkit.rauzy``), which takes the
    orbit onto the base of its tower, in [0, L) or in a cylinder, by at most
    two nodes a step.  Each node, on the way there and then at each induced
    step, adds its word; the last one is cut at n.
    """
    from .rauzy import _spell, _towers

    if n < 0:
        raise InvalidBound(f"negative step count {n}")
    x, total, breaks, trans = _scaled_ints(t, x0)
    L, starts, nodes, _, heights, moves, kids, x, entry = _towers(breaks[:-1], trans, total, n, x)
    codes: list[int] = []
    at: dict[int, int] = {}
    for s, times in entry:
        if len(codes) < n:
            _spell(codes, s, min(n - len(codes), times * heights[s]), heights, kids, at)
    while len(codes) < n:
        s = nodes[bisect_right(starts, x) - 1]
        h, p = heights[s], at.get(s)
        if p is not None and h <= n - len(codes):
            codes += codes[p : p + h]
        else:
            # A cylinder's orbit returns to x after each pass of its node.
            _spell(codes, s, n - len(codes) if x >= L else min(n - len(codes), h), heights, kids, at)
        x += moves[s]
    return codes


def find_connections(t: Iet, max_m: int) -> list[Connection]:
    """All (m, i, j) with T^m(x_i) = x_j, for interior breaks and 1 <= m <= max_m.

    Only the interior break points x_1..x_{d-1} qualify at either end; the
    endpoints 0 and |I| are excluded.  Every hit up to the bound is returned,
    sorted by (m, i, j).  They are read off one Rauzy–Veech level, climbed as
    far as (d - 1) * max_m steps need, max_m capped at the longest period
    (``ietkit.rauzy``): x_i lies where a floor of one tower starts, and
    meets breaks on the rest of that tower, then only where an induced step
    lands on a piece's start, until it is back at its tower's base, after
    one period, from which on the hits repeat.
    """
    from .rauzy import _towers

    if max_m < 1:
        raise InvalidBound(f"max_m must be at least 1, got {max_m}")
    _, top, _, shifts = t._integers
    total = top[-1]
    work = (t.d - 1) * min(max_m, total // math.gcd(*top))
    L, starts, nodes, hits, heights, moves = _towers(
        top[:-1], shifts, total, work, 0, [[]] + [[(0, j)] for j in range(1, t.d)])[:6]
    pieces = bisect_left(starts, L)
    floors = {i: (p, f) for p, tower in enumerate(hits) for f, i in tower}
    found = []
    for i in range(1, t.d):
        p, f = floors[i]
        base, tower, s = starts[p], hits[p], nodes[p]
        got = [(g - f, j) for g, j in tower if f < g <= f + max_m]
        # T^m(x_i) = y, on a base or in x_i's cylinder.
        m, y, period = heights[s] - f, base + moves[s], 0
        while m <= max_m:
            if y == base:
                # Back below x_i: its period ends on its own floor.
                got += [(m + g, j) for g, j in tower if g <= f and m + g <= max_m]
                period = m + f
                break
            q = bisect_right(starts, y, 0, pieces) - 1
            if y == starts[q]:
                got += [(m + g, j) for g, j in hits[q] if m + g <= max_m]
            s = nodes[q]
            y += moves[s]
            m += heights[s]
        # Each hit recurs every period; without one, it is found once.
        for m, j in got:
            found += [(k, i, j) for k in range(m, max_m + 1, period or max_m + 1)]
    found.sort()
    return [Connection(m, i, j) for m, i, j in found]
