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

Orbit loops take k steps per lookup.  ``_blocks`` refines a sorted integer
partition into its k-step partition, cut at every T^(-t)(p) with 0 <= t < k;
on each of its pieces the next k pieces visited are fixed, so the piece moves
by one k-step shift.  k is a power of two and the table is built by squaring:
the 2h-step table is the h-step table with each piece's h-image cut at the
same table's cuts.  Of each squaring the table keeps one level, two index
lists that name each piece's two h-step halves, and none of the smaller
tables' cuts or moves.  The loops read their per-piece data off the levels
instead of replaying k steps: coding words are built up the levels, each the
first half's word followed by the second half's (``_words``), and a walk's
visits per table piece go down the levels to both halves (``_expand``).  A
break's connection hits need no table data: they are its first k preimages,
found by stepping back through the image pieces.  ``_block_length`` derives k
from the loop's work and the partition's size: the table has at most k times
as many pieces and costs about k visits per piece to build and read, so k is
the largest power of two with k * pieces at most 1/32 of the work, at most
32, and with k * pieces at most 2^17, which bounds the table's memory.  Below
k = 2 the loop is the plain one, one lookup per step.

Over one denominator the exchange is a bijection of the finite set of
integers in [0, total), so every orbit is purely periodic.  The one counting
walk, ``_visits``, counts the visits per piece of a sorted partition whose
pieces each lie in one exchanged interval.  Every shift is a multiple of the
gcd g of the exchange's breaks, so an orbit stays on one residue class mod g
and returns within total // g steps; the table is sized by the smaller of
that bound and the walk's length.  ``_walk`` counts visits per table piece
and, once at the end, ``_expand`` pushes them down the levels, so no
itinerary is stored or replayed.  It tests for the first return at block
ends, so it sees a return after p steps at L = lcm(p, k), and counts n steps
as q blocks of L plus one rerun of the first n mod L steps, which cannot
return early.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import (
    DimensionMismatch,
    InvalidBound,
    NonPositiveLength,
    OutOfDomain,
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
    A Fraction comes back as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise OutOfDomain(f"non-finite scalar {value!r}")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise OutOfDomain(f"malformed scalar {value!r}")
    if isinstance(value, Decimal) and value.is_finite():
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if abs(value.as_tuple().exponent) > limit:
            raise OutOfDomain(f"malformed scalar {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise OutOfDomain(f"malformed scalar {value!r}") from exc


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

    @cached_property
    def _integers(self) -> tuple[int, list[int], list[int], list[int]]:
        """``(D, top, bottom, shifts)``: disc_top, disc_bottom and the
        translations as integers over D, the lcm of the length denominators."""
        denom, scaled = _scaled(self.lengths)
        sums = _sums(self.sigma, scaled)
        # Omega is antisymmetric, so the row vector a Omega is -(Omega a^T).
        shifts = [-v for v in _omega_times(self.sigma, sums)]
        return denom, sums[0][1:], sums[1][1:], shifts

    @cached_property
    def disc_top(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._integers[0]) for v in self._integers[1])

    @cached_property
    def disc_bottom(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._integers[0]) for v in self._integers[2])

    @cached_property
    def translations(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._integers[0]) for v in self._integers[3])

    @cached_property
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
    lengths = tuple(as_scalar(v) for v in a)
    for i, v in enumerate(lengths, start=1):
        if v <= 0:
            raise NonPositiveLength(f"a_{i} = {v} is not positive")
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
        raise OutOfDomain(f"{x} outside [0, {t.total})")


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


# A k-step table costs about k visits per piece of the partition to build
# and to read, and may cost at most a 1/_TABLE_SHARE share of the steps of
# the loop it serves; longer blocks than _MAX_BLOCK gain little and cost
# memory.  Both constants come from a k sweep on the benchmark's orbits.  At
# 200,000 steps the 20-piece coding and connection loops and the 83-piece
# frequency walk were fastest at k = 24 to 48 and slower at 64 and 128, and
# any share from 1/20 to 1/75 gives all three k = 32.  A walk that returns
# after p steps sees the return only after lcm(p, k) steps: the golden
# rotation's 65-piece walk, which returns after 2,584 steps, was faster at
# k = 8, which divides 2,584, and slower at k = 3, which does not; a share
# of 1/20 or less keeps it at k = 1.  k is rounded down to a power of two,
# which ``_blocks`` builds by squaring alone: at 20,000 steps the 20-piece
# loops took 1.3 to 1.7 ms at k = 16 against 2.0 to 3.0 ms at k = 31.  A
# table has at most k times the partition's pieces, and k is capped so that
# this is at most _MAX_TABLE_PIECES, which bounds its memory whatever the
# refinement asked for.
_TABLE_SHARE = 32
_MAX_BLOCK = 32
_MAX_TABLE_PIECES = 1 << 17


def _block_length(work: int, pieces: int) -> int:
    """Steps per lookup for a loop of ``work`` steps over ``pieces`` pieces.

    >>> _block_length(200_000, 20), _block_length(200_000, 83), _block_length(2584, 65)
    (32, 32, 1)
    >>> _block_length(20_000, 20), _block_length(20_000, 83), _block_length(2_000, 20)
    (16, 4, 2)

    A walk over 30,000 cells and four intervals keeps a table of at most
    2^17 pieces, however long it is; without the cap, k would be 32.

    >>> _block_length(10**9, 30_003), _block_length(10**9, 1 << 17)
    (4, 1)
    """
    k = min(_MAX_BLOCK, _MAX_TABLE_PIECES // pieces, work // (_TABLE_SHARE * pieces))
    return 1 << max(k.bit_length() - 1, 0)


class _Table(NamedTuple):
    """A k-step partition of [0, total): gap i of ``cuts``, with 0 in front,
    moves by ``moves[i]`` in k steps.

    ``levels`` holds one (first, second) pair per squaring, top level first,
    and is empty at k = 1: piece i of the 2h-step table is h-step piece
    ``first[i]`` whose h-image starts in h-step piece ``second[i]``.
    """

    cuts: list[int]
    moves: list[int]
    k: int
    levels: list[tuple[list[int], list[int]]]


def _square(cuts: list[int], shifts: list[int], total: int) -> tuple[list[int], ...]:
    """The table of T^(2h) from that of T^h, as (cuts, moves, first, second):
    each piece is cut where its h-image crosses a cut, one visit per piece
    and per new piece."""
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


def _blocks(points: list[int], shift: list[int], total: int, k: int) -> _Table:
    """The k-step table of [0, total) cut at the sorted integers ``points``,
    for k a power of two.

    Gap j of ``points`` moves by ``shift[j]`` and lies in one exchanged
    interval.  The table's cuts are every T^(-t)(p) with p in points and
    0 <= t < k, sorted, and gap i of them moves by moves[i] in k steps.  It
    is built by squaring: T^(2h) is T^h taken twice, O(k * pieces) piece
    visits in all.  Of each smaller table only the two index lists of the
    squaring are kept; k = 1 gives the partition itself.

    >>> _blocks([1], [1, -1], 2, 2)
    _Table(cuts=[1], moves=[0, 0], k=2, levels=[([0, 1], [1, 0])])
    """
    cuts, moves, levels = points, shift, []
    for _ in range(k.bit_length() - 1):
        cuts, moves, first, second = _square(cuts, moves, total)
        levels.append((first, second))
    return _Table(cuts, moves, k, levels[::-1])


def _table(points: list[int], shift: list[int], total: int, work: int) -> _Table:
    """The k-step table for a loop of ``work`` steps."""
    return _blocks(points, shift, total, _block_length(work, len(shift)))


def _words(table: _Table, pieces: int) -> list[tuple[int, ...]]:
    """Each piece's k-long coding word, for the table of the ``pieces``
    exchanged intervals themselves: interval j codes as j + 1, and each
    level up, a piece's word is its first half's word, then its second's."""
    words = [(j,) for j in range(1, pieces + 1)]
    for first, second in reversed(table.levels):
        words = [words[i] + words[j] for i, j in zip(first, second)]
    return words


def _expand(counts: list[int], table: _Table) -> list[int]:
    """Visits per table piece as visits per piece of the partition itself:
    each level down, a piece's visits go to both of its halves.  A lower
    level has first[-1] + 1 pieces, since every one of them starts a piece."""
    for first, second in table.levels:
        down = [0] * (first[-1] + 1)
        for i, j, c in zip(first, second, counts):
            if c:
                down[i] += c
                down[j] += c
        counts = down
    return counts


def _walk(points: list[int], shift: list[int], x: int, n: int, table: _Table) -> tuple[list[int], int]:
    """Visits per piece over n steps from x, and the point reached.

    Piece j is the j-th gap of the sorted ``points`` and moves by
    ``shift[j]``; ``table`` is their k-step table.  The walk looks up one
    table piece per k steps and tests for a return to x at block ends, so it
    sees a return after L = lcm(p, k) steps when the orbit returns after p;
    the counts are then q blocks of L plus one rerun of r steps,
    q, r = divmod(n, L), and the point reached is the end of that rerun.

    >>> _walk([1], [1, -1], 0, 5, _Table([1], [1, -1], 1, []))
    ([3, 2], 1)
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


def _visits(
    points: list[int], shift: list[int], breaks: list[int], x: int, marks: Sequence[int]
) -> Iterator[list[int]]:
    """Visits per gap of the sorted ``points`` over the first ``mark`` steps
    from x, yielded for each of the increasing ``marks`` in turn.

    Gap j moves by ``shift[j]`` and lies in one interval of the exchange
    whose scaled ``breaks`` end at the total.  One table serves the whole
    walk, sized by the last mark or the period bound total // gcd(breaks),
    whichever is smaller; the walk goes on from mark to mark.  Nothing is
    built before the first count is asked for.

    >>> list(_visits([1], [1, -1], [1, 2], 0, [1, 2, 5]))
    [[1, 0], [1, 1], [3, 2]]
    """
    total = breaks[-1]
    table = _table(points, shift, total, min(marks[-1], total // math.gcd(*breaks)))
    counts = [0] * len(shift)
    for done, mark in zip([0, *marks], marks):
        steps, x = _walk(points, shift, x, mark - done, table)
        counts = [c + s for c, s in zip(counts, steps)]
        yield counts


def orbit_coding(t: Iet, x0: ScalarLike, n: int) -> list[int]:
    """Interval indices (1-based) visited by x0 over n steps, computed exactly.

    Entry k is the piece containing the k-th iterate, starting with x0 itself;
    n = 0 gives the empty coding.  Each lookup in the k-step table adds the
    piece's k-long word; the last word is cut at n.
    """
    if n < 0:
        raise InvalidBound(f"negative step count {n}")
    x, total, breaks, trans = _scaled_ints(t, x0)
    points = breaks[:-1]
    table = _table(points, trans, total, n)
    cuts, moves, k, _ = table
    words = _words(table, len(trans))
    codes: list[int] = []
    for _ in range(-(-n // k)):
        p = bisect_right(cuts, x)
        codes += words[p]
        x += moves[p]
    del codes[n:]
    return codes


def find_connections(t: Iet, max_m: int) -> list[Connection]:
    """All (m, i, j) with T^m(x_i) = x_j, for interior breaks and 1 <= m <= max_m.

    Only the interior break points x_1..x_{d-1} qualify at either end; the
    endpoints 0 and |I| are excluded.  Every hit up to the bound is returned,
    sorted by (m, i, j).  A block of the k-step table covers T^m..T^(m+k-1)
    of x_i, the last one cut at max_m; T^t(y) = x_j with t < k makes y one
    of the first k preimages of x_j, which are found by stepping back
    through the image pieces, O((d - 1) * k) steps in all.
    """
    if max_m < 1:
        raise InvalidBound(f"max_m must be at least 1, got {max_m}")
    _, top, bottom, shifts = t._integers
    points = top[:-1]
    cuts, moves, k, _ = _table(points, shifts, top[-1], (t.d - 1) * max_m)
    # hits[y]: the (t, j) with T^t(y) = x_j and t < k.  T^(-1)(y) is y less
    # the shift of the piece whose image holds y, as in ``apply_inverse``.
    hits: dict[int, list[tuple[int, int]]] = {}
    for j, y in enumerate(points, start=1):
        for step in range(k):
            hits.setdefault(y, []).append((step, j))
            y -= shifts[t.sigma.inverse[bisect_right(bottom, y)] - 1]
    found = []
    for i, x in enumerate(points, start=1):
        x += shifts[i]  # x_i starts piece i + 1
        for m in range(1, max_m + 1, k):
            for step, j in hits.get(x, ()):
                if m + step <= max_m:
                    found.append(Connection(m + step, i, j))
            x += moves[bisect_right(cuts, x)]
    found.sort(key=lambda c: (c.m, c.i, c.j))
    return found
