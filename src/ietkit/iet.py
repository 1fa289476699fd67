"""The interval exchange transformation itself.

An exchange is specified by a permutation ``sigma`` and a positive length
vector ``a``.  The interval [0, sum(a)) is cut into half-open pieces
I_j = [x_{j-1}, x_j) at the partial sums x_j, and each piece is translated so
that the pieces stack in the order prescribed by sigma.  The translation of
I_j is x'_{sigma(j)} - x_j, the j-th entry of the row vector a Omega.
Construction scales the lengths to integers once; both sets of break points
and the translations, -Omega a^T, are read off the same two partial-sum lists,
the kernel that the chains and the return profile of a suspension share.

All dynamics here is exact: lengths are ``fractions.Fraction`` values and
points are compared by rational equality, never by tolerance.  A point x lies
in piece ``bisect_right(breaks, x)`` (0-based), which is the one lookup rule
used everywhere, whatever d.  Long orbits rescale every quantity to a common
denominator once and then iterate in plain integers, which is the same
arithmetic without per-step gcd work.

Orbit loops take k steps per lookup.  ``_blocks`` refines a sorted integer
partition into its k-step partition, cut at every T^(-t)(p) with 0 <= t < k;
on each of its pieces the next k pieces visited are fixed, so the piece moves
by one k-step shift.  It composes tables by binary powering: the (a+b)-step
table is the a-step table with each piece's a-image cut at the b-step
table's cuts, and each piece records its two halves.  The loops read their
per-piece data off those halves instead of replaying k steps: a coding word
is the a-word followed by the b-word, and a piece's connection hits are its
a-hits and the b-hits of its a-image.  ``_block_length`` derives k from the
loop's work and the partition's size: the table has at most k times as many
pieces and costs about k visits per piece to build and read, so k is the
largest power of two with k * pieces at most 1/32 of the work, at most 32,
and with k * pieces at most 2^17, which bounds the table's memory.  Below
k = 2 the loop is the plain one, one lookup per step.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import (
    DimensionMismatch,
    InvalidBound,
    NonPositiveLength,
    OutOfDomain,
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


@dataclass(frozen=True)
class Iet:
    """An interval exchange with its precomputed break points and translations.

    ``disc_top`` holds x_1..x_d (right endpoints of the source intervals),
    ``disc_bottom`` holds x'_1..x'_d (right endpoints of the image intervals),
    and ``translations[j-1]`` is added to points of I_j.
    """

    sigma: Permutation
    lengths: tuple[Fraction, ...]
    disc_top: tuple[Fraction, ...]
    disc_bottom: tuple[Fraction, ...]
    translations: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return self.sigma.d

    @property
    def total(self) -> Fraction:
        return self.disc_top[-1]


@dataclass(frozen=True)
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
    lengths = _checked_lengths(sigma, a)
    denom, scaled = _scaled(lengths)
    sums = _sums(sigma, scaled)
    disc_top, disc_bottom = (tuple(Fraction(x, denom) for x in part[1:]) for part in sums)
    # Omega is antisymmetric, so the row vector a Omega is -(Omega a^T).
    translations = tuple(Fraction(-v, denom) for v in _omega_times(sigma, sums))
    return Iet(sigma, lengths, disc_top, disc_bottom, translations)


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
    out = []
    left = Fraction(0)
    for k in range(1, t.d + 1):
        right = t.disc_bottom[k - 1]
        out.append(((left, right), t.sigma.inverse[k - 1]))
        left = right
    return out


def _scaled_ints(t: Iet, x0: Fraction) -> tuple[int, int, list[int], list[int]]:
    """Everything over one denominator: (x0, total, breaks, translations) as ints."""
    _, ints = _scaled([x0, *t.disc_top, *t.translations])
    breaks, trans = ints[1 : t.d + 1], ints[t.d + 1 :]
    return ints[0], breaks[-1], breaks, trans


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
# of 1/20 or less keeps it at k = 1.  k is rounded down to a power of two, which the powering
# builds by squaring alone: at 20,000 steps the 20-piece loops took 1.3 to
# 1.7 ms at k = 16 against 2.0 to 3.0 ms at k = 31.  A table has at most k
# times the partition's pieces, and k is capped so that this is at most
# _MAX_TABLE_PIECES, which bounds its memory whatever the refinement asked
# for.
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

    ``halves`` is None for the partition itself (k = 1).  A composed table
    has halves (a, b, first, second): it is the k = a.k + b.k steps of
    table a followed by those of table b, and its piece i is a-piece
    ``first[i]`` whose a-image starts in b-piece ``second[i]``.
    """

    cuts: list[int]
    moves: list[int]
    k: int
    halves: tuple | None = None


def _compose(a: _Table, b: _Table, total: int) -> _Table:
    """The table of T^(b.k) after T^(a.k): each a-piece is cut where its
    a-image crosses a cut of b, one visit per a-piece and per new piece."""
    bcuts, bmoves = b.cuts, b.moves
    starts, moves, first, second = [], [], [], []
    for i, (s, e, m) in enumerate(zip((0, *a.cuts), (*a.cuts, total), a.moves)):
        j = bisect_right(bcuts, s + m)
        starts.append(s)
        moves.append(m + bmoves[j])
        first.append(i)
        second.append(j)
        for c in bcuts[j : bisect_left(bcuts, e + m, j)]:
            j += 1
            starts.append(c - m)
            moves.append(m + bmoves[j])
            first.append(i)
            second.append(j)
    del starts[0]
    return _Table(starts, moves, a.k + b.k, (a, b, first, second))


def _blocks(points: list[int], shift: list[int], total: int, k: int) -> _Table:
    """The k-step table of [0, total) cut at the sorted integers ``points``.

    Gap j of ``points`` moves by ``shift[j]`` and lies in one exchanged
    interval.  The table's cuts are every T^(-t)(p) with p in points and
    0 <= t < k, sorted, and gap i of them moves by moves[i] in k steps.  It
    is built by binary powering: T^(a+b) is T^b after T^a, so tables of 1,
    2, 4, ... steps are composed, O(k * pieces) piece visits in all.

    >>> _blocks([1], [1, -1], 2, 2)[:3]
    ([1], [0, 0], 2)
    """
    power, out = _Table(points, shift, 1), None
    while True:
        if k & 1:
            out = power if out is None else _compose(out, power, total)
        k >>= 1
        if not k:
            return out
        power = _compose(power, power, total)


def _table(points: list[int], shift: list[int], total: int, work: int) -> _Table:
    """The k-step table for a loop of ``work`` steps; k = 1 is the partition itself."""
    k = _block_length(work, len(shift))
    if k == 1:
        return _Table(points, shift, 1)
    return _blocks(points, shift, total, k)


def _fold(table: _Table, base, join):
    """A value per piece of ``table``, built bottom-up: ``base`` for the
    partition itself, ``join(t, value of a, value of b)`` for a composed t.
    Within one powering each table has its own k, so each is visited once."""
    done = {}

    def of(t: _Table):
        if t.k not in done:
            done[t.k] = base if t.halves is None else join(t, of(t.halves[0]), of(t.halves[1]))
        return done[t.k]

    return of(table)


def _join_words(t: _Table, words_a: list, words_b: list) -> list:
    """Each piece's word: its a-piece's word, then its b-piece's."""
    _, _, first, second = t.halves
    return [words_a[i] + words_b[j] for i, j in zip(first, second)]


def _join_hits(t: _Table, hits_a: dict, hits_b: dict) -> dict:
    """The hits of each piece start s: those of s in a, then those of its
    a-image s + move in b, a.k steps later.  A b-hit puts the a-image on a
    cut of b, so looking it up by value is exact."""
    a, _, first, _ = t.halves
    hits = {}
    for s, i in zip((0, *t.cuts), first):
        later = hits_b.get(s + a.moves[i])
        if later:
            hits[s] = hits_a.get(s, []) + [(step + a.k, j) for step, j in later]
        elif s in hits_a:
            hits[s] = hits_a[s]
    return hits


def orbit_coding(t: Iet, x0: ScalarLike, n: int) -> list[int]:
    """Interval indices (1-based) visited by x0 over n steps, computed exactly.

    Entry k is the piece containing the k-th iterate, starting with x0 itself;
    n = 0 gives the empty coding.  Each lookup in the k-step table adds the
    piece's k-long word; the last word is cut at n.
    """
    if n < 0:
        raise InvalidBound(f"negative step count {n}")
    x0 = as_scalar(x0)
    _check_domain(t, x0)
    x, total, breaks, trans = _scaled_ints(t, x0)
    points = breaks[:-1]
    table = _table(points, trans, total, n)
    cuts, moves, k, _ = table
    words = _fold(table, [(j,) for j in range(1, len(trans) + 1)], _join_words)
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
    of x_i, the last one cut at max_m; T^t(y) = x_j with t < k puts y on a
    cut of that table, so hits are looked up only at the pieces' starts.
    """
    if max_m < 1:
        raise InvalidBound(f"max_m must be at least 1, got {max_m}")
    found = []
    d = t.d
    if d >= 2:
        _, total, breaks, trans = _scaled_ints(t, Fraction(0))
        points = breaks[:-1]
        targets = {x: j for j, x in enumerate(points, start=1)}
        table = _table(points, trans, total, (d - 1) * max_m)
        cuts, moves, k, _ = table
        # hits[y]: the (t, j) with T^t(y) = x_j and t < k, for each piece
        # start y that has one.
        hits = _fold(table, {x: [(0, j)] for x, j in targets.items()}, _join_hits)
        for i in range(1, d):
            x = breaks[i - 1]
            x += trans[bisect_right(points, x)]
            for m in range(1, max_m + 1, k):
                for step, j in hits.get(x, ()):
                    if m + step <= max_m:
                        found.append(Connection(m + step, i, j))
                x += moves[bisect_right(cuts, x)]
    found.sort(key=lambda c: (c.m, c.i, c.j))
    return found
