"""Permutations of {1..d} and the combinatorics an interval exchange needs.

A permutation is stored by its one-line image tuple ``(sigma(1), ..., sigma(d))``
with 1-based symbols throughout.  On top of the bare bijection this module
provides:

* the antisymmetric exchange matrix ``omega``, whose rows give the per-interval
  translations of the exchange map;
* the one integer kernel the exact code shares: ``_scaled`` puts rationals
  over their common denominator, ``_sums`` adds them up in identity and in
  exchanged order, and ``_omega_times`` reads Omega v^T off those two sums in
  O(d).  Its ``assert`` checks every result against
  ``_omega_times_by_inversions``, which sums the sign definition of Omega
  with a Fenwick tree in O(d log d).  The check is not cheap, and its share
  grows as the rest of a call gets faster: on a power curve at s = 13/11
  and d = 128 it took 227 us against the kernel's 10 us, 25% of a whole
  ``convexity_criterion`` call, 28% at d = 32 and 19% at d = 8 (medians of
  three passes, one process each pinned to one CPU, 2-vCPU VM, CPython
  3.11.7).  ``python -O`` drops it;
* the irreducibility test (no proper prefix {1..k} is invariant);
* symbol removal (``restrict``) and the decomposition into consecutive
  irreducible blocks, the two tools the inductive simplicity argument uses;
* a seeded sampler for random irreducible permutations.

>>> p = validate_permutation([3, 1, 2])
>>> p(1), p.inverse[0]
(3, 2)
>>> omega(p).entries
((0, -1, -1), (1, 0, 0), (1, 0, 0))
>>> is_irreducible(p)
True
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import EmptyResult, InvalidSize, NotABijection, _lazy, _quoted, _record

__all__ = [
    "Permutation",
    "OmegaMatrix",
    "validate_permutation",
    "omega",
    "is_irreducible",
    "restrict",
    "irreducible_component_containing",
    "random_irreducible",
]


@_record
class Permutation:
    """A bijection of {1..d}, stored as the image tuple ``images[i-1] = sigma(i)``.

    Construct through :func:`validate_permutation`; the constructor itself does
    not re-check bijectivity.
    """

    images: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, symbol: int) -> int:
        return self.images[symbol - 1]

    @_lazy
    def inverse(self) -> tuple[int, ...]:
        """Image tuple of the inverse: ``inverse[j-1]`` is the symbol sent to j."""
        inv = [0] * len(self.images)
        for i, s in enumerate(self.images):
            inv[s - 1] = i + 1
        return tuple(inv)

    def __str__(self) -> str:
        return "[" + ",".join(str(s) for s in self.images) + "]"


@_record
class OmegaMatrix:
    """The antisymmetric matrix recording which interval pairs swap order.

    ``entries[i-1][j-1]`` is +1 when i > j but sigma(i) < sigma(j), -1 in the
    mirrored case, and 0 otherwise (in particular on the diagonal).
    """

    d: int
    entries: tuple[tuple[int, ...], ...]

    def __getitem__(self, row: int) -> tuple[int, ...]:
        return self.entries[row]


def validate_permutation(images: Sequence[int]) -> Permutation:
    """Check that ``images`` is a bijection of {1..len(images)} and wrap it.

    >>> validate_permutation([2, 1]).d
    2
    >>> validate_permutation([1, 1])
    Traceback (most recent call last):
        ...
    ietkit.errors.NotABijection: value 1 repeated in [1, 1]
    """
    d = len(images)
    if d == 0:
        raise NotABijection("a permutation needs at least one symbol")
    seen = [False] * d
    for v in images:
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= d:
            raise NotABijection(f"value {_quoted(v)} outside 1..{d} in {_quoted(list(images))}")
        if seen[v - 1]:
            raise NotABijection(f"value {v} repeated in {_quoted(list(images))}")
        seen[v - 1] = True
    return Permutation(tuple(images))


def omega(sigma: Permutation) -> OmegaMatrix:
    """Evaluate the piecewise sign definition entry by entry.

    >>> omega(validate_permutation([2, 1])).entries
    ((0, -1), (1, 0))
    """
    d = sigma.d
    rows = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            if i > j and sigma(i) < sigma(j):
                row.append(1)
            elif i < j and sigma(i) > sigma(j):
                row.append(-1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return OmegaMatrix(d, tuple(rows))


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm D of the denominators and every value as an integer over it.

    Each value's ratio is read once, and D is divided once per distinct
    denominator.  D grows by an lcm only for a denominator that does not
    already divide it: one remainder costs less than the gcd inside an lcm,
    and nested denominators, such as the powers of 11 along a power curve at
    s = 13/11, divide any D that a larger one has reached.

    >>> _scaled([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 2), Fraction(0)])
    (6, [3, -4, 15, 0])
    """
    ratios = [v.as_integer_ratio() for v in values]
    denoms = {q for _, q in ratios}
    denom = 1
    for q in denoms:
        if denom % q:
            denom = math.lcm(denom, q)
    scale = {q: denom // q for q in denoms}
    return denom, [p * scale[q] for p, q in ratios]


def _sums(sigma: Permutation, ints: Sequence[int]) -> tuple[list[int], list[int]]:
    """Partial sums of ``ints`` in identity order and in exchanged order.

    Both lists start at 0 and have d + 1 entries; the exchanged order visits
    the symbols as ``sigma.inverse`` lists them.

    >>> _sums(validate_permutation([3, 1, 2]), [1, 2, 4])
    ([0, 1, 3, 7], [0, 2, 6, 7])
    """
    return [0, *accumulate(ints)], [0, *accumulate([ints[s - 1] for s in sigma.inverse])]


def _omega_times(sigma: Permutation, sums: tuple[list[int], list[int]]) -> list[int]:
    """The integer vector Omega v^T, in O(d), from ``sums = _sums(sigma, v)``.

    Entry i is top[i] - bottom[sigma(i)]; the sign definition must agree.

    >>> p = validate_permutation([3, 2, 1])
    >>> _omega_times(p, _sums(p, [1, 0, -1]))
    [1, 2, 1]
    """
    top, bottom = sums
    out = [top[i] - bottom[s] for i, s in enumerate(sigma.images, start=1)]
    assert out == _omega_times_by_inversions(sigma, [y - x for x, y in zip(top, top[1:])])
    return out


def _omega_times_by_inversions(sigma: Permutation, values: Sequence[int]) -> list[int]:
    """Omega v^T summed straight from the sign definition, in O(d log d).

    Entry i is the sum of v_j over j < i with sigma(j) > sigma(i), minus the
    sum of v_j over j > i with sigma(j) < sigma(i).  One sweep in each
    direction keeps the values seen so far in a Fenwick tree indexed by
    image, so each entry costs two O(log d) walks.  This shares nothing with
    the partial-sum form of ``_omega_times``, which it checks.

    >>> _omega_times_by_inversions(validate_permutation([3, 2, 1]), [1, 0, -1])
    [1, 2, 1]
    """
    images = sigma.images
    d = len(images)
    out = []
    # Left to right: below is the sum of the values seen so far whose image
    # is < sigma(i), and seen - below that of those whose image is above.
    tree = [0] * (d + 1)
    seen = 0
    for image, value in zip(images, values):
        k, below = image - 1, 0
        while k:
            below += tree[k]
            k &= k - 1
        out.append(seen - below)
        k = image
        while k <= d:
            tree[k] += value
            k += k & -k
        seen += value
    # Right to left: below is the sum of the values after i whose image is < sigma(i).
    tree = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        k, below = images[i] - 1, 0
        while k:
            below += tree[k]
            k &= k - 1
        out[i] -= below
        k = images[i]
        while k <= d:
            tree[k] += values[i]
            k += k & -k
    return out


def is_irreducible(sigma: Permutation) -> bool:
    """True when no proper prefix {1..k}, k < d, is sigma-invariant.

    The prefix {1..k} is invariant exactly when max(sigma(1..k)) == k, so one
    running-maximum pass decides all prefixes.

    >>> is_irreducible(validate_permutation([2, 1]))
    True
    >>> is_irreducible(validate_permutation([1, 3, 2]))
    False
    """
    top = 0
    for k, image in enumerate(sigma.images[:-1], start=1):
        if image > top:
            top = image
        if top == k:
            return False
    return True


def _as_symbol_set(sigma: Permutation, symbols: Iterable[int]) -> frozenset[int]:
    members = frozenset(symbols)
    bad = [s for s in members if not 1 <= s <= sigma.d]
    if bad:
        raise InvalidSize(f"symbols {sorted(bad)} outside 1..{sigma.d}")
    return members


def restrict(sigma: Permutation, removed: Iterable[int]) -> Permutation:
    """The permutation left after deleting the symbols in ``removed``.

    Positions in ``removed`` disappear from the top (identity) order and their
    images disappear from the bottom order; both survivor sequences are then
    relabeled order-preservingly to {1..d-|removed|}.

    >>> restrict(validate_permutation([3, 2, 1]), {1}).images
    (2, 1)
    >>> restrict(validate_permutation([3, 1, 2]), {2}).images
    (2, 1)
    """
    members = _as_symbol_set(sigma, removed)
    survivors = [s for s in range(1, sigma.d + 1) if s not in members]
    if not survivors:
        raise EmptyResult("cannot remove every symbol")
    image_rank = {img: r for r, img in enumerate(sorted(sigma(s) for s in survivors), start=1)}
    return Permutation(tuple(image_rank[sigma(s)] for s in survivors))


def irreducible_component_containing(
    sigma: Permutation, symbol: int
) -> tuple[Permutation, frozenset[int]]:
    """The irreducible block of ``sigma`` containing ``symbol``, with its support.

    Scanning left to right and cutting after every k where {1..k} is invariant
    splits sigma into consecutive blocks, each a minimal invariant prefix of
    what remains; every block is irreducible after relabeling.  Returns the
    relabeled block together with the original symbols it lives on.

    >>> irreducible_component_containing(validate_permutation([1, 3, 2]), 3)
    (Permutation(images=(2, 1)), frozenset({2, 3}))
    """
    if not 1 <= symbol <= sigma.d:
        raise InvalidSize(f"symbol {symbol} outside 1..{sigma.d}")
    start = 1
    top = 0
    for k, image in enumerate(sigma.images, start=1):
        top = max(top, image)
        if top == k:
            if start <= symbol <= k:
                support = frozenset(range(start, k + 1))
                block = Permutation(tuple(sigma(s) - start + 1 for s in range(start, k + 1)))
                return block, support
            start = k + 1
    raise AssertionError("unreachable: the final prefix {1..d} is always invariant")


def random_irreducible(d: int, seed: int) -> Permutation:
    """A uniform random irreducible permutation of d symbols, by rejection.

    The irreducible fraction is bounded away from zero for every d >= 2, so the
    expected number of rejections is O(1).  Identical ``(d, seed)`` pairs give
    identical output.

    >>> random_irreducible(2, 99).images
    (2, 1)
    """
    if d < 2:
        raise InvalidSize("no irreducible exchange on fewer than two symbols")
    rng = random.Random(seed)
    symbols = list(range(1, d + 1))
    while True:
        rng.shuffle(symbols)
        candidate = Permutation(tuple(symbols))
        if is_irreducible(candidate):
            return candidate
