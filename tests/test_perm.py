from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietkit import perm as _perm
from ietkit import (
    build_iet,
    build_suspension,
    irreducible_component_containing,
    is_irreducible,
    omega,
    random_irreducible,
    restrict,
    return_time_profile,
    validate_permutation,
)
from ietkit.errors import EmptyResult, InvalidSize, NotABijection

from conftest import reference_is_irreducible, reference_scaled
from oracles import oracle_omega

perms = st.integers(1, 7).flatmap(lambda d: st.permutations(range(1, d + 1)))


def test_validate_accepts_bijections():
    assert validate_permutation([2, 1]).d == 2
    assert validate_permutation([3, 1, 2]).images == (3, 1, 2)


@pytest.mark.parametrize("bad", [[1, 1], [2, 2], [0, 1], [1, 3], [], [1, "2"]])
def test_validate_rejects_non_bijections(bad):
    with pytest.raises(NotABijection):
        validate_permutation(bad)


def test_inverse_and_call():
    p = validate_permutation([3, 1, 2])
    assert p(1) == 3 and p(3) == 2
    assert p.inverse == (2, 3, 1)


def test_omega_transposition():
    assert omega(validate_permutation([2, 1])).entries == ((0, -1), (1, 0))


def test_omega_identity_is_zero():
    assert omega(validate_permutation([1, 2, 3])).entries == ((0, 0, 0),) * 3


def test_omega_reversal():
    assert omega(validate_permutation([3, 2, 1])).entries == (
        (0, -1, -1),
        (1, 0, -1),
        (1, 1, 0),
    )


@given(perms)
def test_omega_antisymmetric_and_matches_oracle(images):
    m = omega(validate_permutation(images)).entries
    d = len(images)
    assert [list(r) for r in m] == oracle_omega(images)
    for i in range(d):
        assert m[i][i] == 0
        for j in range(d):
            assert m[i][j] == -m[j][i]
            assert m[i][j] in (-1, 0, 1)


@given(perms)
def test_omega_upper_entries_flag_inversions(images):
    p = validate_permutation(images)
    m = omega(p).entries
    for i in range(1, p.d + 1):
        for j in range(i + 1, p.d + 1):
            assert (m[i - 1][j - 1] == -1) == (p(i) > p(j))


@given(perms)
def test_omega_rows_are_indexed_like_its_entries(images):
    m = omega(validate_permutation(images))
    for i in range(m.d):
        assert m[i] == m.entries[i]


# ---------------------------------------------------------------------------
# the Omega v^T kernel and the Fenwick evaluator that checks it


@settings(max_examples=200)
@given(st.integers(1, 64).flatmap(lambda d: st.tuples(
    st.permutations(range(1, d + 1)),
    st.lists(st.integers(-(10**40), 10**40), min_size=d, max_size=d),
)))
def test_omega_times_by_inversions_matches_matrix_products(case):
    images, values = case
    p = validate_permutation(images)
    got = _perm._omega_times_by_inversions(p, values)
    assert got == [sum(e * v for e, v in zip(row, values)) for row in omega(p).entries]
    assert got == [sum(e * v for e, v in zip(row, values)) for row in oracle_omega(images)]
    assert got == _perm._omega_times(p, _perm._sums(p, values))


def test_omega_times_check_is_live(monkeypatch):
    # The kernel's assert compares against the evaluator on every call, so a
    # wrong evaluator must stop each of the kernel's callers.
    real = _perm._omega_times_by_inversions

    def perturbed(sigma, values):
        out = real(sigma, values)
        out[0] += 1
        return out

    monkeypatch.setattr(_perm, "_omega_times_by_inversions", perturbed)
    p = validate_permutation([3, 1, 2])
    with pytest.raises(AssertionError):
        return_time_profile(p, [1, 2, 3])
    with pytest.raises(AssertionError):
        build_iet(p, [1, 2, 3])
    with pytest.raises(AssertionError):
        build_suspension(p, [1, 2, 3], [1, 2, 3]).return_profile


# Denominators that repeat, divide one another (2, 4, 8, 16; 3, 9), are
# coprime (5, 7, 11) or large (2^61 - 1), over numerators of either sign and 0.
scalable = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(
        Fraction,
        st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30)),
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 35, 2**61 - 1]),
    ),
)


@settings(max_examples=200)
@given(st.lists(scalable, min_size=1, max_size=24))
def test_scaled_matches_reference(values):
    denom, ints = _perm._scaled(values)
    assert (denom, ints) == reference_scaled(values)
    assert [Fraction(v, denom) for v in ints] == values


@pytest.mark.parametrize("values, expected", [
    ([Fraction(-3, 4)], (4, [-3])),
    ([Fraction(0)], (1, [0])),
    ([7], (1, [7])),
    ([Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4)],
     (4, [1, 2, -1, 0, 1])),
    ([Fraction(1, 5), Fraction(2, 7), Fraction(-1, 3)], (105, [21, 30, -35])),
], ids=["single-negative", "single-zero", "single-int", "nested-repeated", "coprime"])
def test_scaled_examples(values, expected):
    assert _perm._scaled(values) == expected == reference_scaled(values)


ELEVENS = [Fraction(k + 1, 11**k) for k in range(40)]


@pytest.mark.parametrize("values", [
    ELEVENS,
    ELEVENS[::-1],
    ELEVENS[::2] + ELEVENS[1::2],
    [Fraction(-7, 11**3), Fraction(2, 11**3), Fraction(0), Fraction(5, 11**3), Fraction(-7, 11**3)],
    [3, -2, 0, 10**30, 3],
    [5, Fraction(1, 11**5), -4, Fraction(3, 11**2), 0, Fraction(2, 11**9)],
    [Fraction(3, 2**k * 3**(k % 3)) for k in (6, 0, 3, 2, 9, 9, 1)],
], ids=["powers-ascending", "powers-descending", "powers-interleaved", "repeated",
        "ints", "ints-and-powers", "nested-mixed"])
def test_scaled_over_nested_and_repeated_denominators(values):
    # D grows only by denominators that do not divide it already, in any
    # order that the distinct denominators come in.
    denom, ints = _perm._scaled(values)
    assert (denom, ints) == reference_scaled(values)
    assert [Fraction(v, denom) for v in ints] == values


@pytest.mark.parametrize("d", range(1, 8))
def test_is_irreducible_matches_the_prefix_definition_on_every_permutation(d):
    for images in itertools.permutations(range(1, d + 1)):
        assert is_irreducible(_perm.Permutation(images)) is reference_is_irreducible(images)


@pytest.mark.parametrize(
    "images,expected",
    [([2, 1], True), ([1, 3, 2], False), ([3, 1, 2], True), ([1], True), ([2, 1, 3], False)],
)
def test_is_irreducible(images, expected):
    assert is_irreducible(validate_permutation(images)) is expected


def test_restrict_examples():
    assert restrict(validate_permutation([3, 2, 1]), {1}).images == (2, 1)
    assert restrict(validate_permutation([3, 1, 2]), {2}).images == (2, 1)
    assert restrict(validate_permutation([2, 1]), set()).images == (2, 1)


def test_restrict_everything_is_empty():
    with pytest.raises(EmptyResult):
        restrict(validate_permutation([2, 1]), {1, 2})


@pytest.mark.parametrize("symbol", [0, 3, -1])
def test_symbols_outside_the_permutation_are_rejected(symbol):
    p = validate_permutation([2, 1])
    with pytest.raises(InvalidSize, match="outside 1..2"):
        restrict(p, {1, symbol})
    with pytest.raises(InvalidSize, match=f"symbol {symbol} outside 1..2"):
        irreducible_component_containing(p, symbol)


@given(perms, st.data())
def test_restrict_composes_over_disjoint_sets(images, data):
    p = validate_permutation(images)
    symbols = list(range(1, p.d + 1))
    k1 = set(data.draw(st.lists(st.sampled_from(symbols), unique=True, max_size=p.d - 1)))
    rest = [s for s in symbols if s not in k1]
    k2 = set(data.draw(st.lists(st.sampled_from(rest), unique=True,
                                max_size=len(rest) - 1))) if len(rest) > 1 else set()
    # After removing k1, surviving symbol s is relabeled to its rank among survivors.
    survivors = sorted(rest)
    relabeled_k2 = {survivors.index(s) + 1 for s in k2}
    assert restrict(restrict(p, k1), relabeled_k2).images == restrict(p, k1 | k2).images


def test_component_examples():
    p = validate_permutation([1, 3, 2])
    assert irreducible_component_containing(p, 3) == (validate_permutation([2, 1]), {2, 3})
    assert irreducible_component_containing(p, 1) == (validate_permutation([1]), {1})
    q = validate_permutation([2, 1])
    assert irreducible_component_containing(q, 1) == (q, {1, 2})


@given(perms, st.data())
def test_component_is_irreducible_and_consistent(images, data):
    p = validate_permutation(images)
    s = data.draw(st.integers(1, p.d))
    block, support = irreducible_component_containing(p, s)
    assert s in support
    ordered = sorted(support)
    assert ordered == list(range(ordered[0], ordered[-1] + 1))  # consecutive
    assert is_irreducible(block)
    offset = ordered[0] - 1
    assert block.images == tuple(p(sym) - offset for sym in ordered)


def test_random_irreducible_smallest():
    assert random_irreducible(2, seed=0).images == (2, 1)


def test_random_irreducible_reproducible_and_irreducible():
    for d in range(2, 9):
        for seed in range(5):
            p = random_irreducible(d, seed)
            assert p.images == random_irreducible(d, seed).images
            assert is_irreducible(p)


def test_random_irreducible_needs_two_symbols():
    with pytest.raises(InvalidSize):
        random_irreducible(1, seed=3)
