from __future__ import annotations

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ietkit
from ietkit import (
    Connection,
    apply,
    apply_inverse,
    as_scalar,
    build_iet,
    convexity_criterion,
    curve_point,
    curve_spec,
    find_connections,
    image_partition,
    mahler_curve,
    orbit_coding,
    random_irreducible,
    validate_permutation,
)
from ietkit.errors import (
    DimensionMismatch,
    IetkitError,
    InvalidBound,
    NonPositiveLength,
    OutOfDomain,
)

from conftest import SEED, period_of, random_length
from oracles import oracle_connections

F = Fraction


def _swap(a1, a2):
    return build_iet(validate_permutation([2, 1]), [a1, a2])


def test_build_precomputes_everything():
    t = _swap(1, 1)
    assert t.translations == (F(1), F(-1))
    assert t.disc_top == (F(1), F(2))
    assert t.disc_bottom == (F(1), F(2))


def test_build_uneven_swap():
    t = _swap(1, 2)
    assert t.translations == (F(2), F(-1))
    assert t.disc_top == (F(1), F(3))
    assert t.disc_bottom == (F(2), F(3))


def test_build_rejects_bad_lengths():
    with pytest.raises(NonPositiveLength):
        _swap(1, 0)
    with pytest.raises(NonPositiveLength):
        _swap(1, -2)
    with pytest.raises(DimensionMismatch):
        build_iet(validate_permutation([2, 1]), [1, 1, 1])


@pytest.mark.parametrize("text", ["1/0", "abc"])
def test_malformed_scalars_are_input_errors(text):
    # Fraction raises ZeroDivisionError or a bare ValueError; the package
    # re-raises its own input error, chained from the original.
    with pytest.raises(OutOfDomain) as info:
        as_scalar(text)
    assert isinstance(info.value.__cause__, (ZeroDivisionError, ValueError))
    assert not isinstance(info.value.__cause__, OutOfDomain)
    with pytest.raises(OutOfDomain):
        _swap(1, text)
    with pytest.raises(OutOfDomain):
        convexity_criterion(validate_permutation([2, 1]), [1, 1], [text, 1])


@pytest.mark.parametrize("value, cause", [
    (None, TypeError),
    ([1], TypeError),
    (Decimal("Infinity"), OverflowError),
])
def test_unconvertible_values_are_input_errors(value, cause):
    with pytest.raises(OutOfDomain) as info:
        as_scalar(value)
    assert type(info.value.__cause__) is cause


@pytest.mark.parametrize("value, message", [
    # A repr of 100 characters is quoted; one of 101 is named by its length.
    ("1/" + "0" * 96, "malformed scalar '1/" + "0" * 96 + "'"),
    ("1/" + "0" * 97, "malformed scalar (a str of 99 characters)"),
    ("1" + "0" * 4400, "malformed scalar (a str of 4401 characters)"),
    ("x" * 10**6, "malformed scalar (a str of 1000000 characters)"),
    ([0] * 50, "malformed scalar (a list of 150 characters)"),
], ids=["repr-100", "repr-101", "past-the-digit-limit", "a-million-characters", "list"])
def test_long_rejected_values_are_named_by_their_length(value, message):
    with pytest.raises(OutOfDomain) as info:
        as_scalar(value)
    assert str(info.value) == message


def _rotation(*lengths):
    return build_iet(validate_permutation([2, 1]), lengths)


@pytest.mark.parametrize("call, message", [
    # A value whose text has 100 characters is quoted, as a rational "p/q";
    # one of 101 is named by its length.
    (lambda: apply(_rotation(1, 1), Fraction(5, 2)), "5/2 outside [0, 2)"),
    (lambda: apply(_rotation(1, 1), 10**99), f"{10**99} outside [0, 2)"),
    (lambda: apply(_rotation(1, 1), 10**100), "(a Fraction of 101 characters) outside [0, 2)"),
    (lambda: apply(_rotation(10**100, 1), -1), "-1 outside [0, (a Fraction of 101 characters))"),
    (lambda: _rotation("-1/2", 1), "a_1 = -1/2 is not positive"),
    (lambda: _rotation(-(10**100), 1), "a_1 = (a Fraction of 102 characters) is not positive"),
    (lambda: curve_point(curve_spec([[-(10**100)]]), 1),
     "component 1 is (a Fraction of 102 characters) at s = 1"),
    (lambda: mahler_curve(2, -(10**100)),
     "curve parameter (a Fraction of 102 characters) is not positive"),
    (lambda: validate_permutation([10**100, 1]),
     "value (an int of 101 characters) outside 1..2 in (a list of 106 characters)"),
], ids=["short", "text-100", "text-101", "long-total", "short-length", "long-length",
        "curve-component", "curve-parameter", "permutation-value"])
def test_library_messages_name_a_long_value_by_its_length(call, message):
    with pytest.raises(IetkitError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_are_input_errors(value):
    with pytest.raises(OutOfDomain, match=f"^non-finite scalar {value!r}$"):
        as_scalar(value)


@pytest.mark.parametrize("text", ["1e3", "1E3", "2.5e-1", "1/2e1"])
def test_exponent_strings_are_malformed(text):
    with pytest.raises(OutOfDomain):
        as_scalar(text)


def test_huge_exponent_string_is_rejected_at_once():
    # Fraction("1e999999999999999999") would build 10 to that power and never
    # return, so the call runs in a child that a timeout can stop.
    env = dict(os.environ, PYTHONPATH=str(Path(ietkit.__file__).parents[1]))
    code = (
        "from ietkit import as_scalar\n"
        "from ietkit.errors import OutOfDomain\n"
        "try:\n"
        "    as_scalar('1e999999999999999999')\n"
        "except OutOfDomain:\n"
        "    print('OutOfDomain')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "OutOfDomain\n")


@pytest.mark.parametrize("text", ["1e999999999", "-7.5e-999999999"])
def test_huge_exponent_decimal_is_rejected_at_once(text):
    # Fraction(Decimal) builds 10 to the exponent's magnitude, which for these
    # never returns; the child runs under a timeout so a regression cannot hang.
    env = dict(os.environ, PYTHONPATH=str(Path(ietkit.__file__).parents[1]))
    code = (
        "from decimal import Decimal\n"
        "from ietkit import as_scalar\n"
        "from ietkit.errors import OutOfDomain\n"
        "try:\n"
        f"    as_scalar(Decimal({text!r}))\n"
        "except OutOfDomain as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, f"malformed scalar {Decimal(text)!r}\n")


@pytest.mark.parametrize("limit", [0, 50])
def test_decimal_exponent_bound_follows_the_int_digit_limit(monkeypatch, limit):
    # An exponent of magnitude up to the limit converts exactly; one past it,
    # of either sign, is malformed.  A limit of 0 means 4300.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    bound = limit or 4300
    assert as_scalar(Decimal(f"3e{bound}")) == 3 * 10**bound
    assert as_scalar(Decimal(f"3e-{bound}")) == F(3, 10**bound)
    for text in (f"3e{bound + 1}", f"3e-{bound + 1}"):
        with pytest.raises(OutOfDomain, match="^malformed scalar "):
            as_scalar(Decimal(text))
    assert as_scalar(Decimal("-2.75")) == F(-11, 4)


def fraction_partial_sums(values):
    """Running sums accumulated as Fractions, the way ``build_iet`` made its
    break points before it read them off scaled integer sums."""
    sums, acc = [], F(0)
    for v in values:
        acc += F(v)
        sums.append(acc)
    return tuple(sums)


positive_scalars = st.one_of(
    st.integers(1, 50),
    st.builds(F, st.integers(1, 10**12), st.integers(1, 10**6)),
    st.floats(1e-6, 1e6),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 999), st.integers(1, 999)),
)


@settings(max_examples=200)
@given(st.integers(1, 24).flatmap(lambda d: st.tuples(
    st.permutations(range(1, d + 1)),
    st.lists(positive_scalars, min_size=d, max_size=d),
)))
def test_break_points_match_fraction_partial_sums(case):
    images, a = case
    sigma = validate_permutation(images)
    t = build_iet(sigma, a)
    assert t.disc_top == fraction_partial_sums(a)
    assert t.disc_bottom == fraction_partial_sums([a[s - 1] for s in sigma.inverse])
    assert all(type(v) is F for v in t.disc_top + t.disc_bottom + t.translations)


def test_apply_both_pieces():
    t = _swap(1, 1)
    assert apply(t, F(1, 2)) == F(3, 2)
    assert apply(t, F(3, 2)) == F(1, 2)
    assert apply(t, 0) == 1  # break points belong to the right piece
    assert apply(t, 1) == 0


def test_apply_domain_is_half_open():
    t = _swap(1, 1)
    with pytest.raises(OutOfDomain):
        apply(t, 2)
    with pytest.raises(OutOfDomain):
        apply(t, F(-1, 7))
    with pytest.raises(OutOfDomain):
        apply_inverse(t, 2)


def test_apply_inverse_examples():
    t = _swap(1, 1)
    assert apply_inverse(t, F(3, 2)) == F(1, 2)
    assert apply_inverse(t, 0) == 1


@st.composite
def iet_and_point(draw):
    d = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**20))
    sigma = random_irreducible(d, seed)
    a = [
        F(draw(st.integers(1, 30)), draw(st.integers(1, 8)))
        for _ in range(d)
    ]
    t = build_iet(sigma, a)
    num = draw(st.integers(0, 10**6 - 1))
    return t, t.total * num / 10**6


@given(iet_and_point())
def test_round_trip_is_identity(tx):
    t, x = tx
    assert apply_inverse(t, apply(t, x)) == x
    assert apply(t, apply_inverse(t, x)) == x


def test_image_partition_example():
    t = _swap(1, 2)
    assert image_partition(t) == [((F(0), F(2)), 2), ((F(2), F(3)), 1)]


@given(iet_and_point())
def test_image_partition_tiles_exactly(tx):
    t, _ = tx
    pieces = image_partition(t)
    cursor = F(0)
    seen = set()
    for (left, right), src in pieces:
        assert left == cursor and right > left
        assert right - left == t.lengths[src - 1]
        seen.add(src)
        cursor = right
    assert cursor == t.total
    assert seen == set(range(1, t.d + 1))


def test_orbit_coding_period_two():
    t = _swap(1, 1)
    assert orbit_coding(t, F(1, 4), 4) == [1, 2, 1, 2]
    assert orbit_coding(t, F(1, 4), 0) == []
    with pytest.raises(InvalidBound):
        orbit_coding(t, F(1, 4), -1)


def test_orbit_coding_matches_direct_iteration():
    # Golden-ratio convergent: long non-repeating coding before the period.
    t = _swap(1, F(985, 1597))
    x = F(0)
    expected = []
    for _ in range(10):
        expected.append(1 if x < t.disc_top[0] else 2)
        x = apply(t, x)
    assert orbit_coding(t, 0, 10) == expected

    rng = random.Random(SEED)
    for _ in range(25):
        d = rng.randint(2, 9)
        sigma = random_irreducible(d, rng.getrandbits(32))
        t = build_iet(sigma, [random_length(rng) for _ in range(d)])
        x0 = t.total * rng.randint(0, 99) / 100
        codes = orbit_coding(t, x0, 30)
        x = x0
        for code in codes:
            assert t.disc_top[code - 1] > x
            assert code == 1 or t.disc_top[code - 2] <= x
            x = apply(t, x)


@pytest.mark.parametrize("d", [17, 20, 24])
def test_orbit_coding_matches_apply_at_large_d(d):
    rng = random.Random(f"{SEED}/coding-large/{d}")
    for _ in range(3):
        sigma = random_irreducible(d, rng.getrandbits(32))
        t = build_iet(sigma, [random_length(rng) for _ in range(d)])
        x = x0 = t.total * F(rng.randint(0, 999), 1000)
        codes = orbit_coding(t, x0, 300)
        for code in codes:
            assert code == 1 + sum(1 for right in t.disc_top if right <= x)
            x = apply(t, x)
        assert len(codes) == 300


def test_connection_of_the_unit_swap():
    t = _swap(1, 1)
    assert Connection(2, 1, 1) in find_connections(t, 2)


def test_no_connection_below_resonance_depth():
    t = _swap(1, F(1597, 987))
    assert find_connections(t, 100) == []


def test_find_connections_rejects_bad_bound():
    with pytest.raises(InvalidBound):
        find_connections(_swap(1, 1), 0)


def test_find_connections_matches_oracle():
    rng = random.Random(f"{SEED}/connections-unit")
    for _ in range(30):
        d = rng.randint(2, 5)
        sigma = random_irreducible(d, rng.getrandbits(32))
        a = [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d)]
        t = build_iet(sigma, a)
        got = [(c.m, c.i, c.j) for c in find_connections(t, 60)]
        assert got == oracle_connections(sigma.images, a, 60)


@pytest.mark.parametrize("d", [17, 20])
def test_find_connections_matches_oracle_at_large_d(d):
    rng = random.Random(f"{SEED}/connections-large/{d}")
    hits = 0
    for _ in range(3):
        sigma = random_irreducible(d, rng.getrandbits(32))
        a = [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d)]
        got = [(c.m, c.i, c.j) for c in find_connections(build_iet(sigma, a), 60)]
        assert got == oracle_connections(sigma.images, a, 60)
        hits += len(got)
    assert hits > 0


def test_find_connections_repeats_hits_past_the_period():
    # max_m is several periods, so every hit recurs; the return hit (m, i, i)
    # is itself a connection and is reported at every multiple of the period.
    rng = random.Random(f"{SEED}/connections-repeat")
    for _ in range(20):
        d = rng.randint(2, 6)
        sigma = random_irreducible(d, rng.getrandbits(32))
        a = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d)]
        t = build_iet(sigma, a)
        periods = {i: period_of(t, t.disc_top[i - 1]) for i in range(1, d)}
        max_m = 4 * max(periods.values()) + rng.randint(1, 5)
        got = [(c.m, c.i, c.j) for c in find_connections(t, max_m)]
        assert got == oracle_connections(sigma.images, a, max_m)
        for i, p in periods.items():
            assert [m for m, hi, j in got if hi == i == j] == list(range(p, max_m + 1, p))
