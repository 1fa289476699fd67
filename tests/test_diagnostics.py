from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from ietkit import (
    apply,
    build_iet,
    discrepancy_trend,
    orbit_coding,
    random_irreducible,
    validate_permutation,
    visit_frequencies,
)
from ietkit import diagnostics
from ietkit.errors import InvalidBound, OutOfDomain

from conftest import (
    SEED,
    across_periods,
    period_of,
    random_length,
    random_rational_exchange,
    reference_discrepancy_trend,
    reference_visit_frequencies,
)

F = Fraction


def rotation(a2: F) -> "Iet":
    return build_iet(validate_permutation([2, 1]), [F(1), a2])


def test_period_two_orbit_splits_evenly():
    stats = visit_frequencies(rotation(F(1)), F(1, 4), 1000)
    assert stats.frequencies == (F(1, 2), F(1, 2))
    assert stats.expected == (F(1, 2), F(1, 2))
    assert stats.discrepancy == 0
    assert stats.n_iterations == 1000
    assert stats.refinement_cells == 64


def test_single_point_is_an_indicator():
    stats = visit_frequencies(rotation(F(1)), F(1, 4), 1)
    assert stats.frequencies == (F(1), F(0))
    assert stats.discrepancy == F(1, 2)


def test_frequencies_sum_to_one_on_random_instances():
    rng = random.Random(f"{SEED}/freq-sum")
    for _ in range(30):
        d = rng.randint(2, 6)
        images = list(range(1, d + 1))
        rng.shuffle(images)
        t = build_iet(
            validate_permutation(images),
            [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(d)],
        )
        x0 = t.total * F(rng.randint(0, 99), 100)
        stats = visit_frequencies(t, x0, rng.randint(1, 300), cells=rng.randint(1, 20))
        assert sum(stats.frequencies, F(0)) == 1
        assert 0 <= stats.discrepancy <= 1
        assert 0 <= stats.refinement_discrepancy <= 1


def test_refinement_matching_intervals_gives_same_discrepancy():
    # Two unit intervals and two refinement cells describe the same partition.
    stats = visit_frequencies(rotation(F(1)), F(1, 4), 137, cells=2)
    assert stats.refinement_discrepancy == stats.discrepancy


def test_refinement_discrepancy_is_the_max_over_every_cell():
    # The deviation of every cell, empty ones included, from a Fraction orbit.
    rng = random.Random(f"{SEED}/refinement-cells")
    for _ in range(40):
        d = rng.randint(2, 6)
        images = list(range(1, d + 1))
        rng.shuffle(images)
        t = build_iet(validate_permutation(images), [random_length(rng) for _ in range(d)])
        x = t.total * F(rng.randint(0, 99), 100)
        n, cells = rng.randint(1, 200), rng.choice([1, 2, 7, 64, 500])
        counts = [0] * cells
        stats = visit_frequencies(t, x, n, cells=cells)
        for _ in range(n):
            counts[int(x * cells / t.total)] += 1
            x = apply(t, x)
        assert stats.refinement_discrepancy == max(abs(F(c, n) - F(1, cells)) for c in counts)


@pytest.mark.parametrize("cells", [1, 2, 5, 7, 64])
def test_frequencies_match_the_full_loop_around_the_gate_and_the_period(cells):
    # Counting by pieces needs cells^2 <= n: n = cells^2 - 1, cells^2 and
    # cells^2 + 1 straddle the gate, and the rest straddle the period.  The
    # unit swap has scaled total 2 at x0 = 0 and 1, below every cells > 2, so
    # several cell starts collapse onto one integer or onto total.
    rng = random.Random(f"{SEED}/frequencies-gate/{cells}")
    for a2 in (F(1), F(2, 3), F(1597, 987)):
        t = rotation(a2)
        for x0 in (F(0), F(1), t.total / 3):
            p = period_of(t, x0)
            assert p is not None
            counts = across_periods(p, rng) | {cells * cells - 1, cells * cells, cells * cells + 1}
            for n in counts - {0}:
                got = visit_frequencies(t, x0, n, cells=cells)
                assert got == reference_visit_frequencies(t, x0, n, cells)


def test_frequencies_match_the_full_loop_on_random_exchanges():
    # Every pair of denominator size (10^0 to 10^6) and start kind occurs
    # three times, whatever the seed.  Integer lengths of at most 3 with x0 = 0
    # or a break scale to a total, and so a period, of at most 72, so short
    # periods are always drawn; large denominators give orbits that do not
    # return within n.
    rng = random.Random(f"{SEED}/frequencies-random")
    for k in range(63):
        start = ("zero", "break", "interior")[k % 3]
        t, x0 = random_rational_exchange(rng, k % 7, start)
        cells = rng.choice([1, 2, 3, 10, 64, 100])
        for n in across_periods(period_of(t, x0), rng) | {cells * cells}:
            got = visit_frequencies(t, x0, n, cells=cells)
            assert got == reference_visit_frequencies(t, x0, n, cells)


@pytest.mark.parametrize("images, lengths, x0", [
    ([1], [F(3)], F(1)),
    ([2, 1], [F(1), F(1)], F(0)),
    ([2, 1], [F(1), F(2, 3)], F(1, 3)),
    ([3, 2, 1], [F(1), F(2), F(3)], F(1, 2)),
], ids=["d1", "swap", "rotation", "d3"])
def test_the_plain_loop_stops_at_the_first_return(monkeypatch, images, lengths, x0):
    # 1000 cells: cells^2 > n, so the orbit is counted step by step, and the
    # cells outnumber each scaled total, so some hold no integer.  An orbit
    # that returns after p steps looks up p + (n mod p) intervals for n > p.
    t = build_iet(validate_permutation(images), lengths)
    p = period_of(t, x0)
    lookups = []
    monkeypatch.setattr(diagnostics, "bisect_right",
                        lambda a, x: lookups.append(x) or bisect_right(a, x))
    for n in sorted(across_periods(p, random.Random(f"{SEED}/plain-loop/{images}"))):
        lookups.clear()
        assert visit_frequencies(t, x0, n, cells=1000) == reference_visit_frequencies(t, x0, n, 1000)
        assert len(lookups) == (n if n <= p else p + n % p)


def test_near_golden_rotation_equidistributes():
    stats = visit_frequencies(rotation(F(1597, 987)), F(0), 10_000)
    assert stats.discrepancy < F(1, 1000)
    assert stats.refinement_discrepancy < F(1, 100)


def test_trend_of_periodic_orbit_hits_zero_at_even_times():
    trend = discrepancy_trend(rotation(F(1)), F(1, 4), [1, 2, 3, 4, 50])
    assert [n for n, _ in trend] == [1, 2, 3, 4, 50]
    assert dict(trend)[2] == 0
    assert dict(trend)[4] == 0
    assert dict(trend)[50] == 0
    assert dict(trend)[1] == F(1, 2)


def test_trend_is_prefix_consistent_with_frequencies():
    t = rotation(F(1597, 987))
    trend = discrepancy_trend(t, F(1, 3), [10, 100, 500])
    for n, disc in trend:
        assert disc == visit_frequencies(t, F(1, 3), n).discrepancy


def trend_schedules(p: int | None, rng: random.Random) -> list[list[int]]:
    """The marks across the period as one schedule and one at a time, plus a
    dense schedule 1..k with k above 2p."""
    marks = sorted(across_periods(p, rng))
    k = 2 * p + rng.randint(1, p) if p is not None else rng.randint(1, 200)
    return [marks, list(range(1, k + 1)), *([n] for n in marks)]


def test_trend_matches_the_full_loop_on_random_exchanges():
    # Every pair of denominator size (10^0 to 10^6) and start kind occurs
    # three times, whatever the seed, so short periods are always drawn (see
    # the frequency test above); each stretch between marks may return.
    rng = random.Random(f"{SEED}/trend-random")
    for k in range(63):
        start = ("zero", "break", "interior")[k % 3]
        t, x0 = random_rational_exchange(rng, k % 7, start)
        for schedule in trend_schedules(period_of(t, x0), rng):
            assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)


def test_trend_matches_the_full_loop_on_rotations():
    rng = random.Random(f"{SEED}/trend-rotations")
    for a2 in (F(1), F(2, 3), F(1597, 987)):
        t = rotation(a2)
        for x0 in (F(0), F(1), t.total / 3):
            for schedule in trend_schedules(period_of(t, x0), rng):
                assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)
    t, schedule = rotation(F(1597, 987)), [1000, 10_000, 200_000]
    assert discrepancy_trend(t, F(0), schedule) == reference_discrepancy_trend(t, F(0), schedule)


def test_frequencies_and_trend_match_orbit_coding_at_d20():
    rng = random.Random(f"{SEED}/coding-d20")
    d, n = 20, 2000
    sigma = random_irreducible(d, rng.getrandbits(32))
    t = build_iet(sigma, [random_length(rng) for _ in range(d)])
    x0 = t.total * F(rng.randint(0, 999), 1000)
    codes = orbit_coding(t, x0, n)
    stats = visit_frequencies(t, x0, n)
    assert stats.frequencies == tuple(F(codes.count(j), n) for j in range(1, d + 1))
    schedule = [1, 7, 100, 999, n]
    for m, disc in discrepancy_trend(t, x0, schedule):
        prefix = codes[:m]
        expected = max(abs(F(prefix.count(j), m) - e) for j, e in enumerate(stats.expected, 1))
        assert disc == expected == visit_frequencies(t, x0, m).discrepancy


def test_trend_edge_cases():
    t = rotation(F(1))
    assert discrepancy_trend(t, F(1, 4), []) == []
    with pytest.raises(InvalidBound):
        discrepancy_trend(t, F(1, 4), [5, 5])
    with pytest.raises(InvalidBound):
        discrepancy_trend(t, F(1, 4), [0, 3])


def test_rejected_schedule_is_quoted_within_a_bound():
    # A short schedule keeps its full text; 4,000 descending marks, once a
    # 22,944-byte message, are named by their type and length.
    t = rotation(F(1))
    with pytest.raises(InvalidBound) as short:
        discrepancy_trend(t, F(1, 4), [1, 2, 2])
    assert str(short.value) == "schedule must be strictly increasing and positive: [1, 2, 2]"
    marks = list(range(4000, 0, -1))
    with pytest.raises(InvalidBound) as long:
        discrepancy_trend(t, F(1, 4), marks)
    assert str(long.value) == (
        f"schedule must be strictly increasing and positive: (a list of {len(str(marks))} characters)")
    assert len(str(long.value)) < 100


@pytest.mark.parametrize("x0", [5, "abc"])
def test_empty_trend_still_checks_the_start_point(x0):
    # An empty schedule rejects a start point as orbit_coding(t, x0, 0) does.
    t = rotation(F(1))
    with pytest.raises(OutOfDomain):
        orbit_coding(t, x0, 0)
    with pytest.raises(OutOfDomain):
        discrepancy_trend(t, x0, [])


def test_diagnostics_validate_inputs():
    t = rotation(F(1))
    with pytest.raises(InvalidBound):
        visit_frequencies(t, F(1, 4), 0)
    with pytest.raises(InvalidBound):
        visit_frequencies(t, F(1, 4), 10, cells=0)
    with pytest.raises(OutOfDomain):
        visit_frequencies(t, F(5), 10)
    with pytest.raises(OutOfDomain):
        discrepancy_trend(t, F(-1), [3])
