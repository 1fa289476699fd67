"""The Rauzy–Veech counting loop of ``ietkit.rauzy._visits`` against the k-step
walk it replaced (``reference_walk``) and the loops that take every step.

``_visits`` counts the visits per piece of the partition that
``visit_frequencies`` and ``discrepancy_trend`` build; ``cell_partition``
builds the same one from the exchange, the start point and the cells.  The
step counts that matter to the induction are the times at which the orbit
enters [0, L) for the levels L that it reaches: an induced step ends there,
and a count that stops one step short of such a time goes down a chain of
nodes.  ``level_lengths`` records those L as the induction makes them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

import ietkit.rauzy as rauzy
from ietkit import (
    build_iet,
    discrepancy_trend,
    random_irreducible,
    validate_permutation,
    visit_frequencies,
)
from ietkit.rauzy import _visits

from conftest import (
    SEED,
    cell_partition,
    period_of,
    reference_discrepancy_trend,
    reference_orbit_coding,
    reference_visit_frequencies,
    reference_walk,
)

F = Fraction


def plain_counts(points, shift, x, marks) -> list[list[int]]:
    """Visits per gap at each mark, one lookup per step."""
    counts, out = [0] * len(shift), []
    step = 0
    for mark in marks:
        for step in range(step, mark):
            j = bisect_right(points, x)
            counts[j] += 1
            x += shift[j]
        step = mark
        out.append(list(counts))
    return out


@pytest.fixture()
def level_lengths(monkeypatch):
    """The length L of [0, L) after each Zorich group, in the order made."""
    found = []
    group = rauzy._zorich

    def record(lengths, prev, nxt, winner):
        result = group(lengths, prev, nxt, winner)
        # The end slot, after the last symbol, is numbered len(lengths).
        end = len(lengths)
        last, live = prev[end], 0
        while last != end:
            live += lengths[last]
            last = prev[last]
        found.append(live)
        return result

    monkeypatch.setattr(rauzy, "_zorich", record)
    return found


def entry_times(points, shift, x, lengths, horizon: int, per_level: int = 3) -> set[int]:
    """For each L, the first ``per_level`` times t <= horizon with T^t(x) in
    [0, L), each with t - 1 and t + 1."""
    orbit = []
    for _ in range(horizon + 1):
        orbit.append(x)
        x += shift[bisect_right(points, x)]
    times = set()
    for L in lengths:
        hits = [t for t, y in enumerate(orbit) if y < L and t > 0][:per_level]
        for t in hits:
            times |= {t - 1, t, t + 1}
    return {t for t in times if t >= 1}


def golden():
    return build_iet(validate_permutation([2, 1]), [F(1), F(1597, 987)])


# ---------------------------------------------------------------------------
# named cases


def test_one_symbol_is_one_cylinder(step_budget):
    step_budget[0] = 10 * 27
    t = build_iet(validate_permutation([1]), [F(5, 3)])
    for x0 in (F(0), F(1, 2), F(3, 2)):
        for cells in (1, 2, 7):
            points, shift, breaks, x = cell_partition(t, x0, cells)
            marks = sorted({1, 2, cells * cells, 10**15})
            got = list(_visits(points, shift, breaks, x, marks))
            assert got == reference_walk(points, shift, breaks, x, marks)
            j = bisect_right(points, x)
            assert got[-1] == [10**15 if i == j else 0 for i in range(len(shift))]
            for n in (cells * cells, cells * cells + 5):
                assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)


@pytest.mark.parametrize("x0", [F(1, 3), F(0), F(1), F(5, 2), F(3)])
def test_reducible_exchange_matches_the_walk(x0, step_budget):
    # sigma = [2,1,4,3] splits into a period-2 swap on [0, 2) and a rotation
    # on [2, total) whose orbits do not return within these counts.
    step_budget[0] = 10 * 40
    t = build_iet(validate_permutation([2, 1, 4, 3]), [1, 1, F(1597, 987), F(999983, 1000003)])
    for cells in (1, 64):
        points, shift, breaks, x = cell_partition(t, x0, cells)
        # The swap's orbits return after 2 steps; the rotation's do not.
        marks = [cells * cells, 10**4 + 1, 10**7 if x0 < 2 else 10**6]
        assert list(_visits(points, shift, breaks, x, marks)) == reference_walk(points, shift, breaks, x, marks)
        n = max(cells * cells, 3001)
        assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)
    schedule = [1, 2, 3, 999, 1000, 4001]
    assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)


def test_cells_beyond_the_total():
    # Scaled totals of 2 and 5 against 7 and 40 cells: cell starts coincide,
    # and some reach the total.
    for t in (build_iet(validate_permutation([2, 1]), [1, 1]),
              build_iet(validate_permutation([3, 1, 2]), [1, 3, 1])):
        for x0 in (F(0), F(1)):
            for cells in (7, 40):
                points, shift, breaks, x = cell_partition(t, x0, cells)
                assert len(points) < cells
                marks = [cells * cells, cells * cells + 1, 5 * cells * cells + 3]
                assert list(_visits(points, shift, breaks, x, marks)) == plain_counts(points, shift, x, marks)
                for n in marks:
                    assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)


def test_start_at_zero_and_on_a_break(step_budget):
    step_budget[0] = 10 * 7_983
    rng = random.Random(f"{SEED}/induction-starts")
    for _ in range(20):
        d = rng.randint(2, 7)
        t = build_iet(random_irreducible(d, rng.getrandbits(32)),
                      [F(rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(d)])
        for x0 in (F(0), rng.choice(t.disc_top[:-1])):
            cells = rng.choice([1, 3, 16])
            points, shift, breaks, x = cell_partition(t, x0, cells)
            marks = sorted({cells * cells, rng.randint(1, 500), rng.randint(501, 20_000)})
            assert list(_visits(points, shift, breaks, x, marks)) == plain_counts(points, shift, x, marks)
            assert list(_visits(points, shift, breaks, x, marks)) == reference_walk(points, shift, breaks, x, marks)
            schedule = [1, 7, 100, marks[-1]]
            assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)


def test_start_at_the_left_end_of_its_cylinder(step_budget):
    # The climb ends when the cylinder that holds the start is cut off, and
    # the start is that cylinder's left end, so [0, L) ends exactly there.
    step_budget[0] = 10 * 20
    t = build_iet(validate_permutation([5, 4, 3, 2, 1]), [F(15, 2), 1, 20, F(1, 2), F(13, 2)])
    x0 = F(15, 2)
    p = period_of(t, x0)
    assert p > 8
    for cells in (1, 2):
        points, shift, breaks, x = cell_partition(t, x0, cells)
        marks = sorted({cells * cells, p - 1, p, p + 1, 10**15})
        assert list(_visits(points, shift, breaks, x, marks)) == reference_walk(points, shift, breaks, x, marks)


@pytest.mark.parametrize("x0", [F(0), F(1, 7919), F(331, 1000)])
def test_golden_rotation_counts_whole_periods(x0, step_budget):
    # Every orbit of the rotation by 1597/2584 returns after 2584 steps.
    step_budget[0] = 10 * 1_838
    t = golden()
    p = period_of(t, x0)
    assert p == 2584
    whole = Counter(reference_orbit_coding(t, x0, p))
    for n in (p - 1, p, p + 1, 3 * p + 17, 200_000):
        assert visit_frequencies(t, x0, n) == reference_visit_frequencies(t, x0, n)
    n = 10**15 + 12_345
    q, r = divmod(n, p)
    rest = Counter(reference_orbit_coding(t, x0, r))
    got = visit_frequencies(t, x0, n, 64)
    assert [f * n for f in got.frequencies] == [q * whole[j] + rest[j] for j in (1, 2)]
    points, shift, breaks, x = cell_partition(t, x0, 64)
    marks = [p - 1, p, 7 * p + 5, n]
    assert list(_visits(points, shift, breaks, x, marks)) == reference_walk(points, shift, breaks, x, marks)


@pytest.fixture()
def climbs(monkeypatch):
    """The nodes of each level that ``_towers`` climbs, in the order made."""
    made = []
    towers = rauzy._towers

    def record(*args):
        level = towers(*args)
        made.append(len(level.kids))
        return level

    monkeypatch.setattr(rauzy, "_towers", record)
    return made


def d20_exchange():
    # The benchmark's kind of exchange: lengths over two primes near 10^6,
    # whose orbits do not return within these counts.
    rng = random.Random(f"{SEED}/one-level")
    sigma = random_irreducible(20, rng.getrandbits(32))
    t = build_iet(sigma, [F(rng.randint(10**6, 2 * 10**6), rng.choice((999_983, 1_000_003))) for _ in range(20)])
    return t, t.total / 3


@pytest.mark.parametrize("case", ["d20", "golden", "reducible", "cylinder"])
def test_one_level_serves_the_whole_schedule(case, climbs, step_budget):
    # Counted alone, a mark climbs a level for its own steps; inside a
    # schedule that ends at 10^12 it is counted at the level climbed for
    # the last mark.  Both give the counts of plain steps.  These orbits
    # spread over most of [0, total), as the climb's depth assumes, so one
    # level is enough.  The cylinder start lies inside the cylinder of
    # period 14 that holds 15/2.
    step_budget[0] = 10 * {"d20": 5_539, "golden": 1_061, "reducible": 152, "cylinder": 250}[case]
    if case == "d20":
        t, x0 = d20_exchange()
    elif case == "golden":
        t, x0 = golden(), F(331, 1000)
    elif case == "reducible":
        t, x0 = build_iet(validate_permutation([2, 1, 4, 3]), [1, 1, F(1597, 987), F(999983, 1000003)]), F(5, 2)
    else:
        t, x0 = build_iet(validate_permutation([5, 4, 3, 2, 1]), [F(15, 2), 1, 20, F(1, 2), F(13, 2)]), F(31, 4)
    marks = [9, 100, 2_583, 2_584, 30_011, 10**5]
    for cells in (1, 16):
        points, shift, breaks, x = cell_partition(t, x0, cells)
        climbs.clear()
        alone = [next(_visits(points, shift, breaks, x, [mark])) for mark in marks]
        shallow = climbs[:]
        assert len(shallow) == len(marks)
        climbs.clear()
        counting = _visits(points, shift, breaks, x, marks + [10**9, 10**12])
        schedule = [next(counting)]
        # The one climb is made before the first count, for the last mark.
        assert len(climbs) == 1 and shallow[0] < climbs[0] and max(shallow) <= climbs[0]
        schedule += counting
        assert len(climbs) == 1
        want = plain_counts(points, shift, x, marks)
        assert schedule[: len(marks)] == alone == want
        assert want == reference_walk(points, shift, breaks, x, marks)
        assert schedule[-1] == next(_visits(points, shift, breaks, x, [10**12]))
        assert sum(schedule[-1]) == 10**12


@pytest.mark.parametrize("n", [10**7, 10**9, 10**12])
def test_orbit_in_a_small_component_takes_few_steps(n, step_budget, climbs):
    # sigma = [2,1,4,3] splits into a rotation by 1 on [0, 1.618...), whose
    # period is about 1.1 * 10^9, and a rotation on the rest, about 2 * 10^6
    # long, which the induction climbs first.  Judged from the whole
    # interval, a level where the orbit of 1/2 still takes millions of
    # induced steps looks deep enough.  A level stepped past its budget climbs
    # again, for the orbit's own rate, so the count takes a few hundred
    # steps, and a few thousand with 64 cells.
    t = build_iet(validate_permutation([2, 1, 4, 3]),
                  [F(701_408_733, 1_134_903_170), 1, 10**6, 10**6 + F(1, 999_983)])
    x0 = F(1, 2)
    points, shift, breaks, x = cell_partition(t, x0, 1)
    step_budget[0] = 1_000
    got = next(_visits(points, shift, breaks, x, [n]))
    # The orbit wraps round [0, a_1 + 1) once for each visit to the second
    # interval.
    wraps = (x0 + n) // (t.lengths[0] + 1)
    assert got == [n - wraps, wraps, 0, 0]
    assert len(climbs) > 1 and climbs == sorted(climbs) and climbs[0] < climbs[-1]
    # 64 cells cut only the rotation the orbit does not visit.
    step_budget[0] = 10_000
    assert visit_frequencies(t, x0, n).frequencies == tuple(F(c, n) for c in got)


# ---------------------------------------------------------------------------
# step counts around the levels


def small_denominators(rng: random.Random):
    d = rng.randint(2, 6)
    return build_iet(random_irreducible(d, rng.getrandbits(32)),
                     [F(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(d)])


def large_denominators(rng: random.Random):
    d = rng.randint(2, 7)
    return build_iet(random_irreducible(d, rng.getrandbits(32)),
                     [F(rng.randint(10**5, 2 * 10**5), rng.choice((99_991, 100_003))) for _ in range(d)])


@pytest.mark.parametrize("kind", ["small", "large"])
def test_counts_below_at_and_above_the_node_heights(kind, level_lengths):
    # The marks are the times the orbit enters [0, L) for the levels the
    # induction made on a first run, with one step less and one more; all of
    # them in one schedule are marks that fall across levels.
    # An orbit that returns within the first 8 plain steps makes no level,
    # so such draws are skipped.
    rng = random.Random(f"{SEED}/induction-heights/{kind}")
    make = small_denominators if kind == "small" else large_denominators
    cases = draws = 0
    while cases < 12:
        # Twelve cases take 13 draws at the default SEED; a count that never
        # climbs makes no level at all, and fails at the bound instead of
        # drawing forever.
        draws += 1
        assert draws <= 100, "no level made in 100 draws"
        t = make(rng)
        x0 = t.total * F(rng.randint(0, 999), 1000)
        cells = rng.choice([1, 2, 8])
        points, shift, breaks, x = cell_partition(t, x0, cells)
        level_lengths.clear()
        list(_visits(points, shift, breaks, x, [20_000]))
        if not level_lengths:
            continue
        cases += 1
        marks = sorted(entry_times(points, shift, x, level_lengths, 20_000) | {cells * cells})
        want = plain_counts(points, shift, x, marks)
        assert list(_visits(points, shift, breaks, x, marks)) == want
        for mark, counts in zip(marks[::7], want[::7]):
            assert list(_visits(points, shift, breaks, x, [mark])) == [counts]
        schedule = marks[:40]
        assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)


# ---------------------------------------------------------------------------
# a random stream


def test_random_stream_matches_the_walk():
    # 400 exchanges, d 1 to 7, a fifth of them with any permutation, so
    # often a reducible one; lengths with denominators up to 10^6, n up to
    # 10^5 and 1 to 64 cells.
    rng = random.Random(f"{SEED}/induction-stream")
    for case in range(400):
        d = rng.randint(1, 7)
        if d > 1 and rng.random() < 0.8:
            sigma = random_irreducible(d, rng.getrandbits(32))
        else:
            sigma = validate_permutation(rng.sample(range(1, d + 1), d))
        digits = rng.choice([1, 2, 3, 6])
        t = build_iet(sigma, [F(rng.randint(1, 10**digits), rng.randint(1, 10**digits)) for _ in range(d)])
        x0 = rng.choice([F(0), t.total * F(rng.randint(0, 999), 1000), t.disc_top[rng.randrange(d)] % t.total])
        cells = rng.randint(1, 64)
        points, shift, breaks, x = cell_partition(t, x0, cells)
        marks = sorted({rng.randint(1, 10 ** rng.randint(1, 5)) for _ in range(rng.randint(1, 6))})
        assert list(_visits(points, shift, breaks, x, marks)) == reference_walk(points, shift, breaks, x, marks)
        if case % 8 == 0:
            n = min(marks[-1], 20_000)
            if cells * cells <= n:
                assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)
