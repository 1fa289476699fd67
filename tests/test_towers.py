"""``orbit_coding`` and ``find_connections`` read off Rauzy–Veech towers,
against the loops that take one lookup per step and the Fraction oracle.

``ietkit.rauzy._towers`` climbs as far as the work of the loop needs; the
``level`` fixture fixes that work instead, so that the step counts n and
the bounds max_m can fall below, at and above the heights of one known
level's towers.  The towers' hits are checked against plain steps from
each tower's base, and the coding's memory against its length.  The
orders' kernel, with an end slot, is checked against the step and tie on
orders with -1 ends that it replaced, and against plain Python lists.
"""

from __future__ import annotations

import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

import ietkit.rauzy as rauzy
from ietkit import build_iet, find_connections, orbit_coding, random_irreducible, validate_permutation
from ietkit.iet import _scaled_ints

from conftest import (
    SEED,
    reference_absorb,
    reference_find_connections,
    reference_orbit_coding,
    reference_rauzy_step,
    scaled_ints,
)
from oracles import oracle_connections

F = Fraction


@pytest.fixture()
def level(monkeypatch):
    """Fix the work that the towers are climbed for, whatever the loop's."""
    towers = rauzy._towers

    def force(work: int) -> None:
        monkeypatch.setattr(rauzy, "_towers", lambda points, shift, total, _, *rest: towers(
            points, shift, total, work, *rest))

    return force


def starting_hits(d: int) -> list[list[tuple[int, int]]]:
    """Each gap's hits before the climb: gap j > 0 starts on the j-th break."""
    return [[]] + [[(0, j)] for j in range(1, d)]


def towers_of(t, x0=F(0), work: int = 10**6) -> rauzy._Towers:
    x, total, breaks, trans = _scaled_ints(t, x0)
    return rauzy._towers(breaks[:-1], trans, total, work, x, starting_hits(t.d))


def exchange(rng: random.Random, d: int, digits: int, any_sigma: bool = False):
    if any_sigma or d == 1:
        sigma = validate_permutation(rng.sample(range(1, d + 1), d))
    else:
        sigma = random_irreducible(d, rng.getrandbits(32))
    top = 10**digits
    return build_iet(sigma, [F(rng.randint(1, 3 * top), rng.randint(1, top)) for _ in range(d)])


def around(values, lo: int = 1) -> set[int]:
    return {v + e for v in values for e in (-1, 0, 1) if v + e >= lo}


def check_both(t, x0, ns, ms) -> None:
    for n in ns:
        assert orbit_coding(t, x0, n) == reference_orbit_coding(t, x0, n)
    for max_m in ms:
        assert find_connections(t, max_m) == reference_find_connections(t, max_m)


# ---------------------------------------------------------------------------
# the towers


def walk(links: list[int], start: int, stop: int) -> list[int]:
    """The symbols from ``start`` along ``links`` up to ``stop``; a walk
    longer than the symbols is cut off, so a broken order reads wrong."""
    out = []
    while start != stop and len(out) < len(links):
        out.append(start)
        start = links[start]
    return out


def test_order_kernel_matches_the_references_and_a_list_model():
    # Runs of the induction's operations on random orders, d <= 12: bare
    # moves of a last symbol after any other, Zorich groups, ties and
    # cylinders.  After each, both orders read the same forward from the end
    # slot's nxt and backward from its prev, and the same as the model's
    # lists and the references' -1-ended lists.
    rng = random.Random(f"{SEED}/order-kernel")
    done = Counter()
    for _ in range(400):
        d = rng.randint(1, 12)
        model = [list(range(d)), rng.sample(range(d), d)]
        lengths = [rng.randint(1, rng.choice([2, 5, 1000])) for _ in range(d)]
        links = [rauzy._linked(order) for order in model]
        old = [[[-1 if j == d else j for j in half[:d]] for half in pair] for pair in links]
        lasts = [order[-1] for order in model]
        for _ in range(40):
            if not model[0]:
                break
            a, b = lasts
            if rng.random() < 0.25 and len(model[0]) > 1:
                side = rng.randrange(2)
                order = model[side]
                loser, winner = order[-1], rng.choice(order[:-1])
                rauzy._move(*links[side], loser, winner)
                unit = [1] * d
                unit[winner] = 2
                lasts[side] = reference_rauzy_step(unit, *old[side], winner, loser)
                order.remove(loser)
                order.insert(order.index(winner) + 1, loser)
                done["move"] += 1
            elif a == b:
                for side in range(2):
                    rauzy._unlink(*links[side], a)
                    lasts[side] = old[side][0][a]
                    if lasts[side] >= 0:
                        old[side][1][lasts[side]] = -1
                    model[side].pop()
                done["cylinder"] += 1
            elif lengths[a] == lengths[b]:
                rauzy._unlink(*links[0], a)
                rauzy._move(*links[1], b, a)
                rauzy._unlink(*links[1], a)
                lasts = list(reference_absorb(*old[0], *old[1], a, b))
                model[0].pop()
                model[1].pop()
                model[1][model[1].index(a)] = b
                done["tie"] += 1
            else:
                side = int(lengths[a] > lengths[b])
                winner, loser = (b, a) if side == 0 else (a, b)
                before = lengths[:]
                losses = rauzy._zorich(lengths, *links[side], winner)
                # The same group one reference step at a time.
                losers = []
                order = model[side]
                while (last := reference_rauzy_step(before, *old[side], winner, loser)) is not None:
                    losers.append(loser)
                    order.remove(loser)
                    order.insert(order.index(winner) + 1, loser)
                    loser = last
                lasts[side] = loser
                assert lengths == before
                assert [g for g, _ in losses] == list(dict.fromkeys(losers))
                assert dict(losses) == Counter(losers)
                done["group"] += 1
                # Three losses or more take whole cycles by the division.
                done["division"] += max(r for _, r in losses) > 2
            for side in range(2):
                prev, nxt = links[side]
                order = model[side]
                assert walk(nxt, nxt[d], d) == order == walk(prev, prev[d], d)[::-1]
                assert walk(old[side][0], lasts[side], -1)[::-1] == order
    assert min(done.values()) > 100, done


def test_every_group_of_the_climb_takes_a_loss(monkeypatch):
    # Each pass of the climb drops a symbol or cuts [0, L), so the climb
    # ends.  A group that took no loss would leave the level as it was, and
    # the climb would run on without end instead of failing.
    group = rauzy._zorich

    def checked(*args):
        losses = group(*args)
        assert losses, "a Zorich group without a loss"
        return losses

    monkeypatch.setattr(rauzy, "_zorich", checked)
    rng = random.Random(f"{SEED}/group-losses")
    for case in range(60):
        t = exchange(rng, rng.randint(1, 7), rng.choice([1, 2, 3]), any_sigma=case % 5 == 0)
        towers_of(t, t.total * F(rng.randint(0, 999), 1000))


def test_hits_are_the_floors_that_start_on_a_break():
    # T^t of each base's start, t below the tower's height, is a break
    # exactly at the tower's hits, every interior break is one hit of one
    # tower, and a cylinder's node does not move its base.
    rng = random.Random(f"{SEED}/tower-hits")
    for case in range(60):
        t = exchange(rng, rng.randint(1, 7), rng.choice([1, 2, 3]), any_sigma=case % 5 == 0)
        _, total, breaks, trans = scaled_ints(t, 0)
        targets = {b: j for j, b in enumerate(breaks[:-1], start=1)}
        for work in (0, 50, 2_000, 10**6):
            tw = towers_of(t, work=work)
            assert tw.starts == sorted(tw.starts) and tw.starts[0] == 0
            seen = []
            for base, s, hits in zip(tw.starts, tw.nodes, tw.hits):
                x, want = base, []
                for step in range(min(tw.heights[s], 5_000)):
                    if x in targets:
                        want.append((step, targets[x]))
                    x += trans[bisect_right(breaks, x)]
                if tw.heights[s] <= 5_000:
                    assert x == base + tw.moves[s]
                    assert hits == want
                    if base >= tw.L:
                        assert tw.moves[s] == 0
                else:
                    assert hits[: len(want)] == want
                seen += [j for _, j in hits]
            assert sorted(seen) == list(range(1, t.d))


def test_hits_are_data_only():
    # Carrying the hits changes no other field of the level: the climb, the
    # towers and the followed orbit are the same without them.
    rng = random.Random(f"{SEED}/tower-hits")
    for case in range(60):
        t = exchange(rng, rng.randint(1, 7), rng.choice([1, 2, 3]), any_sigma=case % 5 == 0)
        x, total, breaks, trans = _scaled_ints(t, t.total * F(rng.randint(0, 999), 1000))
        for work in (0, 50, 2_000, 10**6):
            bare = rauzy._towers(breaks[:-1], trans, total, work, x)
            carried = rauzy._towers(breaks[:-1], trans, total, work, x, starting_hits(t.d))
            assert bare.hits is None and len(carried.hits) == len(carried.starts)
            assert bare._replace(hits=carried.hits) == carried


@pytest.mark.parametrize("work", [10, 300, 10**4, 10**9])
def test_counts_below_at_and_above_each_tower_height(work, level):
    # One level per work, with n and max_m on both sides of every height
    # of its towers and of the first step counts at which the orbit is back
    # on a base.
    rng = random.Random(f"{SEED}/tower-heights/{work}")
    level(work)
    for case in range(25):
        t = exchange(rng, rng.randint(2, 7), rng.choice([1, 2, 4]), any_sigma=case % 5 == 0)
        x0 = t.total * F(rng.randint(0, 999), 1000)
        tw = towers_of(t, x0, work)
        heights = [tw.heights[s] for s in tw.nodes if tw.heights[s] <= 3_000]
        returns = [sum(c * tw.heights[s] for s, c in tw.entry[:k]) for k in range(1, len(tw.entry) + 1)]
        ns = around(heights + [h for h in returns if h <= 3_000], 0)
        check_both(t, x0, ns, around(heights))


def test_connections_of_a_break_on_a_high_floor(level):
    # x_i on floor f of a tall tower: its first hits are the rest of that
    # tower, found without a step.
    t = build_iet(validate_permutation([2, 1]), [F(1), 10**3 + F(1, 10**3)])
    level(10**9)
    got = find_connections(t, 5_000)
    assert got == reference_find_connections(t, 5_000)
    assert [(c.m, c.i, c.j) for c in got] == oracle_connections([2, 1], t.lengths, 5_000)


# ---------------------------------------------------------------------------
# named cases


def test_one_symbol(step_budget):
    step_budget[0] = 10 * 9
    t = build_iet(validate_permutation([1]), [F(5, 3)])
    for x0 in (F(0), F(1, 2), F(3, 2)):
        for n in (0, 1, 2, 10**5):
            assert orbit_coding(t, x0, n) == [1] * n
    assert find_connections(t, 10**12) == []


@pytest.mark.parametrize("x0", [F(0), F(1), F(2), F(5, 2), F(1, 3)])
def test_reducible_exchange(x0, step_budget):
    # sigma = [2,1,4,3] is a period-2 swap on [0, 2), two cylinders, and a
    # rotation on [2, total) whose orbits do not return within these counts.
    step_budget[0] = 10 * 18
    t = build_iet(validate_permutation([2, 1, 4, 3]), [1, 1, F(1597, 987), F(999983, 1000003)])
    check_both(t, x0, (0, 1, 2, 3, 1000, 20_001), (1, 2, 3, 100, 4_001))
    assert [(c.m, c.i, c.j) for c in find_connections(t, 300)] == oracle_connections(
        [2, 1, 4, 3], t.lengths, 300)


def test_tie_of_the_unit_swap(step_budget):
    # a = (1, 1): the first step is a tie, and the level is one cylinder of
    # height 2 whose hits are x_1 at t = 1.
    step_budget[0] = 10 * 23
    t = build_iet(validate_permutation([2, 1]), [1, 1])
    tw = towers_of(t)
    assert (tw.L, tw.starts, tw.hits, [tw.heights[s] for s in tw.nodes]) == (0, [0], [[(1, 1)]], [2])
    for x0 in (F(0), F(1), F(1, 2), F(3, 2)):
        check_both(t, x0, (0, 1, 2, 3, 10**5 + 1), ())
    got = find_connections(t, 10**5 + 1)
    assert [(c.m, c.i, c.j) for c in got] == [(m, 1, 1) for m in range(2, 10**5 + 1, 2)]


def test_orbits_from_a_break_and_inside_cylinders():
    rng = random.Random(f"{SEED}/tower-cylinders")
    cylinders = 0
    for case in range(40):
        t = exchange(rng, rng.randint(2, 6), 1, any_sigma=case % 2 == 0)
        tw = towers_of(t)
        cylinders += sum(1 for s in tw.starts if s >= tw.L)
        for x0 in {*t.disc_top[:-1], F(0), t.total * F(rng.randint(0, 999), 1000)}:
            check_both(t, x0, (1, 37, rng.randint(1, 20_000)), ())
        assert find_connections(t, 2_000) == reference_find_connections(t, 2_000)
    assert cylinders > 40


# ---------------------------------------------------------------------------
# long bounds


def periodic_reference(t, max_m: int) -> list[tuple[int, int, int]]:
    """The hits over one period of each break's orbit, one lookup a step,
    repeated up to max_m."""
    _, _, breaks, trans = scaled_ints(t, 0)
    targets = {b: j for j, b in enumerate(breaks[:-1], start=1)}
    found = []
    for i in range(1, t.d):
        x = start = breaks[i - 1]
        m, period = 0, []
        while True:
            x += trans[bisect_right(breaks, x)]
            m += 1
            if x in targets:
                period.append((m, targets[x]))
            if x == start:
                break
        for first, j in period:
            found += [(k, i, j) for k in range(first, max_m + 1, m)]
    return sorted(found)


def test_connections_to_a_billion_repeat_one_period(step_budget):
    # Scaled totals of at most 10^5, and periods of at least 10^4, so the
    # output stays near 10^5 connections.
    step_budget[0] = 10 * 23
    rng = random.Random(f"{SEED}/tower-billion")
    cases = 0
    while cases < 4:
        d = rng.randint(2, 3)
        t = build_iet(random_irreducible(d, rng.getrandbits(32)),
                      [F(rng.randint(10**4, 3 * 10**4), rng.choice([1, 2, 3])) for _ in range(d)])
        _, total, breaks, trans = scaled_ints(t, 0)
        if total > 10**5:
            continue
        want = periodic_reference(t, 10**9)
        if len(want) > 4 * 10**5:
            continue
        cases += 1
        assert [(c.m, c.i, c.j) for c in find_connections(t, 10**9)] == want


def test_huge_bounds_keep_the_first_hits(step_budget):
    # max_m = 10^12 on the benchmark's kind of exchange, d = 20 with lengths
    # over two primes near 10^6, whose orbits do not return: the hits up to
    # 5,000 are those of the plain loop.
    step_budget[0] = 10 * 790
    rng = random.Random(f"{SEED}/tower-huge")
    sigma = random_irreducible(20, rng.getrandbits(32))
    t = build_iet(sigma, [F(rng.randint(10**6, 2 * 10**6), rng.choice((999_983, 1_000_003))) for _ in range(20)])
    got = find_connections(t, 10**12)
    assert [c for c in got if c.m <= 5_000] == reference_find_connections(t, 5_000)


# ---------------------------------------------------------------------------
# memory


@pytest.mark.parametrize("n", [10, 10**5])
@pytest.mark.parametrize("x0", [F(0), F(1), F(10**6 // 3)])
def test_coding_builds_no_word_longer_than_n(n, x0, step_budget):
    # The Zorich case: a = (1, 10^6 + 1/10^6) gives a tower of height
    # 10^6 + 1 at the first level.  Its word is never built whole: the
    # coding takes its prefix, and the peak stays within a few bytes per
    # step plus a bounded amount per node and symbol, far below the 8 MB
    # that a list of 10^6 codes takes.
    step_budget[0] = 10 * 2
    t = build_iet(validate_permutation([2, 1]), [F(1), 10**6 + F(1, 10**6)])
    tw = towers_of(t, x0, n)
    assert max(tw.heights[s] for s in tw.nodes) == 10**6 + 1
    tracemalloc.start()
    try:
        codes = orbit_coding(t, x0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == reference_orbit_coding(t, x0, n)
    assert peak < 24 * n + 1000 * len(tw.kids) * t.d
