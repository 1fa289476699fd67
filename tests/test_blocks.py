"""The k-step table that the references keep, squared against one-step
passes, and the orbit loops against the loops that take one lookup per step.

The package walks no k-step table: ``orbit_coding`` and ``find_connections``
read Rauzy–Veech towers, and ``visit_frequencies`` and ``discrepancy_trend``
count by the induction.  ``reference_table`` in conftest keeps the table for
``reference_walk``; its tests here check that squaring gives the table of k
one-step passes, and that ``reference_block_length`` derives k as the orbit
loops once did.  The orbit tests keep a k, a power of two, as the scale of
their step counts, so that each meets short and long runs, and check that
the induction keeps its memory to O(pieces + nodes).
"""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import ietkit.iet as iet
import ietkit.rauzy as rauzy
from ietkit import (
    build_iet,
    discrepancy_trend,
    find_connections,
    orbit_coding,
    random_irreducible,
    validate_permutation,
    visit_frequencies,
)
from ietkit.iet import _scaled_ints

from conftest import (
    MAX_BLOCK,
    MAX_TABLE_PIECES,
    SEED,
    TABLE_SHARE,
    cell_partition,
    period_of,
    random_rational_exchange,
    reference_block_length,
    reference_blocks,
    reference_discrepancy_trend,
    reference_find_connections,
    reference_orbit_coding,
    reference_steps,
    reference_table,
    reference_visit_frequencies,
    reference_walk,
)
from oracles import oracle_connections

F = Fraction
KS = [2, 4, 8, 16, 32, 64]


def small_exchange(rng: random.Random, d: int | None = None):
    """Lengths p/q with q <= 4: the scaled total is small, so orbits return."""
    d = d or rng.randint(2, 6)
    sigma = random_irreducible(d, rng.getrandbits(32))
    return build_iet(sigma, [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d)])


def step_counts(k: int, rng: random.Random) -> set[int]:
    """n < k, n = k and n = j k + r, with 0 included."""
    return {0, 1, k - 1, k, k + 1, rng.randint(2, 9) * k + rng.randint(1, k - 1), 3 * k}


def one_symbol():
    return build_iet(validate_permutation([1]), [F(5, 3)])


# ---------------------------------------------------------------------------
# the references' k-step table


@pytest.mark.parametrize("k", [1, *KS])
def test_blocks_are_the_coarsest_partition_with_one_k_step_itinerary(k):
    # On small totals every integer is checked: points of one piece share the
    # first k pieces visited and move by the piece's shift, and the two sides
    # of every cut differ, so cuts are exactly the T^(-t)(p) with t < k.
    rng = random.Random(f"{SEED}/blocks/{k}")
    for _ in range(25):
        t = small_exchange(rng)
        _, total, breaks, trans = _scaled_ints(t, F(0))
        points = breaks[:-1]
        cuts, moves = reference_table(points, trans, total, k)[:2]
        assert cuts == sorted(set(cuts)) and all(0 < c < total for c in cuts)
        assert len(moves) == len(cuts) + 1
        starts = [0, *cuts]
        for x in range(total):
            p = sum(1 for c in cuts if c <= x)
            word = reference_steps(points, trans, x, k)
            assert word == reference_steps(points, trans, starts[p], k)
            assert x + moves[p] == x + sum(trans[j] for j in word)
        for c in cuts:
            assert reference_steps(points, trans, c, k) != reference_steps(points, trans, c - 1, k)


def test_blocks_of_one_step_are_the_partition_itself():
    _, total, breaks, trans = _scaled_ints(build_iet(validate_permutation([3, 1, 2]), [1, 2, 3]), F(0))
    assert reference_table(breaks[:-1], trans, total, 1)[:2] == (breaks[:-1], trans)
    assert reference_table([], [0], 7, 4)[:2] == ([], [0])
    assert reference_table([1], [1, -1], 2, 2) == ([1], [0, 0], 2, [([0, 1], [1, 0])])


def large_exchange(rng: random.Random, d: int = 20):
    """Lengths p / q with q one of two primes near 10^6: the scaled orbits do
    not return within any test's run."""
    sigma = random_irreducible(d, rng.getrandbits(32))
    return build_iet(sigma, [F(rng.randint(10**6, 2 * 10**6), rng.choice((999_983, 1_000_003))) for _ in range(d)])


def test_composed_tables_equal_the_one_step_passes():
    # Squaring gives the cuts and moves of k one-step passes, for every
    # power of two k up to 64, on small exchanges and on one d = 20 exchange
    # with large denominators; the top level names each piece's two pieces
    # of the half-length table, and the lower levels are that table's own.
    rng = random.Random(f"{SEED}/composed-blocks")
    for t in [small_exchange(rng) for _ in range(25)] + [large_exchange(rng)]:
        _, total, breaks, trans = _scaled_ints(t, F(0))
        points = breaks[:-1]
        for k in (1, 2, 4, 8, 16, 32, 64):
            table = reference_table(points, trans, total, k)
            assert table[:2] == reference_blocks(points, trans, total, k)
            assert table.k == k
            assert len(table.levels) == k.bit_length() - 1
            if k > 1:
                half = reference_table(points, trans, total, k // 2)
                first, second = table.levels[0]
                assert first[-1] + 1 == len(half.moves)
                assert [half.moves[i] + half.moves[j] for i, j in zip(first, second)] == table.moves
                assert table.levels[1:] == half.levels


def test_block_length_is_derived_from_work_and_pieces():
    assert reference_block_length(0, 1) == 1
    assert reference_block_length(10**12, 1) == MAX_BLOCK
    for pieces in (1, 20, 83, 30_000):
        ks = [reference_block_length(work, pieces) for work in range(0, 10**6, 997)]
        assert ks == sorted(ks)
        for work, k in zip(range(0, 10**6, 997), ks):
            # The table costs about k visits per piece: at most a
            # 1/TABLE_SHARE share of the work, and k is the largest power
            # of two within that share, the cap and MAX_BLOCK.
            assert k & (k - 1) == 0
            assert k == 1 or k * pieces * TABLE_SHARE <= work
            assert k == MAX_BLOCK or 2 * k * pieces > min(work // TABLE_SHARE, MAX_TABLE_PIECES)
    # 20 and 83 pieces over 200,000 steps take the longest blocks, 20,000
    # steps shorter ones, and the golden rotation's walk, bounded by its
    # 2,584 integers, keeps the plain loop.
    assert [reference_block_length(200_000, p) for p in (20, 83)] == [MAX_BLOCK] * 2
    assert [reference_block_length(20_000, p) for p in (20, 83)] == [16, 4]
    assert reference_block_length(2_000, 20) == 2
    assert reference_block_length(2584, 65) == 1
    # However long the loop, a table keeps at most MAX_TABLE_PIECES pieces.
    cap = MAX_TABLE_PIECES
    assert [reference_block_length(10**9, p) for p in (30_003, cap)] == [4, 1]
    for pieces in (8_192, 8_193, 30_003, cap // 2, cap // 2 + 1, cap, 10 * cap):
        k = reference_block_length(10**15, pieces)
        assert k & (k - 1) == 0
        assert k == 1 or k * pieces <= cap
        assert k == MAX_BLOCK or 2 * k * pieces > cap


# ---------------------------------------------------------------------------
# orbit_coding


@pytest.mark.parametrize("k", KS)
def test_coding_matches_the_plain_loop(k):
    rng = random.Random(f"{SEED}/coding-blocks/{k}")
    for case in range(40):
        t = small_exchange(rng) if case % 2 else random_rational_exchange(rng, case % 7, "interior")[0]
        x0 = t.total * F(rng.randint(0, 999), 1000)
        for n in step_counts(k, rng):
            assert orbit_coding(t, x0, n) == reference_orbit_coding(t, x0, n)
    for n in step_counts(k, rng):
        assert orbit_coding(one_symbol(), F(1, 2), n) == [1] * n


# ---------------------------------------------------------------------------
# find_connections


@pytest.mark.parametrize("k", KS)
def test_connections_match_the_plain_loop_and_the_oracle(k):
    rng = random.Random(f"{SEED}/connections-blocks/{k}")
    offsets = set()
    for case in range(40):
        t = small_exchange(rng) if case % 2 else random_rational_exchange(rng, case % 4, "zero")[0]
        for max_m in {1, k - 1, k, k + 1, 7 * k + rng.randint(0, k - 1)} - {0}:
            got = find_connections(t, max_m)
            assert got == reference_find_connections(t, max_m)
            offsets |= {(c.m - 1) % k for c in got}
        if case < 6:
            images = t.sigma.images
            got = [(c.m, c.i, c.j) for c in find_connections(t, 5 * k)]
            assert got == oracle_connections(images, t.lengths, 5 * k)
    # The hits fall at every residue of m - 1 mod k, so no offset into a
    # run of k steps goes unchecked.
    assert offsets == set(range(k))
    assert find_connections(one_symbol(), 3 * k) == []


def test_connections_check_the_first_point_of_each_block():
    # A k-step walk that looked at offsets 1..k of a block instead of
    # 0..k-1 missed hits on this exchange at k = 2.
    sigma = validate_permutation([3, 1, 4, 2])
    a = [F(2, 5), F(2, 3), F(1, 5), F(4)]
    got = find_connections(build_iet(sigma, a), 223)
    assert got == reference_find_connections(build_iet(sigma, a), 223)
    assert [(c.m, c.i, c.j) for c in got] == oracle_connections(sigma.images, a, 223)
    assert got


# ---------------------------------------------------------------------------
# visit_frequencies and discrepancy_trend


def walk_counts(t, x0, p: int | None, k: int, rng: random.Random) -> set[int]:
    """n around the period p and around lcm(p, k), where the walk sees the return."""
    counts = {1, k - 1, k, k + 1, rng.randint(1, 3000)}
    if p is not None:
        lcm = p * k // math.gcd(p, k)
        counts |= {p - 1, p, p + 1, lcm - 1, lcm, lcm + 1, 3 * lcm + rng.randint(1, lcm)}
    return {n for n in counts if n >= 1}


@pytest.mark.parametrize("k", KS)
def test_frequencies_match_the_plain_loop(k):
    rng = random.Random(f"{SEED}/frequencies-blocks/{k}")
    for case in range(30):
        if case % 3:
            t = small_exchange(rng)
            x0 = t.total * F(rng.randint(0, 99), 100)
            p = period_of(t, x0)
            assert p is not None
        else:
            # Large denominators: the orbit does not return within n.
            t, x0 = random_rational_exchange(rng, 6, "interior")
            p = None
        cells = rng.choice([1, 2, 7, 10, 64])
        for n in walk_counts(t, x0, p, k, rng) | {cells * cells}:
            assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)
    for n in (1, k, 5 * k + 1):
        assert visit_frequencies(one_symbol(), F(1, 3), n, 1) == reference_visit_frequencies(
            one_symbol(), F(1, 3), n, 1)


@pytest.mark.parametrize("k", KS)
def test_frequencies_keep_the_first_return(k, step_budget):
    # 10^15 steps finish only if the walk stops at its first return: the
    # counts are q whole periods plus the first r steps.
    step_budget[0] = 10 * 250
    rng = random.Random(f"{SEED}/frequencies-return/{k}")
    n = 10**15 + rng.randint(0, 10**6)
    for _ in range(10):
        t = small_exchange(rng)
        x0 = t.total * F(rng.randint(0, 99), 100)
        p = period_of(t, x0)
        q, r = divmod(n, p)
        whole = Counter(reference_orbit_coding(t, x0, p))
        rest = Counter(reference_orbit_coding(t, x0, r))
        got = visit_frequencies(t, x0, n, 4)
        assert [f * n for f in got.frequencies] == [q * whole[j] + rest[j] for j in range(1, t.d + 1)]


@pytest.mark.parametrize("k", KS)
def test_trend_matches_the_plain_loop(k):
    rng = random.Random(f"{SEED}/trend-blocks/{k}")
    for case in range(30):
        if case % 2:
            t = small_exchange(rng)
            x0 = t.total * F(rng.randint(0, 99), 100)
        else:
            t, x0 = random_rational_exchange(rng, case % 7, ("zero", "break", "interior")[case % 3])
        # Marks that are not multiples of k, a stretch shorter than k, and one
        # of exactly k.
        schedule = sorted({1, k - 1, k + 1, 2 * k + 1, 3 * k + 1, rng.randint(4 * k, 400)} - {0})
        assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)
    assert discrepancy_trend(one_symbol(), F(0), [1, k, k + 3]) == [(1, F(0)), (k, F(0)), (k + 3, F(0))]


def test_trend_builds_one_table_per_call(monkeypatch):
    # One induction serves the whole schedule; visit_frequencies builds one
    # when cells^2 <= n and none when its plain loop runs.
    built = []
    start = rauzy._orders
    monkeypatch.setattr(rauzy, "_orders", lambda *args: built.append(args) or start(*args))
    t, x0 = random_rational_exchange(random.Random(f"{SEED}/trend-once"), 6, "interior")
    schedule = [3, 10, 17, 100, 101, 350]
    assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)
    assert len(built) == 1
    assert visit_frequencies(t, x0, 350, 16) == reference_visit_frequencies(t, x0, 350, 16)
    assert len(built) == 2
    assert visit_frequencies(t, x0, 350, 19) == reference_visit_frequencies(t, x0, 350, 19)
    assert len(built) == 2
    assert discrepancy_trend(t, x0, []) == []
    assert len(built) == 2


# ---------------------------------------------------------------------------
# long orbits and memory


def test_derived_k_on_long_orbits_matches_the_plain_loops():
    # Orbits that the k-step walk once took 32 steps a lookup.
    rng = random.Random(f"{SEED}/derived-k")
    sigma = random_irreducible(20, rng.getrandbits(32))
    t = build_iet(sigma, [F(rng.randint(10**6, 2 * 10**6), 999_983) for _ in range(20)])
    x0 = t.total * F(rng.randint(0, 999), 1000)
    n = 30_011
    assert reference_block_length(n, 20) == 32
    assert orbit_coding(t, x0, n) == reference_orbit_coding(t, x0, n)
    assert visit_frequencies(t, x0, n, 16) == reference_visit_frequencies(t, x0, n, 16)
    assert find_connections(t, 1601) == reference_find_connections(t, 1601)
    schedule = [1000, 7777, n]
    assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)


def test_short_periodic_walk_keeps_the_plain_loop():
    # The package keeps no k-step table; the counting loop matches the
    # references on orbits that return (the golden rotation's within 2584
    # steps) and on orbits that do not.
    for name in ("_TABLE_SHARE", "_MAX_BLOCK", "_MAX_TABLE_PIECES", "_block_length",
                 "_Table", "_square", "_blocks", "_table", "_words"):
        assert not hasattr(iet, name) and not hasattr(rauzy, name)
    t = build_iet(validate_permutation([2, 1]), [F(1), F(1597, 987)])
    x0 = t.total * F(331, 1000)
    assert visit_frequencies(t, x0, 200_000) == reference_visit_frequencies(t, x0, 200_000)
    schedule = [1000, 2584, 10_000]
    assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)
    t = large_exchange(random.Random(f"{SEED}/no-table"))
    x0 = t.total / 3
    for n, cells in ((30_011, 64), (30_011, 1), (4096, 64)):
        assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)
    assert discrepancy_trend(t, x0, [7, 30_011]) == reference_discrepancy_trend(t, x0, [7, 30_011])


@pytest.fixture()
def induction_nodes(monkeypatch):
    """The nodes each induction makes beyond its pieces: one per loser of a
    Zorich group and one per tie, summed over the calls in the list's one
    entry."""
    made = [0]
    climb = rauzy._towers

    def count(points, shift, *args):
        level = climb(points, shift, *args)
        made[0] += len(level.kids) - len(shift)
        return level

    monkeypatch.setattr(rauzy, "_towers", count)
    return made


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def golden_walk_peak(n: int, nodes: list[int]) -> tuple[int, int]:
    """Peak traced bytes of a count over 512 cells of the golden rotation,
    and the pieces and nodes of its induction.  x0 = 1/7919 scales it to a
    total of 2584 * 7919."""
    t = build_iet(validate_permutation([2, 1]), [F(1), F(1597, 987)])
    nodes[0] = 0
    peak = traced_peak(lambda: visit_frequencies(t, F(1, 7919), n, 512))
    return peak, 513 + nodes[0]


def test_walk_table_stores_no_itinerary(induction_nodes):
    # The induction keeps a few lists over its pieces and one entry per
    # node: well under 400 bytes per piece or node in all, with the
    # partition's own lists.  A stored itinerary per piece would take more.
    peak, size = golden_walk_peak(512 * 512, induction_nodes)
    assert peak < 400 * size


def test_walk_table_stores_no_itinerary_at_the_largest_k(induction_nodes, step_budget):
    # The same bound 10^15 steps on, far past the period: the orbit's
    # periods are counted by divmod, and nothing grows with n.
    step_budget[0] = 10 * 2_059
    peak, size = golden_walk_peak(10**15, induction_nodes)
    assert peak < 400 * size


def test_coding_words_stay_linear_in_the_steps():
    # A node's word is written once into the coding and copied from there,
    # and no longer than the steps left is built, so the coding stays within
    # a constant number of bytes per step, as the k-step words did.
    t = large_exchange(random.Random(f"{SEED}/coding-memory"))
    for n in (1280, 2000, 20_000, 20_480, 100_000):
        tracemalloc.start()
        try:
            orbit_coding(t, t.total / 3, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * n + (16 << 10)


def test_sparse_cells_are_counted_without_a_list_per_cell():
    t = build_iet(validate_permutation([3, 1, 2]), [F(1), F(2, 7), F(5, 3)])
    x0 = t.total / 3
    for n, cells in [(1, 2), (5, 3), (9, 100), (40, 41), (300, 1000), (17, 1 << 20)]:
        assert visit_frequencies(t, x0, n, cells) == reference_visit_frequencies(t, x0, n, cells)
    tracemalloc.start()
    try:
        visit_frequencies(t, x0, 3, 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_walk_table_is_capped_whatever_the_refinement(induction_nodes, step_budget):
    # 30,000 cells over 10^9 steps of an exchange whose orbits all return
    # after 2 steps: the plain stretch before the first climb finds the
    # period, so the count makes no node and stays well under 400 bytes per
    # piece, the partition's own lists included.
    step_budget[0] = 10 * 2
    t = build_iet(validate_permutation([3, 4, 1, 2]),
                  [F(1, 3), F(2, 3), F(999_999_937, 1_000_000_007), F(70, 1_000_000_007)])
    x0 = F(1, 5)
    got = []
    peak = traced_peak(lambda: got.append(visit_frequencies(t, x0, 10**9, 30_000)))
    assert peak < 400 * 30_003
    assert induction_nodes[0] == 0
    # 10^9 steps are 5 * 10^8 periods, so every statistic is that of 2 steps.
    want = reference_visit_frequencies(t, x0, 2, 30_000)
    for field in ("frequencies", "discrepancy", "refinement_discrepancy"):
        assert getattr(got[0], field) == getattr(want, field)


def test_capped_table_memory_is_bounded_by_the_cap(induction_nodes, monkeypatch):
    # With the cap at 2^12, a count over 1,000 cells of an orbit that does
    # not return stops climbing near 4,096 nodes and steps at the level
    # reached: its nodes and memory stay within the cap, whatever n, and it
    # counts what the k-step walk counts.
    monkeypatch.setattr(rauzy, "_MAX_NODES", 1 << 12)
    t = large_exchange(random.Random(f"{SEED}/capped-nodes"))
    x0 = t.total / 3
    n = 10**6
    peak = traced_peak(lambda: visit_frequencies(t, x0, n, 1000))
    assert induction_nodes[0] < (1 << 12)
    assert peak < 400 * (1 << 12)
    points, shift, breaks, x = cell_partition(t, x0, 1000)
    want = reference_walk(points, shift, breaks, x, [n])
    assert list(rauzy._visits(points, shift, breaks, x, [n])) == want
