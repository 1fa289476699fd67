"""The k-step table of the orbit loops against the table built by one-step
passes and the loops that take one lookup per step.

``ietkit.iet._block_length`` derives k from the work and the partition size;
the ``block`` fixture replaces it so that every k meets short and long runs.
Like the derived k, every forced k is a power of two, which the table is
built for by squaring alone.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import ietkit.iet as iet
from ietkit import (
    build_iet,
    discrepancy_trend,
    find_connections,
    orbit_coding,
    random_irreducible,
    validate_permutation,
    visit_frequencies,
)
from ietkit.iet import _blocks, _scaled_ints

from conftest import (
    SEED,
    period_of,
    random_rational_exchange,
    reference_blocks,
    reference_discrepancy_trend,
    reference_find_connections,
    reference_orbit_coding,
    reference_steps,
    reference_visit_frequencies,
)
from oracles import oracle_connections

F = Fraction
KS = [2, 4, 8, 16, 32, 64]


@pytest.fixture()
def block(monkeypatch):
    def force(k: int) -> None:
        monkeypatch.setattr(iet, "_block_length", lambda work, pieces: k)

    return force


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
# the kernel


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
        cuts, moves = _blocks(points, trans, total, k)[:2]
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
    assert _blocks(breaks[:-1], trans, total, 1)[:2] == (breaks[:-1], trans)
    assert _blocks([], [0], 7, 4)[:2] == ([], [0])


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
            table = _blocks(points, trans, total, k)
            assert table[:2] == reference_blocks(points, trans, total, k)
            assert table.k == k
            assert len(table.levels) == k.bit_length() - 1
            if k > 1:
                half = _blocks(points, trans, total, k // 2)
                first, second = table.levels[0]
                assert first[-1] + 1 == len(half.moves)
                assert [half.moves[i] + half.moves[j] for i, j in zip(first, second)] == table.moves
                assert table.levels[1:] == half.levels


def test_block_length_is_derived_from_work_and_pieces():
    assert iet._block_length(0, 1) == 1
    assert iet._block_length(10**12, 1) == iet._MAX_BLOCK
    for pieces in (1, 20, 83, 30_000):
        ks = [iet._block_length(work, pieces) for work in range(0, 10**6, 997)]
        assert ks == sorted(ks)
        for work, k in zip(range(0, 10**6, 997), ks):
            # The table costs about k visits per piece: at most a
            # 1/_TABLE_SHARE share of the work, and k is the largest power
            # of two within that share, the cap and _MAX_BLOCK.
            assert k & (k - 1) == 0
            assert k == 1 or k * pieces * iet._TABLE_SHARE <= work
            assert k == iet._MAX_BLOCK or 2 * k * pieces > min(
                work // iet._TABLE_SHARE, iet._MAX_TABLE_PIECES)
    # The benchmark's orbits: 20 and 83 pieces over 200,000 steps take the
    # longest blocks, and the golden rotation's walk, bounded by its 2,584
    # integers, keeps the plain loop.
    assert [iet._block_length(200_000, p) for p in (20, 83)] == [iet._MAX_BLOCK] * 2
    assert iet._block_length(2584, 65) == 1
    # However long the loop, a table keeps at most _MAX_TABLE_PIECES pieces.
    cap = iet._MAX_TABLE_PIECES
    for pieces in (8_192, 8_193, 30_003, cap // 2, cap // 2 + 1, cap, 10 * cap):
        k = iet._block_length(10**15, pieces)
        assert k & (k - 1) == 0
        assert k == 1 or k * pieces <= cap
        assert k == iet._MAX_BLOCK or 2 * k * pieces > cap


# ---------------------------------------------------------------------------
# orbit_coding


@pytest.mark.parametrize("k", KS)
def test_coding_matches_the_plain_loop(k, block):
    block(k)
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
def test_connections_match_the_plain_loop_and_the_oracle(k, block):
    block(k)
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
    # A block covers T^m..T^(m+k-1): hits occur at every offset in it.
    assert offsets == set(range(k))
    assert find_connections(one_symbol(), 3 * k) == []


def test_connections_check_the_first_point_of_each_block(block):
    # A version that looked at offsets 1..k of a block instead of 0..k-1
    # missed hits on this exchange.
    block(2)
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
def test_frequencies_match_the_plain_loop(k, block):
    block(k)
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
def test_frequencies_keep_the_first_return(k, block):
    # 10^15 steps finish only if the walk stops at its first return: the
    # counts are q whole periods plus the first r steps.
    block(k)
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
def test_trend_matches_the_plain_loop(k, block):
    block(k)
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


def test_trend_builds_one_table_per_call(block, monkeypatch):
    block(4)
    built = []
    kernel = iet._blocks
    monkeypatch.setattr(iet, "_blocks", lambda *args: built.append(args) or kernel(*args))
    t, x0 = random_rational_exchange(random.Random(f"{SEED}/trend-once"), 6, "interior")
    schedule = [3, 10, 17, 100, 101, 350]
    assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# derived k and memory


def test_derived_k_on_long_orbits_matches_the_plain_loops():
    rng = random.Random(f"{SEED}/derived-k")
    sigma = random_irreducible(20, rng.getrandbits(32))
    t = build_iet(sigma, [F(rng.randint(10**6, 2 * 10**6), 999_983) for _ in range(20)])
    x0 = t.total * F(rng.randint(0, 999), 1000)
    n = 30_011
    assert iet._block_length(n, 20) > 1
    assert orbit_coding(t, x0, n) == reference_orbit_coding(t, x0, n)
    assert visit_frequencies(t, x0, n, 16) == reference_visit_frequencies(t, x0, n, 16)
    assert find_connections(t, 1601) == reference_find_connections(t, 1601)
    schedule = [1000, 7777, n]
    assert discrepancy_trend(t, x0, schedule) == reference_discrepancy_trend(t, x0, schedule)


def test_short_periodic_walk_keeps_the_plain_loop(monkeypatch):
    # The golden rotation's orbits return within 2584 integers: no table.
    def refuse(*args):
        raise AssertionError("no k-step table expected")

    monkeypatch.setattr(iet, "_square", refuse)
    t = build_iet(validate_permutation([2, 1]), [F(1), F(1597, 987)])
    x0 = t.total * F(331, 1000)
    assert visit_frequencies(t, x0, 200_000) == reference_visit_frequencies(t, x0, 200_000)


def golden_walk_peak() -> int:
    """Peak traced bytes of a walk over 512 cells of the golden rotation.
    x0 = 1/7919 scales it to a total of 2584 * 7919, so at the forced k the
    table has about 512 k pieces."""
    t = build_iet(validate_permutation([2, 1]), [F(1), F(1597, 987)])
    tracemalloc.start()
    try:
        visit_frequencies(t, F(1, 7919), 512 * 512, 512)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_table_stores_no_itinerary(block):
    # k = 16 gives a table of about 8,000 pieces.  Its cuts, shifts and
    # counts, with the index lists of every level, take well
    # under 400 bytes per piece; a stored 16-long itinerary per piece would
    # take more.
    block(16)
    assert golden_walk_peak() < 400 * 16 * 512


def test_walk_table_stores_no_itinerary_at_the_largest_k(block):
    # The same bound at the largest derived k, about 16,000 pieces.
    block(iet._MAX_BLOCK)
    assert golden_walk_peak() < 400 * iet._MAX_BLOCK * 512


def test_coding_words_stay_linear_in_the_steps():
    # Each table piece keeps its k-long word, k times the table's pieces in
    # all, and so does the level below while a level's words are built;
    # the derived k keeps the table at most n / 32 pieces, so the words stay
    # within a constant number of bytes per step.
    t = large_exchange(random.Random(f"{SEED}/coding-memory"))
    for n in (1280, 2000, 20_000, 20_480, 100_000):
        assert iet._block_length(n, t.d) > 1
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


class TableBuilt(Exception):
    pass


@pytest.fixture()
def walk_tables(monkeypatch):
    """Stop every walk once its table is built; the returned list gets
    (partition pieces, k, table pieces) for each table."""
    tables = []

    def stop(points, shift, x, n, table):
        tables.append((len(shift), table[2], len(table[1])))
        raise TableBuilt

    monkeypatch.setattr(iet, "_walk", stop)
    return tables


def long_orbit_exchange():
    # No orbit of this exchange returns within 10^9 steps.
    lengths = [F(1, 999983), F(2, 1000003), F(3, 999979), F(5, 1000033)]
    return build_iet(validate_permutation([4, 3, 2, 1]), lengths)


def test_walk_table_is_capped_whatever_the_refinement(walk_tables):
    # 30,000 cells over 10^9 steps: k = 16 would build 480,033 pieces.
    t = long_orbit_exchange()
    with pytest.raises(TableBuilt):
        visit_frequencies(t, t.total / 3, 10**9, 30_000)
    assert walk_tables == [(30_003, 4, 120_009)]


def test_capped_table_memory_is_bounded_by_the_cap(walk_tables, monkeypatch):
    # With the cap at 2^12, 1,000 cells get k = 4 instead of 16. The walk's
    # partition and its table of about 4,000 pieces then stay well under 400
    # bytes per piece of the cap; a table of 16,000 pieces would not.
    monkeypatch.setattr(iet, "_MAX_TABLE_PIECES", 1 << 12)
    t = long_orbit_exchange()
    tracemalloc.start()
    try:
        with pytest.raises(TableBuilt):
            visit_frequencies(t, t.total / 3, 10**9, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * (1 << 12)
    assert walk_tables == [(1003, 4, 4009)]
