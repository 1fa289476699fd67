"""Rauzy–Veech induction, which counts the visits of long exact orbits and
builds the towers that orbit codings and connections are read off.

The one climb, ``_towers``, runs the induction (G. Rauzy, Acta Arith. 34,
1979) on a sorted integer partition of [0, total) whose pieces each lie in
one interval of an exchange, over the integers of one common denominator,
where every orbit is purely periodic; the pieces are its symbols.  Each
step compares the last piece alpha of [0, L) with the piece beta whose
image is last; the longer one wins and gives up the loser's length, the
loser's excursion becomes a node (earlier node, winner's node) with summed
height and shift, and [0, L) loses the shorter length.  At a tie beta
absorbs alpha, and a piece last in both orders is a cylinder whose height
is the period of every point in it.  Steps with one winner form one Zorich
group (A. Zorich, Ann. Inst. Fourier 46, 1996), whose whole cycles are
taken by one division.  The climb follows one orbit: a point cut off by a
group takes at most two nodes, counted by multiplicity, to return to the
shorter interval.  It stops once a loop of the given work at the level
reached would take fewer induced steps than the nodes made, or at
``_MAX_NODES`` nodes.  The level's towers, each on a piece of [0, L) or on
a cylinder, can carry the floors that start on a break, their hits, which
the climb moves from node to node.

Three loops step through one level each.  The counting loop, ``_visits``,
counts visits per piece, cell starts among the pieces as fake breaks: at
most 8 plain steps first, which catch a period of a few steps without any
induction, then one climb for the steps left to the last mark, and steps
through its towers from mark to mark.  An orbit that keeps to a small part
of [0, total) takes more induced steps than the climb judged; after
2 * nodes + d + 8 of them at a level without a return, it climbs again,
deeper, for the rate it was measured to take.  An orbit back where it
began stepping at the level, in a cylinder after one pass, counts its
periods by divmod.  The remainder goes down one chain of nodes, and the
counts go down the nodes once per mark.  Climbing costs O(levels) whatever
n is, and memory is O(pieces + nodes).  ``ietkit.iet``'s ``orbit_coding`` and
``find_connections`` read the towers of the exchange's own pieces;
``_spell`` writes out a node's word, the pieces its excursion visits,
copying each node's word from where it was first written and building
only the prefix that is asked for.

``_rauzy_step`` only compares and subtracts lengths, so it runs on any
ordered field.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, NamedTuple, Sequence


# The climb's nodes, the pieces of its partition among them, are capped so
# that its memory is bounded however many cells and steps it is asked for:
# at about 300 bytes a node, 2^16 nodes take about 20 MB.  Past the cap the
# orbit steps at the level reached.
_MAX_NODES = 1 << 16


def _orders(points: list[int], shift: list[int], total: int) -> tuple[list[int], ...]:
    """The Rauzy–Veech start of the partition of [0, total) cut at the sorted
    ``points``, whose gap j moves by ``shift[j]``: (lengths, tprev, tnext,
    bprev, bnext, bottom), the gaps' lengths, their top order (left to right)
    and bottom order (by image start) as doubly linked lists, -1 at both
    ends, and the last gap of the bottom order.

    >>> _orders([1], [1, -1], 2)
    ([1, 1], [-1, 0], [1, -1], [1, -1], [-1, 0], 0)
    """
    d = len(shift)
    starts = [0, *points]
    images = [s + m for s, m in zip(starts, shift)]
    order = sorted(range(d), key=images.__getitem__)
    bprev, bnext = [-1] * d, [-1] * d
    for i, j in zip(order, order[1:]):
        bnext[i] = j
        bprev[j] = i
    lengths = [e - s for s, e in zip(starts, [*points, total])]
    return lengths, [*range(-1, d - 1)], [*range(1, d), -1], bprev, bnext, order[-1]


def _rauzy_step(lengths: list, prev: list[int], nxt: list[int], winner: int, loser: int) -> int | None:
    """One Rauzy–Veech step, if the winner is the longer of the two last
    symbols: the winner gives up the loser's length, and the loser, last in
    the order (prev, nxt), moves right after the winner there.  Returns that
    order's new last symbol, or None, changing nothing, if the winner is not
    the longer.  Lengths are compared and subtracted only, so any ordered
    field serves."""
    if not lengths[winner] > lengths[loser]:
        return None
    lengths[winner] -= lengths[loser]
    last = prev[loser]
    if last == winner:
        return loser
    after = nxt[winner]
    nxt[last] = -1
    nxt[winner], prev[loser], nxt[loser], prev[after] = loser, winner, after, loser
    return last


def _zorich(
    lengths: list[int], prev: list[int], nxt: list[int], winner: int, loser: int
) -> tuple[list[tuple[int, int]], int]:
    """One Zorich group: Rauzy steps with one winner, from ``loser`` last in
    the order (prev, nxt), for as long as the winner is the longer.

    The losers are the symbols after the winner in that order, taken from
    the end; once they have all lost, the order is as it was, and the
    further whole cycles are taken at once by one division.  Returns the
    losers in the order they first lost, each with its number of losses, and
    the order's new last symbol.

    >>> lengths, prev, nxt = [3, 10], [1, -1], [-1, 0]
    >>> _zorich(lengths, prev, nxt, 1, 0), lengths
    (([(0, 3)], 0), [3, 1])
    """
    before = lengths[winner]
    losers = []
    first, c, q = loser, 0, 0
    while (last := _rauzy_step(lengths, prev, nxt, winner, loser)) is not None:
        losers.append(loser)
        loser = last
        if loser == first and not c:
            c = len(losers)
            cycle = before - lengths[winner]
            q = (lengths[winner] - 1) // cycle
            lengths[winner] -= q * cycle
    if not c:
        return [(g, 1) for g in losers], loser
    extra = len(losers) - c
    return [(g, 1 + q + (i < extra)) for i, g in enumerate(losers[:c])], loser


def _absorb(
    tprev: list[int], tnext: list[int], bprev: list[int], bnext: list[int], a: int, b: int
) -> tuple[int, int]:
    """A tie of the last symbols, a in the top order and b in the bottom one:
    b's image is a's piece, so b absorbs a.  a leaves both orders, b takes
    a's place in the bottom order, and the new last symbols of the two
    orders are returned.

    >>> tprev, tnext, bprev, bnext = [-1, 0, 1], [1, 2, -1], [1, 2, -1], [-1, 0, 1]
    >>> _absorb(tprev, tnext, bprev, bnext, 2, 0), bprev, bnext
    ((1, 1), [-1, 0, -1], [1, -1, 1])
    """
    tlast = tprev[a]
    tnext[tlast] = -1
    blast = bprev[b]
    bnext[blast] = -1
    p, n = bprev[a], bnext[a]
    bprev[b], bnext[b] = p, n
    if p >= 0:
        bnext[p] = b
    if n < 0:
        return tlast, b
    bprev[n] = b
    return tlast, blast


def _descend(s: int, n: int, kids: list, heights: list[int], counts: list[int]) -> None:
    """Add to ``counts`` the nodes that make up the first n steps of node s's
    excursion, 0 < n < heights[s], going down one chain of nodes."""
    while n:
        a, ra, b, _ = kids[s]
        ha = heights[a]
        if n < ra * ha:
            q, n = divmod(n, ha)
        else:
            counts[a] += ra
            q, n = divmod(n - ra * ha, heights[b])
            a = b
        counts[a] += q
        s = a


def _level(lengths: list[int], tprev: list[int], tlast: int, end: int) -> tuple[list[int], list[int]]:
    """The sorted piece starts of the induction's level on [0, end), from its
    top order, and each piece's symbol."""
    starts, symbols = [], []
    j = tlast
    while j >= 0:
        end -= lengths[j]
        starts.append(end)
        symbols.append(j)
        j = tprev[j]
    return starts[::-1], symbols[::-1]


class _Towers(NamedTuple):
    """One level of the induction as the towers over [0, total).

    The level's pieces tile [0, L), and the cylinders cut off so far lie
    beyond; tower p has its base at ``starts[p]``, all in increasing order.
    Node ``nodes[p]`` is the tower's excursion, and ``hits[p]``, when the
    climb carried hits, the (t, j), by increasing t, with T^t of the base's
    start at the partition's j-th point.  ``heights``, ``moves`` and
    ``kids`` are the nodes' lists, and the orbit of the point the climb
    followed is at y, in a tower's piece, once it has taken the nodes of
    ``entry``, (node, times) in turn.
    """

    L: int
    starts: list[int]
    nodes: list[int]
    hits: list[list[tuple[int, int]]] | None
    heights: list[int]
    moves: list[int]
    kids: list
    y: int
    entry: list[tuple[int, int]]


def _towers(
    points: list[int], shift: list[int], total: int, work: int, y: int = 0,
    hits: list[list[tuple[int, int]]] | None = None,
) -> _Towers:
    """The Rauzy–Veech induction of the partition of [0, total) cut at the
    sorted ``points``, whose gap j moves by ``shift[j]``, climbed for a loop
    of ``work`` steps: the package's one climb.

    It climbs while a loop of ``work`` steps at the level would take more
    induced steps, about work * L / total, than the nodes made so far, up to
    ``_MAX_NODES`` nodes, and while a symbol is left.  It follows the orbit
    of y: a point cut off by a group takes at most two nodes, counted by
    multiplicity, to return to the shorter interval, and they go on
    ``entry`` in the order taken; a point left in a cylinder stays there.

    ``hits``, if given, holds each symbol's (t, j) with T^t of its piece's
    start at points[j - 1], by increasing t; the climb keeps it for the
    symbols' nodes.  T^t is a translation on a piece for every t below its
    node's height, and each floor lies in one gap, so a point of the
    partition can only be met where a floor starts.  A loser of the top
    winner keeps its start and so its hits; a loser of the bottom winner now
    starts r passes of the winner earlier, inside the winner's piece, and
    its hits move up by r times the winner's height; at a tie, b's
    excursion ends on a's start, so a's hits follow b's, moved up by b's
    height.

    >>> _towers([1], [1, -1], 2, 4, 1)
    _Towers(L=1, starts=[0], nodes=[2], hits=None, heights=[1, 1, 2], moves=[1, -1, 0], kids=[None, None, (0, 1, 1, 1)], y=0, entry=[(1, 1)])
    >>> _towers([1], [1, -1], 2, 10, 1, [[], [(0, 1)]])
    _Towers(L=0, starts=[0], nodes=[2], hits=[[(1, 1)]], heights=[1, 1, 2], moves=[1, -1, 0], kids=[None, None, (0, 1, 1, 1)], y=0, entry=[(1, 1)])
    """
    d = len(shift)
    # Node i is an excursion: heights[i] steps that move a point by moves[i]
    # and visit kids[i] = (a, ra, b, rb), node a ra times and then node b rb
    # times; the gaps themselves are the nodes 0..d-1, one step each.  A
    # symbol's node is the excursion from its piece of [0, L) back to [0, L).
    heights, moves, kids = [1] * d, list(shift), [None] * d
    lengths, tprev, tnext, bprev, bnext, blast = _orders(points, shift, total)
    tlast, node, cylinders, entry = d - 1, list(range(d)), [], []
    L, live = total, d
    while live and work * L // total > len(kids) < _MAX_NODES:
        end = L
        a, b = tlast, blast
        if a == b:
            # Last in both orders: a cylinder, every point of which returns
            # after its height.
            tlast, blast = tprev[a], bprev[a]
            live -= 1
            if live:
                tnext[tlast] = bnext[blast] = -1
            L -= lengths[a]
            cylinders.append((L, a))
            continue
        top = lengths[a] >= lengths[b]
        sw = node[a if top else b]
        hw, tw = heights[sw], moves[sw]
        if lengths[a] == lengths[b]:
            # A tie: b's image is a's piece, so b absorbs a, as if it had
            # lost to a once, and a leaves [0, L).
            cut, losses = lengths[a], [(b, 1)]
            tlast, blast = _absorb(tprev, tnext, bprev, bnext, a, b)
            live -= 1
            if hits is not None:
                lift = heights[node[b]]
                hits[b] = hits[b] + [(t + lift, j) for t, j in hits[a]]
        elif top:
            cut = lengths[a]
            losses, blast = _zorich(lengths, bprev, bnext, a, b)
            cut -= lengths[a]
        else:
            cut = lengths[b]
            losses, tlast = _zorich(lengths, tprev, tnext, b, a)
            cut -= lengths[b]
            if hits is not None:
                for g, r in losses:
                    lift = r * hw
                    hits[g] = [(t + lift, j) for t, j in hits[g]]
        L -= cut
        if L <= y < end:
            if top:
                # In the winner's piece, which moves left by -tw: it leaves
                # the cut after j passes.
                j = (y - L) // -tw + 1
                entry.append((sw, j))
                y += j * tw
            else:
                # In the winner's image, which moves right by tw: j passes
                # of the winner, then one of the loser beyond.
                j, o = divmod(end - 1 - y, tw)
                for g, _ in losses:
                    o -= lengths[g]
                    if o < 0:
                        break
                sg = node[g]
                if j:
                    entry.append((sw, j))
                entry.append((sg, 1))
                y += j * tw + moves[sg]
        for g, r in losses:
            sg = node[g]
            node[g] = len(kids)
            kids.append((sg, 1, sw, r) if top else (sw, r, sg, 1))
            heights.append(heights[sg] + r * hw)
            moves.append(moves[sg] + r * tw)
    starts, symbols = _level(lengths, tprev, tlast, L)
    for base, a in reversed(cylinders):
        starts.append(base)
        symbols.append(a)
    return _Towers(
        L, starts, [node[a] for a in symbols], None if hits is None else [hits[a] for a in symbols],
        heights, moves, kids, y, entry,
    )


def _visits(
    points: list[int], shift: list[int], breaks: list[int], x: int, marks: Sequence[int]
) -> Iterator[list[int]]:
    """Visits per gap of the sorted ``points`` over the first ``mark`` steps
    from x, yielded for each of the increasing ``marks`` in turn.

    Gap j moves by ``shift[j]`` and lies in one interval of the exchange
    whose scaled ``breaks`` end at the total.  The orbit takes at most 8
    plain steps through the gaps; if it has not returned by then, the gaps
    are the symbols of a Rauzy–Veech induction, climbed by ``_towers`` for
    the steps left to the last mark, and the orbit steps through the
    towers of the level reached.  The climb judges its depth as if the
    orbit spread over all of [0, total); one that keeps to a small part of
    it, say one component of a reducible exchange, may take far more
    induced steps than that.  So a level takes at most 2 * nodes + d + 8
    induced steps without a return, and then the orbit climbs again from
    where it is onto a deeper level of the same induction, with at least
    twice the work.  It goes on from mark to mark, and nothing is built
    before the first count is asked for.

    >>> list(_visits([1], [1, -1], [1, 2], 0, [1, 2, 5]))
    [[1, 0], [1, 1], [3, 2]]
    """
    total = breaks[-1]
    bound = total // math.gcd(*breaks)
    d = len(shift)
    # The orbit steps first through the partition itself, whose gaps are the
    # nodes 0..d-1 of one step each; ``kids`` is None until the climb.
    heights, moves, kids = [1] * d, shift, None
    starts, nodes = [0, *points], range(d)
    mult = [0] * d  # whole excursions taken, per node
    # The orbit has taken the steps in ``mult``; ``path`` holds the nodes,
    # (node, times) with the next one last, that take it on to y.  Stepping
    # at the level began at ``start``, after ``origin`` steps, with ``base``
    # taken; ``cycle`` holds the (node, times) of one period and the period,
    # once the orbit is back there.  The level, on [0, L), gives the orbit a
    # stretch of ``stretch`` induced steps, ``left`` of them still to take,
    # before it climbs again.
    path: list[tuple[int, int]] = []
    cycle = None
    start, origin, base = x, 0, mult[:]
    y, done = x, 0
    L, stretch, left, work = total, 8, 8, 0
    for mark in marks:
        rem, tail = mark - done, None
        while rem:
            if path:
                s, c = path[-1]
                h = heights[s]
                k = rem // h
                if k >= c:
                    mult[s] += c
                    rem -= c * h
                    path.pop()
                    continue
                mult[s] += k
                rem -= k * h
                path[-1] = (s, c - k)
                tail = s
                break
            if cycle is not None:
                # Whole periods at once; the visits of one period are the
                # same from every point of the orbit at the level.
                items, period = cycle
                q, rem = divmod(rem, period)
                if q:
                    for s, c in items:
                        mult[s] += q * c
                if not rem:
                    break
            elif start is None:
                start, origin, base = y, mark - rem, mult[:]
            elif y == start and mark - rem > origin:
                # Back at the start: one period, whose visits are what was
                # taken since.  A cylinder's node does not move, so there
                # the first step is a period.
                items = [(i, m - b) for i, (m, b) in enumerate(zip(mult, base)) if m != b]
                cycle = items, mark - rem - origin
                continue
            elif not left:
                # No period within the stretch.  The climb takes total / L
                # steps per induced step at a level; the stretch measured the
                # orbit's own rate, so the work is the steps left to the last
                # mark scaled by the two rates' ratio, which is 1 on the
                # partition.  Every climb makes the same nodes in the same
                # order, so one at least twice the last climb's work is at
                # least as deep and keeps the counts taken so far.
                taken = mark - rem
                work = max(2 * work, min(marks[-1] - taken, bound) * stretch * total // ((taken - origin) * L))
                L, starts, nodes, _, heights, moves, kids, y, entry = _towers(points, shift, total, work, y)
                mult += [0] * (len(kids) - len(mult))
                path, start = entry[::-1], None
                # A level that cannot go deeper needs no limit: within the
                # period bound, the orbit is back where it began there.
                stretch = left = 2 * len(kids) + d + 8 if L and len(kids) < _MAX_NODES else bound
                continue
            # Step until the mark, a node that ends past it, a return or the
            # end of the stretch; what is left of a period has no limit.
            for _ in range(rem if cycle else min(rem, left)):
                s = nodes[bisect_right(starts, y) - 1]
                y += moves[s]
                left -= 1
                h = heights[s]
                if h > rem:
                    path.append((s, 1))
                    break
                mult[s] += 1
                rem -= h
                if y == start or not rem:
                    break
        done = mark - rem
        counts = mult[:]
        if tail is not None:
            _descend(tail, rem, kids, heights, counts)
        # Each excursion's visits go down to its nodes, from the last node
        # made, whose parts are all older, to the gaps.
        for i in range(len(counts) - 1, d - 1, -1):
            m = counts[i]
            if m:
                a, ra, b, rb = kids[i]
                counts[a] += m * ra
                counts[b] += m * rb
        yield counts[:d]


def _spell(codes: list[int], s: int, n: int, heights: list[int], kids: list, at: dict[int, int]) -> None:
    """Append to ``codes`` the first n gaps, 1-based, of node s's excursion
    repeated, n > 0.

    A node written out whole is noted in ``at`` by where it starts in
    ``codes``, and later copies are slices of that; only a prefix is built
    of a node longer than what is left, so no word is longer than n.

    >>> codes = []
    >>> _spell(codes, 2, 5, [1, 1, 2], [None, None, (0, 1, 1, 1)], {})
    >>> codes
    [1, 2, 1, 2, 1]
    """
    # Each task is (node, count), or (~node, start) once the node's whole
    # excursion is written from start on.
    todo = [(s, n)]
    while todo:
        s, n = todo.pop()
        if s < 0:
            at[~s] = n
            continue
        kid = kids[s]
        if kid is None:
            codes += [s + 1] * n
            continue
        h = heights[s]
        if n >= h:
            p = at.get(s)
            if p is not None:
                q, n = divmod(n, h)
                codes += codes[p : p + h] * q
                if n:
                    todo.append((s, n))
                continue
            if n > h:
                todo.append((s, n - h))
            todo.append((~s, len(codes)))
            n = h
        a, ra, b, _ = kid
        head = min(n, ra * heights[a])
        if n > head:
            todo.append((b, n - head))
        todo.append((a, head))
