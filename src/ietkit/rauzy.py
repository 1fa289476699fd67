"""Rauzy–Veech induction, which counts the visits of long exact orbits and
builds the towers that orbit codings and connections are read off.

The one climb, ``_climb``, runs the induction (G. Rauzy, Acta Arith. 34,
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
shorter interval.  It stops once a loop at the level reached would take
fewer induced steps than the nodes made, or at ``_MAX_NODES`` nodes.

The counting loop, ``_visits``, counts visits per piece, cell starts among
the pieces as fake breaks, climbing only as far as the orbit needs.  Once
stepping at the level reached costs less than climbing, it steps there; an
orbit that returns, in a cylinder or to its start at that level, counts its
periods by divmod, and 8 plain steps before the first climb catch a short
period.  The remainder goes down one chain of nodes, and the counts go down
the nodes once per mark.  Climbing costs O(levels) whatever n is, and
memory is O(pieces + nodes).

``_towers`` climbs once for a loop of given work on the exchange's own
pieces, and keeps for each tower, a piece of the level or a cylinder, the
floors that start on a break, its hits, which the climb carries from node
to node.  ``_spell`` writes out a node's word, the pieces its excursion
visits, copying each node's word from where it was first written and
building only the prefix that is asked for.

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


def _climb(
    points: list[int], shift: list[int], total: int, heights: list[int], moves: list[int], kids: list,
    hits: list[list[tuple[int, int]]] | None = None,
) -> Iterator[tuple]:
    """The Rauzy–Veech induction of the partition of [0, total) cut at the
    sorted ``points``, whose gap j moves by ``shift[j]``: the package's one
    climb, which goes up as far as a loop at the level needs.

    The first ``next`` yields the lists that the climb changes in place: the
    symbols' lengths, the top order's ``tprev``, each symbol's node, and the
    (base, symbol) of each cylinder cut off.  Sending (y, work), the point
    the orbit has reached, in [0, L) or in a cylinder, and the steps left,
    takes at least one step and goes on while a loop of ``work`` steps at
    the level would take more induced steps, about work * L / total, than
    the nodes made so far, up to ``_MAX_NODES`` nodes, and while y stays
    where it was.  Each step appends the nodes it makes to ``heights``,
    ``moves`` and ``kids``.  The send yields (L, tlast, live, a, y, entry):
    [0, L), the last symbol of its top order and the symbols left, the last
    symbol a of the top order before the last step, and the point again,
    with the nodes, (node, times) with the next one last, that took it back
    into [0, L) if the last step cut it off.  A point cut off by a group
    takes at most two nodes, counted by multiplicity, to return.  A point
    left in a cylinder, a's, stays there.  The climb ends once no symbol is
    left.

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

    >>> heights, moves, kids = [1, 1], [1, -1], [None, None]
    >>> climb = _climb([1], [1, -1], 2, heights, moves, kids)
    >>> next(climb)
    ([1, 1], [-1, 0], [0, 1], [])
    >>> climb.send((1, 10)), kids, heights
    ((1, 0, 1, 1, 0, [(1, 1)]), [None, None, (0, 1, 1, 1)], [1, 1, 2])
    """
    d = len(shift)
    lengths, tprev, tnext, bprev, bnext, blast = _orders(points, shift, total)
    tlast, node, cylinders = d - 1, list(range(d)), []
    y, work = yield lengths, tprev, node, cylinders
    L, live = total, d
    while live:
        end = L
        a, b = tlast, blast
        entry = ()
        if a == b:
            # Last in both orders: a cylinder, every point of which returns
            # after its height.
            tlast, blast = tprev[a], bprev[a]
            live -= 1
            if live:
                tnext[tlast] = bnext[blast] = -1
            L -= lengths[a]
            cylinders.append((L, a))
            if L <= y < end or work * L // total <= len(kids) or len(kids) >= _MAX_NODES:
                y, work = yield L, tlast, live, a, y, entry
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
                entry = [(sw, j)]
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
                entry = [(sg, 1), (sw, j)] if j else [(sg, 1)]
                y += j * tw + moves[sg]
        for g, r in losses:
            sg = node[g]
            node[g] = len(kids)
            kids.append((sg, 1, sw, r) if top else (sw, r, sg, 1))
            heights.append(heights[sg] + r * hw)
            moves.append(moves[sg] + r * tw)
        if entry or work * L // total <= len(kids) or len(kids) >= _MAX_NODES:
            y, work = yield L, tlast, live, a, y, entry


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


def _level(
    lengths: list[int], tprev: list[int], tlast: int, end: int, label: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The sorted piece starts of the induction's level on [0, end), from its
    top order, and the label of each piece's symbol."""
    starts, labels = [], []
    j = tlast
    while j >= 0:
        end -= lengths[j]
        starts.append(end)
        labels.append(label[j])
        j = tprev[j]
    return starts[::-1], labels[::-1]


def _visits(
    points: list[int], shift: list[int], breaks: list[int], x: int, marks: Sequence[int]
) -> Iterator[list[int]]:
    """Visits per gap of the sorted ``points`` over the first ``mark`` steps
    from x, yielded for each of the increasing ``marks`` in turn.

    Gap j moves by ``shift[j]`` and lies in one interval of the exchange
    whose scaled ``breaks`` end at the total.  The gaps are the symbols of a
    Rauzy–Veech induction on [0, L), L shrinking from the total, built only
    as far as the orbit climbs; the orbit goes on from mark to mark, and
    nothing is built before the first count is asked for.

    >>> list(_visits([1], [1, -1], [1, 2], 0, [1, 2, 5]))
    [[1, 0], [1, 1], [3, 2]]
    """
    total = breaks[-1]
    bound = total // math.gcd(*breaks)
    d = len(shift)
    # Node i is an excursion: heights[i] steps that move a point by moves[i]
    # and visit kids[i] = (a, ra, b, rb), node a ra times and then node b rb
    # times; the gaps themselves are the nodes 0..d-1, one step each.  A
    # symbol's node is the excursion from its piece of [0, L) back to [0, L).
    # The orders and the symbols' nodes are made at the first climb, so an
    # orbit that only steps through the partition itself makes neither.
    heights, moves, kids = [1] * d, list(shift), [None] * d
    tprev = None
    mult = [0] * d  # whole excursions taken, per node
    L, live = total, d
    # The orbit has taken the steps in ``mult``; ``path`` holds the nodes,
    # (node, times) with the next one last, that take it on to y in [0, L),
    # or into its cylinder, and ``cycle`` the (node, times) of one period
    # and the period, once the orbit is known to return.
    path: list[tuple[int, int]] = []
    cycle = None
    y, done = x, 0
    level, climb = ([0, *points], range(d)), False
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
                # same from every point of the orbit.
                items, period = cycle
                q, rem = divmod(rem, period)
                if q:
                    for s, c in items:
                        mult[s] += q * c
                if y >= L:
                    # In a cylinder, whose node is the one item: the rest
                    # is the start of its excursion.
                    path = items[:]
                    continue
                if not rem:
                    break
            # About min(n, period) * L / total induced steps remain at this
            # level.  Once that is no more than the nodes made so far, or the
            # nodes reach their cap, stepping here is the cheaper way on; a
            # stretch over budget goes back to climbing, one event.  Before
            # the first climb, a stretch of 8 plain steps lets an orbit with
            # a period of a few steps return without any induction.
            steps = min(rem, bound) * L // total
            full = len(kids) >= _MAX_NODES
            cheap = steps <= len(kids)
            if full or (cheap or tprev is None) and not climb:
                if level is None:
                    level = _level(lengths, tprev, tlast, L, node)
                starts, nodes = level
                # A return to the stretch's start is a period, whose visits
                # are what the stretch added to ``mult``.
                start, watch = y, None if cycle else (rem, mult[:])
                for _ in range(rem if full else 2 * steps + live + 8 if cheap else 8):
                    s = nodes[bisect_right(starts, y) - 1]
                    y += moves[s]
                    h = heights[s]
                    if h > rem:
                        path.append((s, 1))
                        break
                    mult[s] += 1
                    rem -= h
                    if y == start and watch:
                        taken, base = watch
                        items = [(i, m - b) for i, (m, b) in enumerate(zip(mult, base)) if m != b]
                        cycle = items, taken - rem
                        break
                    if not rem:
                        break
                else:
                    climb = True
                continue
            level, climb = None, False
            if tprev is None:
                induction = _climb(points, shift, total, heights, moves, kids)
                lengths, tprev, node, _ = next(induction)
            L, tlast, live, a, y, entry = induction.send((y, min(rem, bound)))
            path += entry
            mult += [0] * (len(kids) - len(mult))
            if y >= L:
                cycle = [(node[a], 1)], heights[node[a]]
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


class _Towers(NamedTuple):
    """One level of the induction as the towers over [0, total).

    The level's pieces tile [0, L), and the cylinders cut off so far lie
    beyond; tower p has its base at ``starts[p]``, all in increasing order.
    Node ``nodes[p]`` is the tower's excursion, and ``hits[p]`` the (t, j),
    by increasing t, with T^t of the base's start at the partition's j-th
    point.  ``heights``, ``moves`` and ``kids`` are the nodes' lists, and
    the orbit of the point the climb followed is at y, on a base, once it
    has taken the nodes of ``entry``, (node, times) in turn.
    """

    L: int
    starts: list[int]
    nodes: list[int]
    hits: list[list[tuple[int, int]]]
    heights: list[int]
    moves: list[int]
    kids: list
    y: int
    entry: list[tuple[int, int]]


def _towers(points: list[int], shift: list[int], total: int, work: int, y: int = 0) -> _Towers:
    """The level of the partition of [0, total) cut at the sorted ``points``,
    whose gap j moves by ``shift[j]``, for a loop of ``work`` steps, with
    each tower's hits, and the way onto it of the orbit of y.

    >>> _towers([1], [1, -1], 2, 10, 1)
    _Towers(L=0, starts=[0], nodes=[2], hits=[[(1, 1)]], heights=[1, 1, 2], moves=[1, -1, 0], kids=[None, None, (0, 1, 1, 1)], y=0, entry=[(1, 1)])
    """
    d = len(shift)
    heights, moves, kids = [1] * d, list(shift), [None] * d
    hits = [[]] + [[(0, j)] for j in range(1, d)]
    induction = _climb(points, shift, total, heights, moves, kids, hits)
    lengths, tprev, node, cylinders = next(induction)
    L, tlast, entry = total, d - 1, []
    while L and work * L // total > len(kids) < _MAX_NODES:
        L, tlast, _, _, y, path = induction.send((y, work))
        entry += path[::-1]
    starts, symbols = _level(lengths, tprev, tlast, L, range(d))
    for base, a in reversed(cylinders):
        starts.append(base)
        symbols.append(a)
    return _Towers(L, starts, [node[a] for a in symbols], [hits[a] for a in symbols], heights, moves, kids, y, entry)


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
