from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ietkit import (
    IntersectionReport,
    PositivityClass,
    SegmentClass,
    SegmentRelation,
    Witness,
    build_iet,
    build_suspension,
    convexity_criterion,
    is_irreducible,
    mahler_curve,
    omega,
    pointwise_positive,
    random_irreducible,
    return_time_profile,
    segment_relation,
    self_intersects,
    validate_permutation,
)
from ietkit import suspension
from ietkit.errors import DegenerateSegment, DimensionMismatch, NonPositiveLength

from conftest import (
    FROZEN_CROSSING,
    SEED,
    frozen_crossing_diagram,
    monotone_instance,
    random_height,
    random_length,
    reference_crossing,
)
from oracles import oracle_omega, oracle_profile, oracle_simple, segment_contact

F = Fraction


# ---------------------------------------------------------------------------
# construction and the return profile


def test_parallelogram_diagram():
    d = build_suspension(validate_permutation([2, 1]), [1, 1], [1, -1])
    assert d.top_chain == ((F(0), F(0)), (F(1), F(1)), (F(2), F(0)))
    assert d.bottom_chain == ((F(0), F(0)), (F(1), F(-1)), (F(2), F(0)))
    assert d.return_profile == (F(1), F(1))
    assert d.slopes == (F(1), F(-1))


def test_hexagon_diagram():
    d = build_suspension(validate_permutation([3, 2, 1]), [1, 1, 1], [1, 0, -1])
    assert d.top_chain == ((F(0), F(0)), (F(1), F(1)), (F(2), F(1)), (F(3), F(0)))
    assert d.bottom_chain == ((F(0), F(0)), (F(1), F(-1)), (F(2), F(-1)), (F(3), F(0)))
    assert d.return_profile == (F(1), F(2), F(1))


def test_zero_heights_flatten_everything():
    d = build_suspension(validate_permutation([3, 1, 2]), [1, 2, 1], [0, 0, 0])
    assert d.return_profile == (F(0), F(0), F(0))
    assert all(y == 0 for _, y in d.top_chain)
    assert all(y == 0 for _, y in d.bottom_chain)
    assert pointwise_positive(d) is PositivityClass.HAS_ZERO


def test_build_validates_input():
    p = validate_permutation([2, 1])
    with pytest.raises(NonPositiveLength):
        build_suspension(p, [1, 0], [1, 1])
    with pytest.raises(DimensionMismatch):
        build_suspension(p, [1, 1], [1, 1, 1])


def test_return_time_profile_examples():
    assert return_time_profile(validate_permutation([2, 1]), [1, -1]) == (F(1), F(1))
    assert return_time_profile(validate_permutation([3, 2, 1]), [1, 0, -1]) == (F(1), F(2), F(1))
    assert return_time_profile(validate_permutation([3, 1, 2]), [0, 0, 0]) == (F(0),) * 3
    with pytest.raises(DimensionMismatch):
        return_time_profile(validate_permutation([2, 1]), [1])


@settings(max_examples=200)
@given(st.integers(1, 16).flatmap(lambda d: st.tuples(
    st.permutations(range(1, d + 1)),
    st.lists(
        st.builds(F, st.integers(-9, 9), st.integers(1, 12)), min_size=d, max_size=d
    ),
    st.lists(
        st.builds(F, st.integers(1, 9), st.integers(1, 12)), min_size=d, max_size=d
    ),
)))
def test_profile_matches_sign_condition_oracle(case):
    images, b, a = case
    sigma = validate_permutation(images)
    got = return_time_profile(sigma, b)
    assert list(got) == oracle_profile(images, b)
    by_matrix = [sum((e * v for e, v in zip(row, b)), F(0)) for row in omega(sigma).entries]
    assert list(got) == by_matrix
    assert all(type(v) is F for v in got)
    # The same kernel gives an exchange its translations, the row vector a Omega.
    om = oracle_omega(images)
    a_omega = [sum((a[i] * om[i][j] for i in range(len(a))), F(0)) for j in range(len(a))]
    assert list(build_iet(sigma, a).translations) == a_omega


def fraction_chains(sigma, lengths, heights):
    """Both chains by adding the (a_i, b_i) vectors as Fractions, the way
    ``build_suspension`` accumulated them before it summed scaled integers."""
    def chain(order):
        pts = [(F(0), F(0))]
        for s in order:
            x, y = pts[-1]
            pts.append((x + F(lengths[s - 1]), y + F(heights[s - 1])))
        return tuple(pts)

    return chain(range(1, sigma.d + 1)), chain(sigma.inverse)


def eager_attributes(sigma, a, b):
    """Every public attribute of a diagram, built eagerly the way
    ``build_suspension`` filled them in before they were derived on first read:
    ``Fraction`` chains and slopes, and the profile from the sign conditions."""
    lengths = tuple(F(v) for v in a)
    heights = tuple(F(v) for v in b)
    slopes = tuple(h / x for x, h in zip(lengths, heights))
    top, bottom = fraction_chains(sigma, lengths, heights)

    def sign(v):
        return (v > 0) - (v < 0)

    return {
        "d": sigma.d,
        "sigma": sigma,
        "lengths": lengths,
        "heights": heights,
        "slopes": slopes,
        "top_chain": top,
        "bottom_chain": bottom,
        "return_profile": tuple(oracle_profile(list(sigma.images), heights)),
        "first_slope_vs_bottom_first": sign(slopes[0] - slopes[sigma.inverse[0] - 1]),
        "first_slope_vs_bottom_last": sign(slopes[0] - slopes[sigma.inverse[-1] - 1]),
    }


scalars = st.one_of(
    st.integers(-50, 50),
    st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-999, 999), st.integers(1, 999)),
)


def positive(value):
    return value if F(value) > 0 else 1


@settings(max_examples=200)
@given(st.integers(1, 24).flatmap(lambda d: st.tuples(
    st.permutations(range(1, d + 1)),
    st.lists(scalars.map(positive), min_size=d, max_size=d),
    st.lists(scalars, min_size=d, max_size=d),
)))
def test_integer_chains_match_fraction_chains(case):
    images, a, b = case
    sigma = validate_permutation(images)
    diagram = build_suspension(sigma, a, b)
    top, bottom = fraction_chains(sigma, a, b)
    assert diagram.top_chain == top
    assert diagram.bottom_chain == bottom
    assert all(type(c) is F for pt in diagram.top_chain + diagram.bottom_chain for c in pt)
    assert diagram.return_profile == return_time_profile(sigma, b)
    assert list(diagram.return_profile) == oracle_profile(images, b)
    # Every public attribute, read in a fresh diagram, equals the eager build.
    fresh = build_suspension(sigma, a, b)
    public = {name: getattr(fresh, name) for name in dir(fresh) if not name.startswith("_")}
    assert public == eager_attributes(sigma, a, b)
    assert all(type(v) is F for v in fresh.slopes + fresh.return_profile)


def test_chain_closure_on_random_data():
    rng = random.Random(f"{SEED}/closure")
    for _ in range(200):
        d = rng.randint(1, 9)
        images = list(range(1, d + 1))
        rng.shuffle(images)
        diagram = build_suspension(
            validate_permutation(images),
            [random_length(rng) for _ in range(d)],
            [random_height(rng) for _ in range(d)],
        )
        assert diagram.top_chain[0] == diagram.bottom_chain[0] == (0, 0)
        assert diagram.top_chain[-1] == diagram.bottom_chain[-1]


# ---------------------------------------------------------------------------
# segment relations


def test_segment_relation_proper_crossing():
    rel = segment_relation((F(0), F(0)), (F(1), F(1)), (F(0), F(1)), (F(1), F(0)))
    assert rel.classification is SegmentClass.PROPER_CROSSING
    assert rel.locus == (F(1, 2), F(1, 2))


def test_segment_relation_shared_vertex():
    rel = segment_relation((0, 0), (1, 1), (1, 1), (2, 0))
    assert rel.classification is SegmentClass.ENDPOINT_TOUCH
    assert rel.locus == (1, 1)


def test_segment_relation_collinear_overlap():
    rel = segment_relation((0, 0), (2, 0), (1, 0), (3, 0))
    assert rel.classification is SegmentClass.COLLINEAR_OVERLAP
    assert rel.locus == ((1, 0), (2, 0))


def test_segment_relation_t_shape_touch():
    rel = segment_relation((0, 0), (2, 0), (1, 0), (1, 5))
    assert rel.classification is SegmentClass.ENDPOINT_TOUCH
    assert rel.locus == (1, 0)


def test_segment_relation_disjoint_cases():
    assert segment_relation((0, 0), (1, 0), (0, 1), (1, 1)).classification \
        is SegmentClass.DISJOINT  # parallel
    assert segment_relation((0, 0), (1, 0), (2, 0), (3, 0)).classification \
        is SegmentClass.DISJOINT  # collinear, separated
    assert segment_relation((0, 0), (1, 1), (2, 0), (3, -5)).classification \
        is SegmentClass.DISJOINT


def test_segment_relation_collinear_end_to_end():
    rel = segment_relation((0, 0), (1, 0), (1, 0), (2, 0))
    assert rel.classification is SegmentClass.ENDPOINT_TOUCH
    assert rel.locus == (1, 0)


@pytest.mark.parametrize("p0, p1, q0, q1, locus", [
    # |dx| = |dy|: x is the dominant axis on a tie, so the ends come back in
    # x order; ordered along y, they would come back reversed.
    ((0, 0), (2, -2), (1, -1), (3, -3), ((1, -1), (2, -2))),
    # p spans 2 in x and 6 in y, so the ends come back in y order, however
    # far from x = 0 the segment lies.
    ((5, 0), (7, -6), (6, -3), (8, -9), ((7, -6), (6, -3))),
], ids=["diagonal", "steep-away-from-0"])
def test_segment_relation_orders_an_overlap_along_the_dominant_axis_of_p(p0, p1, q0, q1, locus):
    rel = segment_relation(p0, p1, q0, q1)
    assert rel.classification is SegmentClass.COLLINEAR_OVERLAP
    assert rel.locus == locus


plane_coords = st.one_of(st.integers(-40, 40), st.fractions(-40, 40, max_denominator=12))
plane_points = st.tuples(plane_coords, plane_coords)
interior_t = st.fractions(0, 1, max_denominator=12).filter(lambda t: 0 < t < 1)
reach = st.fractions(0, 5, max_denominator=12).filter(lambda t: t > 0)


def assert_crossing_matches_references(p0, p1, q0, q1):
    rel = segment_relation(p0, p1, q0, q1)
    assert rel.classification is SegmentClass.PROPER_CROSSING
    assert rel.locus == reference_crossing(p0, p1, q0, q1)
    assert segment_contact(p0, p1, q0, q1) == ("point", rel.locus)
    assert all(type(c) is F for c in rel.locus)


@settings(max_examples=200)
@given(plane_points, plane_points, interior_t, plane_points, reach, reach)
def test_segment_relation_crossings_match_references(p0, p1, t, w, before, after):
    # q runs along w through the point at t on p, so the two cross there;
    # each case is checked in Fraction coordinates and, times the lcm of
    # their denominators, in integers.
    dp = (p1[0] - p0[0], p1[1] - p0[1])
    assume(dp[0] * w[1] - dp[1] * w[0] != 0)
    at = (p0[0] + t * dp[0], p0[1] + t * dp[1])
    q0 = (at[0] - before * w[0], at[1] - before * w[1])
    q1 = (at[0] + after * w[0], at[1] + after * w[1])
    corners = (p0, p1, q0, q1)
    assert_crossing_matches_references(*corners)
    scale = math.lcm(*(F(c).denominator for pt in corners for c in pt))
    scaled = [(int(x * scale), int(y * scale)) for x, y in corners]
    assert_crossing_matches_references(*scaled)
    assert segment_relation(*scaled).locus == tuple(c * scale for c in at)


@settings(max_examples=200)
@given(plane_points, plane_points, plane_points, plane_points)
def test_segment_relation_agrees_with_the_parametric_oracle(p0, p1, q0, q1):
    assume(p0 != p1 and q0 != q1)
    rel = segment_relation(p0, p1, q0, q1)
    kind, locus = segment_contact(p0, p1, q0, q1)
    if rel.classification is SegmentClass.PROPER_CROSSING:
        assert rel.locus == reference_crossing(p0, p1, q0, q1)
    if rel.classification is SegmentClass.COLLINEAR_OVERLAP:
        assert kind == "overlap" and set(rel.locus) == set(locus)
    else:
        assert (kind, locus) == {
            SegmentClass.DISJOINT: ("none", None),
            SegmentClass.ENDPOINT_TOUCH: ("point", rel.locus),
            SegmentClass.PROPER_CROSSING: ("point", rel.locus),
        }[rel.classification]


def test_segment_relation_rejects_degenerate():
    with pytest.raises(DegenerateSegment):
        segment_relation((0, 0), (0, 0), (1, 0), (2, 0))


# ---------------------------------------------------------------------------
# whole-curve simplicity


def test_parallelogram_is_simple():
    report = self_intersects(build_suspension(validate_permutation([2, 1]), [1, 1], [1, -1]))
    assert report.simple and report.witness is None


def test_hexagon_is_simple():
    report = self_intersects(
        build_suspension(validate_permutation([3, 2, 1]), [1, 1, 1], [1, 0, -1])
    )
    assert report.simple


def test_frozen_crossing_fixture():
    report = self_intersects(frozen_crossing_diagram())
    assert not report.simple
    w = report.witness
    assert (w.chain_a, w.index_a) == (FROZEN_CROSSING["chain_a"], FROZEN_CROSSING["index_a"])
    assert (w.chain_b, w.index_b) == (FROZEN_CROSSING["chain_b"], FROZEN_CROSSING["index_b"])
    assert w.relation.classification is SegmentClass.PROPER_CROSSING
    assert w.relation.locus == FROZEN_CROSSING["locus"]


def test_identical_chains_are_not_simple():
    # Zero heights collapse both chains onto the base interval.
    report = self_intersects(build_suspension(validate_permutation([2, 1]), [1, 1], [0, 0]))
    assert not report.simple
    assert report.witness.relation.classification is SegmentClass.COLLINEAR_OVERLAP


def test_self_intersects_agrees_with_parametric_oracle():
    rng = random.Random(f"{SEED}/oracle-equivalence-unit")
    disagreements = 0
    for _ in range(400):
        d = rng.randint(2, 6)
        images = list(range(1, d + 1))
        rng.shuffle(images)
        a = [F(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(d)]
        b = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(d)]
        diagram = build_suspension(validate_permutation(images), a, b)
        mine = self_intersects(diagram)
        simple, offenders = oracle_simple(images, a, b)
        if mine.simple != simple:
            disagreements += 1
        if not mine.simple:
            w = mine.witness
            assert any(o[:4] == (w.chain_a, w.index_a, w.chain_b, w.index_b) for o in offenders)
    assert disagreements == 0


# ---------------------------------------------------------------------------
# the first offender named by the vertex sweep against the all-pairs scan


def all_pairs_report(diagram) -> IntersectionReport:
    """Every pair of chain segments in top-then-bottom, left-to-right order.

    The reference for ``self_intersects``: the same permitted contacts and the
    same first offender, found without assuming x-monotone chains.  It builds
    its own integer chains, both axes over the lcm D of the a and b
    denominators, and divides the witness locus by D.
    """
    d = diagram.d
    den = math.lcm(*(v.denominator for v in diagram.lengths + diagram.heights))
    steps = [(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
             for a, b in zip(diagram.lengths, diagram.heights)]

    def chain(order) -> list[tuple[int, int]]:
        points = [(0, 0)]
        for i in order:
            points.append((points[-1][0] + steps[i - 1][0], points[-1][1] + steps[i - 1][1]))
        return points

    chains = {"top": chain(range(1, d + 1)), "bottom": chain(diagram.sigma.inverse)}
    segs = [("top", i) for i in range(1, d + 1)] + [("bottom", i) for i in range(1, d + 1)]
    start, end = chains["top"][0], chains["top"][d]
    for u, (ca, ia) in enumerate(segs):
        for cb, ib in segs[u + 1 :]:
            rel = segment_relation(
                chains[ca][ia - 1], chains[ca][ia], chains[cb][ib - 1], chains[cb][ib]
            )
            if rel.classification is SegmentClass.DISJOINT:
                continue
            if rel.classification is SegmentClass.ENDPOINT_TOUCH:
                if ca == cb and abs(ia - ib) == 1:
                    if rel.locus == chains[ca][max(ia, ib) - 1]:
                        continue
                elif ca != cb and ia == ib == 1:
                    if rel.locus == start:
                        continue
                elif ca != cb and ia == ib == d:
                    if rel.locus == end:
                        continue
            if rel.classification is SegmentClass.COLLINEAR_OVERLAP:
                locus = tuple((F(x, den), F(y, den)) for x, y in rel.locus)
            else:
                locus = (F(rel.locus[0], den), F(rel.locus[1], den))
            exact = SegmentRelation(rel.classification, locus)
            return IntersectionReport(False, Witness(ca, ia, cb, ib, exact))
    return IntersectionReport(True, None)


def assert_matches_references(images, a, b) -> IntersectionReport:
    """The whole report (pair, class, locus) equals the all-pairs one, and the
    verdict and witness pair agree with the independent parametric oracle.
    The criterion, where it runs, finds the same witness, and that witness is
    the public ``segment_relation`` of its pair on the ``Fraction`` chains,
    value and type alike."""
    sigma = validate_permutation(images)
    diagram = build_suspension(sigma, a, b)
    report = self_intersects(diagram)
    assert report == all_pairs_report(diagram)
    if sigma.d > 1 and is_irreducible(sigma):
        witness = convexity_criterion(sigma, a, b).witness
        assert witness == report.witness
        assert repr(witness) == repr(report.witness)
    simple, offenders = oracle_simple(images, a, b)
    assert report.simple == simple
    if not simple:
        w = report.witness
        assert (w.chain_a, w.index_a, w.chain_b, w.index_b) == offenders[0][:4]
        top, bottom, i, j = diagram.top_chain, diagram.bottom_chain, w.index_a, w.index_b
        rel = segment_relation(top[i - 1], top[i], bottom[j - 1], bottom[j])
        public = Witness("top", i, "bottom", j, rel)
        assert w == public and repr(w) == repr(public)
        # An int equals a Fraction but prints as 1, not "1/1", in canonical JSON.
        locus = w.relation.locus
        points = locus if w.relation.classification is SegmentClass.COLLINEAR_OVERLAP else (locus,)
        assert all(type(c) is F for pt in points for c in pt)
    return report


def criterion_9_stream():
    """The (images, a, b) draws of acceptance criterion 9, about half simple."""
    rng = random.Random(f"{SEED}/oracle-equivalence")
    for _ in range(2_000):
        d = rng.randint(2, 6)
        images = list(range(1, d + 1))
        rng.shuffle(images)
        a = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
        yield images, a, b


def test_sweep_matches_all_pairs_on_criterion_9_stream():
    for images, a, b in criterion_9_stream():
        assert_matches_references(images, a, b)


def test_sweep_matches_all_pairs_on_touches_and_overlaps():
    # Small integers put vertices on other segments and segments on one line.
    # The second pass divides every a_i by 3 and every b_i by 10: that keeps
    # each touch and overlap, with coprime length and height denominators,
    # so a per-axis scaling would stretch the axes apart there.
    for a_den, b_den in ((1, 1), (3, 10)):
        rng = random.Random(f"{SEED}/window-degenerate")
        seen = {c: 0 for c in SegmentClass}
        by_criterion = {c: 0 for c in SegmentClass}
        simple = 0
        for _ in range(500):
            d = rng.randint(2, 12)
            images = list(range(1, d + 1))
            rng.shuffle(images)
            a = [F(rng.randint(1, 3), a_den) for _ in range(d)]
            b = [F(rng.randint(-3, 3), b_den) for _ in range(d)]
            report = assert_matches_references(images, a, b)
            if report.simple:
                simple += 1
            else:
                seen[report.witness.relation.classification] += 1
                if is_irreducible(validate_permutation(images)):
                    by_criterion[report.witness.relation.classification] += 1
        # Simple curves and every kind of offender were actually exercised,
        # the offenders in the criterion's witness too.
        assert simple > 50
        assert min(seen[c] for c in SegmentClass if c is not SegmentClass.DISJOINT) > 50
        assert min(by_criterion[c] for c in SegmentClass if c is not SegmentClass.DISJOINT) > 20


def test_steep_decreasing_overlap_keeps_the_rational_locus_order():
    # segment_relation orders overlap ends along the dominant axis of p.
    # Scaling y alone by 10 makes this slope -1/2 segment y-dominant, and the
    # ends come back reversed; so the witness is mapped back from chains that
    # scale both axes by one common denominator, which keeps the axis.
    p0, p1, q0, q1 = (0, 0), (1, F(-1, 2)), (F(1, 2), F(-1, 4)), (2, -1)
    assert segment_relation(p0, p1, q0, q1).locus == ((F(1, 2), F(-1, 4)), (1, F(-1, 2)))
    scaled = [(x, 10 * y) for x, y in (p0, p1, q0, q1)]
    assert segment_relation(*scaled).locus == ((1, -5), (F(1, 2), F(-5, 2)))
    # A diagram whose first offender is such an overlap: top 1 and bottom 1
    # both leave the origin with slope -1/2; the length denominators' lcm is
    # 2 and the heights' is 20, and the chains are scaled by 20.
    a, b = [1, F(3, 2), 1], [F(-1, 2), F(-3, 4), F(1, 5)]
    report = assert_matches_references([3, 1, 2], a, b)
    w = report.witness
    assert (w.chain_a, w.index_a, w.chain_b, w.index_b) == ("top", 1, "bottom", 1)
    assert w.relation == segment_relation((0, 0), (1, F(-1, 2)), (0, 0), (F(3, 2), F(-3, 4)))
    assert w.relation.classification is SegmentClass.COLLINEAR_OVERLAP
    assert w.relation.locus == ((0, 0), (1, F(-1, 2)))


@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(
    st.permutations(range(1, d + 1)),
    st.lists(st.integers(1, 3), min_size=d, max_size=d),
    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
)))
def test_sweep_matches_all_pairs_on_small_integer_diagrams(case):
    assert_matches_references(*case)


@pytest.mark.parametrize("d", [8, 32, 128])
def test_sweep_matches_all_pairs_on_power_curves(d):
    rng = random.Random(f"{SEED}/window-power/{d}")
    for s in (F(1, 2), F(13, 11), F(3)):
        images = list(random_irreducible(d, rng.getrandbits(32)).images)
        a, b = mahler_curve(d, s)
        assert assert_matches_references(images, a, b).simple


# ---------------------------------------------------------------------------
# the vertex-sign sweep that decides simplicity before any segment pair


def test_simple_curves_run_no_segment_test(monkeypatch):
    # A simple curve is decided from the signs at the chains' vertices alone;
    # a segment relation is computed only for the witness of a failing curve.
    def refuse(*args):
        raise AssertionError("_segment_relation ran on a simple curve")

    rng = random.Random(f"{SEED}/sweep-only")
    draws = []
    while len(draws) < 50:
        d = rng.randint(2, 8)
        sigma = random_irreducible(d, rng.getrandbits(32))
        a = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d)]
        b = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d)]
        if oracle_simple(list(sigma.images), a, b)[0]:
            draws.append((sigma, a, b))
    for d in (8, 32):
        draws.append((random_irreducible(d, rng.getrandbits(32)), *mahler_curve(d, F(13, 11))))
    monkeypatch.setattr(suspension, "_segment_relation", refuse)
    for sigma, a, b in draws:
        assert self_intersects(build_suspension(sigma, a, b)) == IntersectionReport(True, None)
        assert convexity_criterion(sigma, a, b).simple


@pytest.mark.parametrize("images, a, b, witness", [
    # Top (0,0) (2,2) (3,4) (4,3), bottom (0,0) (1,2) (2,1) (4,3): every top
    # vertex lies above the bottom chain, but bottom vertex 1 pokes above
    # top segment 1, so a sweep over one chain's vertices would pass it.
    ([3, 1, 2], [2, 1, 1], [2, 2, -1], ("top", 1, "bottom", 2, SegmentClass.PROPER_CROSSING)),
    # Bottom vertex 2 at (3,1) lies on top segment 3, from (2,0) to (4,2);
    # at every other vertex the top chain is strictly below.
    ([2, 3, 1], [1, 1, 2], [-1, 1, 2], ("top", 3, "bottom", 2, SegmentClass.ENDPOINT_TOUCH)),
    # Top (0,0) (3,-2) (5,-3) (7,-2) (10,0), bottom (0,0) (3,2) (5,3) (8,1)
    # (10,0): top and bottom vertices 1 and 2 share x = 3 and x = 5; simple.
    ([3, 4, 2, 1], [3, 2, 2, 3], [-2, -1, 1, 2], None),
    # Top vertex 2 and bottom vertex 2 are the same point (3,0), and the two
    # last segments coincide after it; the touch is the first offender.
    ([3, 1, 2], [2, 1, 2], [-1, 1, -1], ("top", 2, "bottom", 2, SegmentClass.ENDPOINT_TOUCH)),
    # One symbol: no interior vertex, and the two one-segment chains coincide.
    ([1], [1], [1], ("top", 1, "bottom", 1, SegmentClass.COLLINEAR_OVERLAP)),
    # A reducible sigma, the identity, adds the vectors in one order twice.
    ([1, 2, 3], [1, 2, 1], [1, -1, 2], ("top", 1, "bottom", 1, SegmentClass.COLLINEAR_OVERLAP)),
    # Top (0,0) (3,3) (4,1) (6,-2), bottom (0,0) (2,-3) (5,0) (6,-2): past the
    # last top vertex, bottom vertex 2 lies above top segment 3.
    ([2, 3, 1], [3, 1, 2], [3, -2, -3], ("top", 3, "bottom", 2, SegmentClass.PROPER_CROSSING)),
    # Past the last top vertex, bottom vertex 3 at (8,5) lies on top segment 4,
    # from (7,4) to (10,7); the top chain is strictly below before it.
    ([2, 3, 4, 1], [3, 2, 2, 3], [1, 1, 2, 3], ("top", 4, "bottom", 3, SegmentClass.ENDPOINT_TOUCH)),
    # Top (0,0) (1,-3) (4,-2) (6,1) (8,1), bottom (0,0) (2,3) (4,3) (5,0) (8,1):
    # past the last bottom vertex, top vertex 3 lies above bottom segment 4.
    ([3, 4, 1, 2], [1, 3, 2, 2], [-3, 1, 3, 0], ("top", 3, "bottom", 4, SegmentClass.PROPER_CROSSING)),
    # Past the last bottom vertex, top vertex 2 at (4,-1) lies on bottom
    # segment 3, from (3,0) to (5,-2); the top chain is strictly below before it.
    ([3, 1, 2], [2, 2, 1], [-2, 1, -1], ("top", 2, "bottom", 3, SegmentClass.ENDPOINT_TOUCH)),
    # Top (0,0) (3,0) (6,-2) (9,-1), bottom (0,0) (3,-2) (6,-1) (9,-1): at x = 6,
    # a top and a bottom vertex, the top chain has passed below.
    ([3, 1, 2], [3, 3, 3], [0, -2, 1], ("top", 2, "bottom", 2, SegmentClass.PROPER_CROSSING)),
    # Top (0,0) (1,0) (4,-2) (7,-4), bottom (0,0) (3,-2) (4,-2) (7,-4): top
    # vertex 2 is bottom vertex 2, the end of bottom segment 2.
    ([2, 3, 1], [1, 3, 3], [0, -2, -2], ("top", 2, "bottom", 2, SegmentClass.ENDPOINT_TOUCH)),
], ids=["bottom-vertex-pokes-through", "vertex-on-the-other-chain", "shared-x-simple",
        "shared-vertex", "one-symbol", "reducible-coinciding-chains",
        "past-last-top-crossing", "past-last-top-touch", "past-last-bottom-crossing",
        "past-last-bottom-touch", "shared-x-crossing", "shared-x-touch"])
def test_sweep_named_cases(images, a, b, witness):
    report = assert_matches_references(images, a, b)
    if witness is None:
        assert report.simple
    else:
        w = report.witness
        assert (w.chain_a, w.index_a, w.chain_b, w.index_b, w.relation.classification) == witness


def test_failing_curves_run_one_segment_test(monkeypatch):
    # The sweep names the first offender, so a failing curve classifies that
    # one pair and a simple curve none, in ``self_intersects`` and in the
    # criterion alike.
    calls = []
    relation = suspension._segment_relation

    def counted(*args):
        calls.append(args)
        return relation(*args)

    monkeypatch.setattr(suspension, "_segment_relation", counted)
    one_symbol = [([1], [F(p, 3)], [F(q, 7)]) for p in (1, 5) for q in (-4, 0, 2)]
    failing = criteria = 0
    for images, a, b in [*criterion_9_stream(), *one_symbol]:
        sigma = validate_permutation(images)
        calls.clear()
        report = self_intersects(build_suspension(sigma, a, b))
        assert len(calls) == (0 if report.simple else 1)
        failing += not report.simple
        if sigma.d > 1 and is_irreducible(sigma):
            calls.clear()
            assert convexity_criterion(sigma, a, b).simple == report.simple
            assert len(calls) == (0 if report.simple else 1)
            criteria += not report.simple
    assert failing > 500
    assert criteria > 300


def test_a_contact_that_no_segment_pair_shows_is_loud(monkeypatch):
    # The sweep saw a contact, so a named pair that shows none is a bug; the
    # check is a raise, not an assert, so it holds under python -O too.
    disjoint = suspension.SegmentRelation(SegmentClass.DISJOINT, None)
    monkeypatch.setattr(suspension, "_segment_relation", lambda *args: disjoint)
    with pytest.raises(AssertionError, match="no segment pair"):
        self_intersects(frozen_crossing_diagram())
    sigma = validate_permutation(list(FROZEN_CROSSING["perm"]))
    with pytest.raises(AssertionError, match="no segment pair"):
        convexity_criterion(sigma, FROZEN_CROSSING["lengths"], FROZEN_CROSSING["heights"])


# ---------------------------------------------------------------------------
# sign of the return profile


def test_pointwise_positive_parallelogram():
    d = build_suspension(validate_permutation([2, 1]), [1, 1], [1, -1])
    assert pointwise_positive(d) is PositivityClass.ALL_POSITIVE


def test_pointwise_positive_zero_wins():
    # L_1 = -(b_2 + b_3) = 0 here, and any zero entry dominates the verdict.
    d = build_suspension(validate_permutation([3, 2, 1]), [1, 1, 1], [1, -1, 1])
    assert d.return_profile[0] == 0
    assert pointwise_positive(d) is PositivityClass.HAS_ZERO


def reference_sign_class(profile) -> PositivityClass:
    if 0 in profile:
        return PositivityClass.HAS_ZERO
    if all(v > 0 for v in profile):
        return PositivityClass.ALL_POSITIVE
    if all(v < 0 for v in profile):
        return PositivityClass.ALL_NEGATIVE
    return PositivityClass.MIXED


def diagram_with_profile(profile):
    # The diagram's profile is a lazy attribute, so one placed in its
    # __dict__ first is the one read.
    d = len(profile)
    diagram = build_suspension(validate_permutation(range(d, 0, -1)), [1] * d, [0] * d)
    diagram.__dict__["_profile"] = list(profile)
    return diagram


@pytest.mark.parametrize("profile, expected", [
    ([0], PositivityClass.HAS_ZERO),
    ([7], PositivityClass.ALL_POSITIVE),
    ([-7], PositivityClass.ALL_NEGATIVE),
    ([1, 0, 2], PositivityClass.HAS_ZERO),
    ([-1, 0, 2], PositivityClass.HAS_ZERO),
    ([0, -3, -1], PositivityClass.HAS_ZERO),
    ([0, 0], PositivityClass.HAS_ZERO),
    ([2, 1, 10**40], PositivityClass.ALL_POSITIVE),
    ([-2, -(10**40)], PositivityClass.ALL_NEGATIVE),
    ([1, -1], PositivityClass.MIXED),
    ([-5, 3, -1, 2], PositivityClass.MIXED),
], ids=["zero", "one-positive", "one-negative", "zero-among-positives", "zero-among-mixed",
        "zero-among-negatives", "zeros", "positive", "negative", "mixed-pair", "mixed"])
def test_pointwise_positive_classifies_every_sign_pattern(profile, expected):
    assert reference_sign_class(profile) is expected
    assert pointwise_positive(diagram_with_profile(profile)) is expected


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=9))
def test_pointwise_positive_matches_the_sign_definition(profile):
    assert pointwise_positive(diagram_with_profile(profile)) is reference_sign_class(profile)


def test_pointwise_positive_reversal_with_positive_heights_is_mixed():
    """For the reversal, the profile is L_i = sum(b[:i-1]) - sum(b[i:]).

    With b = (1, 2, 3) that gives (-5, -2, 3).  The first d-1 entries are
    negative, but the last one is the sum of the leading positive entries, so
    the profile cannot be sign-definite for positive heights: Mixed.
    """
    p = validate_permutation([3, 2, 1])
    b = [F(1), F(2), F(3)]
    expected = tuple(sum(b[: i - 1], F(0)) - sum(b[i:], F(0)) for i in range(1, 4))
    d = build_suspension(p, [1, 1, 1], b)
    assert d.return_profile == expected == (F(-5), F(-2), F(3))
    assert pointwise_positive(d) is PositivityClass.MIXED


def test_suspension_cone_forces_positive_profile():
    """Heights whose partial sums stay positive while the exchanged-order
    partial sums stay negative (both strictly, up to d-1) give a profile that
    is positive everywhere.  This is the sufficient condition that actually
    guarantees positivity; slope monotonicity alone does not (see the test
    above: a monotone, simple instance can still have a mixed profile)."""
    rng = random.Random(f"{SEED}/cone")
    hits = 0
    for _ in range(6000):
        d = rng.randint(2, 6)
        sigma = random_irreducible(d, rng.getrandbits(32))
        b = [random_height(rng) for _ in range(d)]
        y = [sum(b[:i], F(0)) for i in range(1, d + 1)]
        y_ex = [sum((b[sigma.inverse[j] - 1] for j in range(i)), F(0)) for i in range(1, d + 1)]
        if all(v > 0 for v in y[: d - 1]) and all(v < 0 for v in y_ex[: d - 1]):
            hits += 1
            diagram = build_suspension(sigma, [random_length(rng) for _ in range(d)], b)
            assert pointwise_positive(diagram) is PositivityClass.ALL_POSITIVE
    assert hits > 100  # the property above was actually exercised


def test_monotone_slopes_do_not_force_positivity():
    """Frozen counterexamples: strictly decreasing slopes, irreducible sigma,
    simple curve, yet the return profile changes sign."""
    p = validate_permutation([2, 3, 1])
    for b in ([F(2), F(1), F(1, 10)], [F(1), F(-2), F(-3)]):
        d = build_suspension(p, [1, 1, 1], b)
        assert all(x > y for x, y in zip(d.slopes, d.slopes[1:]))  # decreasing
        assert self_intersects(d).simple
        assert pointwise_positive(d) is PositivityClass.MIXED
    assert build_suspension(p, [1, 1, 1], [F(2), F(1), F(1, 10)]).return_profile == (
        F(-1, 10),
        F(-1, 10),
        F(3),
    )


def test_monotone_suite_instances_are_simple():
    # Small inline version of the randomized sweeps; the full ones live in
    # the acceptance suite.
    rng = random.Random(f"{SEED}/mini-lemma")
    for decreasing in (True, False):
        for _ in range(200):
            sigma, a, b = monotone_instance(rng, decreasing=decreasing)
            assert self_intersects(build_suspension(sigma, a, b)).simple
