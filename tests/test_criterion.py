from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietkit import criterion as _criterion
from ietkit import (
    IntersectionReport,
    MonotonicityClass,
    PositivityClass,
    ScanSummary,
    SegmentClass,
    SegmentRelation,
    Verdict,
    Witness,
    build_iet,
    build_suspension,
    convexity_criterion,
    curve_point,
    curve_spec,
    mahler_curve,
    mahler_spec,
    pointwise_positive,
    random_irreducible,
    scan_curve,
    self_intersects,
    slope_monotonicity,
    validate_permutation,
)
from ietkit.errors import (
    DimensionMismatch,
    DomainViolation,
    IetkitError,
    InvalidBound,
    InvalidSize,
    LemmaViolation,
    NonPositiveLength,
    NonPositiveParameter,
    ReduciblePermutation,
)

from conftest import (
    FROZEN_CROSSING,
    SEED,
    monotone_instance,
    reference_classify_slopes,
    reference_curve_point,
    reference_mahler_curve,
)
from oracles import oracle_profile

F = Fraction


# ---------------------------------------------------------------------------
# slope classification


def test_slope_monotonicity_examples():
    assert slope_monotonicity([1, 1, 1], [1, 0, -1]) is MonotonicityClass.STRICTLY_DECREASING
    assert slope_monotonicity([2, 1], [1, 1]) is MonotonicityClass.STRICTLY_INCREASING
    assert slope_monotonicity([1, 1], [3, 3]) is MonotonicityClass.HAS_TIES
    assert slope_monotonicity([1, 1, 1], [0, 1, 0]) is MonotonicityClass.NON_MONOTONE


def test_slope_monotonicity_single_interval_is_vacuously_decreasing():
    assert slope_monotonicity([5], [2]) is MonotonicityClass.STRICTLY_DECREASING


def test_slope_monotonicity_validates():
    with pytest.raises(NonPositiveLength):
        slope_monotonicity([1, 0], [1, 1])
    with pytest.raises(DimensionMismatch, match="^2 lengths vs 1 heights$"):
        slope_monotonicity([1, 1], [1])
    with pytest.raises(NonPositiveLength, match="^empty length vector$"):
        slope_monotonicity([], [])


@pytest.mark.parametrize("lengths, message", [
    ([1, 0], "a_2 = 0 is not positive"),
    ([-2, 1], "a_1 = -2 is not positive"),
    ([1, -0.5], "a_2 = -1/2 is not positive"),
])
def test_slopes_and_exchanges_reject_lengths_alike(lengths, message):
    sigma = validate_permutation([2, 1])
    raised = []
    for call in (
        lambda: slope_monotonicity(lengths, [1, 1]),
        lambda: build_iet(sigma, lengths),
        lambda: build_suspension(sigma, lengths, [1, 1]),
    ):
        with pytest.raises(NonPositiveLength) as info:
            call()
        raised.append(str(info.value))
    assert raised == [message] * 3
    with pytest.raises(DimensionMismatch, match="^3 lengths for 2 symbols$"):
        build_iet(sigma, [*lengths, 1])


# ---------------------------------------------------------------------------
# the criterion itself


def test_hexagon_certified_by_direct_route():
    report = convexity_criterion(validate_permutation([3, 2, 1]), [1, 1, 1], [1, 0, -1])
    assert report.monotonicity is MonotonicityClass.STRICTLY_DECREASING
    assert report.simple
    assert report.verdict is Verdict.POSITIVE_PAIR_BY_LEMMA
    assert not report.chains_exchanged
    assert report.witness is None
    assert report.connection_check_advised


def test_increasing_slopes_certified_by_mirrored_route():
    a, b = mahler_curve(3, 2)
    report = convexity_criterion(validate_permutation([3, 2, 1]), a, b)
    assert report.monotonicity is MonotonicityClass.STRICTLY_INCREASING
    assert report.verdict is Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA
    assert report.chains_exchanged


def test_non_monotone_slopes_are_inconclusive():
    report = convexity_criterion(validate_permutation([3, 2, 1]), [1, 1, 1], [1, 2, 1])
    assert report.monotonicity is MonotonicityClass.NON_MONOTONE
    assert report.verdict is Verdict.INCONCLUSIVE_NON_MONOTONE
    # Inconclusive reports still carry the evidence: here the reversal maps
    # the palindromic height vector onto itself, so the chains coincide.
    assert not report.simple
    assert report.witness is not None
    assert not report.connection_check_advised


def test_tied_slopes_are_degenerate():
    report = convexity_criterion(validate_permutation([2, 1]), [1, 1], [1, 1])
    assert report.monotonicity is MonotonicityClass.HAS_TIES
    assert report.verdict is Verdict.DEGENERATE_TIES


def test_criterion_rejects_reducible_and_tiny():
    with pytest.raises(ReduciblePermutation):
        convexity_criterion(validate_permutation([1, 2]), [1, 1], [1, -1])
    with pytest.raises(InvalidSize):
        convexity_criterion(validate_permutation([1]), [1], [1])


def test_positive_verdicts_never_report_mixed_profile_as_certificate():
    # The verdict is a statement about the certification route (monotone
    # slopes plus a verified simple curve), not about profile signs, which
    # stay available separately on the report.
    report = convexity_criterion(
        validate_permutation([2, 3, 1]), [1, 1, 1], [F(2), F(1), F(1, 10)]
    )
    assert report.verdict is Verdict.POSITIVE_PAIR_BY_LEMMA
    assert report.positivity is PositivityClass.MIXED


@pytest.mark.parametrize(
    "decreasing, verdict",
    [(True, Verdict.POSITIVE_PAIR_BY_LEMMA), (False, Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA)],
)
def test_lemma_violation_is_raised_for_a_monotone_curve_that_is_not_simple(
    monkeypatch, decreasing, verdict
):
    sigma, a, b = monotone_instance(random.Random(f"{SEED}/lemma-violation"), decreasing=decreasing)
    assert convexity_criterion(sigma, a, b).verdict is verdict
    # The criterion's witness path sweeps and classifies in ``suspension``;
    # both are forced to report a crossing of top 1 and bottom 2.
    crossing = SegmentRelation(SegmentClass.PROPER_CROSSING, (F(1), F(0)))
    monkeypatch.setattr("ietkit.suspension._first_contact", lambda top, bottom: (1, 2))
    monkeypatch.setattr("ietkit.suspension._segment_relation", lambda *args: crossing)
    # A scan sample runs the vertex sweep on its own integers and hands a
    # contact to the criterion's decision, so the contact is forced there too.
    monkeypatch.setattr("ietkit.criterion._first_contact", lambda top, bottom: (1, 2))
    direction = "decreasing" if decreasing else "increasing"
    with pytest.raises(LemmaViolation, match=f"^{direction} slopes but self-intersecting curve"):
        convexity_criterion(sigma, a, b)
    assert self_intersects(build_suspension(sigma, a, b)) == IntersectionReport(
        False, Witness("top", 1, "bottom", 2, crossing)
    )
    # The curve a_i + b_i s passes through (a, b) at s = 0, with derivative b.
    spec = curve_spec([[x, y] for x, y in zip(a, b)])
    assert _outcome(lambda: scan_curve(spec, sigma, [0]).verdicts) == _outcome(
        lambda: convexity_criterion(sigma, a, b)
    )


def test_report_carries_the_diagram_it_decided_on():
    sigma = validate_permutation(FROZEN_CROSSING["perm"])
    a, b = FROZEN_CROSSING["lengths"], FROZEN_CROSSING["heights"]
    report = convexity_criterion(sigma, a, b)
    assert report.diagram == build_suspension(sigma, a, b)
    assert report.witness == self_intersects(report.diagram).witness


def test_criterion_on_a_simple_curve_builds_no_rational_chains():
    # The verdict reads the slope and profile signs off the integer chains;
    # the Fraction vertices, slopes and profile are only made when something
    # asks for them.
    a, b = mahler_curve(8, F(15, 11))
    report = convexity_criterion(random_irreducible(8, 1), a, b)
    assert report.simple
    for name in ("top_chain", "bottom_chain", "slopes", "return_profile"):
        assert name not in report.diagram.__dict__


@pytest.mark.parametrize("images, a, b, kind, locus", [
    ([2, 3, 1], [F(1, 2)] * 3, [F(-1, 3), F(1, 3), 0],
     SegmentClass.PROPER_CROSSING, (F(3, 4), F(-1, 6))),
    ([2, 3, 1], [F(1, 2)] * 3, [F(-1, 3), 0, 0],
     SegmentClass.ENDPOINT_TOUCH, (F(1), F(-1, 3))),
    ([2, 1], [1, 1], [F(-1, 3), F(-1, 3)],
     SegmentClass.COLLINEAR_OVERLAP, ((F(0), F(0)), (F(1), F(-1, 3)))),
    ([3, 1, 2], [1, F(3, 2), 1], [F(-1, 2), F(-3, 4), F(1, 5)],
     SegmentClass.COLLINEAR_OVERLAP, ((F(0), F(0)), (F(1), F(-1, 2)))),
], ids=["crossing", "touch", "overlap", "steep-overlap"])
def test_criterion_on_a_failing_curve_builds_no_rational_chains(images, a, b, kind, locus):
    # The witness is the integer relation divided by the one denominator of
    # both axes, so neither Fraction chain is built to find it.
    report = convexity_criterion(validate_permutation(images), a, b)
    assert not report.simple
    assert report.witness.relation == SegmentRelation(kind, locus)
    for name in ("top_chain", "bottom_chain"):
        assert name not in report.diagram.__dict__


def test_report_is_scale_invariant():
    rng = random.Random(f"{SEED}/scale")
    for _ in range(50):
        sigma, a, b = monotone_instance(rng, decreasing=rng.random() < 0.5)
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        base = convexity_criterion(sigma, a, b)
        scaled = convexity_criterion(sigma, [lam * v for v in a], [lam * v for v in b])
        assert scaled.verdict is base.verdict
        assert scaled.monotonicity is base.monotonicity
        assert scaled.simple == base.simple


def test_report_survives_shear_by_lengths():
    # Adding c*a to b shifts every slope by the constant c, preserving strict
    # monotonicity, and shears the plane, preserving simplicity.
    rng = random.Random(f"{SEED}/shear")
    for _ in range(50):
        sigma, a, b = monotone_instance(rng, decreasing=True)
        c = F(rng.randint(-6, 6), rng.randint(1, 4))
        sheared = convexity_criterion(sigma, a, [v + c * u for u, v in zip(a, b)])
        assert sheared.verdict is Verdict.POSITIVE_PAIR_BY_LEMMA


# ---------------------------------------------------------------------------
# parameterized families


def test_mahler_curve_small_cases():
    assert mahler_curve(2, 1) == ((F(1), F(1)), (F(1), F(2)))
    a, b = mahler_curve(3, 2)
    assert a == (F(2), F(4), F(8))
    assert b == (F(1), F(4), F(12))
    assert tuple(h / w for w, h in zip(a, b)) == (F(1, 2), F(1), F(3, 2))


@pytest.mark.parametrize("d", [2, 3, 8, 32, 128])
@pytest.mark.parametrize("s", [1, 3, F(1, 2), F(9, 10), F(13, 11), F(7, 3)], ids=lambda s: f"s={s}")
def test_mahler_curve_matches_fresh_powers(d, s):
    a, b = mahler_curve(d, s)
    assert (a, b) == reference_mahler_curve(d, s)
    assert all(type(v) is F for v in a + b)


def test_mahler_slopes_are_exactly_i_over_s():
    for d in range(2, 7):
        for k in range(1, 21):
            s = F(k, 10)
            a, b = mahler_curve(d, s)
            assert tuple(h / w for w, h in zip(a, b)) == tuple(F(i) / s for i in range(1, d + 1))


def test_mahler_curve_validates():
    with pytest.raises(NonPositiveParameter):
        mahler_curve(3, 0)
    with pytest.raises(NonPositiveParameter):
        mahler_curve(3, F(-1, 2))
    with pytest.raises(InvalidSize):
        mahler_curve(1, 2)
    with pytest.raises(InvalidSize):
        mahler_spec(1)


def test_curve_point_matches_mahler_closed_form():
    spec = mahler_spec(4)
    for s in (F(1, 2), F(1), F(7, 3)):
        assert curve_point(spec, s) == mahler_curve(4, s)


def test_curve_spec_evaluates_polynomials_with_derivative_heights():
    # rows are coefficients, lowest degree first; heights are the s-derivatives
    spec = curve_spec([[0, 0, 1], [1, 0, 3]])  # (s^2, 1 + 3 s^2)
    a, b = curve_point(spec, F(2))
    assert spec.d == 2
    assert a == (F(4), F(13))
    assert b == (F(4), F(12))


def test_curve_point_rejects_nonpositive_widths():
    spec = curve_spec([[-1, 1], [1]])  # first width s - 1 vanishes at s = 1
    with pytest.raises(DomainViolation):
        curve_point(spec, 1)
    with pytest.raises(DomainViolation):
        curve_point(spec, F(1, 2))
    a, _ = curve_point(spec, 2)
    assert a == (F(1), F(1))


small_rationals = st.builds(F, st.integers(-4, 9), st.integers(1, 6))

# Up to five components of degree up to four; rows of different lengths, and
# constants, whose derivative row is empty in the Fraction reference.
curve_rows = st.lists(
    st.lists(small_rationals, min_size=1, max_size=5), min_size=1, max_size=5
)

curve_parameters = st.one_of(
    st.floats(-4, 4, allow_nan=False),
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
    st.sampled_from([0, F(0), 0.0, -0.0, -1, F(-1, 3)]),
)


@settings(max_examples=400)
@given(curve_rows, curve_parameters)
def test_integer_curve_point_matches_fraction_horner(rows, s):
    spec = curve_spec(rows)
    try:
        expected = reference_curve_point(spec, s)
    except DomainViolation as exc:
        with pytest.raises(DomainViolation) as info:
            curve_point(spec, s)
        assert str(info.value) == str(exc)
        return
    got = curve_point(spec, s)
    assert got == expected
    assert all(type(v) is F for v in got[0] + got[1])


def test_curve_point_on_constant_rows_and_zero_parameter():
    spec = curve_spec([[3], [F(1, 2), 0, 0, 0, -1], [2, F(-1, 3)]])
    assert curve_point(spec, 0) == ((F(3), F(1, 2), F(2)), (F(0), F(0), F(-1, 3)))
    assert curve_point(spec, 0) == reference_curve_point(spec, 0)
    for s in (F(1, 2), -0.75, F(-5, 3)):
        try:
            expected = reference_curve_point(spec, s)
        except DomainViolation as exc:
            with pytest.raises(DomainViolation, match=f"^{re.escape(str(exc))}$"):
                curve_point(spec, s)
        else:
            assert curve_point(spec, s) == expected


def test_curve_point_message_names_the_first_bad_component():
    spec = curve_spec([[1], [F(1, 3), -1], [-1]])
    with pytest.raises(DomainViolation, match="^component 2 is -5/12 at s = 3/4$"):
        curve_point(spec, 0.75)


# Slopes from a small pool, so that ties are common; sorted either way or not
# at all.  Each height is slope times length, so the height denominators, and
# with them db, differ from those of the lengths.
slope_cases = st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(st.builds(F, st.integers(1, 12), st.integers(1, 7)), min_size=d, max_size=d),
    st.lists(st.sampled_from([F(-3), F(-1, 2), F(0), F(1, 3), F(2, 3), F(5, 2)]),
             min_size=d, max_size=d),
    st.sampled_from([None, False, True]),
))


@settings(max_examples=300)
@given(slope_cases, st.integers(0, 2**32))
def test_integer_slope_classifier_matches_fraction_reference(case, seed):
    a, kappa, decreasing = case
    if decreasing is not None:
        kappa = sorted(kappa, reverse=decreasing)
    b = [k * x for k, x in zip(kappa, a)]
    expected = reference_classify_slopes(kappa)
    assert slope_monotonicity(a, b) is expected
    if len(a) >= 2:
        sigma = random_irreducible(len(a), seed)
        report = convexity_criterion(sigma, a, b)
        assert report.monotonicity is expected
        for name, j in (("first", 0), ("last", -1)):
            gap = kappa[0] - kappa[sigma.inverse[j] - 1]
            sign = getattr(report.diagram, f"first_slope_vs_bottom_{name}")
            assert sign == (gap > 0) - (gap < 0)


def _sign_class(values) -> PositivityClass:
    if any(v == 0 for v in values):
        return PositivityClass.HAS_ZERO
    if all(v > 0 for v in values):
        return PositivityClass.ALL_POSITIVE
    if all(v < 0 for v in values):
        return PositivityClass.ALL_NEGATIVE
    return PositivityClass.MIXED


@settings(max_examples=300)
@given(st.integers(2, 5).flatmap(lambda d: st.lists(
    st.builds(F, st.integers(-3, 3), st.integers(1, 4)), min_size=d, max_size=d
)), st.integers(0, 2**32))
def test_profile_signs_match_oracle(b, seed):
    sigma = random_irreducible(len(b), seed)
    diagram = build_suspension(sigma, [F(1, k) for k in range(1, len(b) + 1)], b)
    assert pointwise_positive(diagram) is _sign_class(oracle_profile(list(sigma.images), b))


def test_curve_spec_validates_shape():
    with pytest.raises(InvalidSize):
        curve_spec([])
    with pytest.raises(InvalidSize):
        curve_spec([[1], []])


# ---------------------------------------------------------------------------
# scanning


def _linspace(lo: F, hi: F, n: int) -> list[F]:
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def test_scan_mahler_family_is_uniformly_mirrored():
    summary = scan_curve(
        mahler_spec(4), validate_permutation([4, 3, 2, 1]), _linspace(F(1, 2), F(4), 100)
    )
    assert summary.samples == 100
    assert summary.exceptional == ()
    assert set(summary.verdicts) == {Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA}
    assert summary.verdict_fractions == {Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA: F(1)}
    assert summary.grid[0] == F(1, 2) and summary.grid[-1] == F(4)


def test_scan_flags_degenerate_parameters():
    # widths (s, s), heights with derivative (1, 1): slopes tie exactly at
    # every s, so each grid point lands in the exceptional list.
    spec = curve_spec([[0, 1], [0, 1]])
    summary = scan_curve(spec, validate_permutation([2, 1]), [F(1, 2), F(1), F(3, 2)])
    assert summary.grid == (F(1, 2), F(1), F(3, 2))
    assert summary.verdicts == (Verdict.DEGENERATE_TIES,) * 3
    assert summary.exceptional == tuple((s, Verdict.DEGENERATE_TIES) for s in summary.grid)


def test_scan_fractions_sum_to_one():
    summary = scan_curve(mahler_spec(3), validate_permutation([3, 1, 2]), _linspace(F(1), F(2), 17))
    assert sum(summary.verdict_fractions.values(), F(0)) == 1


def test_scan_fractions_keep_first_seen_order():
    lemma, ties, mixed = (
        Verdict.POSITIVE_PAIR_BY_LEMMA, Verdict.DEGENERATE_TIES, Verdict.INCONCLUSIVE_NON_MONOTONE
    )
    summary = ScanSummary((ties, lemma, ties, mixed), (F(1), F(2), F(3), F(4)))
    assert list(summary.verdict_fractions.items()) == [
        (ties, F(1, 2)), (lemma, F(1, 4)), (mixed, F(1, 4))
    ]


def test_scan_validates():
    with pytest.raises(ReduciblePermutation):
        scan_curve(mahler_spec(2), validate_permutation([1, 2]), [1, 2])
    with pytest.raises(InvalidBound):
        scan_curve(mahler_spec(2), validate_permutation([2, 1]), [])
    with pytest.raises(DimensionMismatch):
        scan_curve(mahler_spec(2), validate_permutation([3, 2, 1]), [1, 2])


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except (IetkitError, LemmaViolation) as exc:
        return type(exc), str(exc)


def _criterion_verdicts(spec, sigma, grid):
    """The full criterion at every sample, as the scan once ran it."""
    return tuple(convexity_criterion(sigma, *curve_point(spec, s)).verdict for s in grid)


def _random_curve(rng: random.Random, d: int) -> list[list[F]]:
    """Rows of a d-component curve: powers (slopes e/s, monotone either way),
    random rows, mostly non-monotone and sometimes off the domain, or random
    rows with two neighbours proportional (tied slopes)."""
    coeff = lambda: F(rng.randint(1, 9), rng.randint(1, 5))  # noqa: E731
    kind = rng.choice(["powers", "ties", "random"])
    if kind == "powers":
        exponents = sorted(rng.sample(range(1, d + 3), d), reverse=rng.random() < 0.5)
        return [[F(0)] * e + [coeff()] for e in exponents]
    rows = [[coeff()] + [rng.choice([F(0), coeff(), -coeff()]) for _ in range(rng.randint(0, 3))]
            for _ in range(d)]
    if kind == "ties":
        i = rng.randrange(d - 1)
        rows[i + 1] = [coeff() * c for c in rows[i]]
    return rows


def test_scan_verdicts_match_the_criterion_on_random_curves():
    rng = random.Random(f"{SEED}/scan-vs-criterion")
    seen = set()
    for _ in range(80):
        d = rng.randint(2, 6)
        sigma = random_irreducible(d, rng.getrandbits(32))
        spec = curve_spec(_random_curve(rng, d))
        grid = sorted({F(rng.randint(1, 60), rng.randint(1, 20)) for _ in range(10)})
        grid += [0.3, 1.7]
        got = _outcome(lambda: scan_curve(spec, sigma, grid).verdicts)
        assert got == _outcome(lambda: _criterion_verdicts(spec, sigma, grid))
        seen.update(got if isinstance(got[0], Verdict) else [got[0]])
    assert seen >= set(Verdict) | {DomainViolation}


@pytest.mark.parametrize("images, rows, grid, error", [
    # a_1 = 2 - s leaves the domain at the third sample, and at the first.
    ([2, 1], [[2, -1], [0, 1]], [F(1, 2), 1, F(5, 2), 3], DomainViolation),
    ([2, 1], [[2, -1], [0, 1]], [3, 1], DomainViolation),
    ([3, 1, 2], [[0, 1], [0, 0, 1], [1, 0, 0, -1]], [F(1, 2), F(3, 2)], DomainViolation),
    ([1, 2], [[0, 1], [0, 0, 1]], [1, 2], ReduciblePermutation),
    ([2, 1, 3], [[0, 1], [0, 0, 1], [1, 1]], [1, 2], ReduciblePermutation),
    # One symbol: the first sample is evaluated before the size is refused.
    ([1], [[0, 1]], [1, 2], InvalidSize),
    ([1], [[0, 1]], [-1, 2], DomainViolation),
], ids=["domain-late", "domain-first", "domain-d3", "reducible", "reducible-d3", "one-symbol",
        "one-symbol-domain"])
def test_scan_raises_what_the_criterion_raises(images, rows, grid, error):
    sigma, spec = validate_permutation(images), curve_spec(rows)
    got = _outcome(lambda: scan_curve(spec, sigma, grid))
    assert got[0] is error
    assert got == _outcome(lambda: _criterion_verdicts(spec, sigma, grid))


def test_integer_samples_match_the_criterion_at_every_grid_point():
    # One sample at a time against the full criterion on the Fraction
    # reference point: verdicts, or the type and message of what is raised.
    # Half the curves get one distinct prime per row as an extra denominator,
    # and half the grid points are floats, with denominators up to 2^53 and
    # beyond; some lie off the domain.
    rng = random.Random(f"{SEED}/integer-samples")
    seen = set()
    for _ in range(60):
        d = rng.randint(2, 6)
        sigma = random_irreducible(d, rng.getrandbits(32))
        rows = _random_curve(rng, d)
        if rng.random() < 0.5:
            primes = rng.sample([2, 3, 5, 7, 11, 13], d)
            rows = [[c / k for c in row] for k, row in zip(primes, rows)]
        spec = curve_spec(rows)
        grid = [F(rng.randint(-4, 60), rng.randint(1, 20)) for _ in range(5)]
        grid += [rng.uniform(-0.5, 4.0) for _ in range(5)] + [rng.uniform(0, 1e-6)]
        for s in grid:
            got = _outcome(lambda: scan_curve(spec, sigma, [s]).verdicts)
            expected = _outcome(
                lambda: (convexity_criterion(sigma, *reference_curve_point(spec, s)).verdict,)
            )
            assert got == expected, (rows, s)
            seen.add(got[0])
    assert seen >= set(Verdict) | {DomainViolation}


def test_scan_certifies_without_a_diagram_or_a_fraction_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagram or a Fraction point was built")

    monkeypatch.setattr(_criterion, "build_suspension", refuse)
    monkeypatch.setattr(_criterion, "curve_point", refuse)
    monkeypatch.setattr(_criterion, "convexity_criterion", refuse)
    sigma = validate_permutation([4, 3, 2, 1])
    grid = _linspace(F(1, 2), F(4), 20) + [0.3, 2.7]
    summary = scan_curve(mahler_spec(4), sigma, grid)
    assert summary.verdicts == (Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA,) * len(grid)
    with pytest.raises(AssertionError, match="a diagram or a Fraction point was built"):
        convexity_criterion(sigma, *mahler_curve(4, 2))


def test_scan_raises_a_plain_assertion_when_the_sweeps_disagree(monkeypatch):
    # A contact that only the scan's own sweep reports is handed to the
    # criterion, which finds the curve simple and returns: that is a bug in
    # one of the two sweeps, not a counterexample to the lemma.
    monkeypatch.setattr(_criterion, "_first_contact", lambda top, bottom: (1, 2))
    sigma = validate_permutation([4, 3, 2, 1])
    with pytest.raises(AssertionError) as info:
        scan_curve(mahler_spec(4), sigma, [F(3, 2)])
    assert type(info.value) is AssertionError
    assert str(info.value) == (
        "the vertex sweep found a contact at s = 3/2 that the criterion does not"
    )


def test_scan_decides_verdicts_without_the_return_profile(monkeypatch):
    def refuse(*args):
        raise AssertionError("the return profile was computed")

    monkeypatch.setattr("ietkit.suspension._omega_times", refuse)
    sigma = validate_permutation([4, 3, 2, 1])
    summary = scan_curve(mahler_spec(4), sigma, _linspace(F(1, 2), F(4), 20))
    assert set(summary.verdicts) == {Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA}
    with pytest.raises(AssertionError, match="the return profile was computed"):
        convexity_criterion(sigma, *mahler_curve(4, 2))


def test_scan_tests_intersections_for_monotone_samples_only(monkeypatch):
    # (1 + s, 2s + s^2/2, 3/2 + s^3): monotone on part of the range only.
    # A sample runs the vertex sweep on its integers, and builds a diagram
    # for the criterion's witness only where the sweep finds a contact.
    tested, irreducible = [], []
    real_test, real_irreducible = _criterion._witness, _criterion.is_irreducible
    real_sweep = _criterion._first_contact
    monkeypatch.setattr(_criterion, "_witness",
                        lambda d, top, bottom: tested.append(top) or real_test(d, top, bottom))
    monkeypatch.setattr(_criterion, "_first_contact",
                        lambda top, bottom: tested.append(top) or real_sweep(top, bottom))
    monkeypatch.setattr(_criterion, "is_irreducible",
                        lambda sigma: irreducible.append(sigma) or real_irreducible(sigma))
    spec = curve_spec([[1, 1], [0, 2, F(1, 2)], [F(3, 2), 0, 0, 1]])
    summary = scan_curve(spec, validate_permutation([3, 2, 1]), _linspace(F(1, 4), F(13, 4), 25))
    certified = len(summary.verdicts) - len(summary.exceptional)
    assert 0 < certified < summary.samples
    assert len(tested) == certified
    assert len(irreducible) == 1


def test_scan_rationalizes_float_grid_points():
    summary = scan_curve(mahler_spec(2), validate_permutation([2, 1]), [0.5])
    assert summary.grid == (F(1, 2),)
    assert summary.verdicts == (Verdict.POSITIVE_PAIR_BY_MIRRORED_LEMMA,)
