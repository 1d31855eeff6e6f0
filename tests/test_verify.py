"""Tests for the inequality verifier: tolerance policy, grids, convexity
specifications, suite runs, report shape, and the self-test fixture."""
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regcoulomb.verify as verify_mod
from regcoulomb.errors import DomainError, NumericalError, UsageError
from regcoulomb.potential import vq
from regcoulomb.verify import (
    DEFAULT_REL_TOL,
    SUITES,
    ConvexitySpec,
    Grid,
    VerifyConfig,
    _check_inverted_fixture,
    default_convexity_specs,
    default_grid,
    run_suite,
)


# ---------------------------------------------------------------------------
# tolerance policy


class TestStrictlyLess:
    def test_needs_a_guard_band(self):
        less = verify_mod.strictly_less
        assert less(1.0, 1.0 + 2e-9, 1e-9)          # gap above the band
        assert not less(1.0, 1.0 + 5e-10, 1e-9)     # inside the band
        assert not less(1.0, 1.0, 1e-9)
        assert not less(1.0, 0.9, 1e-9)

    def test_absolute_floor_for_tiny_scales(self):
        less = verify_mod.strictly_less
        assert not less(0.0, 5e-13, 1e-9)            # below the 1e-12 floor
        assert less(0.0, 5e-12, 1e-9)

    def test_negative_sides(self):
        less = verify_mod.strictly_less
        assert less(-2.0, -1.0, 1e-9)
        assert not less(-1.0, -2.0, 1e-9)


# ---------------------------------------------------------------------------
# the array collector against the per-check reference


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-12, -1e-12, 5e-13,
            1.0, -1.0, 1e308, -1e308, 5e-324]


@st.composite
def _check_pairs(draw):
    """(lhs, rhs) with NaN, +-inf, +-0 and lhs within a few ulp of the guard
    band rhs - max(1e-12, rel_tol |rhs|)."""
    value = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True))
    rhs = draw(value)
    if draw(st.booleans()) and math.isfinite(rhs):
        lhs = rhs - max(verify_mod.ABS_TOL_FLOOR, DEFAULT_REL_TOL * abs(rhs))
        for _ in range(draw(st.integers(0, 4))):
            lhs = math.nextafter(lhs, draw(st.sampled_from([math.inf, -math.inf])))
    else:
        lhs = draw(value)
    return lhs, rhs


class TestArrayCollector:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_check_pairs(), min_size=1, max_size=40), st.integers(0, 40))
    def test_matches_the_per_check_loop(self, pairs, cut):
        # the old loop: strictly_less per check, margins folded by min/max
        n_checks, low, high, verdicts, margins, lows = 0, math.inf, -math.inf, [], [], [math.inf]
        for lhs, rhs in pairs:
            margin = rhs - lhs
            n_checks += 1
            low, high = min(low, margin), max(high, margin)
            verdicts.append(verify_mod.strictly_less(lhs, rhs, DEFAULT_REL_TOL))
            margins.append(margin)
            lows.append(low)

        col = verify_mod._Collector(DEFAULT_REL_TOL)
        lhs, rhs = (np.array(side) for side in zip(*pairs))
        ok = verify_mod._judged(lhs, rhs, DEFAULT_REL_TOL)[1]
        with np.errstate(invalid="ignore", over="ignore"):
            margin = rhs - lhs
        x = np.arange(len(pairs), dtype=float)
        col._record("t", lhs[:cut], rhs[:cut], margin[:cut], ok[:cut], 0.5, x[:cut], None)
        # read between the two calls: a result does not depend on when it is read
        assert repr(col.min_margin) == repr(lows[min(cut, len(pairs))])
        assert len(col.violations) == verdicts[:cut].count(False)
        col._record("t", lhs[cut:], rhs[cut:], margin[cut:], ok[cut:], 0.5, x[cut:], None)

        assert ok.tolist() == verdicts
        assert list(map(repr, margin.tolist())) == list(map(repr, margins))
        assert col.n_checks == n_checks
        assert (repr(col.min_margin), repr(col.max_margin)) == (repr(low), repr(high))
        failed = [(float(k), lhs_k, rhs_k, m) for k, (lhs_k, rhs_k), m, good
                  in zip(x, pairs, margins, verdicts) if not good]
        assert repr([(v.x, v.lhs, v.rhs, v.margin) for v in col.violations]) == repr(failed)

    def test_non_finite_sides_are_errors_at_their_point(self):
        col = verify_mod._Collector(DEFAULT_REL_TOL)
        col.assert_less("t", [1.0, math.inf, 1.0, 2.0], [3.0, 1.0, math.nan, 1e308 * 10],
                        0.5, np.array([1.0, 2.0, 3.0, 4.0]))
        assert col.n_checks == 1 and not col.violations
        assert [(e.suite, e.q, e.x) for e in col.errors] == [
            ("t[evaluation-error]", 0.5, x) for x in (2.0, 3.0, 4.0)]


    def test_a_scalar_side(self):
        # simon's two-sided upper bound compares an array with the float 0.0
        lhs = np.array([-1.0, 0.5, -2e-12, -0.0])
        col = verify_mod._Collector(DEFAULT_REL_TOL)
        col.assert_less("t", lhs, 0.0, 0.5, np.array([1.0, 2.0, 3.0, 4.0]))
        verdicts = [verify_mod.strictly_less(v, 0.0) for v in lhs.tolist()]
        assert col.n_checks == 4
        assert (col.min_margin, col.max_margin) == (-0.5, 1.0)
        assert [(v.x, v.lhs, v.rhs) for v in col.violations] == [
            (x, v, 0.0) for x, v, good in zip((1.0, 2.0, 3.0, 4.0), lhs.tolist(), verdicts)
            if not good]

    @pytest.mark.parametrize("margin, low, high", [
        ([1.0, math.nan, 0.5], 0.5, 1.0),
        ([math.nan, -0.0, 0.0, 2.0], -0.0, 2.0),      # argmin stops at the NaN
        ([math.nan, math.nan], math.inf, -math.inf),  # nothing to fold
    ])
    def test_all_pass_arrays_with_nan_margins(self, margin, low, high):
        col = verify_mod._Collector(DEFAULT_REL_TOL)
        margin = np.array(margin)
        ok = np.ones(margin.size, dtype=bool)
        x = np.arange(margin.size, dtype=float)
        col._record("t", margin, margin, margin, ok, 0.5, x, None)
        assert col.n_checks == margin.size and not col.violations
        assert (repr(col.min_margin), repr(col.max_margin)) == (repr(low), repr(high))

    def test_arrays_that_finite_empties(self):
        col = verify_mod._Collector(DEFAULT_REL_TOL)
        x = np.array([1.0, 2.0])
        col.assert_less("t", np.array([math.inf, math.nan]), np.array([1.0, 2.0]), 0.5, x)
        checked, held = col.observe_less("u", np.array([1.0, -math.inf]),
                                         np.array([math.nan, 1.0]), 0.5, x, x)
        assert checked.tolist() == held.tolist() == [False, False]
        assert col.n_checks == 0 and not col.violations and not col.observations
        assert (col.min_margin, col.max_margin) == (math.inf, -math.inf)
        assert [(e.suite, e.x) for e in col.errors] == [
            ("t[evaluation-error]", 1.0), ("t[evaluation-error]", 2.0),
            ("u[evaluation-error]", 1.0), ("u[evaluation-error]", 2.0)]

    def test_no_warning_outside_run_suite(self):
        # margins and guard bands that overflow, and sides that are not finite
        lhs, rhs = np.array([-1e308, 1.0, 1e308]), np.array([1e308, 2.0, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            col = verify_mod._Collector(DEFAULT_REL_TOL)
            col.assert_less("t", lhs, rhs, 0.5, np.array([1.0, 2.0, 3.0]))
            col.observe_less("u", lhs, rhs, 0.5, np.array([1.0, 2.0, 3.0]))
            ok = verify_mod._judged(np.array([math.inf, math.nan, 1.0]),
                                    np.array([math.inf, 1.0, 1.7e308]), DEFAULT_REL_TOL)[1]
            assert col.n_checks == 3 and col.max_margin == math.inf
            assert [v.x for v in col.violations] == [3.0]
        assert ok.tolist() == [False, False, True]

    def test_single_point_report_echoes_every_check(self):
        # emit_checks, as the CLI sets it at one (q, x): one observation per
        # asserted check, with the verdict of the tolerance policy
        report = run_suite(VerifyConfig(grid=Grid((1.0,), (2.0,)), emit_checks=True))
        echoed = [o for o in report.observations if o.note in ("pass", "VIOLATION")]
        assert report.passed and report.n_checks == len(echoed) > 20
        for o in echoed:
            if "residual" not in o.suite and "sharpness" not in o.suite:
                assert (o.note == "pass") == verify_mod.strictly_less(o.lhs, o.rhs), o


# ---------------------------------------------------------------------------
# grids


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            Grid((-1.0,), (1.0,))                   # q must exceed -1
        with pytest.raises(DomainError):
            Grid((0.0,), (0.0,))                    # x must be positive
        with pytest.raises(DomainError):
            Grid((0.0, 0.0), (1.0,))                # strictly increasing
        with pytest.raises(DomainError):
            Grid((0.0,), (2.0, 1.0))

    def test_empty_detection(self):
        assert Grid((), (1.0,)).is_empty
        assert Grid((0.0,), ()).is_empty
        assert not Grid((0.0,), (1.0,)).is_empty

    def test_pair_subgrid_is_a_sparse_subset(self):
        grid = default_grid()
        pairs = grid.pair_x_values()
        assert len(pairs) <= 12
        assert set(pairs) <= set(grid.x_values)
        assert pairs[0] == grid.x_values[0]
        assert pairs[-1] == grid.x_values[-1]
        assert all(b > a for a, b in zip(pairs, pairs[1:]))

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid.q_values) == 9
        assert len(grid.x_values) == 60
        assert grid.q_values[0] == -0.45 and grid.q_values[-1] == 5.0
        assert math.isclose(grid.x_values[0], 0.05)
        assert math.isclose(grid.x_values[-1], 20.0)
        # orders must straddle both validity boundaries (-1/2 and 0)
        assert any(q < -0.25 for q in grid.q_values)
        assert any(-0.5 < q < 0.0 for q in grid.q_values)
        assert 0.0 in grid.q_values and 0.5 in grid.q_values


# ---------------------------------------------------------------------------
# convexity specifications


class TestConvexitySpec:
    @pytest.mark.parametrize("a, b, direction", [
        (0.0, 0.0, "concave"),
        (-1.0, 1.0, "concave"),
        (2.0, 1.0, "convex"),
        (2.0, 0.0, "convex"),
        (1.0, -1.0, "concave"),
    ])
    def test_proven_corner_cases_accepted(self, a, b, direction):
        spec = ConvexitySpec(a=a, b=b, direction=direction)
        assert spec.direction == direction

    @pytest.mark.parametrize("a, b, direction", [
        (0.0, 0.0, "convex"),       # opposite of the proven direction
        (2.0, 1.0, "concave"),
        (0.5, 0.5, "convex"),       # no proven region contains it
        (1.5, 2.0, "concave"),
    ])
    def test_unproven_claims_rejected(self, a, b, direction):
        with pytest.raises(DomainError):
            ConvexitySpec(a=a, b=b, direction=direction)

    def test_bad_direction_rejected(self):
        with pytest.raises(DomainError):
            ConvexitySpec(a=0.0, b=0.0, direction="sideways")

    def test_admits_respects_region_boundaries(self):
        whole = ConvexitySpec(a=0.0, b=0.0, direction="concave")   # q > -1
        assert whole.admits(-0.9) and whole.admits(0.0) and whole.admits(5.0)
        assert not whole.admits(-1.0)
        half = ConvexitySpec(a=2.0, b=1.0, direction="convex")     # q >= 0
        assert half.admits(0.0) and half.admits(3.0)
        assert not half.admits(-0.1)

    def test_q_min_cannot_widen_a_region(self):
        with pytest.raises(DomainError):
            ConvexitySpec(a=2.0, b=1.0, direction="convex", q_min=-0.5)
        narrowed = ConvexitySpec(a=2.0, b=1.0, direction="convex", q_min=1.0)
        assert not narrowed.admits(0.5)
        assert narrowed.admits(1.5)

    def test_default_spec_set_covers_every_region(self):
        specs = default_convexity_specs()
        assert len(specs) == 29
        directions = {(s.a, s.b): s.direction for s in specs}
        assert directions[(0.0, 0.0)] == "concave"
        assert directions[(-1.0, 1.0)] == "concave"
        assert directions[(2.0, 1.0)] == "convex"
        assert directions[(2.0, 0.0)] == "convex"
        assert directions[(1.0, -1.0)] == "concave"

    def test_default_specs_lie_in_their_listed_regions(self):
        # a spec filed under a row whose q_min is the stricter one would pass
        # ConvexitySpec's own check, so each is held to its row's corner here
        specs = iter(default_convexity_specs())
        for direction, a0, b0, q_min, points in verify_mod._REGIONS:
            for a, b in points:
                spec = next(specs)
                assert (spec.a, spec.b, spec.direction, spec.q_min) == (a, b, direction, q_min)
                if direction == "concave":
                    assert a <= a0 and b <= b0, (a, b, a0, b0)
                else:
                    assert a >= a0 and b >= b0, (a, b, a0, b0)
        assert next(specs, None) is None

    def test_region_q_min_matches_the_papers_regions_written_out(self):
        def written_out(a, b, direction):
            # the proven regions as branches: the reference for the table
            candidates = []
            if direction == "concave":
                if a <= 0.0 and b <= 0.0:
                    candidates.append(-1.0)
                if a <= -1.0 and b <= 1.0:
                    candidates.append(-1.0)
                if a <= 1.0 and b <= -1.0:
                    candidates.append(0.0)
            elif direction == "convex":
                if a >= 2.0 and b >= 0.0:
                    candidates.append(0.0)
            return min(candidates) if candidates else None

        nan, inf = math.nan, math.inf
        a_values = (-3, -2, -1.5, -1, -0.5, 0, 0.5, 1, 2, 2.5, 3, nan, inf, -inf)
        b_values = (-3, -2, -1, -0.5, 0, 0.5, 1, 2, nan, inf, -inf)
        for direction in ("concave", "convex", "sideways"):
            for a in map(float, a_values):
                for b in map(float, b_values):
                    got = verify_mod._region_q_min(a, b, direction)
                    assert repr(got) == repr(written_out(a, b, direction)), (a, b, direction)


# ---------------------------------------------------------------------------
# suite runs on small grids


SMALL_GRID = Grid((-0.45, 0.0, 1.0), (0.3, 1.0, 4.0))


def run_one(suite, grid):
    return run_suite(VerifyConfig(suites=(suite,), grid=grid))


class TestSuiteFunctions:
    def test_monotonicity_passes(self):
        report = run_one("monotonicity", SMALL_GRID)
        assert report.passed and report.n_checks > 0
        assert report.suite == "monotonicity"

    def test_turan_passes(self):
        report = run_one("turan", SMALL_GRID)
        assert report.passed and report.n_checks > 0

    def test_bounds_passes(self):
        report = run_one("bounds", SMALL_GRID)
        assert report.passed and report.n_checks > 0

    def test_simon_passes_with_observations(self):
        grid = Grid((0.5, 2.0), (3.0, 5.0, 10.0))
        report = run_one("simon", grid)
        assert report.passed
        # the unconfirmed power-ratio variants fail at large x and must be
        # recorded as observations, never as violations
        notes = [o for o in report.observations if "product-ratio" in o.suite]
        assert notes

    def test_power_mean_dual_route_check_counts(self, monkeypatch):
        spec = ConvexitySpec(a=2.0, b=1.0, direction="convex")
        monkeypatch.setattr(verify_mod, "default_convexity_specs", lambda: (spec,))
        grid = Grid((1.0,), (0.5, 1.0, 2.0))
        report = run_one("convexity", grid)
        assert report.passed
        # 2 consecutive monitor comparisons + 3 pairs x 2 alphas midpoints
        assert report.n_checks == 8

    def test_logconvexity_weighted_form_passes(self):
        report = run_one("logconvexity", Grid((0.0, 0.5, 1.0, 2.0), (1.0,)))
        assert report.passed and report.n_checks > 0
        with pytest.raises(DomainError):
            run_one("logconvexity", Grid((0.0, 1.0), (0.0,)))

    def test_logconvexity_midpoint_numbers(self):
        # f(q) = Gamma(q+1) V_q(1): f(1)^2 < f(0) f(2) with the midpoint
        # weights; numbers frozen from 40-digit references
        f0 = 0.7578721561413121060434
        f1 = 0.6210639219293439469783          # Gamma(2) = 1
        f2 = 2.0 * 0.5342020585529920397663    # Gamma(3) = 2
        assert f1 * f1 < f0 * f2
        assert math.isclose(vq(0.0, 1.0).value, f0, rel_tol=1e-11)


class TestDualRouteCatchesFalseClaims:
    def test_flipped_direction_fails_both_routes(self, monkeypatch):
        # disable region validation so a deliberately false claim can be
        # constructed, then confirm monitor AND midpoint routes reject it
        monkeypatch.setattr(verify_mod, "_region_q_min", lambda a, b, d: -1.0)
        bogus = ConvexitySpec(a=0.0, b=0.0, direction="convex")
        monkeypatch.setattr(verify_mod, "default_convexity_specs", lambda: (bogus,))
        report = run_one("convexity", Grid((0.5,), (0.5, 1.0, 2.0, 4.0)))
        assert not report.passed
        labels = {v.suite for v in report.violations}
        assert any(label.startswith("convexity:monitor") for label in labels)
        assert any(label.startswith("convexity:midpoint") for label in labels)


class TestInvertedFixture:
    def test_detects_the_planted_violation(self):
        report = _check_inverted_fixture()
        assert not report.passed
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.margin < 0
        assert violation.suite.startswith("selftest")
        assert report.suite == "selftest"


# ---------------------------------------------------------------------------
# aggregation


class TestRunSuite:
    def test_merged_run_passes_on_small_grid(self):
        report = run_suite(VerifyConfig(grid=SMALL_GRID))
        assert report.passed
        assert report.suite == "all"
        assert report.n_checks > 100
        assert not report.errors

    def test_selection_keeps_canonical_order(self):
        report = run_suite(VerifyConfig(suites=("bounds", "turan"),
                                        grid=SMALL_GRID))
        assert report.suite == "turan,bounds"
        labels = {v.suite.split(":")[0] for v in report.violations}
        assert labels <= {"turan", "bounds"}

    def test_duplicate_and_all_selections(self):
        report = run_suite(VerifyConfig(suites=("turan", "all"), grid=SMALL_GRID))
        assert report.suite == "all"

    def test_a_suite_name_as_a_string_is_one_name(self):
        # tuple("turan") split the name into letters: "unknown suite 't'"
        assert VerifyConfig(suites="turan") == VerifyConfig(suites=("turan",))
        single = run_suite(VerifyConfig(suites="turan", grid=SMALL_GRID))
        assert single == run_suite(VerifyConfig(suites=("turan",), grid=SMALL_GRID))

    def test_unknown_suite_rejected(self):
        with pytest.raises(UsageError):
            run_suite(VerifyConfig(suites=("nosuch",), grid=SMALL_GRID))

    def test_unknown_suite_error_names_the_first_unknown(self):
        with pytest.raises(UsageError) as info:
            run_suite(VerifyConfig(suites=("turan", "nosuch", "zzz")))
        assert str(info.value) == (
            "unknown suite 'nosuch'; choose from monotonicity, convexity, "
            "turan, logconvexity, simon, bounds, all")

    def test_empty_selections_rejected(self):
        with pytest.raises(UsageError):
            run_suite(VerifyConfig(suites=(), grid=SMALL_GRID))
        with pytest.raises(UsageError):
            run_suite(VerifyConfig(grid=Grid((), (1.0,))))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(UsageError):
            VerifyConfig(rel_tol=0.0)
        with pytest.raises(UsageError):
            VerifyConfig(rel_tol=1.5)

    def test_overflow_ends_only_its_own_suite(self):
        # V fails at x = 1e200 (x^2 overflows), and so does the quadratic
        # power mean of any pair with it: each such check records its own
        # error at (q, x), and every check of the finite points still counts
        suites = ("convexity", "turan")
        grid = Grid((1.0,), (1.0, 2.0, 1e200))
        report = run_suite(VerifyConfig(suites=suites, grid=grid))
        finite = run_suite(VerifyConfig(suites=suites, grid=Grid((1.0,), (1.0, 2.0))))
        assert not finite.errors
        assert report.n_checks == finite.n_checks
        assert report.violations == finite.violations
        assert (report.min_margin, report.max_margin) == \
            (finite.min_margin, finite.max_margin)
        assert all(e.q == 1.0 for e in report.errors)
        # single-point and monitor checks at 1e200 itself; a midpoint check
        # is recorded at its pair's first member, here 1 or 2, for the 29
        # specs x 2 weights x 2 pairs that end at 1e200
        elsewhere = [e for e in report.errors if e.x != 1e200]
        assert all(e.suite.startswith("convexity:midpoint") for e in elsewhere)
        assert len(elsewhere) == 29 * 2 * 2
        assert {e.suite for e in report.errors if e.x == 1e200} == \
            {"turan[evaluation-error]"} | {
                f"convexity:monitor[a={s.a:g},b={s.b:g},{s.direction}][evaluation-error]"
                for s in default_convexity_specs()}
        turan = run_suite(VerifyConfig(suites=("turan",), grid=grid))
        assert turan.n_checks > 0
        assert set(turan.errors) <= set(report.errors)

    def test_check_arithmetic_overflow_is_an_error_at_its_point(self):
        # x^(-2(q+3)) and x^(-2q-7) overflow at q = 150, x = 1e-3 although
        # every V value is finite: the two product-ratio observations there
        # are evaluation errors, and the asserted checks still count
        report = run_suite(VerifyConfig(suites=("simon",), grid=Grid((150.0,), (1e-3, 1.0))))
        assert report.n_checks == 6 and report.passed
        assert sorted((e.suite, e.q, e.x) for e in report.errors) == [
            ("simon:product-ratio-bound[printed-exponent][evaluation-error]", 150.0, 1e-3),
            ("simon:product-ratio-bound[rederived-exponent][evaluation-error]", 150.0, 1e-3),
        ]
        assert all("not finite" in e.note for e in report.errors)
        notes = sorted(o.note for o in report.observations if o.q is None)
        assert [note.split(" failed at ")[1][:6] for note in notes] == ["0 of 1"] * 2

    def test_underflowing_square_is_an_error_at_its_point(self):
        # x^2 underflows to 0 at x = 1e-200, so v1 v2 / x^2 divides by zero:
        # the checks there are evaluation errors, and those at x = 1 stand
        def run(xs):
            grid = Grid((0.0, 1.0), xs)
            return run_suite(VerifyConfig(suites=("simon",), grid=grid, emit_checks=True))

        report, plain = run((1e-200, 1.0)), run((1.0,))
        assert not plain.errors and report.errors
        assert all(e.x == 1e-200 and "not finite" in e.note for e in report.errors)
        at_one = [o for o in report.observations if o.x == 1.0]
        assert at_one == [o for o in plain.observations if o.x == 1.0]
        assert len(at_one) == plain.n_checks + 4  # and the two observed forms per order

    def test_a_grid_at_which_no_point_evaluates(self, monkeypatch):
        # every V fails: the bounds suite records one error per point, builds
        # its envelopes over no point at all, and still judges the Mills checks
        def failing(qs, xs, prime):
            error = NumericalError("did not converge")
            return np.full(xs.shape, math.nan), np.full(xs.shape, error, object)

        monkeypatch.setattr(verify_mod, "_many", failing)
        report = run_suite(VerifyConfig(suites=("bounds",), grid=SMALL_GRID))
        assert sorted((e.suite, e.q, e.x) for e in report.errors) == [
            ("bounds[evaluation-error]", q, x) for q in SMALL_GRID.q_values
            for x in SMALL_GRID.x_values]
        assert report.passed and report.n_checks > 0

    def test_single_point_emits_every_check(self):
        config = VerifyConfig(suites=("turan",), grid=Grid((0.5,), (1.0,)),
                              emit_checks=True)
        report = run_suite(config)
        assert report.passed
        echoed = [o for o in report.observations if o.note == "pass"]
        assert len(echoed) == report.n_checks
        labels = {o.suite for o in echoed}
        assert {"turan:upper", "turan:improved-upper", "turan:lower",
                "turan:order-bound", "turan:shifted-lower"} <= labels

    def test_bounds_single_point_includes_ode_and_envelopes(self):
        config = VerifyConfig(suites=("bounds",), grid=Grid((0.5,), (1.0,)),
                              emit_checks=True)
        report = run_suite(config)
        assert report.passed
        labels = {o.suite for o in report.observations}
        assert {"bounds:mills-lower-f1", "bounds:mills-upper-f2",
                "bounds:mills-upper-f4", "bounds:mills-upper-f5",
                "bounds:mills-ode-residual", "bounds:envelope-lower-exp",
                "bounds:envelope-upper-agm",
                "bounds:envelope-lower-kratzel"} <= labels


#: the suites whose checks stay within one grid order (logconvexity pairs them)
_ONE_ORDER_SUITES = tuple(name for name in SUITES if name != "logconvexity")


@st.composite
def _small_grids(draw):
    """Three or four orders, a negative one and q = 0 (the closed form) among
    them, and three or four abscissas with x = 1e-100, where V_q' (q < 1/2)
    and V_{-1/2} fail to evaluate."""
    qs = {0.0, draw(st.sampled_from([-0.75, -0.5, -0.45, -0.25]))}
    qs |= set(draw(st.lists(st.sampled_from([-0.9, 0.3, 0.5, 1.0, 2.0, 3.5]),
                            min_size=1, max_size=2)))
    xs = {1e-100} | set(draw(st.lists(st.sampled_from([1e-3, 0.2, 0.7, 1.0, 3.0, 8.0]),
                                      min_size=2, max_size=3)))
    return Grid(tuple(sorted(qs)), tuple(sorted(xs)))


class TestOrdersStayApart:
    """A report over several orders is its single-order reports merged: a
    suite that checks a label over all its orders in one call never mixes
    one order's values into another order's checks."""

    @staticmethod
    def order_free(record) -> bool:
        # the Mills checks, the notes and the Turan sharpness limit do not
        # depend on the grid's orders: each report has them once
        return record.q is None or record.suite.startswith("turan:lower-sharpness-limit")

    def own_checks(self, report) -> int:
        echoed = [o for o in report.observations if o.note in ("pass", "VIOLATION")]
        assert len(echoed) == report.n_checks
        return sum(not self.order_free(o) for o in echoed)

    @pytest.mark.parametrize("suite", _ONE_ORDER_SUITES)
    @settings(max_examples=8, deadline=None)
    @given(grid=_small_grids())
    def test_a_report_is_its_orders_merged(self, suite, grid):
        def run(qs):
            grid_here = Grid(qs, grid.x_values)
            return run_suite(VerifyConfig(suites=(suite,), grid=grid_here, emit_checks=True))

        whole, singles = run(grid.q_values), [run((q,)) for q in grid.q_values]
        assert self.own_checks(whole) == sum(map(self.own_checks, singles))
        for part in ("violations", "observations", "errors"):
            merged = sorted((r for one in singles for r in getattr(one, part)
                             if not self.order_free(r)), key=verify_mod._record_key)
            assert [r for r in getattr(whole, part) if not self.order_free(r)] == merged, part
        for side, pick in (("min_margin", min), ("max_margin", max)):
            margins = [getattr(one, side) for one in singles if getattr(one, side) is not None]
            assert getattr(whole, side) == (pick(margins) if margins else None), side


class TestSuiteRegistry:
    @staticmethod
    def records(report):
        return (report.violations, report.observations, report.errors)

    def test_single_suites_partition_the_merged_report(self):
        merged = run_suite(VerifyConfig(grid=SMALL_GRID))
        singles = {name: run_one(name, SMALL_GRID) for name in SUITES}
        for name, report in singles.items():
            assert report.suite == name
            prefixes = (name + ":", name + "[")
            for own, all_records in zip(self.records(report), self.records(merged)):
                assert own == tuple(r for r in all_records
                                    if r.suite.startswith(prefixes))
        assert sum(r.n_checks for r in singles.values()) == merged.n_checks
        assert min(r.min_margin for r in singles.values()) == merged.min_margin
        assert max(r.max_margin for r in singles.values()) == merged.max_margin

    def test_cli_suite_choices_match_the_registry(self):
        from regcoulomb import cli

        (option,) = [p for p in cli.cmd_verify.params if p.name == "suites"]
        assert tuple(option.type.choices) == SUITES + ("all",)


class TestDefaultReport:
    """The default report against the one committed from the per-check
    verifier: the same records exactly, floats within 4 ulp."""

    REPORT = Path(__file__).parent / "data" / "verify_default_report.json"

    @staticmethod
    def close(a, b) -> bool:
        if a is None or b is None:
            return a is b
        return abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))

    def test_matches_the_committed_report(self):
        want = json.loads(self.REPORT.read_text())
        got = run_suite(VerifyConfig()).to_json_dict()
        for key in ("suite", "grid", "tolerance", "pass", "counts"):
            assert got[key] == want[key], key
        for side in ("min", "max"):
            assert self.close(got["extremal_margins"][side], want["extremal_margins"][side])
        for key in ("violations", "observations", "errors"):
            assert len(got[key]) == len(want[key])
            for mine, theirs in zip(got[key], want[key]):
                floats = {"lhs", "rhs", "margin"}
                assert {k: v for k, v in mine.items() if k not in floats} == \
                    {k: v for k, v in theirs.items() if k not in floats}
                assert all(self.close(mine[k], theirs[k]) for k in floats & set(mine))


class TestReportShape:
    def test_json_schema_keys(self):
        report = run_suite(VerifyConfig(suites=("turan",), grid=SMALL_GRID))
        payload = report.to_json_dict()
        assert set(payload) == {"suite", "grid", "tolerance", "pass", "counts",
                                "extremal_margins", "violations",
                                "observations", "errors"}
        assert payload["grid"] == {"q": [-0.45, 0.0, 1.0], "x": [0.3, 1.0, 4.0]}
        assert payload["tolerance"] == DEFAULT_REL_TOL
        assert payload["pass"] is True
        assert payload["counts"]["checks"] == report.n_checks
        assert payload["extremal_margins"]["min"] <= \
            payload["extremal_margins"]["max"]
        json.dumps(payload)   # must be serializable as-is

    def test_runs_are_deterministic(self):
        grid = Grid((0.5, 2.0), (0.3, 1.0, 5.0, 15.0))
        first = run_suite(VerifyConfig(grid=grid)).to_json_dict()
        second = run_suite(VerifyConfig(grid=grid)).to_json_dict()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_records_are_canonically_sorted(self):
        grid = Grid((0.5, 2.0), (3.0, 5.0, 10.0))
        report = run_suite(VerifyConfig(suites=("simon",), grid=grid))
        keyed = [verify_mod._record_key(o) for o in report.observations]
        assert keyed == sorted(keyed)

    def test_fixture_violation_serializes(self):
        report = _check_inverted_fixture()
        payload = report.to_json_dict()
        assert payload["pass"] is False
        assert payload["counts"]["violations"] == 1
        record = payload["violations"][0]
        assert set(record) == {"suite", "q", "x", "y", "lhs", "rhs", "margin"}
        assert record["margin"] < 0
