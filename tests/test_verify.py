"""Tests for the inequality verifier: tolerance policy, grids, convexity
specifications, suite runs, report shape, and the self-test fixture."""
import json
import math

import pytest

import regcoulomb.verify as verify_mod
from regcoulomb.errors import DomainError, UsageError
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
        # the quadratic power mean of x = 1e200 overflows in convexity; the
        # suite ends with one evaluation error and turan still runs after it
        grid = Grid((1.0,), (1.0, 1e200))
        report = run_suite(VerifyConfig(suites=("convexity", "turan"), grid=grid))
        ended = [e for e in report.errors if e.suite == "convexity[evaluation-error]"]
        assert [(e.q, e.x) for e in ended] == [(None, None)]
        turan = run_suite(VerifyConfig(suites=("turan",), grid=grid))
        assert turan.n_checks > 0
        assert set(turan.errors) <= set(report.errors)

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
