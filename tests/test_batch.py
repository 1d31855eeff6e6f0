"""Tests for batched evaluation: vq_many / vq_prime_many, the shared
escalation core with its cached exp-sinh tables, the verifier's prefetch,
and the Bessel closed form of the Kraetzel function."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regcoulomb.potential as potential
from regcoulomb import (
    DomainError,
    VerifyConfig,
    default_grid,
    kratzel_z,
    run_suite,
    vq,
    vq_envelope,
    vq_many,
    vq_prime,
    vq_prime_many,
)
from regcoulomb.quadrature import (
    COLUMN_CHUNK,
    _DE_C,
    _DE_LOG_T_MAX,
    _DE_U_RIGHT,
    _expsinh_u_left,
    expsinh_table,
)
from regcoulomb.verify import _Evaluator

from oracles import kratzel_bessel_reference, rel_diff

GRID = default_grid()
# x = 0, the series band, the asymptotic band and the sentinel order on top
# of the default grid, so that every route of vq(q, x, "auto") is exercised
EXTRA_X = (0.0, 1e-3, 0.05, 30.0, 45.0)
ROUTE_Q = GRID.q_values + (-1.0,)


def _check_against_scalar(q, xs, got):
    assert got.shape == (len(xs),)
    methods = set()
    for x, g in zip(xs, got):
        want = vq(q, x)
        methods.add(want.method)
        assert abs(g - want.value) <= want.abs_err_est, (q, x)
    return methods


class TestVqMany:
    @pytest.mark.parametrize("q", ROUTE_Q)
    def test_matches_scalar_on_every_route(self, q):
        xs = sorted(set(GRID.x_values + EXTRA_X) - ({0.0} if q <= -0.5 else set()))
        _check_against_scalar(q, xs, vq_many(q, xs))

    def test_routes_covered(self):
        methods = set()
        for q in ROUTE_Q:
            xs = sorted(set(GRID.x_values + EXTRA_X) - ({0.0} if q <= -0.5 else set()))
            methods |= _check_against_scalar(q, xs, vq_many(q, xs))
        assert methods == potential.METHODS

    def test_batch_straddling_the_chunk_size(self):
        xs = np.linspace(0.06, 29.0, COLUMN_CHUNK + 5)
        got = vq_many(1.7, xs)
        assert {vq(1.7, x).method for x in xs} == {"quadrature"}
        _check_against_scalar(1.7, xs, got)

    def test_unconverged_points_are_nan(self):
        # at orders within 5e-4 of -1 the quadrature does not converge for
        # 0.05 <= x <= 0.44; the other points of the batch are unaffected
        xs = [0.2, 0.3, 1.0, 2.0, 0.01]
        got = vq_many(-0.9999, xs)
        assert np.isnan(got[:2]).all()
        assert np.isfinite(got[2:]).all()
        _check_against_scalar(-0.9999, xs[2:], got[2:])
        with pytest.raises(ArithmeticError):
            vq(-0.9999, 0.2)

    def test_domain_errors_raise(self):
        with pytest.raises(DomainError):
            vq_many(0.5, [1.0, -1.0])
        with pytest.raises(DomainError):
            vq_many(-1.5, [1.0])

    def test_empty(self):
        assert vq_many(0.5, []).shape == (0,)


class TestVqPrimeMany:
    @pytest.mark.parametrize("q", GRID.q_values)
    def test_matches_scalar_at_every_grid_point(self, q):
        got = vq_prime_many(q, GRID.x_values)
        for x, g in zip(GRID.x_values, got):
            want = vq_prime(q, x)
            # the scalar derivative carries no error estimate; both share
            # one integral, so the values agree far inside its 1e-11 target
            assert rel_diff(g, want) <= 1e-13, (q, x)

    def test_unconverged_points_are_nan(self):
        got = vq_prime_many(-0.9999, [0.01, 0.2, 1.0, 2.0])
        assert np.isnan(got[:2]).all()
        assert np.isfinite(got[2:]).all() and (got[2:] < 0).all()

    def test_positive_x_required(self):
        with pytest.raises(DomainError):
            vq_prime_many(0.5, [0.0, 1.0])


class TestExpSinhTables:
    @pytest.mark.parametrize("power", [-0.95, -0.5, 0.0, 2.5])
    @pytest.mark.parametrize("n", [40, 160, 1280])
    def test_cached_tables_equal_fresh_ones(self, power, n):
        u_left = _expsinh_u_left(power)
        expsinh_table(u_left, n)  # make sure the next call is a cache hit
        h, t, log_t, log_jac = expsinh_table(u_left, n)

        u = np.linspace(-u_left, _DE_U_RIGHT, n)
        fresh_log_t = _DE_C * np.sinh(u)
        ok = fresh_log_t < _DE_LOG_T_MAX
        assert h == u[1] - u[0]
        assert np.array_equal(log_t, fresh_log_t)
        assert np.array_equal(t, np.exp(np.where(ok, fresh_log_t, 0.0)))
        assert np.array_equal(log_jac, np.where(ok, np.log(_DE_C * np.cosh(u)), -np.inf))

    def test_tables_are_read_only(self):
        _, t, _, _ = expsinh_table(_DE_U_RIGHT, 40)
        with pytest.raises(ValueError):
            t[0] = 0.0


@pytest.fixture(scope="module")
def batched_report_and_calls():
    """A default report, with the scalar quadrature calls it made."""
    calls = []
    original = potential.vq_quadrature

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(potential, "vq_quadrature", counting)
    try:
        report = run_suite(VerifyConfig())
    finally:
        mp.undo()
    return report, calls


class TestVerifierPrefetch:
    def test_default_report_makes_no_scalar_quadrature_calls(self, batched_report_and_calls):
        report, calls = batched_report_and_calls
        assert calls == []
        counts = (report.n_checks, len(report.violations),
                  len(report.observations), len(report.errors))
        assert counts == (55181, 0, 481, 0)

    def test_records_equal_a_scalar_evaluated_report(self, batched_report_and_calls, monkeypatch):
        report, _ = batched_report_and_calls
        monkeypatch.setattr(_Evaluator, "prefetch", lambda self, q, xs: None)
        monkeypatch.setattr(_Evaluator, "prefetch_prime", lambda self, q, xs: None)
        scalar = run_suite(VerifyConfig())
        assert scalar.to_json_dict() == report.to_json_dict()

    def test_unconverged_points_are_not_memoised(self):
        ev = _Evaluator()
        ev.prefetch(-0.9999, [0.2, 1.0])
        assert (-0.9999, 1.0) in ev._v and (-0.9999, 0.2) not in ev._v
        with pytest.raises(ArithmeticError, match="did not converge"):
            ev.v(-0.9999, 0.2)


class TestKratzelClosedForm:
    def test_matches_bessel_reference_on_the_grid(self):
        for q in GRID.q_values + (-0.999, -0.73, 12.0):
            for x in GRID.x_values + (1e-3, 2.3e-3, 60.0):
                nu, t = q + 0.5, 0.5 * x * x
                got = kratzel_z(1.0, nu, t)
                assert rel_diff(got, kratzel_bessel_reference(nu, t)) <= 1e-13, (q, x)

    def test_small_argument_envelope(self):
        # the quadrature route used to warn and fail here
        env = vq_envelope(-0.73, 1e-3)
        ref = kratzel_bessel_reference(-0.23, 5e-7) / math.gamma(0.27)
        assert rel_diff(env.lower_kratzel, ref) <= 1e-13
        assert env.lower_kratzel < env.value

    def test_general_rho_still_integrates(self):
        # rho != 1 takes the quadrature route: Z_2^1(0) = Gamma(1/2)/2 limit
        assert rel_diff(kratzel_z(2.0, 1.0, 1e-12), math.sqrt(math.pi) / 2) < 1e-5

    def test_import_leaves_scipy_integrate_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, regcoulomb; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert out.stdout.strip() == "False"
