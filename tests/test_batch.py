"""Tests for batched evaluation: vq_many / vq_prime_many, the verifier's
batched value table, and the Bessel closed form of the Kraetzel function."""
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import regcoulomb.potential as potential
import regcoulomb.verify as verify
from regcoulomb import (
    DomainError,
    Grid,
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
from regcoulomb.quadrature import COLUMN_CHUNK
from regcoulomb.verify import _Evaluator

from oracles import kratzel_bessel_reference, rel_diff

GRID = default_grid()
# x = 0, the series band, the asymptotic band and the sentinel order on top
# of the default grid, so that every route of vq(q, x, "auto") is exercised
EXTRA_X = (0.0, 1e-3, 0.05, 30.0, 45.0)
ROUTE_Q = GRID.q_values + (-1.0,)
# orders and abscissas at the edges of the domain; at x = 1e-100 the
# quadrature of V_q' (q < 1/2) and of V_{-1/2} does not converge: the
# verifier records 278 evaluation errors on this grid
EDGE_GRID = Grid((-0.9999, -0.5, 0.0, 0.5, 1.0, 12.0), (1e-100, 1e-3, 0.2, 0.7, 3.0, 40.0, 1e3))


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
        # at the half-integer order -1/2 small x goes to quadrature, which
        # does not converge once x^2 underflows; the other points of the
        # batch are unaffected
        xs = [1e-200, 1e-170, 0.2, 1.0, 0.01]
        got = vq_many(-0.5, xs)
        assert np.isnan(got[:2]).all()
        assert np.isfinite(got[2:]).all()
        _check_against_scalar(-0.5, xs[2:], got[2:])
        with pytest.raises(ArithmeticError):
            vq(-0.5, 1e-200)

    def test_orders_next_to_minus_one_match_the_oracle(self):
        # these points did not converge before the trapezoid rule
        xs = [0.2, 0.3, 1.0, 2.0, 0.01]
        got = vq_many(-0.9999, xs)
        _check_against_scalar(-0.9999, xs, got)
        for x, g in zip(xs, got):
            assert rel_diff(g, float(mp.hyperu(0.5, 1.4999, mp.mpf(x) ** 2))) <= 1e-14, x

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
        # the trapezoid rule stops at x = 1e150 (x^2 overflows from 1.34e154)
        got = vq_prime_many(-0.9999, [1e160, 1e200, 1.0, 2.0])
        assert np.isnan(got[:2]).all()
        assert np.isfinite(got[2:]).all() and (got[2:] < 0).all()

    def test_orders_next_to_minus_one_match_the_oracle(self):
        # these points did not converge before the trapezoid rule
        for x, g in zip([0.01, 0.2, 1.0, 2.0], vq_prime_many(-0.9999, [0.01, 0.2, 1.0, 2.0])):
            want = -x * float(mp.hyperu(1.5, 2.4999, mp.mpf(x) ** 2))
            assert rel_diff(g, want) <= 1e-14, x

    def test_positive_x_required(self):
        with pytest.raises(DomainError):
            vq_prime_many(0.5, [0.0, 1.0])


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
        # an all-NaN batch sends every point through the scalar calls
        report, _ = batched_report_and_calls
        edge = run_suite(VerifyConfig(grid=EDGE_GRID))
        assert len(edge.errors) == 278
        def nan_batch(q, xs):
            return np.full(len(xs), np.nan)

        monkeypatch.setattr(verify, "vq_many", nan_batch)
        monkeypatch.setattr(verify, "vq_prime_many", nan_batch)
        scalar = run_suite(VerifyConfig())
        assert scalar.to_json_dict() == report.to_json_dict()
        assert run_suite(VerifyConfig(grid=EDGE_GRID)).to_json_dict() == edge.to_json_dict()

    def test_unconverged_points_are_not_memoised(self):
        # the value table holds the scalar call's error, never a value
        values, errors = _Evaluator().values(-0.9999, [1e160, 1.0], prime=True)
        assert math.isnan(values[0]) and math.isfinite(values[1])
        assert list(errors) == [1e160]
        with pytest.raises(ArithmeticError, match="did not converge"):
            raise errors[1e160]

    def test_no_failing_point_is_evaluated_twice(self, monkeypatch):
        calls, failed = [], set()

        def counting(name, fn):
            def wrapper(q, x, *args):
                calls.append((name, q, x))
                try:
                    return fn(q, x, *args)
                except (ArithmeticError, DomainError):
                    failed.add((name, q, x))
                    raise
            return wrapper

        monkeypatch.setattr(verify, "vq", counting("vq", verify.vq))
        monkeypatch.setattr(verify, "vq_prime", counting("vq_prime", verify.vq_prime))
        report = run_suite(VerifyConfig(grid=EDGE_GRID))
        assert len(report.errors) == 278
        # one scalar call per distinct failing point, and only for those
        assert sorted(calls) == sorted(failed)


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

    def test_import_and_cli_commands_load_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import contextlib, io, sys\n"
            "import regcoulomb.cli\n"
            "for args in (['verify', '--suite', 'all'], ['figure', '--precision', '17'],\n"
            "             ['envelope', '--q', '1', '--precision', '17']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            regcoulomb.cli.main(args)\n"
            "        except SystemExit as stop:\n"
            "            assert not stop.code, (args, stop.code)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert out.stdout.strip() == "[]"
