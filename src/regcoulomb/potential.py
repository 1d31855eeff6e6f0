"""The regularized one-dimensional Coulomb potential V_q and the Mills ratio.

For order q > -1 and x >= 0,

    V_q(x) = (2 e^{x^2} / Gamma(q+1)) int_x^inf e^{-t^2} (t^2 - x^2)^q dt
           = (1/Gamma(q+1)) int_0^inf e^{-t} t^q (x^2 + t)^{-1/2} dt,

with the convention V_{-1}(x) = 1/x at the sentinel order q = -1.  Closed
forms used by the evaluator and its cross-checks:

    V_0(x)  = sqrt(pi) e^{x^2} erfc(x)
    V_q(0)  = Gamma(q+1/2) / Gamma(q+1)            (q > -1/2)
    V_q(x)  = x^{2q+1} psi(q+1, q+3/2, x^2) = psi(1/2, 1/2-q, x^2)

where psi is the Tricomi confluent function.  The Mills ratio of the
standard normal distribution is m(x) = sqrt(pi/2) e^{x^2/2} erfc(x/sqrt 2)
= V_0(x/sqrt 2)/sqrt 2.

The main evaluator routes by argument size: a fused small-x expansion with
O(1) intermediates, direct quadrature of the integral representation in the
central range (and at small x for half-integer orders and orders beyond
170.62, where Gamma(q+1) overflows), and the Tricomi large-argument series
beyond.  Every result carries its evaluation route and an error estimate.

The quadrature has one path, :func:`_laplace_integrals`: the peak-centred
trapezoid rule in log t (:func:`~regcoulomb.quadrature.trapezoid_columns`)
for V_q and V_q', which share one integrand with exponent -1/2 or -3/2.
``vq_many`` and ``vq_prime_many`` evaluate many (q, x) points, an order
broadcast against the arguments, routing each as the scalar call would and
passing the quadrature points of every order to it together; a scalar call
is its batch of one, and gets the same bits.  Both view one evaluator,
which gives the scalar call's exception at each point that fails.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import np
from .errors import DivergenceError, DomainError, NumericalError
# perfbench's tracer wraps the two retired engine names in this module
from .quadrature import Columns, expsinh_escalating, laguerre_escalating  # noqa: F401
from .quadrature import trapezoid_columns
from .special import (
    _PSI_C_INTEGER_GAP,
    PsiEval,
    _gamma_rounding,
    _phi_series,
    erfc_scaled,
    gamma,
    ln_gamma,
    psi_eval,
    rgamma,
)

_EPS = sys.float_info.epsilon

SQRT_PI = math.sqrt(math.pi)

#: evaluation route tags reported in :class:`EvalResult`
METHODS = frozenset(
    {"quadrature", "psi-series", "psi-asymptotic", "closed-form", "limit-x0", "convention"}
)

# router boundaries: fused expansion below, quadrature between, Tricomi
# asymptotics above
_SERIES_X_MAX = 0.05
_ASYMPTOTIC_X_MIN = 30.0
# the fused expansion forms 1/Gamma(q + 1), which is 0 above this order,
# where Gamma(q + 1) overflows
_SERIES_Q_MAX = 170.62437695630268

_PRIME_METHODS = ("integral", "differ", "difvq")
_EVAL_METHODS = ("auto", "quadrature", "psi", "closed-form")


@dataclass(frozen=True)
class EvalResult:
    """Value of V_q(x) with an absolute error estimate and route tag."""

    value: float
    abs_err_est: float
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_err_est", float(self.abs_err_est))
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise NumericalError(
                f"V_q evaluation produced a non-positive or non-finite value "
                f"{self.value} (method={self.method})"
            )
        if not (math.isfinite(self.abs_err_est) and self.abs_err_est >= 0.0):
            raise NumericalError(
                f"invalid error estimate {self.abs_err_est} (method={self.method})"
            )
        if self.method not in METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")


def _order_value(q: float, *, allow_sentinel: bool = False) -> float:
    """``q`` as a float: an order q > -1, or the sentinel q = -1 where
    ``allow_sentinel``."""
    q = float(q)
    if not math.isfinite(q):
        raise DomainError(f"order must be finite, got {q}")
    if q < -1.0:
        raise DomainError(f"order must satisfy q > -1 (or the sentinel -1), got {q}")
    if q == -1.0 and not allow_sentinel:
        raise DomainError("the sentinel order q = -1 is not admitted here")
    return q


def _check_x(x: float, *, positive: bool = False) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or (positive and x == 0.0):
        bound = "x > 0" if positive else "x >= 0"
        raise DomainError(f"argument must satisfy {bound}, got {x}")
    return x


def _square(x: float) -> float:
    """x^2 for the Tricomi argument; above about 1.34e154 it overflows, and
    below about 1.49e-154 it is subnormal (0 below about 1.5e-162), rounded
    by up to 100% relative, which no estimate of psi counts."""
    big_x = x * x
    if math.isinf(big_x):
        raise NumericalError(f"x^2 overflows at x={x}; the Tricomi routes cannot evaluate it")
    if big_x < sys.float_info.min:
        raise NumericalError(f"x^2 underflows to {big_x!r} at x={x}, below the normal doubles; "
                             "the Tricomi routes cannot evaluate it")
    return big_x


def _vq_zero(qv: float) -> tuple[float, float]:
    """V_q(0) and its error estimate.  Each log-Gamma is rounded to a few
    ulps of its size, an absolute error in the exponent that the
    exponential makes relative."""
    if qv <= -0.5:
        raise DivergenceError(f"V_q(0) diverges for q <= -1/2, got q={qv}")
    lead, base = ln_gamma(qv + 0.5), ln_gamma(qv + 1.0)
    value = math.exp(lead - base)
    return value, _EPS * (4.0 + 2.0 * (abs(lead) + abs(base))) * value


def vq_zero(q: float) -> float:
    """Limit V_q(0) = Gamma(q+1/2)/Gamma(q+1); diverges for q <= -1/2."""
    return _vq_zero(_order_value(q))[0]


def vq_neg1(x: float) -> float:
    """Sentinel order: V_{-1}(x) = 1/x by convention."""
    x = _check_x(x, positive=True)
    return 1.0 / x


def _near_half_integer(q):
    """Whether the order ``q`` (a float, or an array of them) lies within
    the gap of a half-integer, where c = 1/2 - q is near an integer and the
    fused expansion degenerates (gamma poles)."""
    shifted = q + 0.5
    nearest = round(shifted) if isinstance(shifted, float) else np.round(shifted)
    return abs(shifted - nearest) <= _PSI_C_INTEGER_GAP


def _vq_series(q: float, x: float) -> EvalResult:
    """Fused small-x expansion with O(1) intermediates.

    V_q(x) = V_q(0) Phi(1/2, 1/2-q, x^2)
             + (Gamma(-q-1/2)/sqrt(pi)) x^{2q+1} Phi(q+1, q+3/2, x^2),

    valid whenever q is not a half-integer.  For q > -1/2 the result is
    cross-checked against the x -> 0 limit using the expansion's own
    deviation bound.  The estimate counts the rounding of the series sums,
    of the Gamma coefficients and their arguments, and of ``x^(2q+1)``.
    """
    big_x = x * x
    gamma_lead = gamma(q + 0.5)
    if math.isinf(gamma_lead):  # q > 171.1: coef1 would be inf * 0
        raise NumericalError(f"small-x expansion failed for q={q}, x={x}")
    coef1 = gamma_lead * rgamma(q + 1.0)
    try:  # x^(2q+1) overflows only at q < -1/2 and tiny x, where V_q(x) does too
        coef2 = gamma(-q - 0.5) / SQRT_PI * math.exp((2.0 * q + 1.0) * math.log(x))
    except OverflowError:
        raise NumericalError(f"V_q(x) is beyond the double range for q={q}, x={x}") from None
    v1, abs1, ok1 = _phi_series(0.5, 0.5 - q, big_x)
    v2, abs2, ok2 = _phi_series(q + 1.0, q + 1.5, big_x)
    if not (ok1 and ok2):
        raise NumericalError(f"small-x expansion stalled for q={q}, x={x}")
    value = coef1 * v1 + coef2 * v2
    scale = 1.0 + abs(q)
    err1 = _gamma_rounding(scale, q + 0.5, q + 1.0)
    err2 = _gamma_rounding(scale, -q - 0.5) + 2.0 * abs((2.0 * q + 1.0) * math.log(x))
    est = _EPS * ((4.0 + err1) * abs(coef1) * abs1 + (4.0 + err2) * abs(coef2) * abs2)
    est += 2.0 * _EPS * abs(value)
    if not math.isfinite(value) or value <= 0.0:
        raise NumericalError(f"small-x expansion failed for q={q}, x={x}")
    if q > -0.5:
        # deviation from the x -> 0 limit must respect the expansion's bound
        deviation_cap = abs(coef1) * (abs1 - 1.0) + abs(coef2) * abs2
        if abs(value - coef1) > deviation_cap * (1.0 + 1e-9) + 64.0 * _EPS * abs(coef1):
            raise NumericalError(
                f"small-x expansion inconsistent with the x -> 0 limit for q={q}, x={x}"
            )
    return EvalResult(value, est, "psi-series")


def _laplace_integrals(qv: float, xs: np.ndarray, prime: bool) -> Columns:
    """V_q at every x > 0 of ``xs`` (an array, or a float for one point),
    or -V_q' when ``prime``, by quadrature of

        I(q, p) = (1/Gamma(q+1)) int_0^inf e^-t t^q (x^2+t)^p dt,

    V_q = I(q, -1/2) and -V_q' = x I(q, -3/2), with the trapezoid rule of
    :func:`trapezoid_columns`, which forms x I without underflow and lifts
    orders in (-1, -1/2].  An x beyond 1e150 is not evaluated (0, unconverged).
    """
    if isinstance(xs, np.ndarray):
        with np.errstate(over="ignore"):
            w = xs * xs
    else:  # a float's square is inf where it overflows, with no warning
        w = xs * xs
    return trapezoid_columns(qv + 1.0, -1.5 if prime else -0.5, w, xs if prime else None)


def _unconverged(q: float, x: float, value: float, abs_err: float, prime: bool) -> NumericalError:
    """The error of a quadrature of V_q (of V_q' if ``prime``) at (q, x)
    whose best estimate ``value`` did not converge, or is not positive."""
    if prime:
        return NumericalError(f"derivative quadrature did not converge for q={q}, x={x}")
    return NumericalError(f"quadrature did not converge for q={q}, x={x} "
                          f"(best estimate {value!r}, error {abs_err:.3e})")


def vq_quadrature(q: float, x: float) -> EvalResult:
    """V_q(x) by quadrature of int_0^inf e^-t t^q (x^2+t)^{-1/2} dt / Gamma(q+1).

    A peak-centred trapezoid rule in log t (:func:`trapezoid_columns`),
    whose step is chosen so that two levels agree to 1e-11 relative, within
    1,280 nodes; the call is :func:`vq_many`'s quadrature path for one point.
    """
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    got = _laplace_integrals(qv, x, False)
    value, abs_err = float(got.value[0]), float(got.abs_err[0])
    if got.converged[0] and value > 0.0:
        return EvalResult(value, abs_err, "quadrature")
    raise _unconverged(qv, x, value, abs_err, False)


def _from_psi(ev: PsiEval, log_prefactor: float = 0.0) -> EvalResult:
    """``e^log_prefactor`` times psi.  The exponential makes the rounding of
    its argument, up to 2 eps |log_prefactor|, a relative error."""
    prefactor = math.exp(log_prefactor)
    value = prefactor * ev.value
    return EvalResult(
        value, prefactor * ev.abs_err_est + 2.0 * _EPS * abs(log_prefactor) * value,
        "quadrature" if ev.method == "quadrature" else "psi-" + ev.method,
    )


def vq_via_psi(q: float, x: float) -> EvalResult:
    """V_q(x) through its two Tricomi forms, cross-checked against each other.

    Form 1: x^{2q+1} psi(q+1, q+3/2, x^2); form 2: psi(1/2, 1/2-q, x^2).
    When both evaluate, they must agree to 1e-9 relative; the one with the
    smaller error estimate is returned.
    """
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    big_x = _square(x)

    results: list[EvalResult] = []
    try:
        log_prefactor = (2.0 * qv + 1.0) * math.log(x)
        results.append(_from_psi(psi_eval(qv + 1.0, qv + 1.5, big_x), log_prefactor))
    except (OverflowError, NumericalError):
        pass
    try:
        results.append(_from_psi(psi_eval(0.5, 0.5 - qv, big_x)))
    except NumericalError:
        pass

    if not results:
        raise NumericalError(f"both Tricomi forms failed for q={qv}, x={x}")
    if len(results) == 2:
        r1, r2 = results
        if abs(r1.value - r2.value) > 1e-9 * max(abs(r1.value), abs(r2.value)):
            raise NumericalError(
                f"Tricomi forms disagree for q={qv}, x={x}: "
                f"{r1.value!r} (form 1) vs {r2.value!r} (form 2)"
            )
    return min(results, key=lambda r: r.abs_err_est / abs(r.value))


def _vq_closed_q0(x: float) -> EvalResult:
    value = SQRT_PI * erfc_scaled(x)
    return EvalResult(value, 2.0 * _EPS * value, "closed-form")


def vq(q: float, x: float, method: str = "auto") -> EvalResult:
    """Evaluate V_q(x) for q > -1, x >= 0 (plus the sentinel q = -1).

    ``method`` selects the route: "auto" (argument-dependent), "quadrature"
    (integral representation), "psi" (Tricomi forms), or "closed-form"
    (q = 0 only).  The sentinel order always reports method "convention".
    """
    if method not in _EVAL_METHODS:
        raise DomainError(f"unknown method {method!r}; choose one of {_EVAL_METHODS}")
    qv = _order_value(q, allow_sentinel=True)
    x = _check_x(x)

    if qv == -1.0:
        value = vq_neg1(x)
        return EvalResult(value, _EPS * value, "convention")
    if method == "closed-form" and qv != 0.0:
        raise DomainError("closed form is available only for q = 0")

    if x == 0.0:
        if method in ("quadrature", "psi"):
            raise DomainError(f"method {method!r} requires x > 0; use the x = 0 limit")
        return EvalResult(*_vq_zero(qv), "limit-x0")

    if method == "quadrature":
        return vq_quadrature(qv, x)
    if method == "psi":
        return vq_via_psi(qv, x)
    if qv == 0.0:
        return _vq_closed_q0(x)
    if _routes_to_quadrature(qv, x):
        return vq_quadrature(qv, x)
    if x <= _SERIES_X_MAX:
        return _vq_series(qv, x)
    return _from_psi(psi_eval(0.5, 0.5 - qv, _square(x)))


def _routes_to_quadrature(qv, x):
    """Whether the "auto" route sends x > 0 at an order other than 0 and -1
    (floats, or arrays of them) to quadrature: the central band, and small x
    at half-integer orders and at orders beyond the fused expansion's reach."""
    small_x_too = _near_half_integer(qv) | (qv > _SERIES_Q_MAX)
    return (x < _ASYMPTOTIC_X_MIN) & ((x > _SERIES_X_MAX) | small_x_too)


def _many(q, xs, prime: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`vq_many` (:func:`vq_prime_many` if ``prime``) with NaN where
    the scalar call raises, and the exception it raises there (None at the
    other points), both in the broadcast shape.  The quadrature's failures
    are formed from its columns; the points outside the domain go, like the
    other routes, to the scalar call."""
    qs, xs = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(xs, dtype=float))
    shape, qs, xs = xs.shape, qs.ravel(), xs.ravel()
    values, errors = np.empty(xs.shape), np.full(xs.shape, None, object)
    inside = np.isfinite(xs) & (xs > 0.0) & np.isfinite(qs) & (qs > -1.0)
    with np.errstate(invalid="ignore"):  # at an infinite order, which is not inside
        batch = inside & (prime | (_routes_to_quadrature(qs, xs) & (qs != 0.0)))
    closed = inside & (qs == 0.0) & (not prime)  # vq's closed form, without its dispatch
    values[closed] = [SQRT_PI * erfc_scaled(x) for x in xs[closed].tolist()]
    for i in (~(batch | closed)).nonzero()[0].tolist():
        try:
            values[i] = vq_prime(qs[i], xs[i]) if prime else vq(qs[i], xs[i]).value
        except (DomainError, ArithmeticError) as exc:
            values[i], errors[i] = np.nan, exc
    if batch.any():
        got = _laplace_integrals(qs[batch], xs[batch], prime)
        ok = got.converged & (got.value > 0.0)
        accepted = np.where(ok, got.value, np.nan)
        values[batch] = -accepted if prime else accepted
        at = batch.nonzero()[0][~ok]
        for i, *failed in zip(at.tolist(), qs[at].tolist(), xs[at].tolist(),
                              got.value[~ok].tolist(), got.abs_err[~ok].tolist()):
            errors[i] = _unconverged(*failed, prime)
    return values.reshape(shape), errors.reshape(shape)


def _raised(values: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """``values``, once the first of ``errors`` that is not numerical is raised."""
    for exc in errors[np.isnan(values)].tolist():
        if not isinstance(exc, NumericalError):
            raise exc
    return values


def vq_many(q, xs) -> np.ndarray:
    """V_q at every point of the orders ``q`` broadcast against the
    arguments ``xs``, as ``vq(q, x).value`` would give it, in their
    broadcast shape: one order at many x, or an order per x, e.g.
    ``vq_many([0.5, 2.0, -1.0], [1.0, 3.0, 2.0])`` or, for a grid,
    ``vq_many(np.array(qs)[:, None], xs)``.

    Each point takes the route ``vq(q, x)`` takes.  The quadrature points
    are evaluated together, in one call of the rule whatever their orders,
    up to ``COLUMN_CHUNK`` (64) per pass; the other routes (closed form,
    series, asymptotic, sentinel and x = 0) go point by point.  A point whose
    evaluation fails numerically comes back NaN; the first domain error
    raises, as ``vq`` does.
    """
    return _raised(*_many(q, xs, False))


def vq_prime(q: float, x: float, method: str = "integral") -> float:
    """Derivative V_q'(x) for x > 0; strictly negative.

    Routes: "integral" differentiates under the integral sign,
        V_q'(x) = -(x/Gamma(q+1)) int_0^inf e^-t t^q (x^2+t)^{-3/2} dt;
    "differ" uses the order-raising relation
        x V_q'(x) = (2q+1) V_q(x) - 2(q+1) V_{q+1}(x);
    "difvq" (q >= 0) uses the order-lowering relation
        V_q'(x) = 2x (V_q(x) - V_{q-1}(x)),
    with V_{-1} = 1/x at the chain base.
    """
    if method not in _PRIME_METHODS:
        raise DomainError(f"unknown method {method!r}; choose one of {_PRIME_METHODS}")
    qv = _order_value(q)
    x = _check_x(x, positive=True)

    if method == "integral":
        got = _laplace_integrals(qv, x, True)
        if not (got.converged[0] and got.value[0] > 0.0):
            raise _unconverged(qv, x, float(got.value[0]), float(got.abs_err[0]), True)
        return -float(got.value[0])

    if method == "differ":
        v_q = vq(qv, x).value
        v_q1 = vq(qv + 1.0, x).value
        return ((2.0 * qv + 1.0) * v_q - 2.0 * (qv + 1.0) * v_q1) / x

    if qv < 0.0:
        raise DomainError(f"method 'difvq' requires q >= 0, got q={qv}")
    v_q = vq(qv, x).value
    v_prev = vq_neg1(x) if qv == 0.0 else vq(qv - 1.0, x).value
    return 2.0 * x * (v_q - v_prev)


def vq_prime_many(q, xs) -> np.ndarray:
    """V_q' at every point of the orders ``q`` broadcast against the
    arguments ``xs`` > 0, as ``vq_prime(q, x)`` ("integral") would give it,
    evaluated together in their broadcast shape (see :func:`vq_many`).  A
    point whose quadrature does not converge comes back NaN; the first domain
    error raises."""
    return _raised(*_many(q, xs, True))


def vq_next(q: float, vq_value: float, vq_prev: float, x: float) -> float:
    """Order-raising recurrence: V_{q+1} from (V_q, V_{q-1}) at the same x.

        2 (q+1) V_{q+1}(x) = (2q + 1 - 2x^2) V_q(x) + 2 x^2 V_{q-1}(x).

    The chain base q = 0 takes the sentinel V_{-1} = 1/x as ``vq_prev``.
    Cancellation grows with the chain length; drift stays below about 1e-8
    for chains of length <= 8 at moderate x.
    """
    qv = _order_value(q)
    if qv < 0.0:
        raise DomainError(f"the recurrence requires q >= 0, got q={qv}")
    x = _check_x(x, positive=True)
    vq_value = float(vq_value)
    vq_prev = float(vq_prev)
    if not (vq_value > 0.0 and vq_prev > 0.0):
        raise DomainError("recurrence inputs must be positive V values")
    xsq = x * x
    result = ((2.0 * qv + 1.0 - 2.0 * xsq) * vq_value + 2.0 * xsq * vq_prev) / (
        2.0 * (qv + 1.0)
    )
    if not math.isfinite(result) or result <= 0.0:
        raise NumericalError(
            f"recurrence produced a non-positive value at q={qv}, x={x}; "
            f"cancellation too severe"
        )
    return result


def mills(x: float) -> float:
    """Mills ratio m(x) = (1 - NormalCDF(x)) / NormalPDF(x) for x >= 0."""
    x = _check_x(x)
    return math.sqrt(math.pi / 2.0) * erfc_scaled(x / math.sqrt(2.0))
