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
central range, and the Tricomi large-argument series beyond.  Every result
carries its evaluation route and an error estimate.  ``vq_many`` and
``vq_prime_many`` evaluate one order at many arguments, routing each as the
scalar call would and passing the quadrature points to the column engines
together; V_q and V_q' share one integrand, with exponent -1/2 or -3/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special as sc

from .errors import DivergenceError, DomainError, NumericalError
from .quadrature import (
    QuadOutcome,
    expsinh_columns,
    expsinh_escalating,
    laguerre_columns,
    laguerre_escalating,
)
from .special import PsiEval, psi_eval

_EPS = float(np.finfo(float).eps)

SQRT_PI = math.sqrt(math.pi)

#: evaluation route tags reported in :class:`EvalResult`
METHODS = frozenset(
    {"quadrature", "psi-series", "psi-asymptotic", "closed-form", "limit-x0", "convention"}
)

# router boundaries: fused expansion below, quadrature between, Tricomi
# asymptotics above
_SERIES_X_MAX = 0.05
_ASYMPTOTIC_X_MIN = 30.0
# the fused expansion degenerates when q sits on a half-integer (gamma poles)
_HALF_INTEGER_GAP = 1e-3

_PRIME_METHODS = ("integral", "differ", "difvq")
_EVAL_METHODS = ("auto", "quadrature", "psi", "closed-form")


@dataclass(frozen=True)
class Order:
    """Order parameter q; admits q > -1 plus the sentinel q = -1."""

    q: float

    def __post_init__(self) -> None:
        q = float(self.q)
        object.__setattr__(self, "q", q)
        if not math.isfinite(q):
            raise DomainError(f"order must be finite, got {q}")
        if q < -1.0:
            raise DomainError(f"order must satisfy q > -1 (or the sentinel -1), got {q}")

    @property
    def is_sentinel(self) -> bool:
        return self.q == -1.0

    def __float__(self) -> float:
        return self.q


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Node-count ladder and acceptance tolerance for the integral route."""

    node_counts: tuple[int, ...] = (40, 80, 160, 320, 640, 1280)
    rel_tol: float = 1e-11

    def __post_init__(self) -> None:
        counts = tuple(int(n) for n in self.node_counts)
        object.__setattr__(self, "node_counts", counts)
        if not counts or any(n <= 0 for n in counts):
            raise DomainError(f"node counts must be positive, got {counts}")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise DomainError(f"node counts must be strictly increasing, got {counts}")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise DomainError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")


_DEFAULT_QUAD = QuadratureSpec()


def _order_value(q: float | Order, *, allow_sentinel: bool = False) -> float:
    qv = float(q) if not isinstance(q, Order) else q.q
    order = Order(qv)
    if order.is_sentinel and not allow_sentinel:
        raise DomainError("the sentinel order q = -1 is not admitted here")
    return order.q


def _check_x(x: float, *, positive: bool = False) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or (positive and x == 0.0):
        bound = "x > 0" if positive else "x >= 0"
        raise DomainError(f"argument must satisfy {bound}, got {x}")
    return x


def vq_zero(q: float | Order) -> float:
    """Limit V_q(0) = Gamma(q+1/2)/Gamma(q+1); diverges for q <= -1/2."""
    qv = _order_value(q)
    if qv <= -0.5:
        raise DivergenceError(f"V_q(0) diverges for q <= -1/2, got q={qv}")
    return math.exp(sc.gammaln(qv + 0.5) - sc.gammaln(qv + 1.0))


def vq_neg1(x: float) -> float:
    """Sentinel order: V_{-1}(x) = 1/x by convention."""
    x = _check_x(x, positive=True)
    return 1.0 / x


def _near_half_integer(q: float) -> bool:
    shifted = q + 0.5
    return abs(shifted - round(shifted)) <= _HALF_INTEGER_GAP


def _vq_series(q: float, x: float) -> EvalResult:
    """Fused small-x expansion with O(1) intermediates.

    V_q(x) = V_q(0) Phi(1/2, 1/2-q, x^2)
             + (Gamma(-q-1/2)/sqrt(pi)) x^{2q+1} Phi(q+1, q+3/2, x^2),

    valid whenever q is not a half-integer.  For q > -1/2 the result is
    cross-checked against the x -> 0 limit using the expansion's own
    deviation bound.
    """
    from .special import _phi_series

    big_x = x * x
    gamma_lead = sc.gamma(q + 0.5)
    if math.isinf(gamma_lead):  # q > 171.1: coef1 would be inf * 0
        raise NumericalError(f"small-x expansion failed for q={q}, x={x}")
    coef1 = gamma_lead * sc.rgamma(q + 1.0)
    coef2 = sc.gamma(-q - 0.5) / SQRT_PI * math.exp((2.0 * q + 1.0) * math.log(x))
    v1, abs1, ok1 = _phi_series(0.5, 0.5 - q, big_x)
    v2, abs2, ok2 = _phi_series(q + 1.0, q + 1.5, big_x)
    if not (ok1 and ok2):
        raise NumericalError(f"small-x expansion stalled for q={q}, x={x}")
    value = coef1 * v1 + coef2 * v2
    est = 4.0 * _EPS * (abs(coef1) * abs1 + abs(coef2) * abs2) + 2.0 * _EPS * abs(value)
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


def _log_integrands(qv: float, power: float) -> tuple[Callable, Callable]:
    """The logs of the integrand of

        int_0^inf e^-t t^q (x^2+t)^power dt / Gamma(q+1)

    for the Gauss-Laguerre rule (which carries e^-t t^q as its weight) and
    for the exp-sinh rule, as functions of x^2 (a float, or a column of
    values, one per integrand) and the nodes."""
    shift = -sc.gammaln(qv + 1.0)

    # in place on the fresh array log(x^2 + t); the sums are the same as
    # power*log(x^2+t) + shift and -t + q log t + power*log(x^2+t) + shift
    def gl(xsq, t):
        out = np.log(xsq + t)
        out *= power
        out += shift
        return out

    def de(xsq, t, log_t):
        out = np.log(xsq + t)
        out *= power
        out += -t + qv * log_t
        out += shift
        return out

    return gl, de


def _laplace_integral(qv: float, x: float, power: float, spec: QuadratureSpec) -> QuadOutcome:
    """The integral of :func:`_log_integrands` at one x, through the scalar
    engines.

    Gauss-Laguerre for x >= 1/2; below that, and wherever it fails, the
    branch point at t = -x^2 sits too close to the axis for polynomial rules
    and a double-exponential rule takes over.  Either escalates node counts
    until two levels agree to the requested relative tolerance.  The outcome
    is accepted (:func:`_accepted`) when it converged to a positive value.
    An x whose square overflows is not evaluated and fails with a zero
    estimate.
    """
    xsq = x * x  # a Python float overflows to inf without a warning
    if math.isinf(xsq):
        return QuadOutcome(0.0, 0.0, 0, False)
    gl, de = _log_integrands(qv, power)
    ladder = (spec.node_counts, spec.rel_tol)
    if x >= 0.5:
        out = laguerre_escalating(lambda t: gl(xsq, t), qv, *ladder)
        if _accepted(out):
            return out
    return expsinh_escalating(lambda t, log_t: de(xsq, t, log_t), qv, *ladder)


def _accepted(out: QuadOutcome) -> bool:
    return out.converged and out.value > 0.0


def _laplace_integrals(qv: float, xs: np.ndarray, power: float) -> np.ndarray:
    """:func:`_laplace_integral` at every x of ``xs`` through the column
    engines, with the default quadrature: the accepted values, NaN where
    an x was not accepted."""
    # squared as Python floats, which overflow to inf without a warning
    xsq = np.array([x * x for x in xs.tolist()])
    values = np.full(xs.size, np.nan)
    gl, de = _log_integrands(qv, power)
    ladder = (_DEFAULT_QUAD.node_counts, _DEFAULT_QUAD.rel_tol)
    fits = np.isfinite(xsq)
    todo = (fits & (xs >= 0.5)).nonzero()[0]
    if todo.size:
        gl_xsq = xsq[todo, None]
        got = laguerre_columns(lambda t, cols: gl(gl_xsq[cols], t), qv, todo.size, *ladder)
        values[todo] = np.where(got.converged & (got.value > 0.0), got.value, np.nan)
    todo = (fits & np.isnan(values)).nonzero()[0]
    if todo.size:
        de_xsq = xsq[todo, None]
        got = expsinh_columns(
            lambda t, log_t, cols: de(de_xsq[cols], t, log_t), qv, todo.size, *ladder
        )
        values[todo] = np.where(got.converged & (got.value > 0.0), got.value, np.nan)
    return values


def vq_quadrature(
    q: float | Order, x: float, quadrature: QuadratureSpec | None = None
) -> EvalResult:
    """V_q(x) by quadrature of int_0^inf e^-t t^q (x^2+t)^{-1/2} dt / Gamma(q+1).

    Gauss-Laguerre for x >= 1/2; below that the branch point at t = -x^2
    sits too close to the axis for polynomial rules and a double-exponential
    rule takes over.  Either path escalates node counts until two levels
    agree to the requested relative tolerance.
    """
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    spec = quadrature if quadrature is not None else _DEFAULT_QUAD
    out = _laplace_integral(qv, x, -0.5, spec)
    if _accepted(out):
        return EvalResult(out.value, out.abs_err, "quadrature")
    raise NumericalError(
        f"quadrature did not converge for q={qv}, x={x} "
        f"(best estimate {out.value!r}, error {out.abs_err:.3e})"
    )


def _map_psi_method(method: str) -> str:
    if method == "series":
        return "psi-series"
    if method == "asymptotic":
        return "psi-asymptotic"
    return "quadrature"


def _from_psi(ev: PsiEval, prefactor: float = 1.0) -> EvalResult:
    return EvalResult(
        prefactor * ev.value, prefactor * ev.abs_err_est, _map_psi_method(ev.method)
    )


def vq_via_psi(q: float | Order, x: float) -> EvalResult:
    """V_q(x) through its two Tricomi forms, cross-checked against each other.

    Form 1: x^{2q+1} psi(q+1, q+3/2, x^2); form 2: psi(1/2, 1/2-q, x^2).
    When both evaluate, they must agree to 1e-9 relative; the one with the
    smaller error estimate is returned.
    """
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    big_x = x * x

    results: list[EvalResult] = []
    try:
        prefactor = math.exp((2.0 * qv + 1.0) * math.log(x))
        if math.isfinite(prefactor) and prefactor > 0.0:
            ev = psi_eval(qv + 1.0, qv + 1.5, big_x)
            if math.isfinite(prefactor * ev.value):
                results.append(_from_psi(ev, prefactor))
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
    value = SQRT_PI * sc.erfcx(x)
    return EvalResult(value, 2.0 * _EPS * value, "closed-form")


def vq(
    q: float | Order,
    x: float,
    method: str = "auto",
    quadrature: QuadratureSpec | None = None,
) -> EvalResult:
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

    if x == 0.0:
        if method in ("quadrature", "psi"):
            raise DomainError(f"method {method!r} requires x > 0; use the x = 0 limit")
        if method == "closed-form" and qv != 0.0:
            raise DomainError("closed form is available only for q = 0")
        value = vq_zero(qv)
        return EvalResult(value, 4.0 * _EPS * value, "limit-x0")

    if method == "quadrature":
        return vq_quadrature(qv, x, quadrature)
    if method == "psi":
        return vq_via_psi(qv, x)
    if method == "closed-form":
        if qv != 0.0:
            raise DomainError("closed form is available only for q = 0")
        return _vq_closed_q0(x)

    if qv == 0.0:
        return _vq_closed_q0(x)
    if _routes_to_quadrature(qv, x):
        return vq_quadrature(qv, x, quadrature)
    if x <= _SERIES_X_MAX:
        return _vq_series(qv, x)
    return _from_psi(psi_eval(0.5, 0.5 - qv, x * x))


def _routes_to_quadrature(qv: float, x):
    """Whether the "auto" route sends x > 0 (a float or an array) at an order
    other than 0 and -1 to quadrature: the central band, and small x at
    half-integer orders."""
    return (x < _ASYMPTOTIC_X_MIN) & ((x > _SERIES_X_MAX) | _near_half_integer(qv))


def _abscissas(xs, *, positive: bool = False) -> np.ndarray:
    """``xs`` as a float array; the first x outside the domain raises as in
    :func:`_check_x`."""
    xs = np.array(xs, dtype=float)
    bad = ~np.isfinite(xs) | (xs < 0.0) | (positive & (xs == 0.0))
    for x in xs[bad][:1]:
        _check_x(x, positive=positive)
    return xs


def vq_many(q: float | Order, xs) -> np.ndarray:
    """V_q at every x of ``xs``, as ``vq(q, x).value`` would give it.

    Each x takes the route ``vq(q, x)`` takes.  The quadrature points are
    evaluated together, up to ``COLUMN_CHUNK`` (64) per pass; the other routes
    (closed form, series, asymptotic, sentinel and x = 0) go point by point.
    A point whose evaluation fails numerically comes back NaN; a domain
    error for any point raises, as ``vq`` does.
    """
    qv = _order_value(q, allow_sentinel=True)
    xs = _abscissas(xs)
    values = np.empty(xs.shape)
    batch = (xs > 0.0) & _routes_to_quadrature(qv, xs) & (qv not in (-1.0, 0.0))
    for i in (~batch).nonzero()[0].tolist():
        try:
            values[i] = vq(qv, xs[i]).value
        except NumericalError:
            values[i] = np.nan
    if batch.any():
        values[batch] = _laplace_integrals(qv, xs[batch], -0.5)
    return values


def vq_prime(q: float | Order, x: float, method: str = "integral") -> float:
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
        out = _laplace_integral(qv, x, -1.5, _DEFAULT_QUAD)
        if not _accepted(out):
            raise NumericalError(f"derivative quadrature did not converge for q={qv}, x={x}")
        return -x * out.value

    if method == "differ":
        v_q = vq(qv, x).value
        v_q1 = vq(qv + 1.0, x).value
        return ((2.0 * qv + 1.0) * v_q - 2.0 * (qv + 1.0) * v_q1) / x

    if qv < 0.0:
        raise DomainError(f"method 'difvq' requires q >= 0, got q={qv}")
    v_q = vq(qv, x).value
    v_prev = vq_neg1(x) if qv == 0.0 else vq(qv - 1.0, x).value
    return 2.0 * x * (v_q - v_prev)


def vq_prime_many(q: float | Order, xs) -> np.ndarray:
    """V_q' at every x > 0 of ``xs``, as ``vq_prime(q, x)`` ("integral")
    would give it, evaluated together.  A point whose quadrature does not
    converge comes back NaN; a domain error for any point raises."""
    qv = _order_value(q)
    xs = _abscissas(xs, positive=True)
    return -xs * _laplace_integrals(qv, xs, -1.5)


def vq_next(q: float | Order, vq_value: float, vq_prev: float, x: float) -> float:
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
    return math.sqrt(math.pi / 2.0) * float(sc.erfcx(x / math.sqrt(2.0)))
