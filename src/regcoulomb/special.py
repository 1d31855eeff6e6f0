"""Confluent hypergeometric and companion special functions.

Provides the log-gamma, complementary error function (plain and scaled),
the Kummer confluent function Phi(a, c, x), the Tricomi confluent function
psi(a, c, x), and the Kraetzel integral function Z_rho^nu(t).

The Tricomi function is evaluated by a router that tries, in order:

* the two-term Kummer expansion
      psi = Gamma(1-c)/Gamma(a-c+1) Phi(a, c, x)
            + Gamma(c-1)/Gamma(a) x^{1-c} Phi(a-c+1, 2-c, x)
  (small x, c away from the integers where the expansion degenerates);
* the large-x asymptotic series
      psi ~ x^{-a} sum_k (-1)^k (a)_k (a-c+1)_k / (k! x^k),
  truncated at its smallest term;
* the integral representation (a > 0), written in the scaled variable
      psi = x^{-a}/Gamma(a) int_0^inf e^{-s} s^{a-1} (1 + s/x)^{c-a-1} ds,
  evaluated by generalized Gauss-Laguerre quadrature for moderate and large
  x and by a double-exponential rule when the branch point at s = -x sits
  too close to the integration axis for polynomial rules.

Every branch produces a running error estimate and is accepted only when
that estimate meets the target, so the router degrades gracefully rather
than silently losing accuracy near the hand-off boundaries.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .errors import DivergenceError, DomainError, NumericalError
from .quadrature import expsinh_escalating, laguerre_escalating

_EPS = float(np.finfo(float).eps)

# relative accuracy target for the Tricomi router
_PSI_REL_TARGET = 1e-11
# the Kummer expansion's self-estimate flatters it; accept with headroom
_PSI_SERIES_SAFETY = 0.3
# minimum distance of c from the integers for the Kummer expansion route
_PSI_C_INTEGER_GAP = 1e-3
# error estimate above which a non-converged fallback is rejected outright
_PSI_REL_CEILING = 1e-8
_PSI_GL_LADDER = (40, 80, 160, 320)
_PSI_DE_LADDER = (160, 320, 640, 1280)
_PHI_MAX_TERMS = 500


def ln_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"ln_gamma requires a > 0, got {a}")
    return float(sc.gammaln(a))


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) int_x^inf e^{-t^2} dt."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erfc requires finite x, got {x}")
    return float(sc.erfc(x))


def erfc_scaled(x: float) -> float:
    """Scaled complement e^{x^2} erfc(x); stable for large positive x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erfc_scaled requires finite x, got {x}")
    return float(sc.erfcx(x))


@dataclass(frozen=True)
class PsiParams:
    """Parameter pair (a, c) for the confluent functions Phi and psi."""

    a: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise DomainError(
                f"confluent parameters must be finite, got a={self.a}, c={self.c}"
            )

    def phi(self, x: float) -> float:
        return kummer_phi(self.a, self.c, x)

    def psi(self, x: float) -> float:
        return tricomi_psi(self.a, self.c, x)

    def psi_detail(self, x: float) -> "PsiEval":
        return psi_eval(self.a, self.c, x)


@dataclass(frozen=True)
class PsiEval:
    """Tricomi psi value with error estimate and route tag."""

    value: float
    abs_err_est: float
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_err_est", float(self.abs_err_est))


def _phi_series(a: float, c: float, x: float) -> tuple[float, float, bool]:
    """Kummer series sum_k (a)_k x^k / ((c)_k k!).

    Returns (value, sum of |terms|, converged).  The caller guarantees c is
    not a non-positive integer.
    """
    term = 1.0
    total = 1.0
    abs_total = 1.0
    for k in range(_PHI_MAX_TERMS):
        term *= (a + k) * x / ((c + k) * (k + 1.0))
        total += term
        abs_total += abs(term)
        if abs(term) <= _EPS * abs(total) and k > 2:
            return total, abs_total, True
    return total, abs_total, False


def kummer_phi(a: float, c: float, x: float) -> float:
    """Kummer confluent function Phi(a, c, x) = sum_k (a)_k x^k / ((c)_k k!)."""
    params = PsiParams(a, c)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"kummer_phi requires finite x, got {x}")
    if params.c <= 0.0 and abs(params.c - round(params.c)) == 0.0:
        raise DomainError(
            f"kummer_phi is undefined for non-positive integer c, got c={c}"
        )
    value, _, converged = _phi_series(params.a, params.c, x)
    if not converged:
        raise NumericalError(
            f"kummer series did not converge within {_PHI_MAX_TERMS} terms "
            f"for a={a}, c={c}, x={x}"
        )
    return value


def _psi_series(a: float, c: float, x: float) -> tuple[float, float] | None:
    """Two-term Kummer expansion of psi; None when either series stalls."""
    v1, abs1, ok1 = _phi_series(a, c, x)
    v2, abs2, ok2 = _phi_series(a - c + 1.0, 2.0 - c, x)
    if not (ok1 and ok2):
        return None
    coef1 = sc.gamma(1.0 - c) * sc.rgamma(a - c + 1.0)
    coef2 = sc.gamma(c - 1.0) * sc.rgamma(a)
    tail = coef2 * x ** (1.0 - c)
    value = coef1 * v1 + tail * v2
    est = 4.0 * _EPS * (abs(coef1) * abs1 + abs(tail) * abs2) + 2.0 * _EPS * abs(value)
    if not (math.isfinite(value) and math.isfinite(est)):
        return None
    return value, est


def _psi_asymptotic(a: float, c: float, x: float) -> tuple[float, float]:
    """Divergent large-x series truncated at its smallest term."""
    b = a - c + 1.0
    term = 1.0
    total = 1.0
    smallest = 1.0
    k = 0
    while k < 400:
        nxt = term * (-(a + k) * (b + k) / ((k + 1.0) * x))
        if abs(nxt) >= smallest:
            break
        term = nxt
        total += term
        smallest = abs(term)
        k += 1
    prefactor = math.exp(-a * math.log(x))
    value = prefactor * total
    est = prefactor * (smallest + _EPS * abs(total) * (k + 1.0))
    return value, est


def psi_eval(a: float, c: float, x: float) -> PsiEval:
    """Tricomi psi(a, c, x) with error estimate and route tag.

    Routes among the Kummer expansion, the large-x asymptotic series, and
    the integral representation; each candidate is accepted only when its
    own error estimate meets the accuracy target.
    """
    params = PsiParams(a, c)
    a, c = params.a, params.c
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"tricomi psi requires x > 0, got {x}")

    best: PsiEval | None = None

    if x <= 1.0 and abs(c - round(c)) > _PSI_C_INTEGER_GAP:
        got = _psi_series(a, c, x)
        if got is not None:
            value, est = got
            if value != 0.0 and est <= _PSI_SERIES_SAFETY * _PSI_REL_TARGET * abs(value):
                return PsiEval(value, est, "series")
            best = PsiEval(value, est, "series")

    if x >= max(30.0, 4.0 * abs(a) * abs(a - c + 1.0)):
        value, est = _psi_asymptotic(a, c, x)
        if math.isfinite(value) and value != 0.0:
            if est <= _PSI_REL_TARGET * abs(value):
                return PsiEval(value, est, "asymptotic")
            if best is None or est < best.abs_err_est:
                best = PsiEval(value, est, "asymptotic")

    if a > 0.0:
        log_x = math.log(x)
        shift = -a * log_x - sc.gammaln(a)
        exponent = c - a - 1.0

        if x >= 0.5:
            def log_g(t: np.ndarray) -> np.ndarray:
                return exponent * (np.log(x + t) - log_x) + shift

            outcome = laguerre_escalating(log_g, a - 1.0, _PSI_GL_LADDER, _PSI_REL_TARGET)
            if outcome.converged and outcome.value > 0.0:
                return PsiEval(outcome.value, outcome.abs_err, "quadrature-gl")

        def log_f(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
            return -t + (a - 1.0) * log_t + exponent * (np.log(x + t) - log_x) + shift

        outcome = expsinh_escalating(log_f, a - 1.0, _PSI_DE_LADDER, _PSI_REL_TARGET)
        if outcome.converged and outcome.value > 0.0:
            return PsiEval(outcome.value, outcome.abs_err, "quadrature-de")
        if outcome.value > 0.0 and math.isfinite(outcome.value):
            candidate = PsiEval(outcome.value, outcome.abs_err, "quadrature-de")
            if best is None or candidate.abs_err_est < best.abs_err_est:
                best = candidate
    elif 1.0 + a - c > 0.0:
        # a <= 0 away from the Kummer region: the argument-shift identity
        # psi(a, c, x) = x^{1-c} psi(1+a-c, 2-c, x) has a positive shifted
        # first parameter, so the shifted evaluation can use the integral
        # routes (and cannot land back in this branch).
        shifted = psi_eval(1.0 + a - c, 2.0 - c, x)
        log_value = (1.0 - c) * math.log(x) + math.log(shifted.value)
        if log_value >= 709.0:
            raise NumericalError(
                f"psi({a}, {c}, {x}) overflows via the shift identity"
            )
        value = math.exp(log_value)
        est = value * (shifted.abs_err_est / shifted.value) + 4.0 * _EPS * value
        candidate = PsiEval(value, est, shifted.method)
        if est <= _PSI_REL_TARGET * value:
            return candidate
        if best is None or est < best.abs_err_est:
            best = candidate
    elif best is None:
        raise DomainError(
            f"tricomi psi with a <= 0 is supported only where the Kummer "
            f"expansion applies (x <= 1, c away from integers) or where the "
            f"shift identity gives a positive first parameter (1+a-c > 0); "
            f"got a={a}, c={c}, x={x}"
        )

    if best is not None and best.abs_err_est <= _PSI_REL_CEILING * abs(best.value):
        return best
    raise NumericalError(
        f"no evaluation route reached the accuracy target for psi({a}, {c}, {x})"
    )


def tricomi_psi(a: float, c: float, x: float) -> float:
    """Tricomi confluent function psi(a, c, x) for x > 0."""
    return psi_eval(a, c, x).value


@dataclass(frozen=True)
class KratzelParams:
    """Parameter pair (rho, nu) for the Kraetzel function Z_rho^nu."""

    rho: float
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and math.isfinite(self.nu)):
            raise DomainError(
                f"Kraetzel parameters must be finite, got rho={self.rho}, nu={self.nu}"
            )
        if self.rho <= 0.0:
            raise DomainError(f"Kraetzel function requires rho > 0, got rho={self.rho}")

    def z(self, t: float) -> float:
        return kratzel_z(self.rho, self.nu, t)


def kratzel_z(rho: float, nu: float, t: float) -> float:
    """Kraetzel function Z_rho^nu(t) = int_0^inf u^{nu-1} e^{-u^rho - t/u} du."""
    params = KratzelParams(rho, nu)
    rho, nu = params.rho, params.nu
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"kratzel_z requires t >= 0, got {t}")
    if t == 0.0:
        if nu <= 0.0:
            raise DivergenceError(
                f"Z_rho^nu(0) diverges for nu <= 0, got nu={nu}"
            )
        value = math.exp(sc.gammaln(nu / rho)) / rho
        if not math.isfinite(value):
            raise NumericalError(
                f"Z_{rho}^{nu}(0) = Gamma(nu/rho)/rho overflows"
            )
        return value

    if rho == 1.0:
        # DLMF 10.32.10: Z_1^nu(t) = 2 t^{nu/2} K_nu(2 sqrt t), with the
        # factor e^{-2 sqrt t} of the scaled Bessel function kve taken in
        # log space together with t^{nu/2}; where that leaves the range of
        # doubles, the quadrature below takes over
        z = 2.0 * math.sqrt(t)
        scaled_k = float(sc.kve(nu, z))
        log_rest = 0.5 * nu * math.log(t) - z
        if 0.0 < scaled_k < math.inf and abs(log_rest) < 700.0:
            value = 2.0 * scaled_k * math.exp(log_rest)
            if sys.float_info.min <= value < math.inf:
                return value
    return _kratzel_quadrature(rho, nu, t)


def _kratzel_quadrature(rho: float, nu: float, t: float) -> float:
    """Z_rho^nu(t) for t > 0 by adaptive quadrature."""
    import scipy.integrate  # deferred: only the general-rho route needs it

    # normalize by the integrand's peak so the adaptive rule works on O(1)
    # values; otherwise its absolute-error floor swamps tiny integrals
    # (e.g. t large, where Z ~ e^{-2 sqrt t})
    probe = np.geomspace(1e-6, 1e6, 121)
    with np.errstate(over="ignore", under="ignore"):
        log_vals = (nu - 1.0) * np.log(probe) - probe ** rho - t / probe
    peak_idx = int(np.argmax(log_vals))
    shift = float(log_vals[peak_idx])
    split = float(probe[peak_idx])

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        arg = (nu - 1.0) * math.log(u) - u ** rho - t / u - shift
        return math.exp(arg) if arg > -745.0 else 0.0

    head, head_err = scipy.integrate.quad(
        integrand, 0.0, split, epsabs=1e-14, epsrel=1e-11, limit=200
    )
    tail, tail_err = scipy.integrate.quad(
        integrand, split, np.inf, epsabs=1e-14, epsrel=1e-11, limit=200
    )
    scaled = head + tail
    err = head_err + tail_err
    if not math.isfinite(scaled) or scaled <= 0.0:
        raise NumericalError(f"Kraetzel quadrature failed for rho={rho}, nu={nu}, t={t}")
    if err > 1e-9 * scaled + 1e-300:
        raise NumericalError(
            f"Kraetzel quadrature relative error {err / scaled:.3e} too large "
            f"for rho={rho}, nu={nu}, t={t}"
        )
    log_value = shift + math.log(scaled)
    if log_value > 709.0:
        raise NumericalError(f"Z_{rho}^{nu}({t}) overflows")
    return math.exp(log_value)
