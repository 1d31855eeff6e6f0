"""Confluent hypergeometric and companion special functions.

Provides the log-gamma, complementary error function (plain and scaled),
the Kummer confluent function Phi(a, c, x), the Tricomi confluent function
psi(a, c, x), and the Kraetzel integral function Z_rho^nu(t).

The elementary kernels need nothing beyond the standard library:

* ``ln_gamma``: below 30, the argument is shifted into [1/2, 5/2) and the
  Taylor series of 1/Gamma(1+e) (DLMF 5.7.1) gives log Gamma through
  ``log1p``, so it keeps its relative accuracy at the zeros 1 and 2;
  from 30 up, ``math.lgamma``.  ``gamma``/``rgamma`` use the same series
  below 12 and ``math.gamma`` elsewhere, with SciPy's conventions at
  overflow and at the poles.
* ``erfc`` is ``math.erfc``.  ``erfc_scaled`` is e^{x^2} erfc(x) below 1/2;
  up to 26 the same with x^2 split exactly into hi + lo (Dekker), as
  e^hi erfc(x) (1 + lo); beyond, the asymptotic series in 1/(2x^2)
  (DLMF 7.12.1; Cody, Math. Comp. 23, 1969).
* the scaled Bessel function e^z K_nu(z) behind Z_1^nu: Temme's series for
  z <= 2 and Steed's algorithm for Temme's continued fraction above (and
  at half-integer nu, where it stops at its first term), at the order
  mu = nu - round(nu) in [-1/2, 1/2), then upward recurrence (Temme,
  J. Comput. Phys. 19, 1975).
* ``_digamma`` (recurrence, reflection, asymptotic series) only sizes the
  error bounds of Gamma coefficients.

The Tricomi function is evaluated by a router that tries, in order:

* the two-term Kummer expansion
      psi = Gamma(1-c)/Gamma(a-c+1) Phi(a, c, x)
            + Gamma(c-1)/Gamma(a) x^{1-c} Phi(a-c+1, 2-c, x)
  (small x, c away from the integers where the expansion degenerates);
  where a coefficient overflows and psi itself lies beyond the double
  range, it raises at once;
* the large-x asymptotic series
      psi ~ x^{-a} sum_k (-1)^k (a)_k (a-c+1)_k / (k! x^k),
  truncated at its smallest term, or where its terms fall below a quarter
  of an ulp of the sum;
* the integral representation (DLMF 13.4.4) under Kummer's transformation
  psi(a, c, x) = x^{1-c} psi(1+a-c, 2-c, x) (DLMF 13.2.40),
      psi = x^{1-c} I(a, c-a-1; x) = I(1+a-c, -a; x),
      I(c1, p; x) = 1/Gamma(c1) int_0^inf e^{-s} s^{c1-1} (x + s)^p ds,
  one call of the trapezoid rule in log s
  (:func:`~regcoulomb.quadrature.trapezoid_columns`) on the form of larger
  order (the second for c < 1), for a > 0 or 1+a-c > 0: at a = 1/2 V_q's
  own double-double column, elsewhere in log space.

The Kraetzel function Z_1^nu is the Bessel closed form where it stays in
the double range; elsewhere, and for rho != 1, its integral in log u is one
trapezoid node pass on a step fixed in advance.  No route needs SciPy.

Every branch produces a running error estimate and is accepted only when
that estimate meets the target, so the router degrades gracefully rather
than silently losing accuracy near the hand-off boundaries.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, NumericalError
# perfbench's tracer wraps the two retired engine names in this module
from .quadrature import expsinh_escalating, laguerre_escalating  # noqa: F401
from .quadrature import (_TRAP_DROP, _TRAP_REACH, _TRAP_TOL, _tangent_end, _trapezoid_step,
                         _two_prod, trapezoid_columns)

_EPS = float(np.finfo(float).eps)

# relative accuracy target for the Tricomi router
_PSI_REL_TARGET = 1e-11
# the Kummer expansion's self-estimate flatters it; accept with headroom
_PSI_SERIES_SAFETY = 0.3
# minimum distance of c from the integers for the Kummer expansion route
_PSI_C_INTEGER_GAP = 1e-3
# error estimate above which a non-converged fallback is rejected outright
_PSI_REL_CEILING = 1e-8
_PHI_MAX_TERMS = 500
# the Bessel recurrence takes one step per unit of order; beyond this the
# Kraetzel function is integrated instead
_BESSEL_MAX_ORDER = 10_000
# Temme's continued fraction needs about 170/z terms for z > 2
_STEED_MAX_TERMS = 1000
# log of the largest double, rounded down
_LOG_MAX = 709.0
# most nodes level 1 of the Kraetzel trapezoid sum takes
_KRATZEL_NODE_MAX = 1 << 15

_SQRT_PI = math.sqrt(math.pi)
# 1/Gamma(1+e) = 1 + sum_{k>=1} c_k e^k (DLMF 5.7.1), c_1..c_22 from mpmath
# at 50 digits, as pairs (c_k, c_k+1) for odd k; for |e| <= 1/2 the omitted
# terms are below 1e-20
_RGAMMA1P = (
    (0.5772156649015329, -0.6558780715202539),
    (-0.04200263503409524, 0.16653861138229148),
    (-0.04219773455554433, -0.009621971527876973),
    (0.0072189432466631, -0.0011651675918590652),
    (-0.00021524167411495098, 0.0001280502823881162),
    (-2.013485478078824e-05, -1.2504934821426706e-06),
    (1.133027231981696e-06, -2.056338416977607e-07),
    (6.116095104481416e-09, 5.002007644469223e-09),
    (-1.18127457048702e-09, 1.0434267116911005e-10),
    (7.782263439905071e-12, -3.696805618642206e-12),
    (5.100370287454476e-13, -2.0583260535665066e-14),
)


def _rgamma1p_parts(e: float) -> tuple[float, float]:
    """(even, odd) with (1/Gamma(1+e) - 1)/e = even + e odd, both functions
    of e^2, for |e| <= 1/2."""
    e2 = e * e
    even = odd = 0.0
    for c_even, c_odd in reversed(_RGAMMA1P):
        even = even * e2 + c_even
        odd = odd * e2 + c_odd
    return even, odd


def _rgamma1p_slope(e: float) -> float:
    """(1/Gamma(1+e) - 1)/e for |e| <= 1/2."""
    even, odd = _rgamma1p_parts(e)
    return even + e * odd


def ln_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"ln_gamma requires a > 0, got {a}")
    return _ln_gamma(a)


@lru_cache(maxsize=1024)
def _ln_gamma(a: float) -> float:
    """log Gamma(a) for finite a > 0.  Memoised: the verifier and the
    envelope tables ask for the same few orders at every abscissa."""
    if a >= 30.0:
        try:
            return math.lgamma(a)
        except OverflowError:  # above about 2.5e305
            return math.inf
    if a == 1.0 or a == 2.0:
        return 0.0  # not -0.0 from the forms below
    if a < 0.5:  # Gamma(a) = Gamma(1+a)/a
        return -math.log1p(a * _rgamma1p_slope(a)) - math.log(a)
    if a < 1.5:
        e = a - 1.0
        return -math.log1p(e * _rgamma1p_slope(e))
    shift = 1.0  # Gamma(a) = shift Gamma(2+e) with e in [-1/2, 1/2)
    while a >= 2.5:
        a -= 1.0
        shift *= a
    e, slope = a - 2.0, _rgamma1p_slope(a - 2.0)
    # Gamma(2+e) = (1+e)/(1 + e slope), so its log is log1p of e (1 - slope)/(1 + e slope)
    return math.log1p(e * (1.0 - slope) / (1.0 + e * slope)) + math.log(shift)


def _gamma_fraction(y: float) -> tuple[float, float]:
    """(num, den) with Gamma(y) = num/den for 0 < y < 12: y is shifted into
    [1/2, 3/2), where 1/Gamma(1+e) is the Taylor series."""
    num = den = 1.0
    while y >= 1.5:
        y -= 1.0
        num *= y
    if y < 0.5:  # Gamma(y) = Gamma(1+y)/y
        den = y
        y += 1.0
    e = y - 1.0
    return num, den * (1.0 + e * _rgamma1p_slope(e))


def gamma(y: float) -> float:
    """Gamma(y); +-inf where it overflows and NaN at the poles, as in SciPy.
    Below 12 by the series, which is the more accurate there; from 12 up,
    and for y <= 0, ``math.gamma``."""
    if 0.0 < y < 12.0:
        num, den = _gamma_fraction(y)
        return num / den
    try:
        return math.gamma(y)
    except OverflowError:  # y above 171.6, or y within about 1e-308 of 0
        return math.copysign(math.inf, y)
    except ValueError:  # a pole: 0 or a negative integer
        return math.nan


def rgamma(y: float) -> float:
    """1/Gamma(y): 0 at the poles and where Gamma overflows, +-inf where it
    underflows to 0."""
    if 0.0 < y < 12.0:
        num, den = _gamma_fraction(y)
        return den / num
    g = gamma(y)
    if math.isnan(g):
        return 0.0
    if g == 0.0:
        return math.copysign(math.inf, g)
    return 1.0 / g


def _digamma(y: float) -> float:
    """psi(y) = Gamma'(y)/Gamma(y), to about 1e-12 of max(1, |psi|); NaN at
    the poles.  Only error bounds use it."""
    if y <= 0.0 and y == math.floor(y):
        return math.nan
    shift = 0.0
    if y < 0.5:  # reflection: psi(y) = psi(1-y) - pi cot(pi y)
        shift = -math.pi / math.tan(math.pi * y)
        y = 1.0 - y
    while y < 10.0:
        shift -= 1.0 / y
        y += 1.0
    w = 1.0 / (y * y)  # DLMF 5.11.2, terms B_2k / (2k y^2k)
    tail = w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w / 132))))
    return shift + math.log(y) - 0.5 / y - tail


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) int_x^inf e^{-t^2} dt."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erfc requires finite x, got {x}")
    return math.erfc(x)


def erfc_scaled(x: float) -> float:
    """Scaled complement e^{x^2} erfc(x); stable for large positive x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erfc_scaled requires finite x, got {x}")
    if abs(x) < 0.5:
        return math.exp(x * x) * math.erfc(x)
    if x <= 26.0:  # erfc(26) = 5.7e-296 is still a normal double
        hi, lo = _two_prod(x, x)
        try:
            head = math.exp(hi) * math.erfc(x)
        except OverflowError:  # x below about -26.6: e^{x^2} erfc(x) > 1.8e308
            return math.inf
        return head + head * lo
    # e^{x^2} erfc(x) ~ (1/(x sqrt pi)) sum_k (-1)^k (2k-1)!! / (2x^2)^k;
    # 1/x is formed first, so x sqrt(pi) never overflows
    inv = 1.0 / x
    step = 0.5 * inv * inv
    term = total = 1.0
    k = 1
    while abs(term) > 0.25 * _EPS * total:
        term *= -(2 * k - 1) * step
        total += term
        k += 1
    return inv / _SQRT_PI * total


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


def _check_confluent(a: float, c: float) -> None:
    if not (math.isfinite(a) and math.isfinite(c)):
        raise DomainError(f"confluent parameters must be finite, got a={a}, c={c}")


def kummer_phi(a: float, c: float, x: float) -> float:
    """Kummer confluent function Phi(a, c, x) = sum_k (a)_k x^k / ((c)_k k!)."""
    _check_confluent(a, c)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"kummer_phi requires finite x, got {x}")
    if c <= 0.0 and abs(c - round(c)) == 0.0:
        raise DomainError(
            f"kummer_phi is undefined for non-positive integer c, got c={c}"
        )
    value, _, converged = _phi_series(a, c, x)
    if not converged:
        raise NumericalError(
            f"kummer series did not converge within {_PHI_MAX_TERMS} terms "
            f"for a={a}, c={c}, x={x}"
        )
    return value


def _gamma_rounding(scale: float, *args: float) -> float:
    """A bound, in units of eps, on the relative error of a product of Gamma
    functions and reciprocal Gammas at the arguments ``args``, each computed
    with an absolute rounding error of up to ``scale`` eps: that error moves
    Gamma(y) by |psi(y)| scale eps relative, and each Gamma errs by up to
    4 eps."""
    return sum(4.0 + scale * abs(_digamma(y)) for y in args)


def _psi_series(a: float, c: float, x: float) -> tuple[float, float] | None:
    """Two-term Kummer expansion of psi; None when either series stalls, a
    term is lost or the value is below the normal double range.

    The estimate counts the rounding of the series sums, of the Gamma
    coefficients and their arguments, and of the power ``x^(1-c)``."""
    v1, abs1, ok1 = _phi_series(a, c, x)
    v2, abs2, ok2 = _phi_series(a - c + 1.0, 2.0 - c, x)
    if not (ok1 and ok2):
        return None
    gamma1, gamma2 = gamma(1.0 - c), gamma(c - 1.0)
    if not (math.isfinite(gamma1) and math.isfinite(gamma2)):
        return _psi_beyond_range(a, c, x)  # a coefficient would be inf, or inf * 0
    coef1 = gamma1 * rgamma(a - c + 1.0)
    coef2 = gamma2 * rgamma(a)
    # 1/Gamma(y) is 0 where Gamma(y) overflows: a term would be dropped
    if (gamma1 and not coef1 and a - c + 1.0 > 0.0) or (gamma2 and not coef2 and a > 0.0):
        return None
    try:  # as a Python float, an overflowing product is inf, with no warning
        tail = coef2 * x ** (1.0 - c)
    except OverflowError:  # the power x^(1-c) overflows
        return _psi_beyond_range(a, c, x)
    value = coef1 * v1 + tail * v2
    scale = 1.0 + abs(a) + abs(c)
    err1 = _gamma_rounding(scale, 1.0 - c, a - c + 1.0) if coef1 else 0.0
    err2 = _gamma_rounding(scale, c - 1.0, a) + scale * abs(math.log(x)) if tail else 0.0
    est = _EPS * ((4.0 + err1) * abs(coef1) * abs1 + (4.0 + err2) * abs(tail) * abs2)
    est += 2.0 * _EPS * abs(value)
    if not (math.isfinite(value) and math.isfinite(est)):
        return _psi_beyond_range(a, c, x)
    if abs(value) < sys.float_info.min:  # digits, and the estimate, are lost
        return None
    return value, est


def _psi_beyond_range(a: float, c: float, x: float) -> None:
    """Where the Kummer expansion overflows, raise if its larger term
    Gamma(1-c)/Gamma(a-c+1) or Gamma(c-1)/Gamma(a) x^(1-c) has a log above
    that of the largest double: psi itself is then out of range, and no
    other route can return it."""
    def log_ratio(top: float, bottom: float) -> float:  # log |Gamma(top)/Gamma(bottom)|
        if bottom <= 0.0 and bottom == math.floor(bottom):
            return -math.inf  # 1/Gamma(bottom) = 0
        try:
            return math.lgamma(top) - math.lgamma(bottom)
        except OverflowError:  # an argument beyond 2.5e305: the size is unknown
            return math.nan

    for lead in (log_ratio(1.0 - c, a - c + 1.0),
                 log_ratio(c - 1.0, a) + (1.0 - c) * math.log(x)):
        if lead > _LOG_MAX:
            raise NumericalError(
                f"psi({a}, {c}, {x}) overflows: its Kummer expansion has a term "
                f"near e^{lead:.0f}, beyond the double range"
            )
    return None


def _psi_asymptotic(a: float, c: float, x: float) -> tuple[float, float]:
    """Divergent large-x series truncated at its smallest term, or at one
    too small to change the sum; the estimate takes the first omitted term,
    and x^-a adds the rounding of its exponent, 2 eps |a log x| relative."""
    b = a - c + 1.0
    term = total = 1.0
    k = 0
    while k < 400:
        nxt = term * (-(a + k) * (b + k) / ((k + 1.0) * x))
        if abs(nxt) >= abs(term) or abs(nxt) <= 0.25 * _EPS * abs(total):
            break
        term = nxt
        total += term
        k += 1
    try:
        prefactor = math.exp(-a * math.log(x))
    except OverflowError:  # psi ~ x^-a, at a < 0
        raise NumericalError(f"psi({a}, {c}, {x}) overflows: x^-a is out of range") from None
    value = prefactor * total
    est = prefactor * (abs(nxt) + _EPS * abs(total) * (k + 1.0))
    return value, est + 2.0 * _EPS * abs(a * math.log(x) * value)


def psi_eval(a: float, c: float, x: float) -> PsiEval:
    """Tricomi psi(a, c, x) with error estimate and route tag.

    Routes among the Kummer expansion, the large-x asymptotic series, and
    the integral representation (for a <= 0 too, where 1+a-c > 0); each
    candidate is accepted when its own error estimate meets the accuracy
    target, or else the one with the smallest positive estimate, if within
    1e-8 relative.  A psi above the double range or below its normal
    numbers (where digits are lost) raises ``NumericalError``.
    """
    _check_confluent(a, c)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"tricomi psi requires x > 0, got {x}")

    tried: list[PsiEval] = []  # candidates short of the target
    if x <= 1.0 and abs(c - round(c)) > _PSI_C_INTEGER_GAP:
        got = _psi_series(a, c, x)
        if got is not None:
            value, est = got
            if est <= _PSI_SERIES_SAFETY * _PSI_REL_TARGET * abs(value):
                return PsiEval(value, est, "series")
            tried.append(PsiEval(value, est, "series"))

    if x >= max(30.0, 4.0 * abs(a) * abs(a - c + 1.0)):
        value, est = _psi_asymptotic(a, c, x)
        if math.isfinite(value) and abs(value) >= sys.float_info.min:
            if est <= _PSI_REL_TARGET * abs(value):
                return PsiEval(value, est, "asymptotic")
            tried.append(PsiEval(value, est, "asymptotic"))

    # psi = x^(1-c) I(a, c-a-1; x) = I(1+a-c, -a; x): the larger order
    c1, p, power = (1.0 + a - c, -a, 0.0) if c < 1.0 else (a, c - a - 1.0, 1.0 - c)
    if c1 > 0.0:
        got = trapezoid_columns(c1, p, x, power=power)
        value, est = float(got.value[0]), float(got.abs_err[0])
        if value == math.inf:
            raise NumericalError(f"psi({a}, {c}, {x}) overflows: its integral exceeds the double range")
        if value < sys.float_info.min and got.converged[0]:
            raise NumericalError(f"psi({a}, {c}, {x}) underflows: below the normal doubles")
        if value >= sys.float_info.min:
            if got.converged[0]:
                return PsiEval(value, est, "quadrature")
            tried.append(PsiEval(value, est, "quadrature"))
    elif not tried:
        raise DomainError(f"tricomi psi with a <= 0 needs x <= 1 with c away from the integers "
                          f"(the Kummer expansion) or 1+a-c > 0; got a={a}, c={c}, x={x}")

    best = min(tried, key=lambda got: got.abs_err_est, default=None)
    # an estimate of 0 belongs to a value that underflowed or was lost
    if best is not None and 0.0 < best.abs_err_est <= _PSI_REL_CEILING * abs(best.value):
        return best
    raise NumericalError(
        f"no evaluation route reached the accuracy target for psi({a}, {c}, {x})"
    )


def tricomi_psi(a: float, c: float, x: float) -> float:
    """Tricomi confluent function psi(a, c, x) for x > 0."""
    return psi_eval(a, c, x).value


def kratzel_z(rho: float, nu: float, t: float) -> float:
    """Kraetzel function Z_rho^nu(t) = int_0^inf u^{nu-1} e^{-u^rho - t/u} du."""
    if not (math.isfinite(rho) and math.isfinite(nu)):
        raise DomainError(f"Kraetzel parameters must be finite, got rho={rho}, nu={nu}")
    if rho <= 0.0:
        raise DomainError(f"Kraetzel function requires rho > 0, got rho={rho}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"kratzel_z requires t >= 0, got {t}")
    if t == 0.0:
        if nu <= 0.0:
            raise DivergenceError(f"Z_rho^nu(0) diverges for nu <= 0, got nu={nu}")
        value = gamma(nu / rho) / rho
        if not math.isfinite(value):
            raise NumericalError(f"Z_{rho}^{nu}(0) = Gamma(nu/rho)/rho overflows")
        return value

    if rho == 1.0:
        root = math.sqrt(t)
        hi, lo = _two_prod(root, root)  # exact for t above 2^-969
        root_lo = ((t - hi) - lo) / (2.0 * root) if t > 1e-290 else 0.0
        value = _kratzel_bessel(nu, root, root_lo)
        if value is not None:
            return value
    return _exp_in_range(_kratzel_quadrature(rho, nu, math.log(t)), f"Z_{rho}^{nu}({t})")


def _exp_in_range(log_value: float, what: str) -> float:
    """e^log_value: 0.0 where it underflows, and a ``NumericalError``
    naming ``what`` where it exceeds the double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(f"{what} overflows: its log is {log_value:.6g}") from None


def _kratzel_bessel(nu: float, root: float, root_lo: float) -> float | None:
    """Z_1^nu(s^2) = 2 s^nu K_nu(2s) (DLMF 10.32.10) at s = root + root_lo,
    a double plus a correction below its ulp; None where it leaves the range
    of normal doubles.

    K_nu is taken at z = 2 root, and the correction enters to first order
    through dZ/ds = -4 s^nu K_{nu-1}(2s).  The factors s^nu, e^-z and the
    scaled e^z K_nu(z) are each accurate to about an ulp, so they are
    multiplied as they are where all are normal, and combined in log space
    (e^(nu log s - z), rounded to about |nu log s - z| ulps) otherwise."""
    z = 2.0 * root
    scaled_k, ratio = _bessel_k(nu, z)
    if not 0.0 < scaled_k < math.inf:
        return None
    scaled_k *= 2.0 * (1.0 - 2.0 * root_lo * ratio)
    log_power = nu * math.log(root)
    if abs(log_power) < 700.0 and z < 1400.0:
        half = math.exp(-0.5 * z)  # e^-z as two factors, each a normal double
        value = scaled_k * math.pow(root, nu) * half * half
    elif abs(log_power - z) < 700.0:
        value = scaled_k * math.exp(log_power - z)
    else:
        return None
    return value if sys.float_info.min <= value < math.inf else None


def _bessel_k(nu: float, z: float) -> tuple[float, float]:
    """e^z K_nu(z) and K_{nu-1}(z)/K_nu(z) for z > 0; the first is inf where
    K_nu overflows.

    With m = |nu| (K_{-nu} = K_nu) and mu = m - round(m) in [-1/2, 1/2],
    K_mu and K_{mu+1} come from Temme's series (z <= 2) or his continued
    fraction (z > 2, and at |mu| = 1/2, where the fraction stops at its first
    term: e^z K_{1/2}(z) = sqrt(pi/(2z))), and the upward recurrence
    K_{v+1} = K_{v-1} + (2v/z) K_v, which is stable, reaches m and m + 1.
    Orders beyond ``_BESSEL_MAX_ORDER`` are reported as overflowing."""
    m = abs(nu)
    n = int(m + 0.5)
    if n > _BESSEL_MAX_ORDER:
        return math.inf, math.nan
    mu = m - n
    temme = z <= 2.0 and mu != -0.5
    k_lo, k_hi = _bessel_k_temme(mu, z) if temme else _bessel_k_steed(mu, z)
    k_below = k_hi - 2.0 * mu / z * k_lo  # K_{mu-1}
    for j in range(n):
        if k_hi == math.inf:
            return math.inf, math.nan
        k_below, k_lo, k_hi = k_lo, k_hi, k_lo + 2.0 * (mu + j + 1.0) / z * k_hi
    # K_{nu-1} is K_{m-1} for nu >= 0 and K_{m+1} for nu < 0
    return k_lo, (k_below if nu >= 0.0 else k_hi) / k_lo


def _bessel_k_temme(mu: float, z: float) -> tuple[float, float]:
    """e^z K_mu(z) and e^z K_{mu+1}(z) for |mu| <= 1/2 and z <= 2 by
    Temme's series: with y = z^2/4 and c_k = y^k / k!,

        K_mu = sum_k c_k f_k,    K_{mu+1} = (2/z) sum_k c_k (p_k - k f_k),

    where p_k = p_{k-1}/(k - mu), q_k = q_{k-1}/(k + mu) and
    f_k = (k f_{k-1} + p_{k-1} + q_{k-1}) / (k^2 - mu^2), started from
    p_0 = (z/2)^-mu Gamma(1+mu)/2, q_0 = (z/2)^mu Gamma(1-mu)/2 and

        f_0 = (mu pi / sin(mu pi)) (cosh(s) G1 + sinh(s)/s log(2/z) G2),

    s = mu log(2/z), G1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu) and
    G2 = (1/Gamma(1-mu) + 1/Gamma(1+mu))/2, the odd and even parts of the
    Taylor series of 1/Gamma(1+e), so they carry no cancellation at small mu."""
    log_half = -math.log(0.5 * z)
    s = mu * log_half
    even, odd = _rgamma1p_parts(mu)
    g1, g2 = -even, 1.0 + mu * mu * odd
    r_plus, r_minus = g2 + mu * even, g2 - mu * even  # 1/Gamma(1 +- mu)
    reflect = mu * math.pi / math.sin(mu * math.pi) if mu else 1.0
    sinhc = math.sinh(s) / s if s else 1.0
    f = reflect * (math.cosh(s) * g1 + sinhc * log_half * g2)
    p = 0.5 * math.exp(s) / r_plus
    q = 0.5 * math.exp(-s) / r_minus
    y = 0.25 * z * z
    c = 1.0
    k_mu, k_next = f, p
    k = 0
    while True:
        k += 1
        f = (k * f + p + q) / (k * k - mu * mu)
        p /= k - mu
        q /= k + mu
        c *= y / k
        term, term_next = c * f, c * (p - k * f)
        k_mu += term
        k_next += term_next
        if abs(term) <= 0.25 * _EPS * k_mu and abs(term_next) <= 0.25 * _EPS * abs(k_next):
            break
    grow = math.exp(z)
    return grow * k_mu, grow * 2.0 * k_next / z


def _bessel_k_steed(mu: float, z: float) -> tuple[float, float]:
    """e^z K_mu(z) and e^z K_{mu+1}(z) for |mu| <= 1/2 and z > 2 by Temme's
    continued fraction.

    K_mu(z) = sqrt(pi) (2z)^mu e^-z u_0 with u_j = U(mu+1/2+j, 2mu+1, 2z),
    and the u_j are the minimal solution of

        u_{j-1} = b_j u_j - a_{j+1} u_{j+1},  b_j = 2(j + z),
        a_j = (j - 1/2)^2 - mu^2.

    So h = u_1/u_0 = 1/(b_1 - a_2/(b_2 - a_3/(b_3 - ...))), summed by
    Steed's algorithm, gives K_{mu+1}/K_mu = (mu + 1/2 + z - a_1 h)/z; and
    sum_j C_j u_j = (2z)^-(mu+1/2), with C_j = prod_{i<=j} a_i/i, gives
    e^z K_mu = sqrt(pi/(2z)) / S, S = sum_j C_j u_j/u_0.  S is summed with
    the fraction: the forward solution Q (Q_0 = 0, Q_1 = 1) of the same
    recurrence makes S = 1 + sum_j (sum_{i<=j} C_i Q_i) (h_j - h_{j-1}),
    with h_j the j-th convergent."""
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    step = h = d
    q_prev, q_cur = 0.0, 1.0
    c = weighted = a1  # C_1, and sum_{i<=1} C_i Q_i
    total = 1.0 + weighted * step
    tol = 0.25 * _EPS
    for j in range(2, _STEED_MAX_TERMS):  # about 170/z terms
        a = j * (j - 1) + a1  # a_j = (j - 1/2)^2 - mu^2
        c *= a / j
        q_prev, q_cur = q_cur, (b * q_cur - q_prev) / a
        weighted += c * q_cur
        b += 2.0
        d = 1.0 / (b - a * d)
        step *= b * d - 1.0
        h += step
        change = weighted * step
        total += change
        if abs(change) <= tol * total:
            break
    k_mu = math.sqrt(math.pi / (2.0 * z)) / total
    return k_mu, k_mu * (mu + 0.5 + z - a1 * h) / z


def _kratzel_quadrature(rho: float, nu: float, log_t: float) -> float:
    """log Z_rho^nu(t) for t = e^log_t > 0 by the trapezoid rule in
    ``v = log u``; -inf where Z_rho^nu(t) underflows.

    The integrand is ``e^F(v)`` with ``F(v) = nu v - e^(rho v) - t e^-v``,
    whose slope ``nu - rho e^(rho v) + t e^-v`` decreases strictly, so its
    one root ``v*`` (the peak) is found by bisection.  With ``d = v - v*``,
    ``A = e^(rho v*)`` and ``B = t e^-v*``,

        F(v) - F(v*) = nu d - A expm1(rho d) - B expm1(-d)

    is concave, and is integrated over the window where it stays above -40:
    each end is the nearer of two tangent steps (:func:`_tangent_end`), from
    9 peak widths out and from where ``A e^(rho d)`` (on the right) or
    ``B e^-d`` (on the left) passes ``|nu| + 40``.  As ``nu = rho A - B``,
    the integrand grows by at most ``cos(max(rho, 1) b)^-(A + B)`` in the
    strip ``|Im d| < b``, for which :func:`_trapezoid_step` gives level 0's
    step ``h``.  One pass on the nodes ``d = j h / 2`` is final: level 1 sums
    them all and level 0 the even ones, by ``math.fsum``.  Levels that
    disagree beyond ``_TRAP_TOL``, or more than ``_KRATZEL_NODE_MAX`` nodes,
    raise ``NumericalError``.
    """
    log_rho = math.log(rho)

    def slope(v: float) -> float:  # F'(v), with its exponentials capped
        return nu - math.exp(min(log_rho + rho * v, 709.0)) + math.exp(min(log_t - v, 709.0))

    lo, hi = -1.0, 1.0
    while slope(lo) <= 0.0 or slope(hi) >= 0.0:
        if hi > 1e6:
            raise NumericalError(f"Kraetzel peak out of range for rho={rho}, nu={nu}, t=e^{log_t}")
        lo, hi = 2.0 * lo, 2.0 * hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    peak, log_a, log_b = lo, rho * lo, log_t - lo
    big, small = (math.exp(v) if v < _LOG_MAX else math.inf for v in (log_a, log_b))
    head = nu * peak - big - small  # F(v*)
    if head < -2.0 * _LOG_MAX:  # Z is e^head times far less than e^_LOG_MAX
        return -math.inf
    if math.isnan(head):
        raise NumericalError(f"Z_{rho}^{nu}(e^{log_t}) is out of the double range")

    def drop(d):  # F(v* + d) - F(v*) at the nodes d; A or B may underflow
        def grow(log_c, c, k):  # c expm1(k)
            return np.where(np.abs(k) <= 1.0, c * np.expm1(k), np.exp(log_c + k) - c)

        return nu * d - grow(log_a, big, rho * d) - grow(log_b, small, -d)

    width = 1.0 / math.sqrt(rho * rho * big + small)
    top = abs(nu) + _TRAP_DROP
    step = _trapezoid_step(big + small, _TRAP_TOL / 100.0) / max(rho, 1.0)
    with np.errstate(all="ignore"):
        starts = np.array([-_TRAP_REACH * width, -math.log1p(top / small) if small else -math.inf,
                           _TRAP_REACH * width, math.log1p(top / big) / rho if big else math.inf])
        ends = _tangent_end(starts, drop(starts),
                            nu - rho * np.exp(log_a + rho * starts) + np.exp(log_b - starts))
        left, right = np.fmax(ends[0], ends[1]), np.fmin(ends[2], ends[3])
        first, last = np.ceil(2.0 * left / step), np.floor(2.0 * right / step)
        if not 0.0 <= last - first < _KRATZEL_NODE_MAX:  # NaN or +-inf if the window is not finite
            raise NumericalError(f"Kraetzel window [{left:.6g}, {right:.6g}] takes more than "
                                 f"{_KRATZEL_NODE_MAX} nodes for rho={rho}, nu={nu}, t=e^{log_t}")
        terms = np.exp(drop(np.arange(first, last + 1.0) * (0.5 * step)))
    scaled = 0.5 * step * math.fsum(terms.tolist())  # level 1, and level 0 from the even nodes
    coarse = step * math.fsum(terms[int(first) % 2::2].tolist())
    if not (0.0 < scaled < math.inf and abs(scaled - coarse) <= _TRAP_TOL * scaled):
        raise NumericalError(f"Kraetzel levels 0 and 1 disagree: rho={rho}, nu={nu}, t=e^{log_t}")
    return head + math.log(scaled)
