"""Closed-form bounds: the Mills ratio family and envelopes for V_q.

Mills ratio bounds (m denotes the Mills ratio of the standard normal):

    f1(x) = x / (x^2 + 1)                                lower bound
    f2(x) = 1 / x                                        upper bound
    f3(x) = x (x^2 + 1) / (x^4 + 2 x^2 - 1)              upper bound,
            applicable only for x > sqrt(sqrt 2 - 1) where the
            denominator is positive
    f4(x) = 2 x / (x^2 - 1 + sqrt(x^4 + 6 x^2 + 1))      upper bound
    f5(x) = 6 x / (5 x^2 - 3 + sqrt(x^4 + 18 x^2 + 9))   upper bound

f4 and f5 are written with rationalized denominators so that the
subtraction never cancels; the raw forms have removable or genuine
singularities (f5's raw form is 0/0 at x = sqrt 2).  Where a power of x
in the direct form would overflow (x^2 above about 1.3e154, x^4 above
about 1.2e77), f1, f3, f4 and f5 are divided through by that power and
evaluated in u = 1/x^2, so that they keep their value m(x) ~ 1/x.

Envelopes for V_q (all x > 0):

    lower_exp(q, x)     = 2^{q+1} x^{2q+1} / (1 + 2 x^2)^{q+1}      (q > -1)
    upper_agm(q, x)     = Gamma(q+3/4) / (sqrt(2 x) Gamma(q+1))     (q > -3/4)
    lower_kratzel(q, x) = Z_1^{q+1/2}(x^2/2) / Gamma(q+1)           (q > -1)

where Z_1^nu is the Kraetzel function.  Above q = 700 the Gamma ratio of
upper_agm, like V_q(0) = Gamma(q+1/2)/Gamma(q+1), is its asymptotic series
in 1/q (DLMF 5.11.8), not the difference of two log-Gammas, which would
cancel; both keep their relative accuracy up to q = 1e308.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .potential import EvalResult, _check_x, _order_value, mills, vq
from .quadrature import _two_prod
from .special import _exp_in_range, _gamma_ratio, _kratzel_bessel, _kratzel_quadrature, ln_gamma
from .special import kratzel_z  # noqa: F401  (perfbench's tracer wraps it here)

#: f3's denominator x^4 + 2x^2 - 1 changes sign at x^2 = sqrt(2) - 1
MILLS_F3_THRESHOLD = math.sqrt(math.sqrt(2.0) - 1.0)
# 1/sqrt(2) = _INV_SQRT2 + _INV_SQRT2_LO to about 1e-33
_INV_SQRT2 = math.sqrt(0.5)
_INV_SQRT2_LO = -4.833646656726457e-17


def _inverse_square(x: float) -> float:
    """u = 1/x^2 for an x whose square (or fourth power) overflows."""
    return (1.0 / x) / x


def mills_f1(x: float) -> float:
    """Lower bound x / (x^2 + 1) for the Mills ratio."""
    x = _check_x(x, positive=True)
    xsq = x * x
    if math.isinf(xsq):
        return (1.0 / x) / (1.0 + _inverse_square(x))
    return x / (xsq + 1.0)


def mills_f2(x: float) -> float:
    """Upper bound 1 / x for the Mills ratio."""
    x = _check_x(x, positive=True)
    return 1.0 / x


def mills_f3_raw(x: float) -> float:
    """The rational expression x (x^2+1) / (x^4 + 2x^2 - 1) at any x where
    the denominator is nonzero; not a bound below the applicability
    threshold.  Intended for diagnostics."""
    x = _check_x(x, positive=True)
    try:
        denom = x ** 4 + 2.0 * x * x - 1.0
    except OverflowError:
        u = _inverse_square(x)
        return (1.0 + u) / (x * (1.0 + u * (2.0 - u)))
    if denom == 0.0:
        raise DomainError(f"x (x^2+1)/(x^4+2x^2-1) has a pole at x={x}")
    return x * (x * x + 1.0) / denom


def mills_f3(x: float) -> Optional[float]:
    """Upper bound x (x^2+1) / (x^4 + 2x^2 - 1), or None where it does not
    apply (x <= sqrt(sqrt 2 - 1), where the denominator is non-positive)."""
    x = _check_x(x, positive=True)
    if x <= MILLS_F3_THRESHOLD:
        return None
    return mills_f3_raw(x)


def mills_f4(x: float) -> float:
    """Upper bound 2x / (x^2 - 1 + sqrt(x^4 + 6x^2 + 1)) for the Mills ratio.

    The two algebraically identical arrangements (they differ by the
    conjugate factor, since root^2 - (x^2-1)^2 = 8x^2) each suffer
    cancellation at one end: x^2 - 1 + root loses digits as x -> 0 and
    1 - x^2 + root loses digits as x -> inf, so the evaluation switches
    at x = 1."""
    x = _check_x(x, positive=True)
    xsq = x * x
    root = math.sqrt(xsq * (xsq + 6.0) + 1.0)
    if math.isinf(root):
        u = _inverse_square(x)
        return (2.0 / x) / (1.0 - u + math.sqrt(u * (u + 6.0) + 1.0))
    if x >= 1.0:
        return 2.0 * x / (xsq - 1.0 + root)
    return (1.0 - xsq + root) / (4.0 * x)


def mills_f5(x: float) -> float:
    """Upper bound 6x / (5x^2 - 3 + sqrt(x^4 + 18x^2 + 9)) for the Mills
    ratio, arranged so that neither the small-x cancellation in
    5x^2 - 3 + root nor the 0/0 of the rationalized form at x = sqrt 2
    is ever hit."""
    x = _check_x(x, positive=True)
    xsq = x * x
    root = math.sqrt(xsq * (xsq + 18.0) + 9.0)
    if math.isinf(root):
        u = _inverse_square(x)
        return (6.0 / x) / (5.0 - 3.0 * u + math.sqrt(u * (9.0 * u + 18.0) + 1.0))
    if xsq >= 1.0:
        # direct form; the denominator is bounded away from zero here
        return 6.0 * x / (5.0 * xsq - 3.0 + root)
    # rationalized via root^2 - (5x^2-3)^2 = 24 x^2 (2 - x^2):
    # 6x / (5x^2-3+root) = (root - 5x^2 + 3) / (4x (2 - x^2))
    return (root - 5.0 * xsq + 3.0) / (4.0 * x * (2.0 - xsq))


@dataclass(frozen=True)
class MillsBoundRow:
    """Mills ratio and its five bounds at one abscissa; f3 is None where
    not applicable."""

    x: float
    f1: float
    f2: float
    f3: Optional[float]
    f4: float
    f5: float
    m: float


def mills_bounds(x: float) -> MillsBoundRow:
    """Evaluate the Mills ratio and all five bounds at x > 0."""
    x = _check_x(x, positive=True)
    return MillsBoundRow(
        x=x,
        f1=mills_f1(x),
        f2=mills_f2(x),
        f3=mills_f3(x),
        f4=mills_f4(x),
        f5=mills_f5(x),
        m=mills(x),
    )


def vq_lower_exp(q: float, x: float) -> float:
    """Lower envelope 2^{q+1} x^{2q+1} / (1 + 2x^2)^{q+1} for V_q, q > -1."""
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    log_val = (
        (qv + 1.0) * math.log(2.0)
        + (2.0 * qv + 1.0) * math.log(x)
        - (qv + 1.0) * math.log1p(2.0 * x * x)
    )
    return math.exp(log_val)


def vq_upper_agm(q: float, x: float) -> float:
    """Upper envelope Gamma(q+3/4) / (sqrt(2x) Gamma(q+1)) for V_q; requires
    q > -3/4."""
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    if qv <= -0.75:
        raise DomainError(f"the upper envelope requires q > -3/4, got q={qv}")
    return _gamma_ratio(qv, 0.75)[0] / math.sqrt(2.0 * x)


def vq_lower_kratzel(q: float, x: float) -> float:
    """Lower envelope Z_1^{q+1/2}(x^2/2) / Gamma(q+1) for V_q, q > -1,
    where Z_1^nu is the Kraetzel function.  Z_1^nu(s^2) = 2 s^nu K_nu(2s)
    is taken at s = x/sqrt(2) in double-double, not at a rounded x^2/2."""
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    root, root_lo = _two_prod(x, _INV_SQRT2)
    value = _kratzel_bessel(qv + 0.5, root, root_lo + x * _INV_SQRT2_LO)
    if value is not None:
        return value * math.exp(-ln_gamma(qv + 1.0))
    # beyond the double range of the Bessel form; t = x^2/2 may overflow too
    log_t = 2.0 * math.log(x) - math.log(2.0)
    log_value = _kratzel_quadrature(1.0, qv + 0.5, log_t) - ln_gamma(qv + 1.0)
    return _exp_in_range(log_value, f"the Kraetzel envelope at q={qv}, x={x}")


@dataclass(frozen=True)
class VqEnvelope:
    """V_q at one abscissa together with its closed-form envelopes; the
    upper envelope is None for q <= -3/4 where it does not apply."""

    x: float
    lower_exp: float
    lower_kratzel: float
    value: float
    upper_agm: Optional[float]


def vq_envelope(q: float, x: float) -> VqEnvelope:
    """Evaluate V_q(x) and its envelopes at x > 0."""
    qv = _order_value(q)
    x = _check_x(x, positive=True)
    result: EvalResult = vq(qv, x)
    upper = vq_upper_agm(qv, x) if qv > -0.75 else None
    return VqEnvelope(
        x=x,
        lower_exp=vq_lower_exp(qv, x),
        lower_kratzel=vq_lower_kratzel(qv, x),
        value=result.value,
        upper_agm=upper,
    )
