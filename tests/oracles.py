"""Independent reference evaluations used by the test-suite.

Every function here goes through a route the library itself never takes:
adaptive quadrature (``scipy.integrate.quad``) applied directly to defining
integrals, scipy's own confluent-hypergeometric implementations, or a
Bessel-K closed form.  Agreement between these references and the library's
fixed-rule engines is therefore a genuine two-route check, not a tautology.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import scipy.integrate as si
import scipy.special as sc

_QUAD_KW = dict(epsabs=1e-14, epsrel=1e-12, limit=200)


def rel_diff(a: float, b: float) -> float:
    """Relative difference scaled by the larger magnitude (0 for 0 vs 0)."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def vq_defining_reference(q: float, x: float) -> float:
    """V_q(x) straight from its defining integral,

        (2 e^{x^2} / Gamma(q+1)) * integral_x^inf e^{-t^2} (t^2-x^2)^q dt,

    with the exponential prefactor folded into the integrand so nothing
    overflows, and the (t-x)^q endpoint singularity handled by quad's
    algebraic-weight rule on [x, x+1].
    """
    if x <= 0.0:
        raise ValueError("reference requires x > 0")

    def near(t: float) -> float:  # (t-x)^q supplied by the weight rule
        return math.exp(-(t - x) * (t + x)) * (t + x) ** q

    def far(t: float) -> float:
        return math.exp(-(t - x) * (t + x)) * (t * t - x * x) ** q

    part1, _ = si.quad(near, x, x + 1.0, weight="alg", wvar=(q, 0.0), **_QUAD_KW)
    part2, _ = si.quad(far, x + 1.0, np.inf, **_QUAD_KW)
    return 2.0 * (part1 + part2) * math.exp(-sc.gammaln(q + 1.0))


def vq_laplace_reference(q: float, x: float) -> float:
    """V_q(x) from the equivalent Laplace-type form

        (1 / Gamma(q+1)) * integral_0^inf e^{-t} t^q (x^2+t)^{-1/2} dt,

    split at t = 1 with the t^q endpoint weight handled algebraically.
    """
    if x <= 0.0:
        raise ValueError("reference requires x > 0")

    def near(t: float) -> float:  # t^q supplied by the weight rule
        return math.exp(-t) / math.sqrt(x * x + t)

    def far(t: float) -> float:
        return math.exp(-t) * t ** q / math.sqrt(x * x + t)

    part1, _ = si.quad(near, 0.0, 1.0, weight="alg", wvar=(q, 0.0), **_QUAD_KW)
    part2, _ = si.quad(far, 1.0, np.inf, **_QUAD_KW)
    return (part1 + part2) * math.exp(-sc.gammaln(q + 1.0))


def vq_prime_reference(q: float, x: float) -> float:
    """V_q'(x) from the differentiated Laplace-type form

        -(x / Gamma(q+1)) * integral_0^inf e^{-t} t^q (x^2+t)^{-3/2} dt.
    """
    if x <= 0.0:
        raise ValueError("reference requires x > 0")

    def near(t: float) -> float:
        return math.exp(-t) * (x * x + t) ** -1.5

    def far(t: float) -> float:
        return math.exp(-t) * t ** q * (x * x + t) ** -1.5

    part1, _ = si.quad(near, 0.0, 1.0, weight="alg", wvar=(q, 0.0), **_QUAD_KW)
    part2, _ = si.quad(far, 1.0, np.inf, **_QUAD_KW)
    return -x * (part1 + part2) * math.exp(-sc.gammaln(q + 1.0))


def laplace_mpmath(q: float, x: float, prime: bool = False, dps: int = 30) -> float:
    """V_q(x), or -V_q'(x) when ``prime``, with mpmath at ``dps`` digits.

    Up to q = 12 these are U(1/2, 1/2-q, x^2) and x U(3/2, 3/2-q, x^2).
    Above, where ``hyperu`` can be wrong, the defining integral

        (x^k / Gamma(q+1)) * integral_0^inf e^{-t} t^q (x^2+t)^{-1/2-k} dt

    (k = 0, or 1 for -V_q') is summed by ``mp.quad`` with break points
    around its peak at t = q.  Its exponent cancels to O(1) from about
    q log q, so an order of 10^k needs about k more digits.  ``mp.quad``
    stops at an absolute error of about 10^-dps, so the integrand is divided
    by its size at the peak, x^k (x^2+q)^{-1/2-k}, and the sum multiplied by
    it: undivided, V_q(1.5e139) at q = 502 came out 1e-4 wrong at 42 digits.
    """
    with mp.workdps(dps):
        q, x = mp.mpf(q), mp.mpf(x)
        if q <= 12:
            if prime:
                return float(x * mp.hyperu(1.5, 1.5 - q, x * x))
            return float(mp.hyperu(0.5, 0.5 - q, x * x))
        power = -1.5 if prime else -0.5
        w = 8 * mp.sqrt(q + 1)
        breaks = [0] + [t for t in (q - w, q, q + w) if t > 0] + [mp.inf]
        shift = mp.loggamma(q + 1)
        size = (x if prime else 1) * (x * x + q) ** power
        return float(size * mp.quad(
            lambda t: mp.exp(q * mp.log(t) - t - shift) * ((x * x + t) / (x * x + q)) ** power,
            breaks))


def psi_integral_reference(a: float, c: float, x: float) -> float:
    """Tricomi psi(a, c, x) for a > 0 from its Laplace integral

        (1 / Gamma(a)) * integral_0^inf e^{-x t} t^{a-1} (1+t)^{c-a-1} dt,

    split at t = 1 with the t^{a-1} endpoint weight handled algebraically.
    """
    if a <= 0.0 or x <= 0.0:
        raise ValueError("reference requires a > 0 and x > 0")

    def near(t: float) -> float:  # t^{a-1} supplied by the weight rule
        return math.exp(-x * t) * (1.0 + t) ** (c - a - 1.0)

    def far(t: float) -> float:
        return math.exp(-x * t) * t ** (a - 1.0) * (1.0 + t) ** (c - a - 1.0)

    part1, _ = si.quad(near, 0.0, 1.0, weight="alg", wvar=(a - 1.0, 0.0), **_QUAD_KW)
    part2, _ = si.quad(far, 1.0, np.inf, **_QUAD_KW)
    return (part1 + part2) * math.exp(-sc.gammaln(a))


def psi_scipy_reference(a: float, c: float, x: float) -> float:
    """Tricomi psi via scipy's independent implementation."""
    return float(sc.hyperu(a, c, x))


def phi_scipy_reference(a: float, c: float, x: float) -> float:
    """Kummer Phi via scipy's independent implementation."""
    return float(sc.hyp1f1(a, c, x))


def mills_reference(x: float) -> float:
    """Mills ratio from its defining tail integral,

        e^{x^2/2} * integral_x^inf e^{-t^2/2} dt,

    with the prefactor folded into the integrand.
    """
    value, _ = si.quad(lambda t: math.exp(-(t * t - x * x) / 2.0), x, np.inf,
                       **_QUAD_KW)
    return value


def kratzel_bessel_reference(nu: float, t: float) -> float:
    """The rho = 1 Kraetzel integral in closed form,

        integral_0^inf u^{nu-1} e^{-u - t/u} du = 2 t^{nu/2} K_nu(2 sqrt(t)),

    via scipy's modified Bessel function of the second kind.
    """
    if t <= 0.0:
        raise ValueError("reference requires t > 0")
    return float(2.0 * t ** (nu / 2.0) * sc.kv(nu, 2.0 * math.sqrt(t)))


def kratzel_quad_reference(rho: float, nu: float, t: float) -> float:
    """The Kraetzel integral integral_0^inf u^{nu-1} e^{-u^rho - t/u} du by
    direct adaptive quadrature, split at u = 1."""
    if rho <= 0.0 or t < 0.0:
        raise ValueError("reference requires rho > 0 and t >= 0")

    def f(u: float) -> float:
        arg = (nu - 1.0) * math.log(u) - u ** rho - (t / u if t else 0.0)
        return math.exp(arg) if arg > -700.0 else 0.0

    part1, _ = si.quad(f, 0.0, 1.0, **_QUAD_KW)
    part2, _ = si.quad(f, 1.0, np.inf, **_QUAD_KW)
    return part1 + part2


def kratzel_mpmath(rho: float, nu: float, t: float) -> float:
    """The Kraetzel integral, t > 0, with mpmath at 30 digits, in v = log u:
    integral e^F(v) dv with F(v) = nu v - e^(rho v) - t e^-v.  The peak of F
    is found by bisection on F', and ``mp.quad`` sums between the points
    where F has fallen 120 below it, over 64 equal pieces and split at the
    peak: at large rho the sharp right edge of e^(-u^rho) defeats tanh-sinh
    over one wide piece."""
    with mp.workdps(30):
        rho, nu, t = mp.mpf(rho), mp.mpf(nu), mp.mpf(t)

        def big_f(v):
            return nu * v - mp.exp(rho * v) - t * mp.exp(-v)

        def slope(v):
            return nu - rho * mp.exp(rho * v) + t * mp.exp(-v)

        lo, hi = mp.mpf(-1), mp.mpf(1)
        while slope(lo) <= 0 or slope(hi) >= 0:
            lo, hi = 2 * lo, 2 * hi
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        top = big_f(lo)
        width = 1 / mp.sqrt(rho * rho * mp.exp(rho * lo) + t * mp.exp(-lo))
        ends = []
        for sign in (-1, 1):
            d = width
            while big_f(lo + sign * d) - top > -120:
                d *= 2
            ends.append(lo + sign * d)
        pieces = sorted([ends[0] + (ends[1] - ends[0]) * k / 64 for k in range(65)] + [lo])
        value = mp.quad(lambda v: mp.exp(big_f(v) - top), pieces)
        return float(mp.exp(top) * value)
