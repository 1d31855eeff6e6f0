"""mpmath references for every output the benchmark checks.

    V_q(x)            = U(1/2, 1/2 - q, x^2)       (V_q(0) and V_{-1} closed)
                      = int_0^inf e^-t t^q (x^2 + t)^(-1/2) dt / Gamma(q+1)
    V_q'(x)           = -x U(3/2, 3/2 - q, x^2)
    psi(a, c, x)      = U(a, c, x)
    Z_1^nu(t)         = 2 t^(nu/2) K_nu(2 sqrt t)
    m(x)              = sqrt(pi/2) e^(x^2/2) erfc(x / sqrt 2)

U is mpmath's ``hyperu``.  References are computed outside every timed
region and outside set-up.
"""
from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

# a returned value farther than this from its reference is a failure
REL_TOL = 1e-10
# above this order hyperu can take seconds (its series needs ever more
# precision), so the integral is summed directly around its peak at t = q
_HYPERU_Q_MAX = 12.0


def vq(q: float, x: float) -> float:
    q, x = mp.mpf(q), mp.mpf(x)
    if q == -1:
        return float(1 / x)
    if x == 0:
        return float(mp.gamma(q + 0.5) / mp.gamma(q + 1))
    if q > _HYPERU_Q_MAX:
        w = 8 * mp.sqrt(q + 1)
        breaks = [0] + [t for t in (q - w, q, q + w) if t > 0] + [mp.inf]
        shift = mp.loggamma(q + 1)
        return float(mp.quad(
            lambda t: mp.exp(q * mp.log(t) - t - shift) / mp.sqrt(x * x + t), breaks))
    return float(mp.hyperu(0.5, 0.5 - q, x * x))


def vq_prime(q: float, x: float) -> float:
    q, x = mp.mpf(q), mp.mpf(x)
    return float(-x * mp.hyperu(1.5, 1.5 - q, x * x))


def psi(a: float, c: float, x: float) -> float:
    return float(mp.hyperu(mp.mpf(a), mp.mpf(c), mp.mpf(x)))


def kratzel1(nu: float, t: float) -> mp.mpf:
    nu, t = mp.mpf(nu), mp.mpf(t)
    return 2 * t ** (nu / 2) * mp.besselk(nu, 2 * mp.sqrt(t))


def envelope(q: float, x: float) -> tuple:
    """(lower_exp, lower_kratzel, value, upper_agm) as ``vq_envelope``
    returns them; upper_agm is None for q <= -3/4."""
    qm, xm = mp.mpf(q), mp.mpf(x)
    lower_exp = 2 ** (qm + 1) * xm ** (2 * qm + 1) / (1 + 2 * xm * xm) ** (qm + 1)
    lower_kratzel = kratzel1(qm + 0.5, xm * xm / 2) / mp.gamma(qm + 1)
    upper = None
    if q > -0.75:
        upper = float(mp.gamma(qm + 0.75) / (mp.sqrt(2 * xm) * mp.gamma(qm + 1)))
    return float(lower_exp), float(lower_kratzel), vq(q, x), upper


def mills(x: float) -> float:
    xm = mp.mpf(x)
    return float(mp.sqrt(mp.pi / 2) * mp.exp(xm * xm / 2) * mp.erfc(xm / mp.sqrt(2)))


def mills_bounds(x: float) -> tuple:
    """(f1, f2, f3, f4, f5, m) as ``mills_bounds`` returns them; f3 is None
    at or below its applicability threshold."""
    xm = mp.mpf(x)
    x2 = xm * xm
    f3 = None
    if x > math.sqrt(math.sqrt(2.0) - 1.0):
        f3 = float(xm * (x2 + 1) / (x2 * x2 + 2 * x2 - 1))
    return (
        float(xm / (x2 + 1)),
        float(1 / xm),
        f3,
        float(2 * xm / (x2 - 1 + mp.sqrt(x2 * x2 + 6 * x2 + 1))),
        float(6 * xm / (5 * x2 - 3 + mp.sqrt(x2 * x2 + 18 * x2 + 9))),
        mills(x),
    )


def reference(kind: str, args: list) -> tuple:
    """Reference output fields of one benchmark operation."""
    if kind in ("vq", "vq_via_psi"):
        return (vq(*args),)
    if kind == "vq_prime":
        return (vq_prime(*args),)
    if kind == "psi_eval":
        return (psi(*args),)
    if kind == "kratzel_z":
        rho, nu, t = args
        return (float(kratzel1(nu, t)),)
    if kind == "vq_envelope":
        return envelope(*args)
    if kind == "mills_bounds":
        return mills_bounds(*args)
    raise ValueError(f"no reference for {kind!r}")


def rel_err(got, want) -> float:
    """Largest relative error over matching fields; inf when a field is
    missing on one side only or not finite."""
    worst = 0.0
    for g, w in zip(got, want):
        if g is None or w is None:
            if g is not w:
                return math.inf
            continue
        if not math.isfinite(g):
            return math.inf
        worst = max(worst, abs(g - w) / abs(w) if w != 0.0 else abs(g))
    return worst
