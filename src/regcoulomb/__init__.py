"""regcoulomb: the regularized one-dimensional Coulomb potential V_q, the
Mills ratio, their confluent hypergeometric underpinnings, closed-form
bounds, and a grid verifier for every monotonicity, convexity, Turan-type,
and bound property of the family.

Quick start::

    from regcoulomb import vq, vq_many, mills, vq_envelope, run_suite, VerifyConfig

    vq(0.5, 1.0).value          # V_q(x) with error estimate and route tag
    vq_many(0.5, [0.5, 1, 2])   # V_q at many x (or (q, x) points) at once
    mills(2.0)                  # Mills ratio of the standard normal
    vq_envelope(0, 1.0)         # closed-form envelopes around V_0(1)
    run_suite(VerifyConfig())   # verify every property on the default grid
"""
from .bounds import (
    MILLS_F3_THRESHOLD,
    MillsBoundRow,
    VqEnvelope,
    mills_bounds,
    mills_f1,
    mills_f2,
    mills_f3,
    mills_f3_raw,
    mills_f4,
    mills_f5,
    vq_envelope,
    vq_lower_exp,
    vq_lower_kratzel,
    vq_upper_agm,
)
from .errors import (
    DivergenceError,
    DomainError,
    NumericalError,
    UsageError,
)
from .potential import (
    METHODS,
    EvalResult,
    mills,
    vq,
    vq_neg1,
    vq_next,
    vq_prime,
    vq_quadrature,
    vq_many,
    vq_prime_many,
    vq_via_psi,
    vq_zero,
)
from .special import (
    PsiEval,
    erfc,
    erfc_scaled,
    kratzel_z,
    kummer_phi,
    ln_gamma,
    psi_eval,
    tricomi_psi,
)
from .verify import (
    DEFAULT_REL_TOL,
    SUITES,
    ConvexitySpec,
    Grid,
    ObservationRecord,
    VerificationReport,
    VerifyConfig,
    ViolationRecord,
    default_convexity_specs,
    default_grid,
    run_suite,
    strictly_less,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # potential
    "vq", "vq_many", "vq_quadrature", "vq_via_psi", "vq_zero", "vq_neg1",
    "vq_prime", "vq_prime_many", "vq_next", "mills", "EvalResult", "METHODS",
    # special functions
    "ln_gamma", "erfc", "erfc_scaled", "kummer_phi", "tricomi_psi",
    "psi_eval", "kratzel_z", "PsiEval",
    # bounds
    "mills_f1", "mills_f2", "mills_f3", "mills_f3_raw", "mills_f4",
    "mills_f5", "mills_bounds", "MillsBoundRow", "MILLS_F3_THRESHOLD",
    "vq_lower_exp", "vq_upper_agm", "vq_lower_kratzel", "vq_envelope",
    "VqEnvelope",
    # verifier
    "Grid", "ConvexitySpec", "ViolationRecord", "ObservationRecord",
    "VerificationReport", "VerifyConfig", "SUITES", "DEFAULT_REL_TOL",
    "default_grid", "default_convexity_specs", "strictly_less", "run_suite",
    # errors
    "DomainError", "DivergenceError", "NumericalError", "UsageError",
]
