"""Toolkit for the multiplicative-noise heat equation on constant-curvature
hyperbolic spaces.

The package splits into five layers: special functions and shared quadrature
(:mod:`hypam.specialfn`), hyperboloid geometry with Brownian paths and heat
kernels (:mod:`hypam.hyperbolic`), fractional kernels and the noise covariance
(:mod:`hypam.kernels`), renewal-type moment upper bounds (:mod:`hypam.renewal`),
and Feynman-Kac Monte Carlo moments with the lower-bound machinery
(:mod:`hypam.fkmc`).  :mod:`hypam.cli` exposes everything as reproducible
experiments.
"""

from .fkmc import (
    BLOCK_SIZE,
    FkConfig,
    MomentEstimate,
    QSupResult,
    RatioPoint,
    SlopeReport,
    asymptotic_slope_check,
    beta_critical,
    dirichlet_eigenvalue_upper,
    intermittency_ratio,
    lower_lyapunov,
    moment_and_chaos,
    moment_estimate,
    moment_series,
    p_critical,
    q_sup,
)
from .hyperbolic import (
    BracketMode,
    BrownianPath,
    HeatKernelMode,
    KernelBracket,
    ModelPoint,
    RadialProfile,
    brownian_path,
    brownian_step,
    distance_coords,
    minkowski_inner,
    sheet_violation,
)
from .rng import (
    stream_generator,
    stream_seed,
)
from .kernels import (
    KernelGrid,
    NoiseSpec,
    calibrate_lower_constant,
    dalang_check,
    first_chaos_mean,
    g_alpha,
    g_alpha_log_values,
    g_alpha_lower,
    g_alpha_lower_log,
)
from .ledger import ConstantLedger, LedgerEntry
from .renewal import (
    BoundConfig,
    Regime,
    f_profile,
    regime_of,
    theta,
    upper_exponent,
)
from .specialfn import (
    QuadratureError,
    QuadratureSpec,
    dm_h_log,
    gamma_lower,
    integrate,
    log_gamma_upper,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BLOCK_SIZE",
    "BoundConfig",
    "BracketMode",
    "BrownianPath",
    "ConstantLedger",
    "FkConfig",
    "HeatKernelMode",
    "KernelBracket",
    "KernelGrid",
    "LedgerEntry",
    "ModelPoint",
    "MomentEstimate",
    "NoiseSpec",
    "QSupResult",
    "QuadratureError",
    "QuadratureSpec",
    "RadialProfile",
    "RatioPoint",
    "Regime",
    "SlopeReport",
    "asymptotic_slope_check",
    "beta_critical",
    "brownian_path",
    "brownian_step",
    "calibrate_lower_constant",
    "dalang_check",
    "dirichlet_eigenvalue_upper",
    "distance_coords",
    "dm_h_log",
    "f_profile",
    "first_chaos_mean",
    "g_alpha",
    "g_alpha_log_values",
    "g_alpha_lower",
    "g_alpha_lower_log",
    "gamma_lower",
    "integrate",
    "intermittency_ratio",
    "log_gamma_upper",
    "lower_lyapunov",
    "minkowski_inner",
    "moment_and_chaos",
    "moment_estimate",
    "moment_series",
    "p_critical",
    "q_sup",
    "regime_of",
    "sheet_violation",
    "stream_generator",
    "stream_seed",
    "theta",
    "upper_exponent",
]
