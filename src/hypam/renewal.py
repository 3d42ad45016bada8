"""Renewal-type moment upper bounds: kernel profiles, their Laplace transforms,
and the growth-rate inversion.

The chaos expansion of the moment bounds everything through one scalar kernel
of time, ``psi_upper``, whose Laplace-type transform in the decay rate ``rho``
is one of three profiles F_1, F_2, F_3 picked by the noise regularity:

    i = 1  for (n-2)/4 < alpha < n/4   (integrable power singularity at 0),
    i = 2  for alpha = n/4             (squared-logarithmic singularity),
    i = 3  for alpha > n/4             (bounded near 0).

Each profile is continuous, strictly decreasing and vanishes at infinity, so
the growth rate ``theta`` is read off by inverting F_i at the level 1/(C beta^2).
Everything combines into the p-th moment upper exponent
(p/2) * (theta(sqrt(p-1) beta) - (n-1)^2 K / max(2, r)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .kernels import NoiseSpec, dalang_check
from .specialfn import EULER_GAMMA, gamma_lower

__all__ = [
    "Regime",
    "regime_of",
    "BoundConfig",
    "psi_upper",
    "short_time_term",
    "tail_term",
    "f_profile",
    "theta",
    "theta_slope_report",
    "upper_exponent",
    "semigroup_decay_bound",
]

class Regime(enum.IntEnum):
    """Short-time behavior class of the moment kernel, indexed by alpha vs n/4."""

    POWER = 1
    LOG = 2
    FLAT = 3


def regime_of(alpha: float, n: int) -> Regime:
    """Regime index: POWER below n/4, LOG exactly at n/4, FLAT above."""
    if not dalang_check(alpha, n):
        raise ValueError(
            f"alpha = {alpha} is at or below the integrability threshold {(n - 2) / 4}"
        )
    quarter = n / 4.0
    if alpha < quarter:
        return Regime.POWER
    if alpha == quarter:
        return Regime.LOG
    return Regime.FLAT


@dataclass(frozen=True)
class BoundConfig:
    """Parameters of the moment upper bound: noise spec, initial-data exponent r,
    and the chaos constant."""

    spec: NoiseSpec
    r: float = math.inf
    C_chaos: float = 1.0

    def __post_init__(self) -> None:
        if not self.spec.dalang_ok:
            raise ValueError("noise spec violates the integrability condition")
        if math.isnan(self.r) or self.r < 1.0:
            raise ValueError("integrability exponent r must be in [1, +inf]")
        if not (math.isfinite(self.C_chaos) and self.C_chaos > 0.0):
            raise ValueError("C_chaos must be positive")

    @property
    def b(self) -> float:
        """Decay rate fed to the renewal kernel; 0 for r = +inf."""
        if math.isinf(self.r):
            return 0.0
        n, K = self.spec.n, self.spec.K
        return (n - 1) ** 2 * K / (2.0 * max(2.0, self.r))

    @property
    def regime(self) -> Regime:
        return regime_of(self.spec.alpha, self.spec.n)


def psi_upper(t: float, cfg: BoundConfig) -> float:
    """Piecewise bound on the moment kernel at time t.

    Short times carry the regime-dependent singularity s(t); long times the
    algebraic tail (1 + K t)^(-3/2).  Both closed indicators contribute at the
    crossover t = 1/2K, which only enlarges the bound.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    a, n, K = cfg.spec.alpha, cfg.spec.n, cfg.spec.K
    cross = 1.0 / (2.0 * K)
    total = 0.0
    if t <= cross:
        i = cfg.regime
        if i == Regime.POWER:
            total += t ** (2.0 * a - n / 2.0)
        elif i == Regime.LOG:
            total += math.log(t) ** 2
        else:
            total += 1.0
    if t >= cross:
        total += (1.0 + K * t) ** -1.5
    return cfg.C_chaos**2 * total


def _rho_values(rho) -> np.ndarray:
    """rho as a float array (0-d for a scalar), checked to be nonnegative."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("rho must be nonnegative")
    return r


def _float_or_array(out):
    """A 0-d result as a Python float, any other as the array itself."""
    return float(out) if np.ndim(out) == 0 else out


def short_time_term(i: Regime, rho, cfg: BoundConfig):
    """The short-time piece I_1/I_2/I_3 of the profile F_i at decay rate rho.

    I_1 and I_3 are honest integrals over [0, 1/2K]; I_2 is the closed-form
    full-line majorant ((ln rho + gamma)^2 + pi^2/6)/rho, which dominates the
    finite-range integral and blows up as rho -> 0 (so F_2(0) = +inf).
    Accepts a scalar or an array of rho, rho = 0 taken per element; a scalar
    gives a float.
    """
    r = _rho_values(rho)
    a, n, K = cfg.spec.alpha, cfg.spec.n, cfg.spec.K
    cross = 1.0 / (2.0 * K)
    zero = r == 0.0
    r1 = np.where(zero, 1.0, r)  # stands in for rho = 0, whose value is the limit below
    if i == Regime.POWER:
        s = 2.0 * a - n / 2.0 + 1.0
        out = np.where(zero, cross**s / s, r1**-s * gamma_lower(s, r1 * cross))
    elif i == Regime.LOG:
        out = np.where(zero, math.inf, ((np.log(r1) + EULER_GAMMA) ** 2 + math.pi**2 / 6.0) / r1)
    elif i == Regime.FLAT:
        out = np.where(zero, cross, -np.expm1(-r1 * cross) / r1)
    else:
        raise ValueError(f"unknown regime {i!r}")
    return _float_or_array(out)


def tail_term(rho, K: float):
    """The long-time piece I_4: integral of (1+Ks)^(-3/2) e^(-rho s) over [1/2K, inf).

    Substituting u = 1 + Ks reduces it to an upper incomplete gamma of order
    -1/2, which closes as (2/K) e^(-z/2) (1/sqrt(1.5) - sqrt(pi z) erfcx(sqrt(1.5 z)))
    with z = rho/K.  Accepts a scalar or an array of rho.
    """
    r = _rho_values(rho)
    if not (K > 0.0):
        raise ValueError("K must be positive")
    z = r / K
    inner = 1.0 / math.sqrt(1.5) - np.sqrt(math.pi * z) * erfcx(np.sqrt(1.5 * z))
    return _float_or_array(2.0 / K * np.exp(-0.5 * z) * inner)


def f_profile(i: Regime, rho, cfg: BoundConfig):
    """Profile F_i(rho) = short-time term + tail term; +inf only at (i=2, rho=0).
    Accepts a scalar or an array of rho; a scalar gives a float."""
    if i != cfg.regime:
        raise ValueError(
            f"regime mismatch: requested {Regime(i).name}, "
            f"but alpha = {cfg.spec.alpha} is {cfg.regime.name}"
        )
    return short_time_term(i, rho, cfg) + tail_term(rho, cfg.spec.K)


def theta(beta, cfg: BoundConfig, tol: float = 1e-8):
    """Moment growth rate: the unique rho with F_i(rho) = 1/(C_chaos beta^2),
    or 0 when no crossing exists (small beta, and beta = 0, whose level is +inf).

    F_i is continuous and strictly decreasing with limit 0, so the root is
    bracketed by doubling and pinned by bisection to relative tolerance.
    Accepts a scalar or an array of beta (a scalar gives a float): every
    target doubles and bisects in the same F_i calls, and leaves them once
    its own bracket has closed."""
    b = np.asarray(beta, dtype=float)
    if not np.all(b >= 0.0):
        raise ValueError("beta must be nonnegative")
    i = cfg.regime
    with np.errstate(divide="ignore", over="ignore"):
        target = 1.0 / (cfg.C_chaos * b * b)
    f0 = f_profile(i, 0.0, cfg)
    crossing = np.flatnonzero(target < f0)
    target = target.ravel()[crossing]
    lo, hi = np.zeros(crossing.size), np.ones(crossing.size)
    todo = np.arange(crossing.size)  # targets still in the loop
    for _ in range(200):
        if todo.size == 0:
            break
        todo = todo[~(f_profile(i, hi[todo], cfg) < target[todo])]
        lo[todo] = hi[todo]
        hi[todo] *= 2.0
    if todo.size:
        raise RuntimeError("failed to bracket the growth rate")
    todo = np.arange(crossing.size)
    for _ in range(400):
        todo = todo[~(hi[todo] - lo[todo] <= tol * hi[todo])]
        if todo.size == 0:
            break
        mid = 0.5 * (lo[todo] + hi[todo])
        above = f_profile(i, mid, cfg) > target[todo]
        lo[todo[above]] = mid[above]
        hi[todo[~above]] = mid[~above]
    out = np.zeros(b.shape)
    out.flat[crossing] = 0.5 * (lo + hi)
    return _float_or_array(out)


def theta_slope_report(
    cfg: BoundConfig,
    beta_lo: float = 1e2,
    beta_hi: float = 1e4,
    n_pts: int = 9,
) -> dict:
    """Fit the large-beta power of theta and report it next to the candidate
    exponents (per beta^2) implied by the tail of F_i.

    For i = 1 two inequivalent candidates circulate (the stated one and the one
    obtained by inverting the tail directly); both are reported, neither is
    asserted.  For i = 3 the candidate is 1; for i = 2 the growth carries
    logarithmic corrections and no clean power is listed.
    """
    a, n = cfg.spec.alpha, cfg.spec.n
    betas = np.geomspace(beta_lo, beta_hi, n_pts)
    thetas = theta(betas, cfg)
    if np.any(thetas <= 0.0):
        raise ValueError("slope fit needs beta large enough that theta > 0 throughout")
    slope = float(np.polyfit(np.log(betas**2), np.log(thetas), 1)[0])
    i = cfg.regime
    if i == Regime.POWER:
        candidates = {
            "stated": 1.0 - 2.0 * a + n / 2.0,
            "inverted_tail": 1.0 / (2.0 * a - n / 2.0 + 1.0),
        }
    elif i == Regime.FLAT:
        candidates = {"linear": 1.0}
    else:
        candidates = {}
    return {"regime": int(i), "fitted": slope, "candidates": candidates}


def _moment_orders(p) -> np.ndarray:
    """p as an integer array (0-d for a scalar), every entry checked to be >= 2."""
    orders = np.asarray(p)
    if not (orders.dtype.kind in "iu" and np.all(orders >= 2)):
        raise ValueError("moment order p must be an integer >= 2")
    return orders


def upper_exponent(p, beta, cfg: BoundConfig):
    """p-th moment upper Lyapunov exponent:
    (p/2) (theta(sqrt(p-1) beta) - (n-1)^2 K / max(2, r)).

    p and beta broadcast against each other, and one theta call covers them
    all; scalars give a float."""
    p = _moment_orders(p)
    th = theta(np.sqrt(p - 1.0) * beta, cfg)
    return _float_or_array(0.5 * p * (th - 2.0 * cfg.b))


def semigroup_decay_bound(
    t: float,
    r: float,
    sup_norm: float,
    cfg: BoundConfig,
    C: float = 1.0,
) -> float:
    """Upper bound on the heat semigroup applied to data with finite sup norm
    and finite L^r norm.

    r = +inf gives the plain maximum principle; finite r buys exponential decay
    at rate (n-1)^2 K/(2r) for r >= 2, saturating at (n-1)^2 K/4 for r in [1,2].
    The bound is stated through the sup norm, with the constant C absorbing
    the L^r dependence.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if math.isnan(r) or r < 1.0:
        raise ValueError("integrability exponent r must be in [1, +inf]")
    if math.isinf(r):
        return sup_norm
    n, K = cfg.spec.n, cfg.spec.K
    rate = (n - 1) ** 2 * K / (2.0 * r) if r >= 2.0 else (n - 1) ** 2 * K / 4.0
    return C * math.exp(-rate * t) * sup_norm
