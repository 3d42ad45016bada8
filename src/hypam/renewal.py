"""Renewal-type moment upper bounds: kernel profiles, their Laplace transforms,
and the growth-rate inversion.

The chaos expansion of the moment bounds everything through one scalar kernel
of time: a regime-dependent singularity below t = 1/2K and the algebraic tail
(1 + K t)^(-3/2) beyond it.  Its Laplace-type transform in the decay rate
``rho`` is one of three profiles F_1, F_2, F_3 picked by the noise regularity:

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
from .specialfn import EULER_GAMMA, _float_or_array, gamma_lower

__all__ = [
    "Regime",
    "regime_of",
    "BoundConfig",
    "short_time_term",
    "tail_term",
    "f_profile",
    "theta",
    "upper_exponent",
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


def _rho_values(rho) -> np.ndarray:
    """rho as a float array (0-d for a scalar), checked to be nonnegative."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("rho must be nonnegative")
    return r


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


_LADDER = np.ldexp(1.0, np.arange(-1022, 200))  # 2^-1022, ..., 2^199: the bracket's rungs
_ONE = 1022  # the index of the rung 1
_THETA_RTOL = 1e-8  # bisection stops once a bracket is this narrow relative to its top


def theta(beta, cfg: BoundConfig):
    """Moment growth rate: the unique rho with F_i(rho) = 1/(C_chaos beta^2),
    or 0 when no crossing exists (small beta, and beta = 0, whose level is +inf).

    F_i is continuous and strictly decreasing with limit 0, so the root is
    bracketed by consecutive powers of two, read off one F_i call on rho = 0
    and the two-sided ladder 2^-1022, ..., 2^199.  A root above 1 lies between
    the first rung where F_i drops below the level and the rung before it; a
    root below 1 between the first rung, going down from 1/2, where F_i is
    above the level and twice that rung, which is where bisection from [0, 1]
    would have halved down to.  Bisection then pins it to relative tolerance,
    two halvings per F_i call: the midpoint and both quarter points are
    evaluated together, and the second halving takes whichever quarter point
    is the new midpoint, so the bits are those of plain bisection.  A root
    outside the ladder raises RuntimeError.
    Accepts a scalar or an array of beta (a scalar gives a float): every
    target bisects in the same F_i calls, and leaves them once its own
    bracket has closed."""
    b = np.asarray(beta, dtype=float)
    if not np.all(b >= 0.0):
        raise ValueError("beta must be nonnegative")
    i = cfg.regime
    with np.errstate(divide="ignore", over="ignore"):
        target = 1.0 / (cfg.C_chaos * b * b)
        f = f_profile(i, np.concatenate(([0.0], _LADDER)), cfg)
    crossing = np.flatnonzero(target < f[0])
    target, coupling = target.ravel()[crossing], b.ravel()[crossing]
    below = f[1 + _ONE :] < target[:, None]  # the rungs 1, 2, ..., 2^199
    if not below[:, -1].all():
        raise RuntimeError(
            f"growth rate above {_LADDER[-1]:.1e} at beta = {coupling[~below[:, -1]].min():.3g}"
        )
    rung = below.argmax(axis=1)  # the first rung at or above 1 below each target
    hi = _LADDER[_ONE + rung]
    lo = 0.5 * hi
    small = np.flatnonzero(rung == 0)  # roots below 1
    above = f[_ONE:0:-1] > target[small, None]  # the rungs 1/2, 1/4, ..., 2^-1022
    if not above.any(axis=1).all():
        low = coupling[small][~above.any(axis=1)].max()
        raise RuntimeError(f"growth rate below {_LADDER[0]:.1e} at beta = {low:.3g}")
    lo[small] = _LADDER[_ONE - 1 - above.argmax(axis=1)]
    hi[small] = 2.0 * lo[small]
    todo = np.arange(crossing.size)  # targets still in the loop
    for _ in range(200):
        todo = todo[~(hi[todo] - lo[todo] <= _THETA_RTOL * hi[todo])]
        if todo.size == 0:
            break
        l, h, t = lo[todo], hi[todo], target[todo]
        mid = 0.5 * (l + h)
        f_mid, f_low, f_high = np.split(
            f_profile(i, np.concatenate((mid, 0.5 * (l + mid), 0.5 * (mid + h))), cfg), 3
        )
        above = f_mid > t
        l, h = np.where(above, mid, l), np.where(above, h, mid)
        # the second halving, on the brackets the first one left open: its
        # midpoint is the quarter point on the side the first one kept
        still_open = ~(h - l <= _THETA_RTOL * h)
        mid = 0.5 * (l + h)
        above = np.where(above, f_high, f_low) > t
        l, h = np.where(still_open & above, mid, l), np.where(still_open & ~above, mid, h)
        lo[todo], hi[todo] = l, h
    out = np.zeros(b.shape)
    out.flat[crossing] = 0.5 * (lo + hi)
    return _float_or_array(out)


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
    return _float_or_array(_exponent_from_theta(p, theta(np.sqrt(p - 1.0) * beta, cfg), cfg))


def _exponent_from_theta(p, th, cfg: BoundConfig):
    """The upper exponent (p/2) (th - 2b) from th = theta(sqrt(p-1) beta)."""
    return 0.5 * p * (th - 2.0 * cfg.b)
