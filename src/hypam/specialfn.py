"""Incomplete gamma integrals and the shared quadrature engine.

:func:`gamma_lower` wraps scipy.special; :func:`log_gamma_upper` is the log
of the upper tail (s = 0 is the exponential integral E_1), from
scipy.special where the value is representable and a continued fraction
where it underflows.  The adaptive :func:`integrate` serves the heat-kernel
mass check of ``validate``.  The kernel transforms of the comparison modes
(every n != 3) integrate :func:`dm_h_log` with a vectorized log-time
trapezoid rule in :mod:`hypam.kernels` instead, under the same 1e-10
relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015329

__all__ = [
    "EULER_GAMMA",
    "QuadratureSpec",
    "QuadratureError",
    "DEFAULT_QUAD",
    "integrate",
    "gamma_lower",
    "log_gamma_upper",
    "dm_h_log",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Error contract for the adaptive quadrature engine."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.relative_tolerance > 0.0) or not (self.absolute_tolerance > 0.0):
            raise ValueError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUAD = QuadratureSpec()

class QuadratureError(RuntimeError):
    """The engine could not meet the requested tolerances."""


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    quad: QuadratureSpec | None = None,
    split_points: Sequence[float] = (),
) -> float:
    """Adaptive quadrature of ``f`` over ``(a, b)``; endpoints may be infinite.

    ``split_points`` inside the interval force panel boundaries; use them at
    kinks, scale changes, or integrable endpoint behaviour so each panel is
    smooth for the adaptive rule.
    """
    # imported where used: scipy.integrate adds about 24 MB and 0.2 s to a
    # process, and only validate's mass check gets here
    from scipy import integrate as _scipy_integrate

    quad = quad or DEFAULT_QUAD
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError("integration bounds must satisfy a < b")
    interior = sorted(p for p in split_points if a < p < b)
    edges = [a, *interior, b]
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        out = _scipy_integrate.quad(
            f,
            lo,
            hi,
            epsabs=quad.absolute_tolerance,
            epsrel=quad.relative_tolerance,
            limit=quad.max_subdivisions,
            full_output=True,
        )
        if len(out) > 3:
            raise QuadratureError(
                f"quadrature failed on [{lo!r}, {hi!r}]: {out[3].strip()}"
            )
        total += out[0]
        err += out[1]
    budget = len(edges) * quad.absolute_tolerance + quad.relative_tolerance * abs(total)
    if err > 16.0 * budget + 1e-305:
        raise QuadratureError(
            f"accumulated error estimate {err:.3e} exceeds tolerance budget for value {total:.6e}"
        )
    return total


def _check_order(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError("order s must be finite")


def gamma_lower(s: float, x):
    """Integral of t**(s-1) e**(-t) over [0, x]; requires s > 0, x >= 0.

    Accepts a scalar or an array of x; a scalar gives a float."""
    _check_order(s)
    if not s > 0.0:
        raise ValueError("gamma_lower requires s > 0")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr) & (x_arr >= 0.0)):
        raise ValueError("gamma_lower requires finite x >= 0")
    out = _sp.gammainc(s, x_arr) * _sp.gamma(s)
    return float(out) if out.ndim == 0 else out


# Below this value the scipy tail is close enough to the subnormal range that
# its relative accuracy degrades; the continued fraction takes over there.
_TAIL_FLOOR = 1e-280


def log_gamma_upper(s: float, x):
    """log of the upper tail integral, stable where the value itself underflows.

    Accepts a scalar or an array of x.  Where the tail is representable it
    comes from scipy.special; beyond that the standard continued fraction is
    run in log form over the remaining points, so arguments up to x = 1e6
    stay finite.
    """
    _check_order(s)
    if not s >= 0.0:
        raise ValueError("log_gamma_upper requires s >= 0")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr) & (x_arr > 0.0)):
        raise ValueError("log_gamma_upper requires finite x > 0")
    xf = np.atleast_1d(x_arr)
    if s == 0.0:
        tail = _sp.exp1(xf)
    else:
        tail = _sp.gammaincc(s, xf) * _sp.gamma(s)
    far = tail < _TAIL_FLOOR
    out = np.log(np.where(far, 1.0, tail))
    if np.any(far):
        out[far] = _log_gamma_upper_cf(s, xf[far])
    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def _log_gamma_upper_cf(s: float, x: np.ndarray) -> np.ndarray:
    """Lentz evaluation of log(e^{-x} x^s / (x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(...))))."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, 400):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < 1e-15
        if done.all():
            return -x + s * np.log(x) + np.log(h)
    raise QuadratureError("continued fraction for the gamma tail did not converge")


def dm_h_log(t, z, n: int):
    """log of the heat-kernel comparison profile h(t, z) in dimension n.

    h(t, z) = t**(-n/2) (1+t+z)**((n-3)/2) (1+z)
              exp(-z^2/4t - (n-1)^2 t/4 - (n-1) z/2)

    Accepts scalars or numpy arrays in t and z.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError("dimension n must be an integer >= 2")
    t_arr = np.asarray(t, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    if np.any(t_arr <= 0.0):
        raise ValueError("dm_h_log requires t > 0")
    if np.any(z_arr < 0.0):
        raise ValueError("dm_h_log requires z >= 0")
    out = (
        -0.5 * n * np.log(t_arr)
        + 0.5 * (n - 3) * np.log1p(t_arr + z_arr)
        + np.log1p(z_arr)
        - z_arr * z_arr / (4.0 * t_arr)
        - (n - 1) ** 2 * t_arr / 4.0
        - (n - 1) * z_arr / 2.0
    )
    if np.isscalar(t) and np.isscalar(z):
        return float(out)
    return out
