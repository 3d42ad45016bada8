"""Hyperboloid-model geometry, Brownian path sampling, and heat kernels.

Conventions
-----------
The space of constant sectional curvature -K (K > 0) in dimension n is realised
as the upper sheet ``{x in R^(n+1) : <x,x>_L = 1/K, x_0 > 0}`` of the
hyperboloid, where the bilinear form is

    <x, y>_L = x_0 y_0 - sum_{i>=1} x_i y_i.

Geodesic distance is ``d(x, y) = arccosh(K <x,y>_L) / sqrt(K)``.  Brownian
motion is normalised to the generator Delta (the full Laplace-Beltrami
operator, not Delta/2): one sampler step draws an isotropic tangent Gaussian
with per-coordinate variance ``2 dt`` and moves along the geodesic it spans.

The heat kernel is the transition density of that motion with respect to the
Riemannian volume.  In n = 3 it has the closed form

    p_t(d) = K^{3/2} (4 pi K t)^{-3/2} (rho/sinh rho) exp(-K t - rho^2/(4 K t)),
    rho = sqrt(K) d,

and in general dimension it is sandwiched between constant multiples of the
comparison profile ``K^{n/2} h(K t, sqrt(K) d)`` from :func:`hypam.specialfn.dm_h`.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, IO

import numpy as np

from .rng import stream_generator
from .specialfn import QuadratureSpec, dm_h_log, integrate

__all__ = [
    "BLOCK_SIZE",
    "BracketMode",
    "HeatKernelMode",
    "KernelBracket",
    "ModelPoint",
    "BrownianPath",
    "RadialProfile",
    "minkowski_inner",
    "sheet_violation",
    "distance",
    "distance_coords",
    "exp_map",
    "exp_map_coords",
    "tangent_at",
    "renormalize_coords",
    "brownian_step",
    "time_grid",
    "run_blocks",
    "walk_block",
    "radial_walk",
    "brownian_path",
    "heat_kernel",
    "heat_kernel_log_values",
    "heat_semigroup_apply",
]

_NORM_TOL = 1e-9


class BracketMode(str, enum.Enum):
    EXACT = "exact"
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class HeatKernelMode:
    """Evaluation mode for heat kernels: exact closed form or a two-sided bound.

    The comparison-profile modes carry the multiplicative constants of the
    bound; defaults are 1 and are meant to be fitted or supplied by a ledger.
    """

    kind: str
    C_upper: float = 1.0
    c_lower: float = 1.0

    _KINDS = ("exact_n3", "dm_upper", "dm_lower")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown heat kernel mode {self.kind!r}")
        if not (self.C_upper > 0.0 and self.c_lower > 0.0):
            raise ValueError("heat kernel bound constants must be positive")

    @classmethod
    def exact_n3(cls) -> "HeatKernelMode":
        return cls("exact_n3")

    @classmethod
    def dm_upper(cls, C: float = 1.0) -> "HeatKernelMode":
        return cls("dm_upper", C_upper=C)

    @classmethod
    def dm_lower(cls, c: float = 1.0) -> "HeatKernelMode":
        return cls("dm_lower", c_lower=c)

    @property
    def bracket(self) -> BracketMode:
        return {
            "exact_n3": BracketMode.EXACT,
            "dm_upper": BracketMode.UPPER,
            "dm_lower": BracketMode.LOWER,
        }[self.kind]


@dataclass(frozen=True)
class KernelBracket:
    """A kernel evaluation together with which side of the truth it sits on."""

    value: float
    mode: BracketMode
    d: float
    alpha: float | None = None


def minkowski_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b>_L over the last axis; broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)


@dataclass(frozen=True)
class ModelPoint:
    """A point on the curvature -K hyperboloid sheet in R^(n+1)."""

    coords: np.ndarray
    n: int
    K: float

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError("dimension n must be an integer >= 2")
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise ValueError("curvature scale K must be positive")
        if coords.shape != (self.n + 1,):
            raise ValueError(f"coords must have shape ({self.n + 1},)")
        if not coords[0] > 0.0:
            raise ValueError("point must lie on the upper sheet (coords[0] > 0)")
        if sheet_violation(coords, self.K) > _NORM_TOL:
            q = float(minkowski_inner(coords, coords))
            raise ValueError(
                f"coords violate the sheet constraint: K<x,x>_L = {self.K * q!r}"
            )

    @classmethod
    def basepoint(cls, n: int, K: float) -> "ModelPoint":
        coords = np.zeros(n + 1)
        coords[0] = 1.0 / math.sqrt(K)
        return cls(coords, n, K)

    def renormalized(self) -> "ModelPoint":
        return ModelPoint(renormalize_coords(self.coords, self.K), self.n, self.K)


def sheet_violation(X: np.ndarray, K: float) -> np.ndarray:
    """Residual |K<x,x>_L - 1| measured relative to the coordinate scale.

    The raw residual is a difference of squares of size K|x|^2, so rounding
    alone makes it grow with the square of the distance from the base point;
    dividing by max(1, K|x|^2) is the scale on which a float64 point can
    actually satisfy the constraint, and coincides with the absolute residual
    near the base point.
    """
    X = np.asarray(X, dtype=float)
    q = K * minkowski_inner(X, X)
    scale = np.maximum(1.0, K * np.sum(X * X, axis=-1))
    return np.abs(q - 1.0) / scale


def _require_same_chart(x: ModelPoint, y: ModelPoint) -> None:
    if x.n != y.n or x.K != y.K:
        raise ValueError("points live on different model spaces (n or K mismatch)")


def distance_coords(X: np.ndarray, Y: np.ndarray, K: float) -> np.ndarray:
    """Geodesic distance between coordinate arrays; broadcasts over leading axes."""
    arg = np.maximum(K * minkowski_inner(X, Y), 1.0)
    return np.arccosh(arg) / math.sqrt(K)


def distance(x: ModelPoint, y: ModelPoint) -> float:
    _require_same_chart(x, y)
    return float(distance_coords(x.coords, y.coords, x.K))


def renormalize_coords(X: np.ndarray, K: float) -> np.ndarray:
    """Project coordinates back onto the sheet <x,x>_L = 1/K.

    Resolves the timelike coordinate from the spatial ones.  Unlike dividing
    by sqrt(K<x,x>_L), this has no cancellation between x_0^2 and |x|^2, so
    it stays exact arbitrarily far from the base point, where the difference
    of the two squares carries no significant bits.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("cannot renormalize: coordinates are not finite")
    out = X.copy()
    s2 = np.sum(X[..., 1:] ** 2, axis=-1)
    out[..., 0] = np.sqrt(1.0 / K + s2)
    return out


def exp_map_coords(
    X: np.ndarray, V: np.ndarray, K: float, norm: np.ndarray | None = None
) -> np.ndarray:
    """Geodesic exponential; V tangent at X (Minkowski-orthogonal to X).

    norm, when given, is the known Riemannian length of V.  Far from the base
    point the components of V dwarf its length and the Minkowski square loses
    all significant bits to cancellation, so callers that know the length
    (e.g. from an isometrically transported frame vector) must pass it.
    """
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if norm is None:
        q = minkowski_inner(V, V)
        # tangent vectors are spacelike: the Riemannian length is sqrt(-<v,v>_L)
        r = np.sqrt(np.maximum(-q, 0.0))
    else:
        r = np.asarray(norm, dtype=float)
    a = math.sqrt(K) * r
    den = np.where(a > 1e-12, a, 1.0)
    fac = np.where(a > 1e-12, np.sinh(a) / den, 1.0)
    return np.cosh(a)[..., None] * X + fac[..., None] * V


def exp_map(x: ModelPoint, v: np.ndarray) -> ModelPoint:
    """Exponential map at a model point, with a tangency check on v."""
    v = np.asarray(v, dtype=float)
    if v.shape != x.coords.shape:
        raise ValueError("tangent vector has wrong shape")
    scale = max(1.0, float(np.linalg.norm(v)) * float(np.linalg.norm(x.coords)))
    if abs(float(minkowski_inner(x.coords, v))) > 1e-9 * scale:
        raise ValueError("vector is not tangent at x (<x,v>_L != 0)")
    out = renormalize_coords(exp_map_coords(x.coords, v, x.K), x.K)
    return ModelPoint(out, x.n, x.K)


def tangent_at(X: np.ndarray, xi: np.ndarray, K: float) -> np.ndarray:
    """Transport a base-point tangent frame vector xi (n components) to X.

    The transport along the geodesic from the base point preserves the metric,
    so an isotropic Gaussian xi stays isotropic in the tangent space at X.
    """
    X = np.asarray(X, dtype=float)
    xi = np.asarray(xi, dtype=float)
    sk = math.sqrt(K)
    Xh = sk * X  # unit-hyperboloid copy of X
    V = np.concatenate([np.zeros(xi.shape[:-1] + (1,)), xi], axis=-1)
    # <Xh, V>_L with V_0 = 0 reduces to minus the spatial dot product
    qxv = -np.sum(Xh[..., 1:] * xi, axis=-1)
    w = Xh.copy()
    w[..., 0] += 1.0
    return V - (qxv / (1.0 + Xh[..., 0]))[..., None] * w


def brownian_step(
    X: np.ndarray, rng: np.random.Generator, dt: float, K: float
) -> np.ndarray:
    """One geodesic random-walk step of duration dt for every point in X."""
    n = X.shape[-1] - 1
    xi = rng.standard_normal(X.shape[:-1] + (n,)) * math.sqrt(2.0 * dt)
    V = tangent_at(X, xi, K)
    # the transport is an isometry, so the step length is known exactly
    r = np.linalg.norm(xi, axis=-1)
    return renormalize_coords(exp_map_coords(X, V, K, norm=r), K)


# ---------------------------------------------------------------------------
# the path-ensemble engine behind every Monte Carlo route: paths come in blocks
# of BLOCK_SIZE and block b draws only from stream (seed, b), so results do not
# depend on the worker count or on the order in which blocks are run

BLOCK_SIZE = 1024


def time_grid(checkpoints, dt: float):
    """Step sizes that land on every checkpoint exactly, none exceeding dt.

    Each segment between checkpoints is cut into equal steps.  Returns
    (sizes, cp_steps, ts): all step sizes in order, the cumulative step count
    at each checkpoint, and the sorted checkpoint times."""
    if not (dt > 0.0):
        raise ValueError("time step dt must be positive")
    ts = np.unique(np.asarray(checkpoints, dtype=float))
    if not (ts.size and ts[0] > 0.0 and math.isfinite(ts[-1])):
        raise ValueError("checkpoint times must be positive and finite")
    seg = np.diff(ts, prepend=0.0)
    m = np.maximum(1.0, np.ceil(seg / dt - 1e-9)).astype(int)
    return np.repeat(seg / m, m), np.cumsum(m).tolist(), ts.tolist()


def run_blocks(n_paths: int, workers: int, block: Callable) -> list:
    """block(b, size) for every block of the n_paths paths (the last one
    ragged), on `workers` threads; the results come back in block order."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    starts = range(0, n_paths, BLOCK_SIZE)
    counts = [min(BLOCK_SIZE, n_paths - s) for s in starts]
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(block, range(len(starts)), counts))
    return list(map(block, range(len(starts)), counts))


def walk_block(x0: np.ndarray, shape: tuple, seed: int, block: int, sizes, cp_steps, K: float):
    """Step copies of the coordinates x0, one per index of `shape`, through
    the step sizes with stream (seed, block).  Yields (h, X, c) after each
    step: its size, the positions, and the checkpoint it ends on, or None."""
    rng = stream_generator(seed, block)
    X = np.broadcast_to(x0, shape + x0.shape).copy()
    cp_at = {s: c for c, s in enumerate(cp_steps)}
    for step, h in enumerate(sizes, start=1):
        X = brownian_step(X, rng, float(h), K)
        yield h, X, cp_at.get(step)


def radial_walk(x0: ModelPoint, checkpoints, dt: float, n_paths: int, seed: int, workers: int):
    """(ts, d, d_max) for n_paths Brownian paths from x0: d[c, j] is path j's
    distance from x0 at checkpoint c and d_max[c, j] the largest distance it
    reached at any step up to then."""
    sizes, cp_steps, ts = time_grid(checkpoints, dt)

    def block(b: int, size: int) -> np.ndarray:
        out = np.empty((2, len(ts), size))
        d_max = np.zeros(size)
        for _, X, c in walk_block(x0.coords, (size,), seed, b, sizes, cp_steps, x0.K):
            d = distance_coords(X, x0.coords, x0.K)
            d_max = np.maximum(d_max, d)
            if c is not None:
                out[:, c] = d, d_max
        return out

    d, d_max = np.concatenate(run_blocks(n_paths, workers, block), axis=2)
    return ts, d, d_max


@dataclass
class BrownianPath:
    """A sampled path: times, hyperboloid coordinates, and its seed record."""

    times: np.ndarray
    points: np.ndarray
    n: int
    K: float
    seed: object

    def point(self, i: int) -> ModelPoint:
        return ModelPoint(self.points[i], self.n, self.K)

    def to_csv(self, f: IO[str]) -> None:
        cols = ",".join(f"coord_{i}" for i in range(self.n + 1))
        f.write(f"step,time,{cols}\n")
        for k, (t, row) in enumerate(zip(self.times, self.points)):
            vals = ",".join(format(v, ".17g") for v in row)
            f.write(f"{k},{format(float(t), '.17g')},{vals}\n")


def brownian_path(x0: ModelPoint, t_end: float, dt: float, seed: int) -> BrownianPath:
    """Sample one Brownian path started at x0, stored at every step: steps of
    dt, then one partial step to t_end if dt does not divide it.  The path is
    block 0 of a one-path ensemble."""
    if not (0.0 < dt <= t_end * (1.0 + 1e-12)):
        raise ValueError("need 0 < dt <= t_end")
    m = int(math.floor(t_end / dt + 1e-9))
    checkpoints = [m * dt, t_end] if t_end - m * dt > 1e-9 * dt else [t_end]
    sizes, cp_steps, _ = time_grid(checkpoints, dt)
    steps = walk_block(x0.coords, (1,), seed, 0, sizes, cp_steps, x0.K)
    points = np.array([x0.coords] + [X[0] for _, X, _ in steps])
    times = np.concatenate([[0.0], np.cumsum(sizes)])
    return BrownianPath(times=times, points=points, n=x0.n, K=x0.K, seed=seed)


# ---------------------------------------------------------------------------
# heat kernels


def _log_sinh(r: np.ndarray) -> np.ndarray:
    """log(sinh r) for r > 0, stable for large r."""
    r = np.asarray(r, dtype=float)
    small = r < 20.0
    safe = np.where(small, np.where(r > 0.0, r, 1.0), 1.0)
    out_small = np.log(np.sinh(safe))
    out_large = r - math.log(2.0) + np.log1p(-np.exp(-2.0 * np.minimum(r, 350.0)))
    return np.where(small, out_small, out_large)


def heat_kernel_log_values(t: float, d, n: int, K: float, mode: HeatKernelMode):
    """log heat-kernel values at time t and distances d (vectorized over d)."""
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("heat kernel requires t > 0")
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 0.0):
        raise ValueError("distance must be nonnegative")
    rho = math.sqrt(K) * d_arr
    tau = K * t
    if mode.kind == "exact_n3":
        if n != 3:
            raise ValueError("the exact closed-form kernel is only available for n = 3")
        tinyr = rho < 1e-8
        safe = np.where(tinyr, 1.0, rho)
        log_ratio = np.where(
            tinyr, -rho * rho / 6.0, np.log(safe) - _log_sinh(safe)
        )
        out = (
            1.5 * math.log(K)
            - 1.5 * math.log(4.0 * math.pi * tau)
            + log_ratio
            - tau
            - rho * rho / (4.0 * tau)
        )
    else:
        const = mode.C_upper if mode.kind == "dm_upper" else mode.c_lower
        out = dm_h_log(tau, rho, n) + 0.5 * n * math.log(K) + math.log(const)
    if np.isscalar(d):
        return float(out)
    return out


def heat_kernel(t: float, d: float, n: int, K: float, mode: HeatKernelMode) -> KernelBracket:
    """Heat kernel (or its two-sided comparison bound) at one (t, d)."""
    lg = heat_kernel_log_values(t, float(d), n, K, mode)
    value = math.exp(lg) if lg < 709.0 else math.inf
    return KernelBracket(value=value, mode=mode.bracket, d=float(d))


# ---------------------------------------------------------------------------
# radial initial data and the semigroup action


@dataclass(frozen=True)
class RadialProfile:
    """Radial data about the evaluation point: constant, bump, or a table."""

    kind: str
    epsilon: float = 1.0
    R: float | None = None
    table: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "bump", "table"):
            raise ValueError(f"unknown radial profile kind {self.kind!r}")
        if self.kind in ("constant", "bump") and not self.epsilon > 0.0:
            raise ValueError("profile level epsilon must be positive")
        if self.kind in ("bump", "table") and not (self.R is not None and self.R > 0.0):
            raise ValueError("bump and table profiles need a positive radius R")
        if self.kind == "table" and self.table is None:
            raise ValueError("table profile needs a callable")

    @classmethod
    def constant(cls, epsilon: float) -> "RadialProfile":
        return cls("constant", epsilon=epsilon)

    @classmethod
    def bump(cls, epsilon: float, R: float) -> "RadialProfile":
        return cls("bump", epsilon=epsilon, R=R)

    @classmethod
    def from_table(cls, fn: Callable[[np.ndarray], np.ndarray], R: float) -> "RadialProfile":
        return cls("table", table=fn, R=R)

    @property
    def compact(self) -> bool:
        return self.kind in ("bump", "table")

    def value(self, r):
        r_arr = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.full_like(r_arr, self.epsilon)
        elif self.kind == "bump":
            out = np.where(r_arr <= self.R, self.epsilon, 0.0)
        else:
            out = np.where(r_arr <= self.R, np.asarray(self.table(r_arr), dtype=float), 0.0)
        if np.isscalar(r):
            return float(out)
        return out


def _area_density(r: np.ndarray, n: int, K: float) -> np.ndarray:
    """Surface measure of the geodesic sphere of radius r."""
    sk = math.sqrt(K)
    # area of the unit Euclidean (n-1)-sphere times (sinh(sk r)/sk)^(n-1)
    s_unit = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return s_unit * (np.sinh(sk * r) / sk) ** (n - 1)


def heat_semigroup_apply(
    t: float,
    u0: RadialProfile,
    x: ModelPoint,
    method: str = "quadrature",
    mode: HeatKernelMode | None = None,
    n_paths: int = 4096,
    dt: float | None = None,
    seed: int = 0,
):
    """Apply the heat semigroup to radial data centred at x, evaluated at x.

    The quadrature route uses the exact n = 3 kernel; the Monte Carlo route
    averages u0 over sampled paths and returns ``(mean, stderr)``.
    """
    if not t > 0.0:
        raise ValueError("heat_semigroup_apply requires t > 0")
    n, K = x.n, x.K
    if method == "quadrature":
        m = mode or HeatKernelMode.exact_n3()
        if m.kind == "exact_n3" and n != 3:
            raise ValueError("quadrature route needs the exact kernel, i.e. n = 3")

        sk = math.sqrt(K)
        log_s_unit = math.log(2.0) + (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0)

        def f(r: float) -> float:
            val = float(u0.value(r))
            if val == 0.0 or r == 0.0:
                return 0.0
            lg = heat_kernel_log_values(t, r, n, K, m)
            # log of the sphere area; log(sinh x) = x + log1p(-e^(-2x)) - log 2
            x = sk * r
            log_area = log_s_unit + (n - 1) * (
                x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0) - math.log(sk)
            )
            total = lg + log_area
            if total < -700.0:
                return 0.0
            return math.exp(total) * val

        drift = (n - 1) * math.sqrt(K) * t
        splits = [0.5 * drift, drift, 2.0 * drift + 6.0 * math.sqrt(t)]
        hi = math.inf
        if u0.kind in ("bump", "table"):
            splits.append(u0.R)
            hi = u0.R
        q = QuadratureSpec(relative_tolerance=1e-9, absolute_tolerance=1e-300)
        return integrate(f, 0.0, hi, q, split_points=splits)
    if method in ("mc", "monte-carlo"):
        h = dt if dt is not None else 0.01 / max(1.0, K)
        _, d, _ = radial_walk(x, [t], h, n_paths, seed, 1)
        vals = u0.value(d[0])
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
        return mean, stderr
    raise ValueError(f"unknown method {method!r}")
