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
comparison profile ``K^{n/2} h(K t, sqrt(K) d)`` from :func:`hypam.specialfn.dm_h_log`.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, IO

import numpy as np

from .rng import stream_generator
from .specialfn import dm_h_log

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
    "distance_coords",
    "brownian_step",
    "time_grid",
    "run_blocks",
    "walk_block",
    "radial_walk",
    "brownian_path",
    "heat_kernel_log_values",
]

_NORM_TOL = 1e-9


class BracketMode(str, enum.Enum):
    """Which side of the true kernel a value sits on; a str enum, so the
    strings "exact", "lower" and "upper" coerce to it and compare equal."""

    EXACT = "exact"
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class HeatKernelMode:
    """Evaluation mode for heat kernels: the exact n = 3 closed form, or the
    comparison profile times the constant C (default 1, meant to be fitted or
    supplied by a ledger), a bound from the bracket's side."""

    bracket: BracketMode
    C: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bracket", BracketMode(self.bracket))
        if not self.C > 0.0:
            raise ValueError("heat kernel bound constants must be positive")

    @classmethod
    def exact_n3(cls) -> "HeatKernelMode":
        return cls(BracketMode.EXACT)

    @classmethod
    def dm_upper(cls, C: float = 1.0) -> "HeatKernelMode":
        return cls(BracketMode.UPPER, C)

    @classmethod
    def dm_lower(cls, c: float = 1.0) -> "HeatKernelMode":
        return cls(BracketMode.LOWER, c)


@dataclass(frozen=True)
class KernelBracket:
    """A kernel evaluation together with which side of the truth it sits on."""

    value: float
    mode: BracketMode
    d: float
    alpha: float | None = None


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of a * b as a left-to-right loop over the
    coordinates.  Below 8 terms this is numpy's own summation order, so it
    gives the bits of np.sum, without the cost of reducing a short axis."""
    s = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        s += a[..., i] * b[..., i]
    return s


def minkowski_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b>_L over the last axis; broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] - _dot(a[..., 1:], b[..., 1:])


def _check_scale(K: float) -> None:
    if not (math.isfinite(K) and K > 0.0):
        raise ValueError("curvature scale K must be positive")


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
        _check_scale(self.K)
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
        _check_scale(K)  # before the division by sqrt(K)
        coords = np.zeros(n + 1)
        coords[0] = 1.0 / math.sqrt(K)
        return cls(coords, n, K)


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


def distance_coords(X: np.ndarray, Y: np.ndarray, K: float) -> np.ndarray:
    """Geodesic distance between coordinate arrays; broadcasts over leading axes."""
    arg = np.maximum(K * minkowski_inner(X, Y), 1.0)
    return np.arccosh(arg) / math.sqrt(K)


def brownian_step(X: np.ndarray, rng, dt: float, K: float) -> np.ndarray:
    """One geodesic random-walk step of duration dt for every point in X;
    returns the new points as a new array in X's memory layout.

    rng is a generator, or a list of them, one per block of X's leading axis:
    generator k fills the rows of block k (rows k * BLOCK_SIZE onward), the
    last one every row that is left.

    The step transports an isotropic Gaussian frame vector from the base
    point to X, follows the geodesic it spans for its known length, and
    resolves the timelike coordinate from the spatial ones, which keeps the
    point on the sheet without cancellation however far it is from the base
    point; _step_sum in tests/test_hyperbolic.py is its np.sum reference, bit
    for bit.  It is computed over X.T: on coordinate-major memory (X.T
    C-contiguous, as walk_block keeps it) every pass is contiguous."""
    if X.ndim == 1:  # one point: the one-row array's step
        return brownian_step(X[None], rng, dt, K)[0]
    n = X.shape[-1] - 1
    sk = math.sqrt(K)
    out = np.empty_like(X)
    # the normals are drawn into the front of out's memory, in stream order
    normals = out.ravel(order="K")[: out.size // (n + 1) * n].reshape(X.shape[:-1] + (n,))
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    for k, g in enumerate(rngs):
        stop = (k + 1) * BLOCK_SIZE if k + 1 < len(rngs) else None
        g.standard_normal(out=normals[k * BLOCK_SIZE : stop])
    xi = np.multiply(normals.T, math.sqrt(2.0 * dt), order="C")
    Xt, Yt = X.T, out.T[1:]  # Yt: the spatial coordinates of the result
    # the transport is an isometry, so the step length is known exactly
    np.multiply(xi, xi, out=Yt)
    a = _coordinate_sum(Yt)
    np.sqrt(a, out=a)
    a *= sk
    # f = -<Xh, (0, xi)>_L / (1 + Xh_0) on the unit-hyperboloid copy Xh = sk X
    np.multiply(Xt[1:], sk, out=Yt)
    Yt *= xi
    f = _coordinate_sum(Yt)
    np.negative(f, out=f)
    den = np.multiply(Xt[0], sk)
    den += 1.0
    f /= den
    # V = xi - f Xh is the transported vector; Y = sinh(a)/a V + cosh(a) X
    np.multiply(Xt[1:], sk, out=Yt)
    Yt *= f
    np.subtract(xi, Yt, out=Yt)
    fac = f  # f's buffer is free from here on
    fac.fill(1.0)
    np.divide(np.sinh(a, out=den), a, out=fac, where=a > 1e-12)
    Yt *= fac
    np.cosh(a, out=a)
    np.multiply(Xt[1:], a, out=xi)  # xi's buffer is free from here on
    Yt += xi
    if not np.isfinite(Yt).all():
        raise ValueError("cannot renormalize: coordinates are not finite")
    np.multiply(Yt, Yt, out=xi)
    x0 = _coordinate_sum(xi)
    np.add(1.0 / K, x0, out=x0)
    np.sqrt(x0, out=out.T[0])
    return out


def _coordinate_sum(Q: np.ndarray) -> np.ndarray:
    """Q[0] + Q[1] + ... left to right, as a new array: the bits of _dot's
    loop, over the leading axis of a coordinate-major array."""
    s = np.add(Q[0], Q[1]) if len(Q) > 1 else Q[0].copy()
    for q in Q[2:]:
        s += q
    return s


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


# blocks per group: bounds each thread's working set at 4096 paths; a cap of 8
# added about 1.7 MB to the peak memory of a one-worker 8192-path p = 4 run
# and was no faster
_GROUP_CAP = 4


def run_blocks(n_paths: int, workers: int, block: Callable, grouped: bool = False) -> list:
    """block(b, size) for every block of the n_paths paths (the last one
    ragged), on `workers` threads; the results come back in block order.

    With grouped, block(b, size) is called once per group of consecutive
    blocks instead: b is the group's first block and size its path count.
    The blocks are split into groups of ceil(blocks / workers), at most
    _GROUP_CAP, so each thread steps its blocks as one array."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n_blocks = -(-n_paths // BLOCK_SIZE)
    per = min(-(-n_blocks // workers), _GROUP_CAP) if grouped else 1
    firsts = range(0, n_blocks, per)
    counts = [min(per * BLOCK_SIZE, n_paths - b * BLOCK_SIZE) for b in firsts]
    if workers > 1 and len(firsts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(block, firsts, counts))
    return list(map(block, firsts, counts))


def walk_block(x0: np.ndarray, shape: tuple, seed: int, block: int, sizes, cp_steps, K: float):
    """Step copies of the coordinates x0, one per index of `shape`, through
    the step sizes.  shape[0] may span several consecutive blocks: block
    `block` + k, rows k * BLOCK_SIZE onward, draws from stream (seed,
    block + k).  Yields (h, X, c) after each step: its size, the positions,
    and the checkpoint it ends on, or None.  X has shape shape + x0.shape in
    coordinate-major memory (Fortran order: X.T is C-contiguous), so each
    coordinate of every path is one contiguous vector."""
    rngs = [stream_generator(seed, block + k) for k in range(-(-shape[0] // BLOCK_SIZE))]
    X = np.broadcast_to(x0, shape + x0.shape).copy(order="F")
    cp_at = {s: c for c, s in enumerate(cp_steps)}
    for step, h in enumerate(sizes, start=1):
        X = brownian_step(X, rngs, float(h), K)
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

    d, d_max = np.concatenate(run_blocks(n_paths, workers, block, grouped=True), axis=2)
    return ts, d, d_max


@dataclass
class BrownianPath:
    """A sampled path: times, hyperboloid coordinates, and its seed record."""

    times: np.ndarray
    points: np.ndarray
    n: int
    K: float
    seed: object

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
    """log heat-kernel values at time t and distances d (vectorized over d):
    the n = 3 closed form in the EXACT mode, else the profile times mode.C."""
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("heat kernel requires t > 0")
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 0.0):
        raise ValueError("distance must be nonnegative")
    rho = math.sqrt(K) * d_arr
    tau = K * t
    if mode.bracket is BracketMode.EXACT:
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
        out = dm_h_log(tau, rho, n) + 0.5 * n * math.log(K) + math.log(mode.C)
    if np.isscalar(d):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# radial initial data


@dataclass(frozen=True)
class RadialProfile:
    """Radial data about the evaluation point: a constant, or a bump of
    height epsilon on the ball of radius R."""

    kind: str
    epsilon: float = 1.0
    R: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "bump"):
            raise ValueError(f"unknown radial profile kind {self.kind!r}")
        if not self.epsilon > 0.0:
            raise ValueError("profile level epsilon must be positive")
        if self.kind == "bump" and not (self.R is not None and self.R > 0.0):
            raise ValueError("bump profiles need a positive radius R")

    @classmethod
    def constant(cls, epsilon: float) -> "RadialProfile":
        return cls("constant", epsilon=epsilon)

    @classmethod
    def bump(cls, epsilon: float, R: float) -> "RadialProfile":
        return cls("bump", epsilon=epsilon, R=R)

    def value(self, r):
        r_arr = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.full_like(r_arr, self.epsilon)
        else:
            out = np.where(r_arr <= self.R, self.epsilon, 0.0)
        if np.isscalar(r):
            return float(out)
        return out
