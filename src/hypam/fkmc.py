"""Path-integral Monte Carlo for moments of the multiplicative-noise heat
equation, and the complementary analytic lower-bound machinery.

The p-th moment of the solution is an expectation over p independent Brownian
motions started at the same point:

    E[|u(t,x)|^p] = E[ prod_j u0(B^j_t) * exp(beta^2 * S_t) ],
    S_t = sum over ordered pairs (i, k), i != k, of
          integral_0^t G_{2 alpha}(d(B^i_s, B^k_s)) ds.

The estimator simulates the paths with the geodesic random walk, accumulates
the pairwise kernel integrals by the trapezoid rule (the s = 0 node is capped
at the kernel's floor value, a downward bias since the kernel is decreasing),
and averages exp(beta^2 S) in the log domain.

Paths come from the blocked engine of :mod:`hypam.hyperbolic`, so results are
bitwise independent of the worker count and of scheduling order.

The analytic half evaluates the moment lower bound

    Q(r) = beta^2 (p-1) Gbar_{2 alpha}(r) - lambda_1^D(B(x, r)),

with the Dirichlet eigenvalue replaced by its closed-form upper bound, and
derives critical couplings, critical moment orders, and growth-rate slopes
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import jv

from .hyperbolic import (
    BLOCK_SIZE,
    BracketMode,
    ModelPoint,
    RadialProfile,
    distance_coords,
    run_blocks,
    time_grid,
    walk_block,
)
from .kernels import KernelGrid, NoiseSpec, g_alpha_lower
from .ledger import ConstantLedger
from .renewal import Regime, _float_or_array, _moment_orders, regime_of

__all__ = [
    "BLOCK_SIZE",
    "FkConfig",
    "MomentEstimate",
    "RatioPoint",
    "moment_estimate",
    "moment_series",
    "moment_and_chaos",
    "intermittency_ratio",
    "QSupResult",
    "q_sup",
    "lower_lyapunov",
    "beta_critical",
    "p_critical",
    "dirichlet_eigenvalue_upper",
    "SlopeReport",
    "asymptotic_slope_check",
]

@dataclass(frozen=True)
class FkConfig:
    """Inputs of one moment estimation run.

    u0 must be a constant or bump profile (the bump is centered at the common
    starting point of the paths).  kernel_mode picks the pairwise kernel and
    is stored as a BracketMode: EXACT ('exact') needs n = 3, LOWER ('lower')
    uses the closed-form lower bound and marks the estimate as downward
    biased.  delta_floor defaults to 1e-3/sqrt(K).
    """

    spec: NoiseSpec
    p: int
    t_end: float
    dt: float
    n_paths: int
    seed: int
    u0: RadialProfile
    kernel_mode: BracketMode = BracketMode.EXACT
    delta_floor: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 2):
            raise ValueError("moment order p must be an integer >= 2")
        if not self.spec.dalang_ok:
            raise ValueError("noise spec violates the integrability condition")
        if not (self.t_end > 0.0 and self.dt > 0.0):
            raise ValueError("t_end and dt must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.kernel_mode not in (BracketMode.EXACT, BracketMode.LOWER):
            raise ValueError("kernel_mode must be 'exact' or 'lower'")
        object.__setattr__(self, "kernel_mode", BracketMode(self.kernel_mode))
        if self.kernel_mode is BracketMode.EXACT and self.spec.n != 3:
            raise ValueError("exact kernel mode needs n = 3")
        if self.delta_floor is not None and not (self.delta_floor > 0.0):
            raise ValueError("delta_floor must be positive")

    @property
    def floor(self) -> float:
        if self.delta_floor is not None:
            return self.delta_floor
        return 1e-3 / math.sqrt(self.spec.K)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo moment value with a log-domain twin.

    mean may overflow to inf for very large couplings; log_mean always carries
    the estimate.  bias is LOWER when the kernel floor cap or the lower-bound
    kernel was in play, UNBIASED when only discretization error remains.
    """

    mean: float
    stderr: float
    n_paths: int
    bias: str
    log_mean: float


@dataclass(frozen=True)
class RatioPoint:
    """One time point of a normalized moment-ratio series."""

    t: float
    ratio: float
    stderr: float
    log_ratio: float
    log_stderr: float


def _pair_kernel_grid(cfg: FkConfig, t_max: float, ledger: ConstantLedger | None) -> KernelGrid:
    """Radial table of the order-2*alpha kernel sized to the run.

    The table range is rounded up to a power of two, so the table, and with it
    every estimate, does not move with small changes of the horizon."""
    spec2 = replace(cfg.spec, alpha=2.0 * cfg.spec.alpha)
    n, K = cfg.spec.n, cfg.spec.K
    sk = math.sqrt(K)
    # paths drift radially at (n-1) sqrt(K); cover twice that plus diffusive spread
    raw = 2.0 * ((n - 1) * sk * t_max + 8.0 * math.sqrt(2.0 * t_max) + 5.0 / sk)
    d_max = float(2.0 ** math.ceil(math.log2(raw)))
    return KernelGrid(spec2, cfg.kernel_mode, delta_floor=cfg.floor, d_max=d_max, ledger=ledger)


def _pair_list(p: int) -> list[tuple[int, int]]:
    return [(i, k) for i in range(p) for k in range(i + 1, p)]


def _pair_distances(X: np.ndarray, I: np.ndarray, J: np.ndarray, K: float) -> np.ndarray:
    """d(X[:, I[m]], X[:, J[m]]) as an F-ordered (N, P) array, one pair per
    contiguous column, gathered one coordinate at a time from X.T: the bits
    of distance_coords without an (N, P, n+1) copy of X."""
    Xt = X.T
    s = Xt[1, I] * Xt[1, J]
    for c in range(2, len(Xt)):
        s += Xt[c, I] * Xt[c, J]
    q = Xt[0, I] * Xt[0, J]
    q -= s
    q *= K
    np.maximum(q, 1.0, out=q)
    np.arccosh(q, out=q)
    q /= math.sqrt(K)
    return q.T


def _simulate_block(cfg, block_index, block_size, sizes, cp_steps, grid):
    """One group of consecutive replicate blocks, block_size paths from block
    block_index on: per-checkpoint endpoint data and pair integrals.

    Returns (lu, sp): lu[c, b, j] = log u0 at path j's position at checkpoint c,
    sp[c, b, m] = integral of the pair kernel along unordered pair m up to
    checkpoint c.  Block block_index + k draws only from stream
    (cfg.seed, block_index + k)."""
    spec = cfg.spec
    n, K, p = spec.n, spec.K, cfg.p
    base = ModelPoint.basepoint(n, K).coords
    I, J = np.array(_pair_list(p)).T
    # F-ordered, as _pair_distances returns the pair distances
    s_accum = np.zeros((block_size, len(I)), order="F")
    k_prev = np.full((block_size, len(I)), grid(0.0), order="F")
    lu = np.empty((len(cp_steps), block_size, p))
    sp = np.empty((len(cp_steps), block_size, len(I)))
    for h, X, c in walk_block(base, (block_size, p), cfg.seed, block_index, sizes, cp_steps, K):
        k_cur = grid(_pair_distances(X, I, J, K))
        # trapezoid s += (h/2)(k_prev + k_cur), in k_prev's buffer
        k_prev += k_cur
        k_prev *= 0.5 * h
        s_accum += k_prev
        k_prev = k_cur
        if c is not None:
            with np.errstate(divide="ignore"):
                lu[c] = np.log(cfg.u0.value(distance_coords(X, base, K)))
            sp[c] = s_accum
    return lu, sp


def _run_blocks(cfg: FkConfig, sizes, cp_steps, grid, workers: int):
    """Simulate all blocks, in groups of consecutive blocks (in parallel if
    asked), and concatenate in block order."""
    results = run_blocks(
        cfg.n_paths,
        workers,
        lambda b, size: _simulate_block(cfg, b, size, sizes, cp_steps, grid),
        grouped=True,
    )
    lu = np.concatenate([r[0] for r in results], axis=1)
    sp = np.concatenate([r[1] for r in results], axis=1)
    return lu, sp


def _reduce_log_weights(logw: np.ndarray) -> tuple[float, float, float]:
    """(mean, stderr, log_mean) of exp(logw), shifted so nothing overflows."""
    m = float(np.max(logw))
    if m == -math.inf:
        return 0.0, 0.0, -math.inf
    a = np.exp(logw - m)
    abar = float(a.mean())
    log_mean = m + math.log(abar)
    mean = math.exp(log_mean) if log_mean < 709.0 else math.inf
    var = float(a.var(ddof=1)) if a.size > 1 else 0.0
    if var > 0.0:
        log_se = m + 0.5 * (math.log(var) - math.log(a.size))
        stderr = math.exp(log_se) if log_se < 709.0 else math.inf
    else:
        stderr = 0.0
    return mean, stderr, log_mean


def _bias_flag(cfg: FkConfig) -> str:
    # the s = 0 trapezoid node always sits below the floor, so any nonzero
    # coupling inherits the downward cap bias
    if cfg.kernel_mode is BracketMode.LOWER or cfg.spec.beta > 0.0:
        return "LOWER"
    return "UNBIASED"


def _ensemble(cfg: FkConfig, t_grid, workers: int, ledger: ConstantLedger | None):
    """One path ensemble of cfg observed at the times of t_grid: (ts, lu, sp),
    with lu and sp as :func:`_simulate_block` gives them, over all paths."""
    sizes, cp_steps, ts = time_grid(t_grid, cfg.dt)
    grid = _pair_kernel_grid(cfg, ts[-1], ledger)
    lu, sp = _run_blocks(cfg, sizes, cp_steps, grid, workers)
    return ts, lu, sp


def _log_weights(lu_c: np.ndarray, sp_c: np.ndarray, beta2: float) -> np.ndarray:
    """log of prod_j u0(B^j_t) exp(beta^2 S_t) per path tuple at one checkpoint;
    the ordered-pair sum S_t is twice the sum over the unordered pairs."""
    return lu_c.sum(axis=1) + beta2 * 2.0 * sp_c.sum(axis=1)


def _moments(cfg: FkConfig, lu: np.ndarray, sp: np.ndarray) -> list[MomentEstimate]:
    """The moment estimate at every checkpoint of an ensemble."""
    beta2 = cfg.spec.beta**2
    bias = _bias_flag(cfg)
    out = []
    for lu_c, sp_c in zip(lu, sp):
        mean, stderr, log_mean = _reduce_log_weights(_log_weights(lu_c, sp_c, beta2))
        out.append(MomentEstimate(mean, stderr, cfg.n_paths, bias, log_mean))
    return out


def _chaos_k1(sp: np.ndarray) -> MomentEstimate:
    """First-order chaos coefficient at the last checkpoint of an ensemble.

    Per path tuple, S = 2 * (mean over the unordered pairs of the pair
    integral): every pair is a pair of independent paths, so each tuple gives
    an unbiased draw, and the tuples are i.i.d., so the stderr across them
    holds.  With one pair (p = 2) the mean divides by 1 and S is exactly twice
    that pair's integral."""
    s_vals = 2.0 * sp[-1].mean(axis=1)
    mean = float(s_vals.mean())
    stderr = float(s_vals.std(ddof=1) / math.sqrt(s_vals.size)) if s_vals.size > 1 else 0.0
    log_mean = math.log(mean) if mean > 0.0 else -math.inf
    return MomentEstimate(mean, stderr, s_vals.size, "LOWER", log_mean)


def moment_series(
    cfg: FkConfig,
    t_grid,
    workers: int = 1,
    ledger: ConstantLedger | None = None,
) -> list[MomentEstimate]:
    """Moment estimates at each checkpoint time from one shared path ensemble."""
    _, lu, sp = _ensemble(cfg, t_grid, workers, ledger)
    return _moments(cfg, lu, sp)


def moment_estimate(
    cfg: FkConfig,
    workers: int = 1,
    ledger: ConstantLedger | None = None,
    convergence_check: bool = False,
) -> MomentEstimate:
    """Moment estimate at cfg.t_end; deterministic for a fixed config.

    With convergence_check, the run is repeated at dt/2 and the two estimates
    must agree within one (combined) standard error, else RuntimeError."""
    est = moment_series(cfg, [cfg.t_end], workers, ledger)[0]
    if convergence_check:
        halved = replace(cfg, dt=0.5 * cfg.dt)
        est2 = moment_series(halved, [cfg.t_end], workers, ledger)[0]
        tol = math.hypot(est.stderr, est2.stderr)
        if abs(est.mean - est2.mean) > tol:
            raise RuntimeError(
                f"halving dt moved the estimate from {est.mean:.6g} to "
                f"{est2.mean:.6g}, beyond the combined stderr {tol:.3g}; "
                "decrease dt"
            )
    return est


def moment_and_chaos(
    cfg: FkConfig,
    workers: int = 1,
    ledger: ConstantLedger | None = None,
) -> tuple[MomentEstimate, MomentEstimate]:
    """The moment estimate at cfg.t_end and the first-order chaos coefficient,
    both from one path ensemble.

    The moment is that of :func:`moment_estimate`.  The chaos coefficient is
    the first-order coefficient of beta^2 in the second moment minus one,
    averaged over each path tuple's pairs (see :func:`_chaos_k1`); the
    initial data do not enter it, and the floor cap at s = 0 makes it a
    slight underestimate, flagged LOWER."""
    _, lu, sp = _ensemble(cfg, [cfg.t_end], workers, ledger)
    return _moments(cfg, lu, sp)[0], _chaos_k1(sp)


def _ratio_stats(logw_p: np.ndarray, logw_q: np.ndarray, p: int, q: int):
    """Delta-method mean and stderr of the (1/p, 1/q)-normalized moment ratio."""
    N = logw_p.size
    mp_ = float(np.max(logw_p))
    mq_ = float(np.max(logw_q))
    if mp_ == -math.inf or mq_ == -math.inf:
        return math.nan, math.nan, math.nan, math.nan
    ap = np.exp(logw_p - mp_)
    aq = np.exp(logw_q - mq_)
    abp = float(ap.mean())
    abq = float(aq.mean())
    log_ratio = (mp_ + math.log(abp)) / p - (mq_ + math.log(abq)) / q
    if N > 1:
        cov = np.cov(ap, aq, ddof=1)
        var_lr = (
            cov[0, 0] / (p * abp) ** 2
            + cov[1, 1] / (q * abq) ** 2
            - 2.0 * cov[0, 1] / (p * q * abp * abq)
        ) / N
        log_se = math.sqrt(max(var_lr, 0.0))
    else:
        log_se = 0.0
    ratio = math.exp(log_ratio) if log_ratio < 709.0 else math.inf
    return ratio, ratio * log_se, log_ratio, log_se


def intermittency_ratio(
    p: int,
    q: int,
    t_grid,
    cfg: FkConfig,
    workers: int = 1,
    ledger: ConstantLedger | None = None,
) -> list[RatioPoint]:
    """Series of E[|u|^p]^(1/p) / E[|u|^q]^(1/q) over the time grid.

    Both moments come from the same p-path ensemble (the q-moment uses the
    first q paths), so the ratio benefits from common random numbers; the
    stderr accounts for the induced covariance."""
    if not (isinstance(q, (int, np.integer)) and 2 <= q < p):
        raise ValueError("need integer moment orders 2 <= q < p")
    if cfg.p != p:
        cfg = replace(cfg, p=int(p))
    ts, lu, sp = _ensemble(cfg, t_grid, workers, ledger)
    sub = [m for m, (i, k) in enumerate(_pair_list(p)) if k < q]
    beta2 = cfg.spec.beta**2
    out = []
    for t, lu_c, sp_c in zip(ts, lu, sp):
        logw_p = _log_weights(lu_c, sp_c, beta2)
        logw_q = _log_weights(lu_c[:, :q], sp_c[:, sub], beta2)
        ratio, se, lr, lse = _ratio_stats(logw_p, logw_q, p, q)
        out.append(RatioPoint(t, ratio, se, lr, lse))
    return out


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A zero of f between xa and xb by Brent's method, ported step for step
    from scipy's Zeros/brentq.c (the solver of scipy.optimize.brentq), so the
    root has the same bits without importing scipy.optimize, which adds about
    21 MB and 0.2 s to a process.  As there, no sign change is a ValueError
    and no convergence within 100 steps a RuntimeError."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, also where C would divide by zero
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method failed to converge after 100 iterations, value is {xcur!r}")


@lru_cache(maxsize=None)
def _flat_ball_eigenvalue(n: int) -> float:
    """Squared first positive zero of the Bessel function of order n/2 - 1
    (the Dirichlet eigenvalue of the flat unit ball)."""
    nu = n / 2.0 - 1.0
    x = max(nu, 0.5)
    step = 0.5
    while jv(nu, x + step) > 0.0:
        x += step
        if x > 1e4:
            raise RuntimeError("failed to bracket the Bessel zero")
    root = _brentq(lambda s: jv(nu, s), x, x + step, xtol=1e-13, rtol=1e-15)
    return root**2


def dirichlet_eigenvalue_upper(R, n: int, K: float, ledger: ConstantLedger | None = None):
    """Closed-form upper bound on the first Dirichlet eigenvalue of the
    geodesic ball of radius R.

    The bound is c_n/R^2 + (n-1)^2 K/4 + ((n-2)^2/4 + 1/4) * B(R, K) with
    B(R, K) = 1/R^2 - K/sinh^2(sqrt(K) R), a positive correction bounded by
    K/3.  c_n defaults to the flat-ball value and may be overridden through
    the ledger entry 'dirichlet_c', which the ledger records.  Accepts a
    scalar or an array of R; a scalar gives a float."""
    R = np.asarray(R, dtype=float)[()]  # a scalar R becomes a numpy scalar, cheaper than 0-d
    if not (R > 0.0).all():
        raise ValueError("R must be positive")
    if not (K > 0.0):
        raise ValueError("K must be positive")
    if ledger is not None and "dirichlet_c" in ledger:
        cn = ledger.value("dirichlet_c")
    else:
        cn = _flat_ball_eigenvalue(int(n))
        if ledger is not None:
            ledger.set(
                "dirichlet_c",
                cn,
                "derived",
                note="squared first zero of the Bessel function of order n/2 - 1",
            )
    x = math.sqrt(K) * R
    # series below x = 1e-6; beyond x = 300 the sinh term is below 1e-260 K and dropped
    sh = np.sinh(np.minimum(np.maximum(x, 1e-6), 300.0))
    tail = np.where(x < 300.0, K / sh**2, 0.0)
    corr = np.where(x < 1e-6, K * (1.0 / 3.0 - x * x / 15.0), 1.0 / R**2 - tail)
    c_curv = (n - 1) ** 2 * K / 4.0 + ((n - 2) ** 2 / 4.0 + 0.25) * corr
    out = cn / R**2 + c_curv
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class QSupResult:
    """Maximizer and value of the lower-bound profile Q over the ball radius:
    floats, or arrays of the (p, beta) shape for an array call."""

    r_star: float | np.ndarray
    value: float | np.ndarray


_R_GRID = 600  # radius nodes of the lower-bound solvers' log-spaced table


def _r_search_grid(spec: NoiseSpec, n_grid: int) -> np.ndarray:
    """The solvers' radius table: n_grid log-spaced radii over [1e-6, 1e3]/sqrt(K)."""
    sk = math.sqrt(spec.K)
    return np.geomspace(1e-6 / sk, 1e3 / sk, n_grid)


def _q_parts(p, spec, ledger, r):
    """The beta-independent pieces of Q at the radii r: (p-1) Gbar and the
    eigenvalue bound.  An array of p gives one row of (p-1) Gbar per order,
    against radii shared by all rows or given one row per order."""
    spec2 = replace(spec, alpha=2.0 * spec.alpha)
    gain = np.asarray(p - 1)[..., None] * np.asarray(g_alpha_lower(spec2, r, ledger))
    lam = dirichlet_eigenvalue_upper(r, spec.n, spec.K, ledger)
    return gain, lam


def _math_map(f, x: np.ndarray) -> np.ndarray:
    """math.log or math.exp element by element: numpy's log and exp differ
    from math's in the last bit at some points, and the radii keep math's."""
    return np.array([f(v) for v in x.tolist()])


_ZOOM_POINTS = 65  # Q evaluations per zoom level in q_sup, evenly spaced in log r
_ZOOM_TOL = 1e-10  # the zoom stops once its bracket is this wide in log r


def q_sup(
    p,
    beta,
    spec: NoiseSpec,
    ledger: ConstantLedger | None = None,
    n_grid: int = _R_GRID,
) -> QSupResult:
    """Supremum of Q over the ball radius: a log-spaced scan, then a zoom on the
    bracket between the best node's neighbours.  Each level evaluates Q as one
    array on _ZOOM_POINTS points spread evenly in log r and shrinks the bracket
    to two spacings around the best point, clamped to the first bracket, until
    it is _ZOOM_TOL wide.  The result is never below the grid maximum.

    p and beta broadcast against each other and one call covers all the
    pairs: the scan is one (pairs, n_grid) array on one radius table, and
    each zoom level evaluates Gbar and the eigenvalue bound once per distinct
    bracket among the pairs still open, then Q per pair from those rows.
    Scalars give float fields, arrays fields of the broadcast shape."""
    p, beta = np.broadcast_arrays(_moment_orders(p), np.asarray(beta, dtype=float))
    shape, p, beta = p.shape, p.ravel(), beta.ravel()
    bb = beta * beta
    r_grid = _r_search_grid(spec, n_grid)
    q, lam = _q_parts(p, spec, ledger, r_grid)
    q *= bb[:, None]
    q -= lam
    j = np.argmax(q, axis=1)
    value = q[np.arange(j.size), j]
    del q, lam  # the scan's (pairs, n_grid) table is not held through the zoom
    y_best = _math_map(math.log, r_grid[j])
    lo = _math_map(math.log, r_grid[np.maximum(j - 1, 0)])
    hi = _math_map(math.log, r_grid[np.minimum(j + 1, n_grid - 1)])
    a, b = lo.copy(), hi.copy()
    act = np.flatnonzero(b - a > _ZOOM_TOL)  # pairs whose bracket is still open
    while act.size:
        # each distinct bracket (a, b), as one complex key, gets one row of radii
        ab = np.stack((a[act], b[act]), axis=1).view(np.complex128).ravel()
        brackets, row = np.unique(ab, return_inverse=True)
        y = np.linspace(brackets.real, brackets.imag, _ZOOM_POINTS, axis=1)
        gbar, lam = _q_parts(2, spec, ledger, np.exp(y))
        q = (p[act, None] - 1) * gbar[row]
        q *= bb[act, None]
        q -= lam[row]
        k = np.argmax(q, axis=1)
        qk = q[np.arange(k.size), k]
        better = qk > value[act]
        y_best[act[better]] = y[row[better], k[better]]
        value[act[better]] = qk[better]
        h = (y[:, 1] - y[:, 0])[row]
        a[act] = np.maximum(lo[act], y_best[act] - h)
        b[act] = np.minimum(hi[act], y_best[act] + h)
        act = act[b[act] - a[act] > _ZOOM_TOL]
    r_star = _math_map(math.exp, y_best)
    return QSupResult(
        r_star=_float_or_array(r_star.reshape(shape)),
        value=_float_or_array(value.reshape(shape)),
    )


def lower_lyapunov(p, beta, spec: NoiseSpec, ledger: ConstantLedger | None = None):
    """Lower bound on the p-th moment Lyapunov exponent:
    p * max(sup_r Q(r), -(n-1)^2 K / 4).  p and beta broadcast as in
    :func:`q_sup`, through one q_sup call; scalars give a float."""
    res = q_sup(p, beta, spec, ledger)
    floor = -((spec.n - 1) ** 2) * spec.K / 4.0
    return _float_or_array(_moment_orders(p) * np.maximum(res.value, floor))


def _critical_ratio(gain: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """min over the grid (the last axis) of lam/gain: s * gain - lam is
    positive at some node exactly when s exceeds it (lam > 0).  Nodes where
    the ratio would overflow, gain having underflowed, cannot hold the minimum
    and are skipped."""
    ok = gain > lam / np.finfo(float).max
    if not ok.any(axis=-1).all():
        raise RuntimeError("the lower-bound kernel vanishes on the whole radius grid")
    ratio = np.divide(lam, gain, out=np.full(gain.shape, math.inf), where=ok)
    return ratio.min(axis=-1)


def beta_critical(p, spec: NoiseSpec, ledger: ConstantLedger | None = None):
    """Smallest coupling with a strictly positive lower Lyapunov exponent on
    the _R_GRID-point radius table: beta_c^2 = min_r lam(r) / ((p-1) Gbar(r)).
    Accepts a scalar or an array of p, all on one radius table; a scalar
    gives a float."""
    p = _moment_orders(p)
    gain, lam = _q_parts(p, spec, ledger, _r_search_grid(spec, _R_GRID))
    return _float_or_array(np.sqrt(_critical_ratio(gain, lam)))


def p_critical(beta, spec: NoiseSpec, ledger: ConstantLedger | None = None):
    """Smallest integer moment order with a strictly positive lower Lyapunov
    exponent on the _R_GRID-point radius table at the given coupling: the first p
    with p - 1 > min_r lam(r) / (beta^2 Gbar(r)).  Accepts a scalar or an
    array of beta, all on one radius table; a scalar gives an int."""
    b = np.asarray(beta, dtype=float)
    if not np.all(b > 0.0):
        raise ValueError("beta must be positive")
    gbar, lam = _q_parts(2, spec, ledger, _r_search_grid(spec, _R_GRID))
    with np.errstate(over="ignore"):
        m = (_critical_ratio(gbar, lam) / b / b).ravel()
    if not np.all(m < 2.0**62):
        raise RuntimeError("no critical moment order below 2^62")
    bb = (b * b).ravel()

    def positive(orders, rows):
        s = bb[rows] * (orders - 1)
        return np.max(s[:, None] * gbar - lam, axis=1) > 0.0

    # the floor can land one off at a tie (m an integer) through rounding,
    # so each order is stepped until the strict predicate agrees
    p = np.maximum(2, np.floor(m).astype(np.int64) + 2)
    rows = np.arange(p.size)
    up = rows[~positive(p, rows)]
    while up.size:
        p[up] += 1
        up = up[~positive(p[up], up)]
    down = rows[p > 2]
    down = down[positive(p[down] - 1, down)]
    while down.size:
        p[down] -= 1
        down = down[p[down] > 2]
        down = down[positive(p[down] - 1, down)]
    return int(p[0]) if b.ndim == 0 else p.reshape(b.shape)


@dataclass(frozen=True)
class SlopeReport:
    """Fitted growth rate of the lower Lyapunov exponent along one axis,
    next to the claimed and balance rates.  passed is None when the theory
    pins no rate for the case."""

    axis: str
    case: str
    grid: tuple
    exponents: tuple
    fitted_slope: float
    claimed_slope: float | None
    balance_slope: float | None
    ratio_spread: float | None
    passed: bool | None


def asymptotic_slope_check(
    axis: str,
    grid,
    p_or_beta,
    spec: NoiseSpec,
    ledger: ConstantLedger | None = None,
) -> SlopeReport:
    """Growth-rate audit of the lower bound along the coupling or the moment
    order.

    axis='beta': fixed p = p_or_beta, fitted log-log slope of the exponent in
    beta; the pinned rate is 2 in the bounded-kernel case C (pass/fail at
    0.1), report-only elsewhere, with the small-r balance rate listed for
    case A.  axis='p': fixed beta = p_or_beta, slope in p plus the spread of
    exponent/(p(p-1)), which should settle to a constant in case C (pass at
    10% spread)."""
    grid = np.asarray(grid, dtype=float)
    # span is measured in the fit variable: beta itself, or p(p-1)
    fit_var = grid * (grid - 1.0) if axis == "p" else grid
    if len(grid) < 2 or fit_var.max() < 10.0 * fit_var.min():
        raise ValueError("grid must span at least one decade")
    regime = regime_of(spec.alpha, spec.n)
    flat = regime is Regime.FLAT  # the bounded-kernel case C, the one pinned rate
    a, n = spec.alpha, spec.n
    claimed = 2.0 if flat else None
    if axis == "beta":
        exps = lower_lyapunov(int(p_or_beta), grid, spec, ledger)
        if np.any(exps <= 0.0):
            # p_critical falls with beta, so the smallest coupling needs the largest order
            need = p_critical(grid.min(), spec, ledger)
            raise ValueError(
                "exponent not positive on the whole grid; raise p to "
                f"p_critical = {need} at beta = {grid.min():.4g}"
            )
        fitted = float(np.polyfit(np.log(grid), np.log(exps), 1)[0])
        # the small-r balance rate in case A; in case C it is the claimed 2
        balance = 4.0 / (4.0 * a - n + 2.0) if regime is Regime.POWER else claimed
        passed = (abs(fitted - 2.0) <= 0.1) if flat else None
        spread = None
    elif axis == "p":
        beta = float(p_or_beta)
        ps = [int(round(v)) for v in grid]
        exps = lower_lyapunov(np.array(ps), beta, spec, ledger)
        if np.any(exps <= 0.0):
            # beta_critical falls with p, so the smallest order needs the most
            need = beta_critical(min(ps), spec, ledger)
            raise ValueError(
                "exponent not positive on the whole grid; raise beta above "
                f"beta_critical = {need:.4g} at p = {min(ps)}"
            )
        fitted = float(np.polyfit(np.log(ps), np.log(exps), 1)[0])
        ratios = exps / np.array([pp * (pp - 1.0) for pp in ps])
        spread = float(ratios.max() / ratios.min() - 1.0)
        balance = None
        passed = (spread <= 0.1) if flat else None
        grid = np.asarray(ps, dtype=float)
    else:
        raise ValueError("axis must be 'beta' or 'p'")
    return SlopeReport(
        axis=axis,
        case={Regime.POWER: "A", Regime.LOG: "B", Regime.FLAT: "C"}[regime],
        grid=tuple(float(g) for g in grid),
        exponents=tuple(float(e) for e in exps),
        fitted_slope=fitted,
        claimed_slope=claimed,
        balance_slope=balance,
        ratio_spread=spread,
        passed=passed,
    )
