"""Fractional kernels of the shifted Laplacian: the noise covariance kernel.

The kernel of order ``alpha`` is the Gamma-weighted time integral of the heat
kernel,

    G_alpha(d) = (1/Gamma(alpha)) * integral_0^inf t^(alpha-1) p_t(d) dt,

which is the Green-type kernel of the alpha-th inverse power of the negative
Laplacian.  It is radial, strictly decreasing, diverges on the diagonal like
``d^(2 alpha - n)`` when ``alpha < n/2`` (logarithmically at ``alpha = n/2``),
and decays like a Gaussian in the distance at infinity.

The module treats ``spec.alpha`` as the order of the kernel being evaluated.
The spatial covariance of the driving noise is the kernel of order ``2 alpha``,
so its callers pass a spec with the order doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, hyperu, kve

from .hyperbolic import BracketMode, HeatKernelMode, KernelBracket, _check_scale, _log_sinh
from .ledger import ConstantLedger
from .specialfn import QuadratureError, dm_h_log, log_gamma_upper

__all__ = [
    "NoiseSpec",
    "dalang_check",
    "first_chaos_mean",
    "g_alpha",
    "g_alpha_log_values",
    "g_alpha_lower",
    "g_alpha_lower_log",
    "calibrate_lower_constant",
    "KernelGrid",
]

# Log-time trapezoid of the comparison-mode transforms (g_alpha_log_values)
_TRAP_INTERVALS = 32  # initial intervals per point's window
_TRAP_LEVELS = 8  # cap on step halvings
_TRAP_RTOL = 1e-10  # two successive levels must agree to this at every point
_WINDOW_DROP = 46.0  # window ends lie below e^-46 (about 1e-20) of the peak
_U_LIMIT = 700.0  # |u| up to which e^u and e^-u stay finite normal doubles
_LADDER = 2.0 ** np.arange(-2, 11)  # offsets from the peak guess searched for the ends


def dalang_check(alpha: float, n: int) -> bool:
    """Spectral integrability condition for the noise: alpha > (n-2)/4."""
    return alpha > (n - 2) / 4.0


@dataclass(frozen=True)
class NoiseSpec:
    """Noise regularity alpha, coupling beta, dimension n, curvature scale K."""

    alpha: float
    beta: float
    n: int
    K: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be nonnegative")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError("dimension n must be an integer >= 2")
        _check_scale(self.K)

    @property
    def dalang_ok(self) -> bool:
        return dalang_check(self.alpha, self.n)


def _check_distances(spec: NoiseSpec, d) -> None:
    if np.any(d < 0.0):
        raise ValueError("distance must be nonnegative")
    if spec.alpha <= spec.n / 2.0 and np.any(d == 0.0):
        raise ValueError(
            "kernel diverges on the diagonal for alpha <= n/2; "
            "evaluate at d > 0 or raise alpha"
        )


def _log_g_exact_n3(spec: NoiseSpec, d) -> np.ndarray:
    """log of the exact n = 3 kernel at distances d, in closed form.

    DLMF 10.32.10 turns the time integral of the n = 3 heat kernel into

        G_alpha(d) = K^(3/2-alpha) (4 pi)^(-3/2) (rho/sinh rho)
                     2 (rho/2)^nu K_nu(rho) / Gamma(alpha),

    with rho = sqrt(K) d and nu = alpha - 3/2.  The scaled Bessel function
    kve keeps the large-rho tail in log space.  On the diagonal (alpha > 3/2)
    the Bessel factor tends to Gamma(nu).
    """
    if spec.n != 3:
        raise ValueError("the exact closed-form kernel is only available for n = 3")
    d = np.asarray(d, dtype=float)
    _check_distances(spec, d)
    a, K = spec.alpha, spec.K
    nu = a - 1.5
    lead = (1.5 - a) * math.log(K) - 1.5 * math.log(4.0 * math.pi) - gammaln(a)
    on_diag = d == 0.0
    rho = math.sqrt(K) * np.where(on_diag, 1.0, d)
    out = (
        lead
        + np.log(rho)
        - _log_sinh(rho)
        + math.log(2.0)
        + nu * np.log(rho / 2.0)
        + np.log(kve(nu, rho))
        - rho
    )
    if np.any(on_diag):
        out = np.where(on_diag, lead + gammaln(nu), out)
    return out


def first_chaos_mean(spec: NoiseSpec, t: float) -> float:
    """E[S](t), the exact mean of the first-order chaos coefficient that
    :func:`~hypam.fkmc.moment_and_chaos` estimates with the exact n = 3 kernel;
    spec is the noise spec, a = 2 alpha.  Two independent paths lie at the
    distance of one path at time 2s, so by the semigroup property

        E[S](t) = (1/Gamma(a+1)) int_0^inf p_tau(o, o) [tau^a - (tau - 2t)_+^a] dtau,

    finite exactly when alpha > (n-2)/4.  At K = 1, p_tau(o, o) = (4 pi tau)^(-3/2)
    e^(-tau) makes it (4 pi)^(-3/2) [Gamma(a - 1/2)/Gamma(a+1) - e^(-2t) (2t)^(a - 1/2)
    U(a+1, a+1/2, 2t)], U Tricomi's function, whose x^(a - 1/2) U(a+1, a+1/2, x) is
    U(3/2, 3/2 - a, x) (DLMF 13.2.40); other K scale as K^(1/2 - a) E[S_1](K t).
    """
    if spec.n != 3:
        raise ValueError("the first-chaos mean is only available for n = 3")
    if not spec.dalang_ok:
        raise ValueError("the first-chaos mean diverges for alpha <= (n-2)/4")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive")
    a, x = 2.0 * spec.alpha, 2.0 * spec.K * t
    tail = math.exp(-x) * hyperu(1.5, 1.5 - a, x)
    bracket = math.exp(gammaln(a - 0.5) - gammaln(a + 1.0)) - tail
    return float(spec.K ** (0.5 - a) * (4.0 * math.pi) ** -1.5 * bracket)


def _log_integrand(u: np.ndarray, z: np.ndarray, a: float, n: int) -> np.ndarray:
    """log of tau^a h(tau, z) at tau = e^u, the transform's integrand in log-time."""
    return a * u + dm_h_log(np.exp(u), z, n)


def _windows(z: np.ndarray, a: float, n: int, open_left: bool):
    """Per-point windows (lo, hi) in u whose ends lie e^-46 below the peak, and
    the highest log-integrand value seen, each point's scale.

    The integrand is log-concave in u (the second derivative of its log is
    -z^2 e^-u/4 - (n-1)^2 e^u/4 plus a term below (n-3)/2 e^u), so a node
    under the threshold on either side of the highest node bounds everything
    beyond it.  The nodes are a doubling ladder about the peak of
    -m u - A e^-u - B e^u, the log less its slowly varying factor.  With
    open_left the left end may be u = -700 above the threshold.
    """
    m, A, B = n / 2.0 - a, z * z / 4.0, (n - 1) ** 2 / 4.0
    root = np.sqrt(m * m + 4.0 * A * B)
    x = 2.0 * A / (m + root) if m > 0.0 else (root - m) / (2.0 * B)
    offsets = np.concatenate([-_LADDER[::-1], [0.0], _LADDER])[:, None]
    u = np.clip(np.log(x) + offsets, -_U_LIMIT, _U_LIMIT)
    with np.errstate(over="ignore"):  # far nodes of distant points: log value -inf
        L = _log_integrand(u, z, a, n)
    top, peak = L.max(axis=0), L.argmax(axis=0)
    low = L < top - _WINDOW_DROP
    rows = np.arange(len(offsets))[:, None]
    left = np.where(low & (rows < peak), rows, 0 if open_left else -1).max(axis=0)
    right = np.where(low & (rows > peak), rows, len(offsets)).min(axis=0)
    if np.any(left < 0) or np.any(right == len(offsets)):
        raise QuadratureError(
            "kernel transform: the integrand stays above 1e-20 of its peak "
            f"out to |log(K t)| = {_U_LIMIT:g}"
        )
    cols = np.arange(z.size)
    return u[left, cols], u[right, cols], top


def _log_time_transform(z: np.ndarray, a: float, n: int, tail_slope: float = 0.0) -> np.ndarray:
    """log of the integral over u of exp(a u) h(e^u, z), per point of z.

    Trapezoid rule on each point's window, halving the step until two
    successive levels agree to 1e-10 relative at every point; the integrand
    is analytic in a strip and decays doubly exponentially, so the rule
    converges geometrically (Trefethen & Weideman 2014).  A positive
    tail_slope says the integrand continues below the window as
    exp(tail_slope u); the lattice sum of that tail, 1/(1 - e^(-tail_slope h)),
    then replaces the half weight of the left end.
    """
    lo, hi, scale = _windows(z, a, n, open_left=tail_slope > 0.0)
    nodes = _TRAP_INTERVALS
    h = (hi - lo) / nodes
    f = np.exp(_log_integrand(lo + np.arange(nodes + 1)[:, None] * h, z, a, n) - scale)
    f_lo, s = f[0], f.sum(axis=0) - 0.5 * f[-1]

    def trapezoid(h):
        w_lo = -1.0 / np.expm1(-tail_slope * h) if tail_slope > 0.0 else 0.5
        return h * (s - (1.0 - w_lo) * f_lo)

    total = trapezoid(h)
    for _ in range(_TRAP_LEVELS):
        h = h / 2.0
        mid = lo + (2 * np.arange(nodes) + 1)[:, None] * h
        nodes *= 2
        s = s + np.exp(_log_integrand(mid, z, a, n) - scale).sum(axis=0)
        prev, total = total, trapezoid(h)
        if np.all(np.abs(total - prev) <= _TRAP_RTOL * total):
            return scale + np.log(total)
    raise QuadratureError(
        f"kernel transform: trapezoid levels still differ after {_TRAP_LEVELS} halvings"
    )


def g_alpha_log_values(spec: NoiseSpec, d, mode: HeatKernelMode):
    """log of the kernel of order spec.alpha at distances d (vectorized over d).

    The exact n = 3 mode is the closed form of :func:`_log_g_exact_n3`.  The
    comparison modes substitute u = log(K t) and z = sqrt(K) d, so that

        G_alpha(d) = C K^(n/2 - alpha) / Gamma(alpha) * int exp(alpha u) h(e^u, z) du

    with h the profile :func:`~hypam.specialfn.dm_h_log` and C the mode's
    constant, and evaluate the integral with a step-halving log-time
    trapezoid rule: successive levels agree to 1e-10 relative at every point,
    and every point's window ends lie 1e-20 below its peak; otherwise
    :class:`~hypam.specialfn.QuadratureError`.  Diverges for d = 0 when
    alpha <= n/2.
    """
    if mode.bracket is BracketMode.EXACT:
        out = _log_g_exact_n3(spec, d)
    else:
        a, n, K = spec.alpha, spec.n, spec.K
        d_arr = np.asarray(d, dtype=float)
        _check_distances(spec, d_arr)
        z = math.sqrt(K) * d_arr.ravel()
        logs = np.empty_like(z)
        # on the diagonal the lower tail decays only like tau^(alpha - n/2), which
        # sets its window; it is computed once, apart from every other point's
        on_diag = z == 0.0
        if np.any(on_diag):
            logs[on_diag] = _log_time_transform(np.zeros(1), a, n, tail_slope=a - n / 2.0)[0]
        if not np.all(on_diag):
            logs[~on_diag] = _log_time_transform(z[~on_diag], a, n)
        lead = math.log(mode.C) + (n / 2.0 - a) * math.log(K) - math.lgamma(a)
        out = (lead + logs).reshape(d_arr.shape)
    if np.ndim(d) == 0:
        return float(out)
    return out


def g_alpha(spec: NoiseSpec, d: float, mode: HeatKernelMode) -> KernelBracket:
    """Kernel of order spec.alpha at distance d, with the side of the truth it
    sits on; a scalar wrapper of :func:`g_alpha_log_values`."""
    value = math.exp(g_alpha_log_values(spec, float(d), mode))
    return KernelBracket(value=value, mode=mode.bracket, d=float(d), alpha=spec.alpha)


def g_alpha_lower_log(spec: NoiseSpec, z, ledger: ConstantLedger | None = None):
    """log of the closed-form radial lower bound for the kernel of order spec.alpha.

    Three branches by how the order compares with n/2: an upper-incomplete-Gamma
    profile below, an exponential-integral profile at, and a bounded profile
    above, all carrying the curvature-scaled Gaussian factor exp(-K z^2 / 4)
    and the spectral-gap decay exp(-(n-1) sqrt(K) z / 2).  Vectorized over
    z > 0.
    """
    a, n, K = spec.alpha, spec.n, spec.K
    C = ledger.value("gbar_C") if ledger is not None else 1.0
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    zf = np.atleast_1d(z_arr)
    if np.any(zf <= 0.0) or not np.all(np.isfinite(zf)):
        raise ValueError("the closed-form lower bound needs finite z > 0")
    skz = math.sqrt(K) * zf
    w = K * zf * zf / 4.0
    lc = math.log(C) - math.lgamma(a) - a * math.log(K)
    if a > n / 2.0:
        out = lc - w - (n - 1) * skz / 2.0 - 1.5 * np.log1p(skz)
    else:
        s = n / 2.0 - a
        pref = lc - (n - 1) ** 2 / 4.0 - (n - 1) * skz / 2.0 - 1.5 * np.log(2.0 + skz)
        tail = log_gamma_upper(s, w)
        if s > 0.0:
            out = pref - s * np.log(w) + tail
        else:
            out = pref + tail
    if scalar:
        return float(out[0])
    return out.reshape(z_arr.shape)


def g_alpha_lower(spec: NoiseSpec, z, ledger: ConstantLedger | None = None):
    """Closed-form radial lower bound; see :func:`g_alpha_lower_log`."""
    lg = g_alpha_lower_log(spec, z, ledger)
    if np.ndim(lg) == 0:
        return math.exp(float(lg))
    return np.exp(lg)


def calibrate_lower_constant(
    spec: NoiseSpec,
    ledger: ConstantLedger,
    d_grid=None,
) -> float:
    """Pin the lower-bound constant against the exact kernel over a radial grid.

    The constant is set to the smallest ratio exact/closed-form found on the
    grid (shaved by one part in 1e12), so the calibrated bound touches the
    exact kernel at the pinch point and sits below it elsewhere on the grid.
    Requires n = 3.
    """
    if spec.n != 3:
        raise ValueError("calibration needs the exact kernel, i.e. n = 3")
    if d_grid is None:
        sk = math.sqrt(spec.K)
        grid = np.geomspace(1e-3 / sk, 10.0 / sk, 40)
    else:
        grid = np.asarray(d_grid, dtype=float)
    log_ratios = _log_g_exact_n3(spec, grid) - g_alpha_lower_log(spec, grid, ledger=None)
    j = int(np.argmin(log_ratios))
    C = math.exp(log_ratios[j]) * (1.0 - 1e-12)
    ledger.set(
        "gbar_C",
        C,
        "calibrated",
        note=f"ratio minimum at d = {grid[j]:.6g} over {len(grid)}-point grid",
    )
    return C


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, m - 1) cubic coefficients per interval, highest power first, of
    the PCHIP (Fritsch-Butland) interpolant of y at the increasing nodes x.

    The operations and their order are scipy's (PchipInterpolator's node
    slopes, then CubicHermiteSpline's coefficients), so the array is bitwise
    PchipInterpolator(x, y).c without importing scipy.interpolate, which adds
    about 24 MB and 0.2 s to a process.  Two nodes give the straight line."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("PCHIP nodes and values must be finite")
    h = x[1:] - x[:-1]
    if not (h > 0.0).all():
        raise ValueError("PCHIP nodes must be strictly increasing")
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        dk = np.concatenate((m, m))
    else:
        # zero slope at a local extremum, else the weighted harmonic mean
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):  # masked by flat
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dk = np.zeros_like(y)
        dk[1:-1][~flat] = 1.0 / whmean[~flat]
        dk[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        dk[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (dk[:-1] + dk[1:] - 2 * m) / h
    return np.stack((t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]))


class KernelGrid:
    """Radial kernel table with monotone cubic interpolation in log-value space,
    of the n = 3 closed form (source EXACT) or the closed-form lower bound
    (source LOWER); source is stored as a BracketMode.

    Distances below the floor are capped at the floor value (the kernel is
    decreasing, so the cap only lowers pairwise energies); distances beyond
    the table are mapped to zero, again a downward-biased choice.
    """

    def __init__(
        self,
        spec: NoiseSpec,
        source: BracketMode = BracketMode.EXACT,
        *,
        delta_floor: float,
        d_max: float,
        n_nodes: int = 400,
        ledger: ConstantLedger | None = None,
    ):
        if source not in (BracketMode.EXACT, BracketMode.LOWER):
            raise ValueError("source must be 'exact' or 'lower'")
        if not (delta_floor > 0.0 and d_max > delta_floor):
            raise ValueError("need 0 < delta_floor < d_max")
        if n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        self.spec = spec
        self.source = BracketMode(source)
        self.delta_floor = float(delta_floor)
        self.d_max = float(d_max)
        nodes = np.geomspace(delta_floor, d_max, n_nodes)
        if self.source is BracketMode.EXACT:
            logv = _log_g_exact_n3(spec, nodes)
        else:
            logv = np.asarray(g_alpha_lower_log(spec, nodes, ledger))
        self._nodes = nodes
        # the nodes are log-spaced, so a key's interval is computed, not searched
        self._log_lo = math.log(nodes[0])
        self._inv_h = (n_nodes - 1) / (math.log(nodes[-1]) - self._log_lo)
        # the cubic coefficients per interval, highest power first
        self._coef = _pchip_coefficients(nodes, logv)
        # np.exp, as in the lookup: math.exp can differ from it in the last bit
        self.floor_value = float(np.exp(logv[0]))

    def _interval(self, s: np.ndarray) -> np.ndarray:
        """Index of the interval holding each clipped distance s: the index
        searchsorted(nodes, s, "right") - 1 would give, capped at the last
        interval.  The guess from log s is off by at most one next to a node
        (rounding of the logs and of geomspace), and one comparison each way
        corrects it."""
        last = len(self._nodes) - 2
        j = np.log(s)
        j -= self._log_lo
        j *= self._inv_h
        with np.errstate(invalid="ignore"):  # a NaN key casts to any index, clipped below
            j = j.astype(np.intp)  # s >= nodes[0], so this truncation is the floor
        np.maximum(j, 0, out=j)
        np.minimum(j, last, out=j)
        j -= s < self._nodes.take(j)
        j += s >= self._nodes.take(j + 1)
        np.minimum(j, last, out=j)
        return j

    def __call__(self, d):
        """The table at distances d.  The PCHIP cubics are built and evaluated
        in numpy, in scipy's order, so the bits are those of PchipInterpolator;
        numpy releases the GIL in each array operation, where scipy's compiled
        evaluation holds it, so worker threads can look up at the same time.
        An F-ordered d is read in its own memory order, without a copy."""
        d_arr = np.asarray(d, dtype=float)
        order = "F" if d_arr.flags.f_contiguous and not d_arr.flags.c_contiguous else "C"
        flat = d_arr.ravel(order)
        s = np.maximum(flat, self.delta_floor)
        np.minimum(s, self.d_max, out=s)
        j = self._interval(s)
        s -= self._nodes.take(j)
        # ((c3 + c2 s) + c1 s^2) + c0 s^3 with s^3 = (s s) s, as scipy sums it
        c0, c1, c2, c3 = self._coef
        out = c3.take(j)
        t = c2.take(j)
        t *= s
        out += t
        z = s * s
        np.take(c1, j, out=t, mode="clip")  # j is in range; "raise" would buffer
        t *= z
        out += t
        z *= s
        np.take(c0, j, out=t, mode="clip")
        t *= z
        out += t
        np.exp(out, out=out)
        np.copyto(out, 0.0, where=flat > self.d_max)
        if np.isscalar(d) or d_arr.ndim == 0:
            return float(out[0])
        return out.reshape(d_arr.shape, order=order)
