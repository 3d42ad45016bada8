"""The lower-bound solvers against independent references: q_sup against a
dense scan plus a bounded scalar maximizer, beta_critical against a
bisection, p_critical at exact ties, and properties over random specs."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from hypam import (
    NoiseSpec,
    beta_critical,
    dirichlet_eigenvalue_upper,
    fkmc,
    g_alpha_lower,
    lower_lyapunov,
    p_critical,
    q_sup,
)
from hypam.fkmc import _q_parts, _r_search_grid

SPEC = NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0)
# (n, alpha) pairs of the phase-diagram scans, below, at and above n/4
CONFIGS = [(3, 0.6), (3, 1.0), (3, 1.5), (4, 0.8), (4, 1.5), (5, 1.25), (5, 2.0), (2, 0.4)]


def q_lower(r, p, beta, spec):
    """Q(r) at one radius, in scalar arithmetic: the pair energy on the ball
    of radius r minus the Dirichlet eigenvalue bound for that ball."""
    gbar = g_alpha_lower(replace(spec, alpha=2.0 * spec.alpha), float(r))
    return beta * beta * (p - 1) * gbar - dirichlet_eigenvalue_upper(float(r), spec.n, spec.K)


def reference_sup(p, beta, spec):
    """Maximum of Q on a 2e5-point log grid over q_sup's search range, refined
    by a bounded scalar search in log r between the best node's neighbours."""
    sk = math.sqrt(spec.K)
    y = np.linspace(math.log(1e-6 / sk), math.log(1e3 / sk), 200_001)
    r = np.exp(y)
    q = beta * beta * (p - 1) * g_alpha_lower(replace(spec, alpha=2.0 * spec.alpha), r)
    q = q - dirichlet_eigenvalue_upper(r, spec.n, spec.K)
    i = int(np.argmax(q))
    bounds = (y[max(0, i - 1)], y[min(len(y) - 1, i + 1)])
    res = minimize_scalar(
        lambda x: -q_lower(math.exp(x), p, beta, spec),
        bounds=bounds,
        method="bounded",
        options={"xatol": 1e-12},
    )
    if -res.fun > q[i]:
        return math.exp(res.x), -res.fun
    return r[i], q[i]


def grid_predicate(spec, p, beta):
    """The strict criticality test on the 600-point grid: max_r Q(r) > 0,
    rounded as p_critical rounds it."""
    gbar, lam = _q_parts(2, spec, None, _r_search_grid(spec, 600))
    return bool(np.max(beta * beta * (p - 1) * gbar - lam) > 0.0)


class TestQSup:
    @pytest.mark.parametrize(
        "p, beta, spec",
        [(2, 15.0, SPEC), (4, 40.0, SPEC), (3, 800.0, NoiseSpec(1.25, 0.5, 5, 2.0))],
    )
    def test_interior_maximum(self, p, beta, spec):
        r_ref, v_ref = reference_sup(p, beta, spec)
        res = q_sup(p, beta, spec)
        assert 1e-5 < res.r_star < 1e2
        assert res.value == pytest.approx(v_ref, rel=1e-12)
        assert res.r_star == pytest.approx(r_ref, rel=1e-5)

    def test_upper_end_of_grid(self):
        # at beta = 0.1 the eigenvalue term wins and Q rises to the last node
        r_ref, v_ref = reference_sup(2, 0.1, SPEC)
        res = q_sup(2, 0.1, SPEC)
        assert r_ref == pytest.approx(1e3, rel=1e-12)
        assert res.r_star == pytest.approx(1e3, rel=1e-12)
        assert res.value == pytest.approx(v_ref, rel=1e-12)

    def test_never_below_grid_maximum(self):
        gain, lam = _q_parts(2, SPEC, None, _r_search_grid(SPEC, 600))
        for beta in (0.1, 1.0, 3.0, 30.0):
            assert q_sup(2, beta, SPEC).value >= np.max(beta * beta * gain - lam)


class TestCriticalClosedForms:
    @staticmethod
    def bisection_beta_c(p, spec, rel_tol=1e-10):
        hi = 1.0
        while not grid_predicate(spec, p, hi):
            hi *= 2.0
        lo = 0.0
        while hi - lo > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            if grid_predicate(spec, p, mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("n, alpha", CONFIGS)
    def test_beta_critical_matches_bisection(self, n, alpha):
        spec = NoiseSpec(alpha, 0.5, n, 1.0)
        for p in (2, 3, 5, 8):
            assert beta_critical(p, spec) == pytest.approx(
                self.bisection_beta_c(p, spec), rel=1e-9
            )

    @pytest.mark.parametrize("n, alpha", [(3, 1.0), (4, 0.8), (5, 2.0)])
    def test_p_critical_at_ties(self, n, alpha):
        spec = NoiseSpec(alpha, 0.5, n, 1.0)
        gbar, lam = _q_parts(2, spec, None, _r_search_grid(spec, 600))
        ok = gbar > 0.0
        with np.errstate(over="ignore"):
            m = float(np.min(lam[ok] / gbar[ok]))
        for k in range(1, 16):
            # min_r lam / (beta^2 Gbar) = k exactly, up to rounding
            beta = math.sqrt(m / k)
            p = p_critical(beta, spec)
            assert k + 1 <= p <= k + 3
            assert grid_predicate(spec, p, beta)
            assert p == 2 or not grid_predicate(spec, p - 1, beta)

    @pytest.mark.parametrize("n, alpha", CONFIGS)
    def test_no_runtime_warning(self, n, alpha):
        # the kernel underflows to zero or to subnormals at the far end of the grid
        spec = NoiseSpec(alpha, 0.5, n, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta_critical(3, spec)
            p_critical(2.0, spec)

    def test_errors(self):
        with pytest.raises(ValueError):
            p_critical(0.0, SPEC)
        with pytest.raises(RuntimeError):
            p_critical(1e-160, SPEC)


SOLVERS = {
    "q_sup": lambda spec: q_sup(2, 1.0, spec),
    "lower_lyapunov": lambda spec: lower_lyapunov(2, 1.0, spec),
    "beta_critical": lambda spec: beta_critical(2, spec),
    "p_critical": lambda spec: p_critical(1.0, spec),
}


@pytest.mark.filterwarnings("error")
class TestExtremeCurvature:
    """The lower kernel lacks its K^(n/2) scaling, so it overflows a double at
    small K, and the eigenvalue bound, which scales as K, at large K; every
    solver then raises one RuntimeError and warns nothing."""

    @pytest.mark.parametrize(
        "K, what", [(1e-200, "lower-bound kernel"), (1e308, "Dirichlet eigenvalue bound")]
    )
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_piece_past_a_double_raises(self, solver, K, what):
        message = f"the {what} overflows on the radius grid at K = {K:g}, alpha = 1"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            SOLVERS[solver](replace(SPEC, K=K))

    def test_an_exponent_past_a_double_raises(self):
        # at K = 1e-150 the kernel holds, but beta^2 times it does not at beta = 1e5
        spec = replace(SPEC, K=1e-150)
        assert math.isfinite(lower_lyapunov(2, 1e2, spec))
        with pytest.raises(RuntimeError, match="the lower exponent overflows"):
            q_sup(2, 1e5, spec)
        # at p = 8, beta = 2.7e3 the supremum of Q is 5.1e307, and p times it overflows
        assert q_sup(8, 2.7e3, spec).value < 1e308
        with pytest.raises(RuntimeError, match="the lower exponent overflows"):
            lower_lyapunov(8, 2.7e3, spec)


specs = st.builds(
    lambda n, frac, K: NoiseSpec(alpha=(n - 2) / 4.0 + frac, beta=0.5, n=n, K=K),
    st.integers(2, 5),
    st.floats(0.05, 1.5),
    st.floats(0.25, 4.0),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=specs, p=st.integers(2, 8))
def test_beta_critical_scales_like_inverse_sqrt_p_minus_one(spec, p):
    assert beta_critical(p, spec) * math.sqrt(p - 1) == pytest.approx(
        beta_critical(2, spec), rel=1e-12
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=specs, p=st.integers(2, 8))
def test_p_critical_just_above_beta_critical(spec, p):
    assert p_critical(beta_critical(p, spec) * (1.0 + 1e-6), spec) <= p


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=specs, beta=st.floats(0.05, 200.0))
def test_p_critical_brackets_beta(spec, beta):
    p = p_critical(beta, spec)
    assert beta > beta_critical(p, spec) * (1.0 - 1e-12)
    if p > 2:
        assert beta <= beta_critical(p - 1, spec) * (1.0 + 1e-12)


def same_bits(a, b):
    """Equal values bit for bit (a -0.0 differs from a 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def zoom_rows(monkeypatch, p, beta, spec):
    """The radii a scalar q_sup call evaluates Q on at each zoom level, one
    row of bytes per level: its Q evaluations after the scan."""
    rows = []
    original = fkmc._q_parts

    def recorded(p, spec, ledger, r):
        rows.append(np.asarray(r).tobytes())
        return original(p, spec, ledger, r)

    monkeypatch.setattr(fkmc, "_q_parts", recorded)
    q_sup(p, beta, spec)
    monkeypatch.setattr(fkmc, "_q_parts", original)
    return rows[1:]


def zoom_levels(monkeypatch, p, beta, spec):
    """How many zoom levels a scalar q_sup call runs."""
    return len(zoom_rows(monkeypatch, p, beta, spec))


# the phase-diagram grid, beta-major
GRID_BETAS, GRID_PS = np.meshgrid(np.geomspace(0.1, 100.0, 13), np.arange(2, 9), indexing="ij")


class TestArraySolvers:
    @pytest.mark.parametrize("spec", [SPEC, NoiseSpec(1.25, 0.5, 5, 2.0), NoiseSpec(0.8, 0.5, 4, 1.0)])
    def test_q_sup_grid_equals_scalar_calls(self, spec):
        res = q_sup(GRID_PS, GRID_BETAS, spec)
        low = lower_lyapunov(GRID_PS, GRID_BETAS, spec)
        assert res.value.shape == res.r_star.shape == low.shape == GRID_PS.shape
        for idx in np.ndindex(GRID_PS.shape):
            p, beta = int(GRID_PS[idx]), float(GRID_BETAS[idx])
            one = q_sup(p, beta, spec)
            assert type(one.value) is float and type(one.r_star) is float
            assert same_bits(res.value[idx], one.value), (p, beta)
            assert same_bits(res.r_star[idx], one.r_star), (p, beta)
            assert same_bits(low[idx], lower_lyapunov(p, beta, spec)), (p, beta)

    @pytest.mark.parametrize("spec", [SPEC, NoiseSpec(0.8, 0.5, 4, 1.0)])
    def test_grid_pairs_finish_at_different_levels(self, spec, monkeypatch):
        # the masked zoom is exercised only if some pairs close their brackets first
        levels = {
            zoom_levels(monkeypatch, int(p), float(b), spec)
            for p, b in zip(GRID_PS.ravel(), GRID_BETAS.ravel())
        }
        assert len(levels) > 1

    def test_closed_pairs_leave_the_zoom(self, monkeypatch):
        # each zoom level of a grid call evaluates exactly the distinct radius
        # rows of the pairs whose scalar call runs that level, each row once:
        # a closed bracket stops moving, and pairs sharing a bracket share it
        scalar = [
            zoom_rows(monkeypatch, int(p), float(b), SPEC)
            for p, b in zip(GRID_PS.ravel(), GRID_BETAS.ravel())
        ]
        grid = []
        original = fkmc._q_parts

        def recorded(p, spec, ledger, r):
            grid.append(np.asarray(r))
            return original(p, spec, ledger, r)

        monkeypatch.setattr(fkmc, "_q_parts", recorded)
        q_sup(GRID_PS, GRID_BETAS, SPEC)
        assert grid[0].shape == (600,)
        levels = max(map(len, scalar))
        assert len(grid) == 1 + levels
        for k, r in enumerate(grid[1:]):
            expected = {rows[k] for rows in scalar if len(rows) > k}
            assert r.shape == (len(expected), fkmc._ZOOM_POINTS)
            assert {row.tobytes() for row in r} == expected

    def test_upper_end_pair_in_a_grid(self):
        ps, betas = np.array([2, 2, 4, 2]), np.array([0.1, 15.0, 40.0, 0.1])
        res = q_sup(ps, betas, SPEC)
        assert res.r_star[0] == res.r_star[3] == pytest.approx(1e3, rel=1e-12)
        for k in range(4):
            one = q_sup(int(ps[k]), float(betas[k]), SPEC)
            assert same_bits(res.value[k], one.value)
            assert same_bits(res.r_star[k], one.r_star)

    def test_broadcast_and_r_max(self):
        betas = np.array([[0.5, 3.0], [20.0, 200.0]])
        res = q_sup(3, betas, SPEC)
        assert res.value.shape == (2, 2)
        for idx in np.ndindex(betas.shape):
            one = q_sup(3, float(betas[idx]), SPEC)
            assert same_bits(res.value[idx], one.value)
            assert same_bits(res.r_star[idx], one.r_star)

    @pytest.mark.parametrize("n, alpha", CONFIGS)
    def test_critical_arrays_equal_scalar_calls(self, n, alpha):
        spec = NoiseSpec(alpha, 0.5, n, 1.0)
        ps = np.arange(2, 9)
        bcs = beta_critical(ps, spec)
        assert same_bits(bcs, [beta_critical(int(p), spec) for p in ps])
        gbar, lam = _q_parts(2, spec, None, _r_search_grid(spec, 600))
        ok = gbar > 0.0
        with np.errstate(over="ignore"):
            m = float(np.min(lam[ok] / gbar[ok]))
        # the ties beta = sqrt(m/k), where the floor can land one off, and the phase-diagram grid
        betas = np.concatenate(
            [[math.sqrt(m / k) for k in range(1, 16)], np.geomspace(0.5, 100.0, 9)]
        )
        pcs = p_critical(betas, spec)
        assert pcs.dtype.kind == "i"
        assert pcs.tolist() == [p_critical(float(b), spec) for b in betas]
        assert type(p_critical(float(betas[0]), spec)) is int
        assert p_critical(betas.reshape(4, 6), spec).tolist() == pcs.reshape(4, 6).tolist()

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, alpha in CONFIGS:
                spec = NoiseSpec(alpha, 0.5, n, 1.0)
                lower_lyapunov(GRID_PS, GRID_BETAS, spec)
                lower_lyapunov(2, np.array([0.0, 1e-3, 1e3]), spec)
                beta_critical(np.arange(2, 9), spec)
                p_critical(np.geomspace(0.5, 100.0, 9), spec)

    def test_array_errors(self):
        with pytest.raises(ValueError):
            q_sup(np.array([2, 1]), 1.0, SPEC)
        with pytest.raises(ValueError):
            q_sup(np.array([2.0, 3.0]), 1.0, SPEC)
        with pytest.raises(ValueError):
            beta_critical(np.array([2, 1]), SPEC)
        with pytest.raises(ValueError):
            p_critical(np.array([1.0, 0.0]), SPEC)
        with pytest.raises(RuntimeError):
            p_critical(np.array([1.0, 1e-160]), SPEC)


pairs = st.lists(st.tuples(st.integers(2, 8), st.floats(0.0, 300.0)), min_size=1, max_size=6)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=specs, pairs=pairs)
def test_array_q_sup_equals_scalar_calls(spec, pairs):
    ps, betas = np.array([p for p, _ in pairs]), np.array([b for _, b in pairs])
    res = q_sup(ps, betas, spec)
    low = lower_lyapunov(ps, betas, spec)
    for k, (p, beta) in enumerate(pairs):
        one = q_sup(p, beta, spec)
        assert same_bits(res.value[k], one.value)
        assert same_bits(res.r_star[k], one.r_star)
        assert same_bits(low[k], lower_lyapunov(p, beta, spec))
