"""The lower-bound solvers against independent references: q_sup against a
dense scan plus a bounded scalar maximizer, beta_critical against a
bisection, p_critical at exact ties, and properties over random specs."""

import math
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
    g_alpha_lower,
    p_critical,
    q_lower,
    q_sup,
)
from hypam.fkmc import _q_parts, _r_search_grid

SPEC = NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0)
# (n, alpha) pairs of the phase-diagram scans, below, at and above n/4
CONFIGS = [(3, 0.6), (3, 1.0), (3, 1.5), (4, 0.8), (4, 1.5), (5, 1.25), (5, 2.0), (2, 0.4)]


def reference_sup(p, beta, spec, r_max=math.inf):
    """Maximum of Q on a 2e5-point log grid over q_sup's search range, refined
    by a bounded scalar search in log r between the best node's neighbours."""
    sk = math.sqrt(spec.K)
    hi = 1e3 / sk if math.isinf(r_max) else r_max
    y = np.linspace(math.log(min(1e-6 / sk, hi / 10.0)), math.log(hi), 200_001)
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
    gbar, lam = _q_parts(2, spec, None, _r_search_grid(spec, math.inf, 600))
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

    def test_r_max(self):
        r_ref, v_ref = reference_sup(2, 3.0, SPEC, r_max=0.5)
        res = q_sup(2, 3.0, SPEC, r_max=0.5)
        assert res.r_star <= 0.5 * (1.0 + 1e-12)
        assert res.value == pytest.approx(v_ref, rel=1e-12)

    def test_never_below_grid_maximum(self):
        gain, lam = _q_parts(2, SPEC, None, _r_search_grid(SPEC, math.inf, 600))
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
        gbar, lam = _q_parts(2, spec, None, _r_search_grid(spec, math.inf, 600))
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
            p_critical(80.0, spec, r_max=0.5)

    def test_errors(self):
        with pytest.raises(ValueError):
            p_critical(0.0, SPEC)
        with pytest.raises(RuntimeError):
            p_critical(1e-160, SPEC)


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
