"""Feynman-Kac Monte Carlo moments, lower-bound pipeline, and criticality."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypam import (
    ConstantLedger,
    FkConfig,
    ModelPoint,
    NoiseSpec,
    RadialProfile,
    asymptotic_slope_check,
    beta_critical,
    calibrate_lower_constant,
    dirichlet_eigenvalue_upper,
    first_chaos_mean,
    intermittency_ratio,
    lower_lyapunov,
    moment_and_chaos,
    moment_estimate,
    moment_series,
    p_critical,
    q_sup,
)
from hypam import fkmc
from hypam.hyperbolic import distance_coords, radial_walk

SPEC = NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0)
ONES = RadialProfile.constant(1.0)


def cfg(beta=0.5, p=2, t_end=0.2, dt=0.02, n_paths=2048, seed=42, u0=ONES, **kw):
    return FkConfig(
        spec=replace(SPEC, beta=beta),
        p=p,
        t_end=t_end,
        dt=dt,
        n_paths=n_paths,
        seed=seed,
        u0=u0,
        **kw,
    )


class TestFkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(p=1)
        with pytest.raises(ValueError):
            cfg(t_end=0.0)
        with pytest.raises(ValueError):
            cfg(dt=-0.1)
        with pytest.raises(ValueError):
            cfg(n_paths=0)
        with pytest.raises(ValueError):
            cfg(kernel_mode="upper")
        with pytest.raises(ValueError):
            cfg(delta_floor=0.0)
        with pytest.raises(ValueError):  # exact pair kernel is a 3d closed form
            FkConfig(
                spec=NoiseSpec(alpha=1.5, beta=0.5, n=4, K=1.0),
                p=2, t_end=0.2, dt=0.02, n_paths=64, seed=1, u0=ONES,
            )
        with pytest.raises(ValueError):  # noise below the admissibility threshold
            FkConfig(
                spec=NoiseSpec(alpha=0.2, beta=0.5, n=3, K=1.0),
                p=2, t_end=0.2, dt=0.02, n_paths=64, seed=1, u0=ONES,
            )

    def test_floor_default_and_override(self):
        assert cfg().floor == pytest.approx(1e-3)
        k4 = FkConfig(
            spec=NoiseSpec(alpha=1.0, beta=0.5, n=3, K=4.0),
            p=2, t_end=0.2, dt=0.02, n_paths=64, seed=1, u0=ONES,
        )
        assert k4.floor == pytest.approx(5e-4)
        assert cfg(delta_floor=0.01).floor == 0.01


class TestZeroCoupling:
    def test_constant_data_is_exact(self):
        est = moment_estimate(cfg(beta=0.0, n_paths=1024))
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.log_mean == 0.0
        assert est.bias == "UNBIASED"
        assert est.n_paths == 1024

    def test_scaled_constant_data(self):
        est = moment_estimate(cfg(beta=0.0, p=3, u0=RadialProfile.constant(0.5)))
        assert est.mean == pytest.approx(0.125, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_bump_data_is_a_survival_probability(self):
        est = moment_estimate(cfg(beta=0.0, u0=RadialProfile.bump(1.0, 2.0)))
        assert 0.0 < est.mean <= 1.0
        assert est.stderr > 0.0


class TestDeterminism:
    def test_bitwise_repeatable(self):
        a = moment_estimate(cfg())
        b = moment_estimate(cfg())
        assert (a.mean, a.stderr, a.log_mean) == (b.mean, b.stderr, b.log_mean)

    def test_worker_invariance(self):
        c = cfg(n_paths=4096)
        a = moment_estimate(c, workers=1)
        b = moment_estimate(c, workers=8)
        assert (a.mean, a.stderr, a.log_mean) == (b.mean, b.stderr, b.log_mean)

    def test_ragged_path_count(self):
        # ensembles are simulated in fixed-size blocks; a trailing short block
        # must neither crash nor break worker invariance
        c = cfg(n_paths=1500)
        a = moment_estimate(c, workers=1)
        b = moment_estimate(c, workers=4)
        assert a.n_paths == 1500
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_seed_matters(self):
        assert moment_estimate(cfg(seed=1)).mean != moment_estimate(cfg(seed=2)).mean


class TestPairDistances:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(2, 7), p=st.integers(2, 6), log_scale=st.floats(0.0, 6.0))
    def test_bits_of_distance_coords(self, n, p, log_scale):
        # every pair at once, one coordinate at a time, as distance_coords per pair
        rng = np.random.default_rng(p * 100 + n)
        spatial = rng.standard_normal((50, p, n)) * 10.0**log_scale
        x0 = np.sqrt(0.5 + np.sum(spatial**2, axis=-1))
        X = np.concatenate([x0[..., None], spatial], axis=-1)
        I, J = np.array(fkmc._pair_list(p)).T
        got = fkmc._pair_distances(X, I, J, 2.0)
        want = np.stack([distance_coords(X[:, i], X[:, k], 2.0) for i, k in zip(I, J)], axis=1)
        assert np.array_equal(got, want)


class TestBiasAccounting:
    def test_flags(self):
        assert moment_estimate(cfg(beta=0.3)).bias == "LOWER"
        assert moment_estimate(cfg(beta=0.0)).bias == "UNBIASED"
        led = ConstantLedger()
        calibrate_lower_constant(replace(SPEC, alpha=2.0), led)
        est = moment_estimate(cfg(beta=0.0, kernel_mode="lower"), ledger=led)
        assert est.bias == "LOWER"

    def test_lower_kernel_estimates_below_exact(self):
        led = ConstantLedger()
        calibrate_lower_constant(replace(SPEC, alpha=2.0), led)
        c = cfg(beta=0.6, n_paths=4096)
        exact = moment_estimate(c, ledger=led)
        low = moment_estimate(replace(c, kernel_mode="lower"), ledger=led)
        # matched seeds: identical paths, pointwise-dominated kernel
        tol = 3.0 * math.hypot(exact.stderr, low.stderr) + 1e-3 * exact.mean
        assert low.mean <= exact.mean + tol

    def test_pathwise_floor(self):
        # the exponent is a nonnegative pair-energy integral, so the moment
        # can never fall below the constant-data contribution epsilon^p
        est = moment_estimate(cfg(beta=0.4, p=3, u0=RadialProfile.constant(0.5)))
        assert est.mean >= 0.5**3


class TestMomentSeries:
    def test_monotone_in_time(self):
        # shared ensemble and nonnegative pair energies make the series
        # nondecreasing path by path, hence in the mean
        series = moment_series(cfg(beta=0.5, dt=0.01), [0.05, 0.1, 0.15, 0.2])
        logs = [e.log_mean for e in series]
        assert all(b >= a for a, b in zip(logs, logs[1:]))
        assert logs[-1] > logs[0]

    def test_matches_single_estimate(self):
        c = cfg()
        assert moment_series(c, [c.t_end])[0].mean == moment_estimate(c).mean

    def test_odd_checkpoints(self):
        pts = intermittency_ratio(3, 2, [0.33, 0.77], cfg(p=3, dt=0.1, n_paths=1024))
        assert [p.t for p in pts] == pytest.approx([0.33, 0.77])
        assert all(math.isfinite(p.ratio) for p in pts)


def chaos_k1(t=0.3, workers=1):
    """The first chaos coefficient from a p = 2 ensemble with unit data."""
    return moment_and_chaos(cfg(t_end=t, dt=0.01, seed=7), workers=workers)[1]


class TestChaosEstimate:
    def test_positive_and_flagged(self):
        est = chaos_k1()
        assert est.mean > 0.0
        assert est.stderr > 0.0
        assert est.bias == "LOWER"

    def test_worker_invariance(self):
        a = chaos_k1(workers=1)
        b = chaos_k1(workers=4)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_grows_with_time(self):
        early = chaos_k1(t=0.15)
        late = chaos_k1(t=0.3)
        assert late.mean > early.mean


class TestChaosMeanExact:
    """The first exact value for the engine at beta > 0: two paths lie at the
    distance of one path at time 2s, so E[S](t) is one time integral of the
    on-diagonal heat kernel p_tau(o, o) = (4 pi tau)^(-3/2) e^(-K tau)."""

    @staticmethod
    def oracle(alpha, t, K=1.0):
        """The defining integral in mpmath; tau = u^10 on [0, 2t] smooths the
        tau^(2 alpha - 3/2) endpoint, which near alpha = 1/4 defeats plain quad."""
        a = mpmath.mpf(2 * alpha)
        with mpmath.workdps(30):

            def integrand(tau):
                p_oo = (4 * mpmath.pi * tau) ** -1.5 * mpmath.exp(-K * tau)
                return p_oo * (tau**a - (max(tau - 2 * t, 0) ** a))

            head = mpmath.quad(lambda u: integrand(u**10) * 10 * u**9, [0, (2 * t) ** 0.1])
            tail = mpmath.quad(integrand, [2 * t, 2 * t + 10, mpmath.inf])
            return float((head + tail) / mpmath.gamma(a + 1))

    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0])
    def test_closed_form_matches_the_defining_integral(self, alpha, t, K):
        exact = first_chaos_mean(replace(SPEC, alpha=alpha, K=K), t)
        assert exact == pytest.approx(self.oracle(alpha, t, K), rel=1e-12)

    def test_diverges_at_the_integrability_threshold(self):
        """alpha -> 1/4 is a = 2 alpha -> 1/2, where Gamma(a - 1/2) blows up:
        (a - 1/2) E[S] tends to (4 pi)^(-3/2) / Gamma(3/2)."""
        near = first_chaos_mean(replace(SPEC, alpha=0.3), 1.0)
        assert near == pytest.approx(self.oracle(0.3, 1.0), rel=1e-12)
        alphas = [0.3, 0.26, 0.251, 0.2501, 0.25 + 1e-6]
        values = [first_chaos_mean(replace(SPEC, alpha=a), 1.0) for a in alphas]
        assert all(b > a for a, b in zip(values, values[1:]))
        limit = (4 * math.pi) ** -1.5 / math.gamma(1.5)
        assert (2 * alphas[-1] - 0.5) * values[-1] == pytest.approx(limit, rel=1e-5)
        for alpha in (0.25, 0.2):
            with pytest.raises(ValueError, match="diverges"):
                first_chaos_mean(replace(SPEC, alpha=alpha), 1.0)
        with pytest.raises(ValueError, match="n = 3"):
            first_chaos_mean(replace(SPEC, n=5), 1.0)
        with pytest.raises(ValueError, match="t must be positive"):
            first_chaos_mean(SPEC, 0.0)

    def test_engine_converges_to_it_as_dt_halves(self):
        """n = 3, alpha = 1, exact kernel, t = 1: the trapezoid and floor bias
        is several stderr at dt = 0.02 and shrinks at each halving."""
        exact = first_chaos_mean(SPEC, 1.0)
        errors = []
        for dt in (0.02, 0.01, 0.005):
            run = cfg(t_end=1.0, dt=dt, n_paths=32768, seed=11, kernel_mode="exact")
            est = moment_and_chaos(run, workers=2)[1]
            errors.append((est.mean - exact) / est.stderr)
        assert abs(errors[-1]) < 3.0
        assert abs(errors[0]) > abs(errors[1]) > abs(errors[2])


class TestIntermittencyRatio:
    def test_jensen_ordering(self):
        pts = intermittency_ratio(4, 2, [0.3], cfg(p=4, dt=0.01, n_paths=4096))
        pt = pts[0]
        assert pt.ratio >= 1.0 - 3.0 * pt.stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            intermittency_ratio(4, 1, [0.1], cfg(p=4))
        with pytest.raises(ValueError):
            intermittency_ratio(2, 3, [0.1], cfg())
        with pytest.raises(ValueError):  # equal orders: the ratio is 1 by definition
            intermittency_ratio(2, 2, [0.1], cfg())
        with pytest.raises(ValueError):
            intermittency_ratio(4, 2.5, [0.1], cfg(p=4))


class TestDirichletBound:
    def test_frozen_unit_ball_value(self):
        # n = 3: the flat-ball constant is pi^2 and the closed form reduces to
        # pi^2 + 1 + (1/2)(1 - 1/sinh(1)^2)
        want = math.pi**2 + 1.0 + 0.5 * (1.0 - 1.0 / math.sinh(1.0) ** 2)
        assert dirichlet_eigenvalue_upper(1.0, 3, 1.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(11.007573570606203, rel=1e-12)

    def test_large_ball_limit(self):
        # R -> inf leaves only the spectral-gap term (n-1)^2 K / 4
        assert dirichlet_eigenvalue_upper(1e6, 3, 1.0) == pytest.approx(1.0, rel=1e-6)
        assert dirichlet_eigenvalue_upper(1e6, 4, 2.0) == pytest.approx(4.5, rel=1e-6)

    def test_small_ball_series(self):
        # B(R, K) -> K/3 as R -> 0; the bound is dominated by c_n / R^2
        lam = dirichlet_eigenvalue_upper(1e-7, 3, 1.0)
        want = math.pi**2 / 1e-14 + 1.0 + 0.5 / 3.0
        assert lam == pytest.approx(want, rel=1e-9)

    def test_monotone_decreasing_in_radius(self):
        vals = [dirichlet_eigenvalue_upper(float(r), 3, 1.0) for r in np.geomspace(0.1, 50, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_ledger_override_and_provenance(self):
        led = ConstantLedger()
        base = dirichlet_eigenvalue_upper(2.0, 3, 1.0, ledger=led)
        assert led.entry("dirichlet_c").provenance == "derived"
        assert led.value("dirichlet_c") == pytest.approx(math.pi**2, rel=1e-12)
        led2 = ConstantLedger()
        led2.set("dirichlet_c", 2.0 * math.pi**2, "user")
        bumped = dirichlet_eigenvalue_upper(2.0, 3, 1.0, ledger=led2)
        assert bumped == pytest.approx(base + math.pi**2 / 4.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            dirichlet_eigenvalue_upper(0.0, 3, 1.0)
        with pytest.raises(ValueError):
            dirichlet_eigenvalue_upper(1.0, 3, -1.0)

    def test_array_matches_scalar_calls(self):
        # radii across the series branch, the sinh form and the dropped tail
        R = np.concatenate([[1e-8, 5e-7], np.geomspace(1e-3, 50.0, 40), [400.0, 1e6]])
        for n, K in ((2, 0.5), (3, 1.0), (5, 2.0)):
            got = dirichlet_eigenvalue_upper(R, n, K)
            want = np.array([dirichlet_eigenvalue_upper(float(r), n, K) for r in R])
            assert isinstance(dirichlet_eigenvalue_upper(1.0, n, K), float)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        with pytest.raises(ValueError):
            dirichlet_eigenvalue_upper(np.array([1.0, 0.0]), 3, 1.0)


class TestLowerBoundProfile:
    def test_sup_dominates_samples(self):
        res = q_sup(2, 3.0, SPEC)
        gbar, lam = fkmc._q_parts(2, SPEC, None, np.array([0.1, res.r_star, 1.0, 5.0]))
        assert np.all(res.value >= 9.0 * gbar - lam - 1e-12)

    def test_sup_grid_refinement(self):
        coarse = q_sup(2, 3.0, SPEC, n_grid=600)
        fine = q_sup(2, 3.0, SPEC, n_grid=1200)
        assert coarse.value == pytest.approx(fine.value, rel=1e-6)


class TestLyapunovAndCriticality:
    def test_zero_coupling_floor(self):
        # Q(r) < -(n-1)^2 K / 4 for every finite ball, so the spectral-gap
        # floor is active and the bound is exactly -p (n-1)^2 K / 4
        assert lower_lyapunov(2, 0.0, SPEC) == -2.0
        assert lower_lyapunov(5, 0.0, SPEC) == -5.0

    def test_increasing_in_beta(self):
        # below the critical coupling the spectral-gap floor pins the bound
        vals = [lower_lyapunov(2, b, SPEC) for b in (1.0, 3.0, 11.0, 15.0, 25.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[1] == -2.0
        assert vals[-1] > vals[-2] > vals[-3] > 0.0

    def test_beta_critical_flip(self):
        bc = beta_critical(2, SPEC)
        assert lower_lyapunov(2, bc * (1.0 + 1e-3), SPEC) > 0.0
        assert lower_lyapunov(2, bc * (1.0 - 1e-3), SPEC) <= 0.0

    def test_beta_critical_scaling_in_p(self):
        # Q depends on (p, beta) only through beta^2 (p-1), so the critical
        # coupling scales exactly like 1/sqrt(p-1)
        ps = [2, 3, 4, 6, 8]
        bcs = [beta_critical(p, SPEC) for p in ps]
        assert all(b <= a for a, b in zip(bcs, bcs[1:]))
        consts = [bc * math.sqrt(p - 1.0) for p, bc in zip(ps, bcs)]
        for c in consts[1:]:
            assert c == pytest.approx(consts[0], rel=1e-6)

    def test_p_critical_consistency(self):
        bc4 = beta_critical(4, SPEC)
        assert p_critical(bc4 * 1.01, SPEC) == 4
        bc2 = beta_critical(2, SPEC)
        assert p_critical(bc2 * 1.01, SPEC) == 2
        with pytest.raises(ValueError):
            p_critical(0.0, SPEC)


class TestSlopeCheck:
    def test_beta_axis_bounded_case(self):
        rep = asymptotic_slope_check("beta", [1e2, 1e3, 1e4], 2, SPEC)
        assert rep.case == "C"
        assert rep.claimed_slope == 2.0
        assert abs(rep.fitted_slope - 2.0) <= 0.1
        assert rep.passed is True

    def test_p_axis_bounded_case(self):
        rep = asymptotic_slope_check("p", [4, 8, 16, 32], 300.0, SPEC)
        assert rep.case == "C"
        assert rep.ratio_spread is not None and rep.ratio_spread <= 0.1
        assert rep.passed is True

    def test_singular_case_is_report_only(self):
        spec_a = NoiseSpec(alpha=0.5, beta=1.0, n=3, K=1.0)
        rep = asymptotic_slope_check("beta", [1e2, 1e3, 1e4], 2, spec_a)
        assert rep.case == "A"
        assert rep.claimed_slope is None
        assert rep.passed is None
        assert rep.balance_slope == pytest.approx(4.0)

    def test_grid_span_guard(self):
        with pytest.raises(ValueError):
            asymptotic_slope_check("beta", [1.0, 5.0], 2, SPEC)
        # a p grid spanning under a decade in p still spans one in p(p-1)
        rep = asymptotic_slope_check("p", [4, 32], 300.0, SPEC)
        assert rep.case == "C"

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            asymptotic_slope_check("gamma", [1e2, 1e3], 2, SPEC)

    def test_deterministic(self):
        a = asymptotic_slope_check("beta", [1e2, 1e3], 2, SPEC)
        b = asymptotic_slope_check("beta", [1e2, 1e3], 2, SPEC)
        assert a.fitted_slope == b.fitted_slope


class TestBallSurvival:
    """Survival in the ball of radius R about the start: the share of paths
    whose largest distance so far, radial_walk's d_max, stays within R."""

    @staticmethod
    def survival(R, ts, dt, n_paths, seed):
        _, _, d_max = radial_walk(ModelPoint.basepoint(3, 1.0), ts, dt, n_paths, seed, 1)
        return np.count_nonzero(d_max <= R, axis=1) / n_paths

    def test_decreasing_and_deterministic(self):
        out = self.survival(1.0, [0.1, 0.2, 0.3], 0.005, 2048, seed=3)
        assert all(b <= a for a, b in zip(out, out[1:]))
        assert np.all((out >= 0.0) & (out <= 1.0))
        again = self.survival(1.0, [0.1, 0.2, 0.3], 0.005, 2048, seed=3)
        assert np.array_equal(out, again)

    def test_bad_step_and_path_count(self):
        with pytest.raises(ValueError, match="dt"):
            self.survival(1.0, [0.1], 0.0, 64, seed=1)
        with pytest.raises(ValueError, match="n_paths"):
            self.survival(1.0, [0.1], 0.01, 0, seed=1)
