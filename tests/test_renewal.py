"""Renewal-type upper bounds: profiles, the growth-rate inversion, and decay."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from hypam import (
    BoundConfig,
    NoiseSpec,
    Regime,
    f_profile,
    psi_upper,
    regime_of,
    semigroup_decay_bound,
    theta,
    theta_slope_report,
    upper_exponent,
)
from hypam.renewal import short_time_term, tail_term

EULER_GAMMA = 0.5772156649015329


def cfg_for(alpha, r=math.inf, n=3, K=1.0, C_chaos=1.0):
    spec = NoiseSpec(alpha=alpha, beta=1.0, n=n, K=K)
    return BoundConfig(spec=spec, r=r, C_chaos=C_chaos)


class TestRegimes:
    def test_classification(self):
        assert regime_of(0.5, 3) is Regime.POWER
        assert regime_of(0.75, 3) is Regime.LOG
        assert regime_of(1.0, 3) is Regime.FLAT
        assert regime_of(0.3, 2) is Regime.POWER

    def test_below_dalang_raises(self):
        with pytest.raises(ValueError):
            regime_of(0.25, 3)
        with pytest.raises(ValueError):
            regime_of(0.1, 3)

    def test_config_properties(self):
        assert cfg_for(1.0, r=math.inf).b == 0.0
        assert cfg_for(1.0, r=2.0).b == pytest.approx(1.0)  # (n-1)^2 K / 4
        assert cfg_for(1.0, r=8.0).b == pytest.approx(0.25)
        assert cfg_for(1.0, r=1.0).b == pytest.approx(1.0)  # r < 2 pinned at 2
        assert cfg_for(0.5).regime is Regime.POWER

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg_for(0.2)  # below the noise-admissibility threshold
        with pytest.raises(ValueError):
            cfg_for(1.0, r=0.5)
        with pytest.raises(ValueError):
            cfg_for(1.0, r=math.nan)
        with pytest.raises(ValueError):
            cfg_for(1.0, C_chaos=0.0)


class TestPsiUpper:
    def test_frozen_values(self):
        cfg = cfg_for(1.0)
        assert psi_upper(0.1, cfg) == pytest.approx(1.0, rel=1e-12)
        assert psi_upper(0.5, cfg) == pytest.approx(1.5443310539518174, rel=1e-12)
        assert psi_upper(2.0, cfg) == pytest.approx(0.19245008972987526, rel=1e-12)

    def test_chaos_constant_scales_quadratically(self):
        base = psi_upper(0.3, cfg_for(1.0, C_chaos=1.0))
        assert psi_upper(0.3, cfg_for(1.0, C_chaos=2.0)) == pytest.approx(4.0 * base, rel=1e-12)

    def test_positive(self):
        cfg = cfg_for(1.0)
        for t in (0.01, 0.49999, 0.5, 0.50001, 10.0):
            assert psi_upper(t, cfg) > 0.0


class TestProfileTerms:
    def test_i3_closed_form(self):
        # (1 - e^(-rho/2K)) / rho
        assert short_time_term(3, 1.0, cfg_for(1.0)) == pytest.approx(
            0.3934693402873666, rel=1e-12
        )
        assert short_time_term(3, 0.0, cfg_for(1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_i2_closed_form(self):
        got = short_time_term(2, 1.0, cfg_for(0.75))
        assert got == pytest.approx(EULER_GAMMA**2 + math.pi**2 / 6.0, rel=1e-12)
        assert short_time_term(2, 0.0, cfg_for(0.75)) == math.inf

    def test_i1_zero_limit(self):
        # rho = 0 collapses to (1/2K)^a / a with a = 2 alpha - n/2 + 1
        cfg = cfg_for(0.5)
        a = 2 * 0.5 - 1.5 + 1.0
        assert short_time_term(1, 0.0, cfg) == pytest.approx(0.5**a / a, rel=1e-12)

    def test_i4_values(self):
        assert tail_term(0.0, 1.0) == pytest.approx(2.0 / math.sqrt(1.5), rel=1e-12)
        assert tail_term(1.0, 1.0) == pytest.approx(0.18811869208438173, rel=1e-9)
        # continuity at the origin
        assert tail_term(1e-12, 1.0) == pytest.approx(tail_term(0.0, 1.0), rel=1e-5)

    def test_i4_closed_form_oracle(self):
        # substituting u = 1 + Ks reduces I4 to an upper incomplete gamma of
        # order -1/2, i.e. (2/K) e^(-z/2) (1/sqrt(1.5) - sqrt(pi z) erfcx(sqrt(1.5 z)))
        # with z = rho/K
        from scipy.special import erfcx

        for K in (1.0, 2.7):
            for rho in (1e-6, 0.3, 1.0, 5.0, 40.0):
                z = rho / K
                exact = (
                    2.0
                    / K
                    * math.exp(-0.5 * z)
                    * (1.0 / math.sqrt(1.5) - math.sqrt(math.pi * z) * erfcx(math.sqrt(1.5 * z)))
                )
                assert tail_term(rho, K) == pytest.approx(exact, rel=1e-9), (rho, K)

    def test_i4_decreasing(self):
        vals = [tail_term(float(r), 1.0) for r in np.linspace(0.0, 6.0, 15)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestFProfile:
    def test_zero_values(self):
        assert f_profile(1, 0.0, cfg_for(0.5)) == pytest.approx(3.0472067242285474, rel=1e-9)
        assert f_profile(2, 0.0, cfg_for(0.75)) == math.inf
        # flat case: I3(0) + I4(0) in closed form
        assert f_profile(3, 0.0, cfg_for(1.0)) == pytest.approx(
            0.5 + 2.0 / math.sqrt(1.5), rel=1e-10
        )

    def test_strictly_decreasing(self):
        rhos = np.geomspace(1e-3, 50.0, 25)
        for i, alpha in ((1, 0.5), (2, 0.75), (3, 1.0)):
            cfg = cfg_for(alpha)
            vals = [f_profile(i, float(r), cfg) for r in rhos]
            assert all(b < a for a, b in zip(vals, vals[1:])), f"profile {i}"

    def test_regime_mismatch(self):
        with pytest.raises(ValueError):
            f_profile(1, 1.0, cfg_for(1.0))
        with pytest.raises(ValueError):
            f_profile(3, 1.0, cfg_for(0.5))
        with pytest.raises(ValueError):
            f_profile(4, 1.0, cfg_for(1.0))


class TestTheta:
    def test_threshold_exact_zero(self):
        # below 1/sqrt(C F(0)) the inversion returns exactly zero
        cfg = cfg_for(1.0)
        f0 = f_profile(3, 0.0, cfg)
        beta_star = 1.0 / math.sqrt(f0)
        assert theta(beta_star * (1.0 - 1e-9), cfg) == 0.0
        assert theta(0.01, cfg) == 0.0

    def test_threshold_continuity(self):
        cfg = cfg_for(1.0)
        beta_star = 1.0 / math.sqrt(f_profile(3, 0.0, cfg))
        just_above = theta(beta_star * (1.0 + 1e-6), cfg)
        assert 0.0 < just_above < 1e-3

    def test_log_regime_threshold_is_zero(self):
        # F_2(0) = +inf, so any positive coupling is above threshold
        cfg = cfg_for(0.75)
        assert theta(1e-3, cfg) > 0.0

    def test_roundtrip(self):
        for alpha, i in ((0.5, 1), (0.75, 2), (1.0, 3)):
            cfg = cfg_for(alpha)
            for beta in (1.0, 10.0):
                th = theta(beta, cfg)
                if th == 0.0:
                    continue
                assert f_profile(i, th, cfg) * beta**2 == pytest.approx(1.0, rel=1e-6)

    def test_monotone_in_beta(self):
        cfg = cfg_for(1.0)
        betas = np.geomspace(1.0, 100.0, 10)
        vals = [theta(float(b), cfg) for b in betas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_flat_case_large_beta_slope(self):
        # Theta ~ C beta^2: fitted slope 2 against log beta
        cfg = cfg_for(1.0)
        betas = np.geomspace(1e2, 1e4, 9)
        ths = [theta(float(b), cfg) for b in betas]
        slope = np.polyfit(np.log(betas), np.log(ths), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_slope_report_candidates(self):
        rep = theta_slope_report(cfg_for(1.0))
        assert rep["regime"] == Regime.FLAT  # stored as a plain int for serialization
        assert rep["fitted"] == pytest.approx(1.0, abs=0.025)  # per beta^2
        assert rep["candidates"] == {"linear": 1.0}
        rep_p = theta_slope_report(cfg_for(0.5))
        assert set(rep_p["candidates"]) == {"stated", "inverted_tail"}
        assert rep_p["candidates"]["stated"] == pytest.approx(1.5)
        assert rep_p["candidates"]["inverted_tail"] == pytest.approx(2.0)


class TestUpperExponent:
    def test_small_beta_exact_value(self):
        # below threshold the rate is exactly -p b = -(n-1)^2 K / 2 at p=2, r=2
        cfg = cfg_for(1.0, r=2.0)
        assert upper_exponent(2, 0.1, cfg) == -2.0

    def test_p_validation(self):
        cfg = cfg_for(1.0)
        with pytest.raises(ValueError):
            upper_exponent(1, 1.0, cfg)
        with pytest.raises(ValueError):
            upper_exponent(2.5, 1.0, cfg)

    def test_grows_with_p(self):
        cfg = cfg_for(1.0)
        vals = [upper_exponent(p, 5.0, cfg) for p in (2, 3, 4, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSemigroupDecay:
    def test_sup_norm_case(self):
        cfg = cfg_for(1.0)
        assert semigroup_decay_bound(3.0, math.inf, 2.0, cfg) == 2.0

    def test_decay_rates(self):
        cfg = cfg_for(1.0)  # n=3, K=1
        # r >= 2: rate (n-1)^2 K / (2r); 1 <= r < 2: rate (n-1)^2 K / 4
        for r, rate in ((2.0, 1.0), (4.0, 0.5), (1.5, 1.0), (1.0, 1.0)):
            v1 = semigroup_decay_bound(1.0, r, 1.0, cfg)
            v2 = semigroup_decay_bound(2.0, r, 1.0, cfg)
            assert v2 / v1 == pytest.approx(math.exp(-rate), rel=1e-12)

    def test_validation(self):
        cfg = cfg_for(1.0)
        with pytest.raises(ValueError):
            semigroup_decay_bound(1.0, 0.5, 1.0, cfg)
        with pytest.raises(ValueError):
            semigroup_decay_bound(1.0, math.nan, 1.0, cfg)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# (alpha, regime) below, at and above n/4 in n = 3, and in n = 5 with K = 2
PROFILE_CASES = [
    (cfg_for(0.5), Regime.POWER),
    (cfg_for(0.75), Regime.LOG),
    (cfg_for(1.0), Regime.FLAT),
    (cfg_for(1.0, n=5, K=2.0, C_chaos=1.5), Regime.POWER),
    (cfg_for(1.25, n=5, K=2.0), Regime.LOG),
    (cfg_for(2.0, n=5, K=2.0, r=2.0), Regime.FLAT),
]


def f_math(i, rho, cfg):
    """F_i(rho) on scalars, from math (and mpmath for the lower incomplete gamma)."""
    a, n, K = cfg.spec.alpha, cfg.spec.n, cfg.spec.K
    c = 1.0 / (2.0 * K)
    if i == Regime.POWER:
        s = 2.0 * a - n / 2.0 + 1.0
        short = c**s / s if rho == 0.0 else float(mpmath.gammainc(s, 0, rho * c)) * rho**-s
    elif i == Regime.LOG:
        short = math.inf if rho == 0.0 else ((math.log(rho) + EULER_GAMMA) ** 2 + math.pi**2 / 6.0) / rho
    else:
        short = c if rho == 0.0 else -math.expm1(-rho * c) / rho
    z = rho / K
    # erfcx(x) = e^(x^2) erfc(x), taken in mpmath to stay accurate at large x
    erfcx = float(mpmath.exp(1.5 * z) * mpmath.erfc(mpmath.sqrt(1.5 * z)))
    tail = 2.0 / K * math.exp(-0.5 * z) * (1.0 / math.sqrt(1.5) - math.sqrt(math.pi * z) * erfcx)
    return short + tail


def theta_math(beta, cfg, rel_tol=1e-13):
    """The growth rate by a scalar doubling and bisection on f_math."""
    i = cfg.regime
    if beta == 0.0:
        return 0.0
    target = 1.0 / (cfg.C_chaos * beta * beta)
    if target >= f_math(i, 0.0, cfg):
        return 0.0
    hi = 1.0
    while f_math(i, hi, cfg) >= target:
        hi *= 2.0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if f_math(i, mid, cfg) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestArrayProfiles:
    RHOS = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 61), [0.0, 5.0]))

    @pytest.mark.parametrize("cfg, i", PROFILE_CASES)
    def test_array_equals_scalar_calls(self, cfg, i):
        vals = f_profile(i, self.RHOS, cfg)
        assert same_bits(vals, [f_profile(i, float(r), cfg) for r in self.RHOS])
        assert same_bits(
            short_time_term(i, self.RHOS, cfg),
            [short_time_term(i, float(r), cfg) for r in self.RHOS],
        )
        K = cfg.spec.K
        assert same_bits(tail_term(self.RHOS, K), [tail_term(float(r), K) for r in self.RHOS])
        assert type(f_profile(i, 0.0, cfg)) is float
        assert same_bits(f_profile(i, self.RHOS.reshape(8, 8), cfg), vals.reshape(8, 8))

    @pytest.mark.parametrize("cfg, i", PROFILE_CASES)
    def test_against_math_profile(self, cfg, i):
        for rho in self.RHOS:
            ref = f_math(i, float(rho), cfg)
            got = f_profile(i, float(rho), cfg)
            assert got == ref or got == pytest.approx(ref, rel=1e-13), rho

    def test_negative_rho_in_array(self):
        cfg = cfg_for(1.0)
        with pytest.raises(ValueError):
            f_profile(3, np.array([0.0, -1e-3]), cfg)
        with pytest.raises(ValueError):
            tail_term(np.array([1.0, -1.0]), 1.0)


class TestArrayTheta:
    BETAS = np.array([0.0, 0.01, 0.3, 0.5, 0.7, 1.0, 2.5, 7.0, 20.0, 150.0, 1e3])

    @pytest.mark.parametrize("cfg, i", PROFILE_CASES)
    def test_array_equals_scalar_calls(self, cfg, i):
        ths = theta(self.BETAS, cfg)
        assert same_bits(ths, [theta(float(b), cfg) for b in self.BETAS])
        assert same_bits(theta(self.BETAS[::-1].reshape(1, 11), cfg), ths[::-1].reshape(1, 11))

    @pytest.mark.parametrize("cfg, i", PROFILE_CASES)
    def test_against_math_bisection(self, cfg, i):
        for beta, th in zip(self.BETAS, theta(self.BETAS, cfg)):
            ref = theta_math(float(beta), cfg)
            if ref == 0.0:
                assert th == 0.0, beta
            else:
                assert th == pytest.approx(ref, rel=2e-8), beta

    def test_zero_beta(self):
        # the level 1/(C beta^2) is +inf at beta = 0, so there is no crossing,
        # also in the log regime where F_2(0) = +inf
        for cfg, _ in PROFILE_CASES:
            assert theta(0.0, cfg) == 0.0
            assert upper_exponent(3, 0.0, cfg) == -3.0 * cfg.b
        with pytest.raises(ValueError):
            theta(-1e-3, cfg_for(1.0))
        with pytest.raises(ValueError):
            theta(np.array([1.0, -1.0]), cfg_for(1.0))
        with pytest.raises(ValueError):
            theta(math.nan, cfg_for(1.0))

    def test_upper_exponent_grid(self):
        cfg = cfg_for(1.0, r=2.0)
        ps, betas = np.meshgrid(np.arange(2, 9), self.BETAS, indexing="ij")
        ues = upper_exponent(ps, betas, cfg)
        assert ues.shape == ps.shape
        for idx in np.ndindex(ps.shape):
            one = upper_exponent(int(ps[idx]), float(betas[idx]), cfg)
            assert type(one) is float
            assert same_bits(ues[idx], one)
        with pytest.raises(ValueError):
            upper_exponent(np.array([2, 1]), 1.0, cfg)

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg, _ in PROFILE_CASES:
                theta(np.array([0.0, 1e-170, 0.5, 1e3]), cfg)
                f_profile(cfg.regime, np.array([0.0, 1e-300, 1e6]), cfg)
