"""Special functions: frozen-value oracles, identities, and the quadrature engine."""

import math

import numpy as np
import pytest

from hypam import (
    QuadratureError,
    QuadratureSpec,
    dm_h_log,
    gamma_lower,
    integrate,
    log_gamma_upper,
)

EULER_GAMMA = 0.5772156649015329


class TestIncompleteGamma:
    def test_frozen_values(self):
        # reference values computed with 50-digit arithmetic, frozen here
        assert gamma_lower(0.75, 2.5) == pytest.approx(1.1647958251098223, rel=1e-12)
        assert gamma_lower(1.0, 1.0) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-12)
        assert math.exp(log_gamma_upper(1.0, 1.0)) == pytest.approx(1.0 / math.e, rel=1e-12)
        assert log_gamma_upper(0.75, 50.0) == pytest.approx(-50.98289798639455, rel=1e-12)
        assert log_gamma_upper(0.5, 200.0) == pytest.approx(-202.65164324761262, rel=1e-12)
        # s = 0 is the exponential integral E_1
        assert log_gamma_upper(0.0, 40.0) == pytest.approx(-43.71300351009848, rel=1e-12)

    def test_additivity(self):
        for s in (0.3, 0.75, 1.0, 2.5, 5.0):
            for x in (0.01, 0.5, 1.0, 3.0, 20.0):
                total = gamma_lower(s, x) + math.exp(log_gamma_upper(s, x))
                assert total == pytest.approx(math.gamma(s), rel=1e-10)

    def test_recurrence(self):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x)
        for s in (0.4, 1.0, 2.2):
            for x in (0.1, 1.0, 7.0):
                lhs = math.exp(log_gamma_upper(s + 1.0, x))
                rhs = s * math.exp(log_gamma_upper(s, x)) + x**s * math.exp(-x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_lower_small_x_slope(self):
        # gamma(s, x) ~ x^s / s as x -> 0: fitted log-log slope = s
        for s in (0.5, 1.25):
            xs = np.geomspace(1e-4, 1e-3, 7)
            ys = np.log([gamma_lower(s, float(x)) for x in xs])
            slope = np.polyfit(np.log(xs), ys, 1)[0]
            assert slope == pytest.approx(s, abs=0.05)

    def test_upper_large_x_slope(self):
        # Gamma(s, x) e^x ~ x^(s-1): fitted slope over a decade = s - 1
        for s in (0.5, 2.0):
            xs = np.geomspace(40.0, 400.0, 7)
            ys = np.array([log_gamma_upper(s, float(x)) + x for x in xs])
            slope = np.polyfit(np.log(xs), ys, 1)[0]
            assert slope == pytest.approx(s - 1.0, abs=0.05)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_lower(-1.0, 1.0)
        with pytest.raises(ValueError):
            math.exp(log_gamma_upper(0.5, -1.0))


class TestLogGammaUpperOracle:
    """log Gamma(s, x) against 40-digit mpmath, on both sides of the switch
    from scipy.special to the continued fraction."""

    XS = np.concatenate([np.geomspace(1e-3, 1e5, 60), [650.0, 700.0, 745.0, 1e6]])

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.25])
    def test_matches_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = [float(mpmath.log(mpmath.gammainc(s, mpmath.mpf(float(x))))) for x in self.XS]
        got = log_gamma_upper(s, self.XS)
        for x, g, r in zip(self.XS, got, ref):
            # absolute in log = relative in Gamma(s, x), until the log is large
            assert abs(g - r) <= 1e-12 * max(1.0, abs(r)), (s, x, g, r)

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.25])
    def test_array_call_equals_scalar_calls(self, s):
        got = log_gamma_upper(s, self.XS)
        assert got.shape == self.XS.shape
        for x, g in zip(self.XS, got):
            assert log_gamma_upper(s, float(x)) == g
        grid = self.XS[:6].reshape(2, 3)
        assert np.array_equal(log_gamma_upper(s, grid), got[:6].reshape(2, 3))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_gamma_upper(0.5, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            log_gamma_upper(-0.5, 1.0)


class TestNegEi:
    def test_frozen_value(self):
        assert math.exp(log_gamma_upper(0.0, 1.0)) == pytest.approx(0.21938393439552027, rel=1e-12)

    def test_small_x_log_asymptotic(self):
        # -Ei(-x) = -log x - euler_gamma + O(x)
        for x in (1e-6, 1e-8):
            target = -math.log(x) - EULER_GAMMA
            assert abs(math.exp(log_gamma_upper(0.0, x)) / target - 1.0) < 0.05

    def test_large_x_decay(self):
        # e^x E_1(x) ~ 1/x
        x = 20.0
        assert 0.045 < math.exp(x) * math.exp(log_gamma_upper(0.0, x)) < 0.053


class TestComparisonProfile:
    def test_center_values(self):
        # closed forms at z = 0
        assert math.exp(dm_h_log(1.0, 0.0, 3)) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert math.exp(dm_h_log(1.0, 0.0, 2)) == pytest.approx(0.5506953149031837, rel=1e-12)

    def test_log_consistency(self):
        # the log form against the profile's product form
        for n in (2, 3, 5):
            for t in (0.05, 1.0, 4.0):
                for z in (0.0, 0.3, 2.0, 9.0):
                    h = (
                        t ** (-n / 2.0)
                        * (1.0 + t + z) ** ((n - 3) / 2.0)
                        * (1.0 + z)
                        * math.exp(-z * z / (4.0 * t) - (n - 1) ** 2 * t / 4.0 - (n - 1) * z / 2.0)
                    )
                    assert math.exp(dm_h_log(t, z, n)) == pytest.approx(h, rel=1e-12)

    def test_monotone_in_z(self):
        # the (1+z) prefactor gives n=2 a small hump at the origin, so the
        # profile is only monotone from z=0 when n >= 3
        for n in (3, 4):
            zs = np.linspace(0.0, 12.0, 60)
            vals = [dm_h_log(0.7, float(z), n) for z in zs]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        zs = np.linspace(1.0, 12.0, 40)
        vals = [dm_h_log(0.7, float(z), 2) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_positive(self):
        assert math.exp(dm_h_log(0.1, 5.0, 3)) > 0.0


class TestQuadratureEngine:
    def test_exponential_tail(self):
        spec = QuadratureSpec(relative_tolerance=1e-12, absolute_tolerance=1e-300)
        val = integrate(lambda x: math.exp(-x), 0.0, math.inf, spec)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_endpoint_singularity(self):
        spec = QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-300)
        val = integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, spec)
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_split_points(self):
        spec = QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-300)
        # kink at x = 1 handled by an explicit panel boundary
        val = integrate(lambda x: abs(x - 1.0), 0.0, 2.0, spec, split_points=[1.0])
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_divergent_raises(self):
        spec = QuadratureSpec(relative_tolerance=1e-10, absolute_tolerance=1e-300)
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, spec)
