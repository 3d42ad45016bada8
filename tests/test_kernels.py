"""Fractional kernels: the time-integral transform, its closed-form lower
bound, calibration, and the memoized grid."""

import math

import numpy as np
import pytest

from hypam import (
    BracketMode,
    ConstantLedger,
    FkConfig,
    HeatKernelMode,
    KernelGrid,
    NoiseSpec,
    RadialProfile,
    calibrate_lower_constant,
    dalang_check,
    QuadratureError,
    g_alpha,
    g_alpha_log_values,
    g_alpha_lower,
    g_alpha_lower_log,
    moment_estimate,
)
from hypam import kernels

EXACT = HeatKernelMode.exact_n3()


def spec_for(alpha, n=3, K=1.0, beta=0.0):
    return NoiseSpec(alpha=alpha, beta=beta, n=n, K=K)


class TestNoiseSpec:
    def test_dalang_threshold(self):
        assert dalang_check(0.26, 3)
        assert not dalang_check(0.25, 3)
        assert not dalang_check(0.2, 3)
        assert dalang_check(0.01, 2)  # threshold is 0 in two dimensions
        assert dalang_check(0.76, 5)
        assert not dalang_check(0.75, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(alpha=0.0, beta=1.0, n=3, K=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(alpha=1.0, beta=-1.0, n=3, K=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(alpha=1.0, beta=1.0, n=1, K=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(alpha=1.0, beta=1.0, n=3, K=0.0)

    def test_dalang_ok_property(self):
        assert spec_for(1.0).dalang_ok
        assert not spec_for(0.2).dalang_ok


class TestGAlpha:
    def test_center_closed_form(self):
        # alpha=2, n=3, K=1: the time integral collapses to Gamma(1/2), so
        # the center value is exactly 1/(8 pi)
        out = g_alpha(spec_for(2.0), 0.0, EXACT)
        assert out.value == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-9)
        assert out.mode is BracketMode.EXACT

    def test_center_divergence(self):
        for alpha in (0.5, 1.5):  # alpha <= n/2 diverges at the origin
            with pytest.raises(ValueError):
                g_alpha(spec_for(alpha), 0.0, EXACT)

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            g_alpha(spec_for(1.0), -0.1, EXACT)

    def test_small_distance_slope(self):
        # singular scaling d^(2 alpha - n) near the diagonal
        for alpha in (0.5, 0.6):
            ds = np.geomspace(1e-3, 1e-2, 9)
            vals = [g_alpha(spec_for(alpha), float(d), EXACT).value for d in ds]
            slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
            assert slope == pytest.approx(2 * alpha - 3, abs=0.1)

    def test_monotone_decreasing(self):
        ds = np.geomspace(1e-3, 8.0, 30)
        vals = [g_alpha(spec_for(1.0), float(d), EXACT).value for d in ds]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 0.0 for v in vals)

    def test_frozen_value(self):
        assert g_alpha(spec_for(2.0), 1.0, EXACT).value == pytest.approx(
            0.01245527826235032, rel=1e-9
        )


class TestExactClosedFormOracle:
    """The n = 3 kernel against an mpmath quadrature of its defining time
    integral (1/Gamma(alpha)) int_0^inf t^(alpha-1) p_t(d) dt, with the
    closed-form heat kernel p_t(d) = (4 pi t)^(-3/2) (rho/sinh rho)
    exp(-K t - d^2/4t), rho = sqrt(K) d."""

    @staticmethod
    def reference(alpha, K, d):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a, K, d = mpmath.mpf(alpha), mpmath.mpf(K), mpmath.mpf(d)
            rho = mpmath.sqrt(K) * d
            ratio = rho / mpmath.sinh(rho) if d > 0 else mpmath.mpf(1)

            def integrand(t):
                heat = (4 * mpmath.pi * t) ** -1.5 * ratio * mpmath.exp(-K * t - d * d / (4 * t))
                return t ** (a - 1) * heat

            # panels split at the diagonal peak d^2/4 and the spectral-gap scale 1/K
            edges = sorted({mpmath.mpf(0), d * d / 4, 1 / K, mpmath.inf})
            return float(mpmath.quad(integrand, edges) / mpmath.gamma(a))

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    def test_matches_time_integral(self, alpha, K):
        for d in (1e-3, 0.05, 1.0, 5.0, 20.0):
            got = g_alpha(spec_for(alpha, K=K), d, EXACT).value
            assert got == pytest.approx(self.reference(alpha, K, d), rel=1e-12), d

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    def test_diagonal(self, alpha, K):
        got = g_alpha(spec_for(alpha, K=K), 0.0, EXACT).value
        assert got == pytest.approx(self.reference(alpha, K, 0.0), rel=1e-12)

    def test_exact_mode_needs_n3(self):
        with pytest.raises(ValueError):
            g_alpha(spec_for(1.0, n=4), 1.0, EXACT)


class TestComparisonModeOracle:
    """The dm_* modes against an mpmath quadrature of their defining time
    integral (1/Gamma(alpha)) int_0^inf t^(alpha-1) C K^(n/2) h(K t, sqrt(K) d) dt,
    with h(t, z) = t^(-n/2) (1+t+z)^((n-3)/2) (1+z)
    exp(-z^2/4t - (n-1)^2 t/4 - (n-1) z/2) the comparison profile."""

    CASES = [(4, 0.75), (4, 1.25), (4, 2.5), (5, 1.0), (5, 2.0), (5, 3.0)]

    @staticmethod
    def reference(alpha, n, K, d, C):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a, K, d = mpmath.mpf(alpha), mpmath.mpf(K), mpmath.mpf(d)
            z = mpmath.sqrt(K) * d

            def integrand(t):
                tau = K * t
                h = (
                    tau ** (-mpmath.mpf(n) / 2)
                    * (1 + tau + z) ** (mpmath.mpf(n - 3) / 2)
                    * (1 + z)
                    * mpmath.exp(-z * z / (4 * tau) - (n - 1) ** 2 * tau / 4 - (n - 1) * z / 2)
                )
                return t ** (a - 1) * C * K ** (mpmath.mpf(n) / 2) * h

            # panels split at the diagonal peak d^2/4 and the spectral-gap scale 1/K
            edges = sorted({mpmath.mpf(0), d * d / 4, 1 / K, mpmath.inf})
            return float(mpmath.quad(integrand, edges) / mpmath.gamma(a))

    @pytest.mark.parametrize("n, alpha", CASES)
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    def test_matches_time_integral(self, n, alpha, K):
        ds = np.array([1e-3, 0.05, 1.0, 10.0]) / math.sqrt(K)
        if alpha > n / 2.0:
            ds = np.append(ds, 0.0)
        C = 1.5
        got = np.exp(g_alpha_log_values(spec_for(alpha, n=n, K=K), ds, HeatKernelMode.dm_upper(C)))
        for d, v in zip(ds, got):
            assert v == pytest.approx(self.reference(alpha, n, K, d, C), rel=1e-11), d

    @pytest.mark.parametrize("n", [2, 4, 5])
    @pytest.mark.parametrize("excess", [1e-3, 0.01, 0.05])
    def test_diagonal_near_half_dimension(self, n, excess):
        # the tau^(alpha - n/2) tail reaches past t = e^-700 / K here; on the
        # diagonal the transform is Gamma(s) U(s, s + (n-1)/2, (n-1)^2/4) with
        # s = alpha - n/2 (DLMF 13.4.4), times C K^(n/2 - alpha) / Gamma(alpha)
        mpmath = pytest.importorskip("mpmath")
        alpha, K, C = n / 2.0 + excess, 2.0, 1.5
        got = g_alpha(spec_for(alpha, n=n, K=K), 0.0, HeatKernelMode.dm_upper(C)).value
        with mpmath.workdps(30):
            s, a = mpmath.mpf(excess), mpmath.mpf(alpha)
            u = mpmath.hyperu(s, s + mpmath.mpf(n - 1) / 2, mpmath.mpf((n - 1) ** 2) / 4)
            want = C * mpmath.mpf(K) ** (mpmath.mpf(n) / 2 - a) * mpmath.gamma(s) * u / mpmath.gamma(a)
        assert got == pytest.approx(float(want), rel=1e-11)

    @pytest.mark.parametrize("n, alpha", CASES)
    def test_array_matches_scalar_calls(self, n, alpha):
        spec = spec_for(alpha, n=n, K=2.0)
        mode = HeatKernelMode.dm_upper()
        ds = np.geomspace(1e-3, 10.0, 25) / math.sqrt(2.0)
        if alpha > n / 2.0:
            ds = np.append(0.0, ds)
        got = np.exp(g_alpha_log_values(spec, ds, mode))
        scalar = np.array([g_alpha(spec, float(d), mode).value for d in ds])
        np.testing.assert_allclose(got, scalar, rtol=1e-13, atol=0.0)
        assert isinstance(g_alpha_log_values(spec, 1.0, mode), float)
        assert g_alpha(spec, 1.0, mode).mode is BracketMode.UPPER

    def test_lower_mode_scales_by_its_constant(self):
        spec = spec_for(1.25, n=4, K=0.5)
        ds = np.geomspace(1e-3, 10.0, 12)
        base = g_alpha_log_values(spec, ds, HeatKernelMode.dm_lower())
        scaled = g_alpha_log_values(spec, ds, HeatKernelMode.dm_lower(0.3))
        np.testing.assert_allclose(scaled - base, math.log(0.3), rtol=0.0, atol=1e-14)
        assert g_alpha(spec, 1.0, HeatKernelMode.dm_lower(0.3)).mode is BracketMode.LOWER

    def test_diagonal_divergence(self):
        with pytest.raises(ValueError):
            g_alpha_log_values(spec_for(2.0, n=4), np.array([0.0, 1.0]), HeatKernelMode.dm_upper())

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_TRAP_LEVELS", 1)
        with pytest.raises(QuadratureError):
            g_alpha_log_values(spec_for(1.25, n=4), np.geomspace(1e-3, 10.0, 20), HeatKernelMode.dm_upper())


class TestLowerBound:
    def test_three_branches_positive_decreasing(self):
        # alpha below, at, and above n/2 exercise all closed-form branches
        for alpha in (0.75, 1.5, 2.0):
            zs = np.geomspace(1e-3, 10.0, 40)
            vals = g_alpha_lower(spec_for(alpha), zs)
            assert np.all(vals > 0.0)
            assert np.all(np.diff(np.log(vals)) < 0.0)

    def test_small_z_slope(self):
        # same singular order as the kernel itself
        for alpha in (0.5, 1.0):
            zs = np.geomspace(1e-4, 1e-3, 9)
            lv = g_alpha_lower_log(spec_for(alpha), zs)
            slope = np.polyfit(np.log(zs), lv, 1)[0]
            assert slope == pytest.approx(2 * alpha - 3, abs=0.05)

    def test_scalar_and_vector_agree(self):
        spec = spec_for(1.25)
        zs = np.array([0.01, 0.5, 3.0])
        vec = g_alpha_lower_log(spec, zs)
        for z, lv in zip(zs, vec):
            assert g_alpha_lower_log(spec, float(z)) == pytest.approx(lv, rel=1e-14)

    def test_calibration_frozen_constant(self):
        led = ConstantLedger()
        C = calibrate_lower_constant(spec_for(1.0), led)
        assert C == pytest.approx(0.1728205329087496, rel=1e-9)
        assert led.value("gbar_C") == C
        assert led.entry("gbar_C").provenance == "calibrated"

    def test_calibrated_bound_holds_on_fine_grid(self):
        spec = spec_for(1.0)
        led = ConstantLedger()
        C = calibrate_lower_constant(spec, led)
        zs = np.geomspace(2e-3, 9.0, 120)  # denser than the calibration grid
        lower = C * np.exp(g_alpha_lower_log(spec, zs))
        exact = np.array([g_alpha(spec, float(z), EXACT).value for z in zs])
        assert np.all(lower <= exact * (1.0 + 1e-9))

    def test_calibration_requires_n3(self):
        with pytest.raises(ValueError):
            calibrate_lower_constant(spec_for(1.0, n=4), ConstantLedger())

    @pytest.mark.parametrize(
        "spec, match",
        [
            # kve(78.5, 1e-3) overflows: the exact kernel is inf at the small distances
            (spec_for(80.0), "order alpha = 80.0 is not finite at distance 0.001"),
            # every value is finite, but the smallest ratio exceeds a double
            (spec_for(30.0, K=1e200), "lower-bound constant at alpha = 30.0, K = 1e"),
            # the constant grows as K^(3/2), so at K = 1e-300 it is below a double
            (spec_for(1.0, K=1e-300), "lower-bound constant at alpha = 1.0, K = 1e-300 underflows"),
        ],
        ids=["exact-inf", "constant-overflow", "constant-underflow"],
    )
    def test_calibration_past_the_overflow_raises_value_error(self, spec, match):
        led = ConstantLedger()
        with pytest.raises(ValueError, match=match):
            calibrate_lower_constant(spec, led)
        assert led.entry("gbar_C").provenance == "default"


class TestKernelGrid:
    def test_interpolation_accuracy(self):
        spec = spec_for(1.0)
        grid = KernelGrid(spec, source="exact", delta_floor=1e-3, d_max=8.0)
        rng = np.random.default_rng(5)
        ds = np.exp(rng.uniform(math.log(1.2e-3), math.log(7.8), 60))
        interp = grid(ds)
        direct = np.array([g_alpha(spec, float(d), EXACT).value for d in ds])
        assert np.max(np.abs(interp / direct - 1.0)) < 1e-3

    def test_floor_and_cutoff(self):
        spec = spec_for(1.0)
        grid = KernelGrid(spec, source="exact", delta_floor=1e-2, d_max=5.0)
        assert grid(1e-4) == grid(1e-2)  # clipped to the floor value
        assert grid(0.0) == grid.floor_value
        assert grid(6.0) == 0.0  # beyond the tabulated range
        out = grid(np.array([0.0, 1.0, 9.0]))
        assert out.shape == (3,) and out[2] == 0.0

    def test_lower_source_matches_closed_form(self):
        spec = spec_for(1.0)
        led = ConstantLedger()
        C = calibrate_lower_constant(spec, led)
        grid = KernelGrid(spec, source="lower", delta_floor=1e-3, d_max=6.0, ledger=led)
        zs = np.array([0.01, 0.3, 2.0])
        want = C * np.exp(g_alpha_lower_log(spec, zs))
        assert np.allclose(grid(zs), want, rtol=1e-3)

    def test_non_finite_node_value_names_order_and_distance(self):
        # the FK pair table at alpha = 40 holds the order-80 kernel, which
        # overflows at the floor distance
        cfg = FkConfig(
            spec=spec_for(40.0, beta=0.5),
            p=2,
            t_end=0.02,
            dt=0.01,
            n_paths=10,
            seed=1,
            u0=RadialProfile.constant(1.0),
        )
        with pytest.raises(ValueError, match="order alpha = 80.0 is not finite at distance 0.001"):
            moment_estimate(cfg)


class TestKernelGridLookup:
    """The numpy evaluation of the table gives the bits of scipy's PCHIP."""

    FLOOR, D_MAX = 1e-3, 12.0

    @pytest.fixture(params=["exact", "lower"])
    def pair(self, request):
        from scipy.interpolate import PchipInterpolator

        spec = spec_for(1.25)
        nodes = np.geomspace(self.FLOOR, self.D_MAX, 400)
        if request.param == "exact":
            logv = kernels._log_g_exact_n3(spec, nodes)
            ledger = None
        else:
            ledger = ConstantLedger()
            calibrate_lower_constant(spec, ledger)
            logv = g_alpha_lower_log(spec, nodes, ledger)
        grid = KernelGrid(
            spec, request.param, delta_floor=self.FLOOR, d_max=self.D_MAX, ledger=ledger
        )
        interp = PchipInterpolator(nodes, logv, extrapolate=False)

        def reference(d):
            out = np.exp(interp(np.clip(d, self.FLOOR, self.D_MAX)))
            return np.where(d > self.D_MAX, 0.0, out)

        return grid, reference, nodes

    def test_random_distances(self, pair):
        grid, reference, _ = pair
        lo, hi = math.log(self.FLOOR), math.log(self.D_MAX)
        d = np.exp(np.random.default_rng(11).uniform(lo, hi, 5000))
        assert np.array_equal(grid(d), reference(d))

    def test_every_node(self, pair):
        grid, reference, nodes = pair
        assert np.array_equal(grid(nodes), reference(nodes))

    def test_below_floor_is_floor_value(self, pair):
        grid, _, _ = pair
        d = np.array([0.0, 1e-9, 0.5 * self.FLOOR, self.FLOOR])
        assert np.all(grid(d) == grid.floor_value)

    def test_at_and_beyond_d_max(self, pair):
        grid, reference, _ = pair
        d = np.array([self.D_MAX, np.nextafter(self.D_MAX, np.inf), 2.0 * self.D_MAX, np.inf])
        got = grid(d)
        assert got[0] == reference(d)[0] > 0.0
        assert np.all(got[1:] == 0.0)

    def test_shapes(self, pair):
        grid, reference, _ = pair
        value = grid(0.7)
        assert type(value) is float and value == reference(np.array([0.7]))[0]
        assert type(grid(np.float64(0.7))) is float
        d = np.random.default_rng(2).uniform(0.0, 1.5 * self.D_MAX, (3, 4, 5))
        got = grid(d)
        assert got.shape == (3, 4, 5)
        assert np.array_equal(got, reference(d))

    # the interval is computed from log d; the guess lands one off on either
    # side next to a node, where only the one-step corrections give these bits

    def test_next_to_every_node(self, pair):
        grid, reference, nodes = pair
        for side in (-np.inf, np.inf):
            d = np.nextafter(nodes, side)
            assert np.array_equal(grid(d), reference(d))

    def test_fk_run_range(self, pair):
        """A table with the range of an FK run's pair-kernel table."""
        from scipy.interpolate import PchipInterpolator

        spec, source = pair[0].spec, pair[0].source
        floor, d_max = 1e-3, 64.0
        ledger = ConstantLedger()
        calibrate_lower_constant(spec, ledger)
        nodes = np.geomspace(floor, d_max, 400)
        if source == "exact":
            logv = kernels._log_g_exact_n3(spec, nodes)
        else:
            logv = g_alpha_lower_log(spec, nodes, ledger)
        interp = PchipInterpolator(nodes, logv, extrapolate=False)
        grid = KernelGrid(spec, source, delta_floor=floor, d_max=d_max, ledger=ledger)
        d = np.exp(np.random.default_rng(17).uniform(math.log(floor), math.log(d_max), 10**5))
        assert np.array_equal(grid(d), np.exp(interp(d)))

    def test_nan_distance_is_nan(self, pair):
        grid, reference, _ = pair
        got = grid(np.array([np.nan, 0.5]))
        assert np.isnan(got[0]) and got[1] == reference(np.array([0.5]))[0]

    def test_f_ordered_pairs(self, pair):
        """Pair distances come F-ordered, (paths, pairs); they are read in
        place, and any other layout gives the same values."""
        grid, reference, _ = pair
        d = np.asfortranarray(np.random.default_rng(5).uniform(0.0, 1.5 * self.D_MAX, (1000, 6)))
        for view in (d, d[:, ::2], d.T):
            got = grid(view)
            assert got.shape == view.shape
            assert np.array_equal(got, reference(view))
