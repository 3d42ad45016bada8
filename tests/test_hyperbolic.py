"""Hyperboloid geometry, Brownian sampling, and heat kernels."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypam import (
    BracketMode,
    FkConfig,
    HeatKernelMode,
    ModelPoint,
    NoiseSpec,
    QuadratureSpec,
    RadialProfile,
    brownian_path,
    brownian_step,
    distance_coords,
    integrate,
    minkowski_inner,
    sheet_violation,
    stream_generator,
)
from hypam import fkmc
from hypam.hyperbolic import (
    BLOCK_SIZE,
    heat_kernel_log_values,
    radial_walk,
    run_blocks,
    time_grid,
    walk_block,
)


def random_points(n, K, count, rng, scale=2.0):
    """Points on the sheet with Gaussian spatial parts."""
    spatial = rng.standard_normal((count, n)) * scale
    x0 = np.sqrt(1.0 / K + np.sum(spatial**2, axis=1))
    return np.column_stack([x0, spatial])


class TestModelPoint:
    def test_basepoint(self):
        o = ModelPoint.basepoint(3, 4.0)
        assert o.coords[0] == pytest.approx(0.5)
        assert distance_coords(o.coords, o.coords, o.K) == 0.0

    def test_constraint_rejected(self):
        with pytest.raises(ValueError):
            ModelPoint(np.array([1.0, 0.5, 0.0, 0.0]), 3, 1.0)

    def test_lower_sheet_rejected(self):
        with pytest.raises(ValueError):
            ModelPoint(np.array([-1.0, 0.0, 0.0, 0.0]), 3, 1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ModelPoint(np.array([1.0, 0.0]), 1, 1.0)
        with pytest.raises(ValueError):
            ModelPoint(np.array([1.0, 0.0, 0.0]), 2, -1.0)

    def test_far_point_accepted(self):
        # the constraint residual is measured on the coordinate scale, so
        # distant points built from valid spatial parts must pass validation
        spatial = np.array([math.sinh(40.0), 0.0, 0.0])
        coords = np.concatenate([[math.sqrt(1.0 + math.sinh(40.0) ** 2)], spatial])
        p = ModelPoint(coords, 3, 1.0)
        assert distance_coords(ModelPoint.basepoint(3, 1.0).coords, p.coords, 1.0) == pytest.approx(
            40.0, rel=1e-12
        )


class TestDistance:
    def test_unit_geodesic(self):
        o = ModelPoint.basepoint(2, 1.0)
        y = ModelPoint(np.array([math.cosh(1.0), math.sinh(1.0), 0.0]), 2, 1.0)
        assert distance_coords(o.coords, y.coords, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(3)
        pts = random_points(3, 2.0, 50, rng)
        for i in range(0, 50, 7):
            a, b = pts[i], pts[(i + 13) % 50]
            dab = float(distance_coords(a, b, 2.0))
            dba = float(distance_coords(b, a, 2.0))
            assert dab == pytest.approx(dba, rel=1e-12)
        assert float(distance_coords(pts[0], pts[0], 2.0)) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        x = random_points(3, 1.0, 10000, rng)
        y = random_points(3, 1.0, 10000, rng)
        z = random_points(3, 1.0, 10000, rng)
        dxz = distance_coords(x, z, 1.0)
        dxy = distance_coords(x, y, 1.0)
        dyz = distance_coords(y, z, 1.0)
        assert np.all(dxz <= dxy + dyz + 1e-9)


class TestBrownianPath:
    def test_determinism(self):
        o = ModelPoint.basepoint(3, 1.0)
        p1 = brownian_path(o, t_end=0.5, dt=0.01, seed=42)
        p2 = brownian_path(o, t_end=0.5, dt=0.01, seed=42)
        assert np.array_equal(p1.points, p2.points)
        p3 = brownian_path(o, t_end=0.5, dt=0.01, seed=43)
        assert not np.array_equal(p1.points, p3.points)

    def test_times_and_constraint(self):
        o = ModelPoint.basepoint(2, 2.0)
        p = brownian_path(o, t_end=0.25, dt=0.01, seed=1)
        assert p.times[0] == 0.0
        steps = np.diff(p.times)
        assert np.all(steps > 0.0)
        assert np.allclose(steps[:-1], 0.01)
        assert p.times[-1] == pytest.approx(0.25, abs=1e-12)
        assert float(sheet_violation(p.points, 2.0).max()) <= 1e-9

    def test_trailing_partial_step(self):
        o = ModelPoint.basepoint(2, 1.0)
        p = brownian_path(o, t_end=0.105, dt=0.01, seed=2)
        assert p.times[-1] == pytest.approx(0.105, abs=1e-12)
        assert np.diff(p.times)[-1] == pytest.approx(0.005, abs=1e-12)

    def test_one_step_mean_square_displacement(self):
        # flat limit of the generator: E[d^2] = 2 n dt
        n, K, dt = 3, 1.0, 1e-3
        o = ModelPoint.basepoint(n, K)
        rng = stream_generator(5, 0)
        X = np.tile(o.coords, (100000, 1))
        X = brownian_step(X, rng, dt, K)
        d2 = distance_coords(X, o.coords, K) ** 2
        m = float(np.mean(d2))
        se = float(np.std(d2, ddof=1)) / math.sqrt(len(d2))
        assert abs(m - 2 * n * dt) <= 3 * se

    def test_step_length_is_the_frame_norm(self):
        # the step follows a geodesic for the length of its frame vector
        K, dt = 1.5, 0.01
        X = random_points(3, K, 256, np.random.default_rng(6))
        xi = stream_generator(8, 0).standard_normal((256, 3)) * math.sqrt(2.0 * dt)
        Y = brownian_step(X, stream_generator(8, 0), dt, K)
        d = distance_coords(X, Y, K)
        np.testing.assert_allclose(d, np.linalg.norm(xi, axis=1), rtol=1e-9)

    def test_long_run_stays_on_sheet(self):
        # far-field stability: the walk reaches d ~ 50 without losing the
        # constraint to cancellation
        o = ModelPoint.basepoint(3, 1.0)
        p = brownian_path(o, t_end=25.0, dt=0.01, seed=7)
        assert float(sheet_violation(p.points, 1.0).max()) <= 1e-9
        d_end = float(distance_coords(p.points[-1], o.coords, 1.0))
        assert 20.0 < d_end < 90.0

    def test_radial_speed_vs_euler_oracle(self):
        # geodesic walk against an independent 1-D Euler scheme for the
        # radial process dr = sqrt(2) dW + (n-1) sqrt(K) coth(sqrt(K) r) dt
        n, K, dt = 3, 1.0, 0.01
        t_end = 50.0 / ((n - 1) * math.sqrt(K))
        steps = int(round(t_end / dt))
        o = ModelPoint.basepoint(n, K)
        rng = stream_generator(99, 0)
        X = np.tile(o.coords, (1000, 1))
        for _ in range(steps):
            X = brownian_step(X, rng, dt, K)
        walk_speed = float(np.mean(distance_coords(X, o.coords, K))) / t_end

        # reflected Euler with the coth drift floored at one diffusion length;
        # the floor regularizes the 1/r blow-up at the start without touching
        # the ballistic regime that dominates the mean
        oracle_rng = np.random.default_rng(1234)
        r = np.zeros(1000)
        sk = math.sqrt(K)
        floor = math.sqrt(2.0 * dt)
        for _ in range(steps):
            drift = (n - 1) * sk / np.tanh(sk * np.maximum(r, floor))
            r = np.abs(r + drift * dt + math.sqrt(2.0 * dt) * oracle_rng.standard_normal(1000))
        oracle_speed = float(np.mean(r)) / t_end

        target = (n - 1) * math.sqrt(K)
        assert abs(walk_speed / target - 1.0) < 0.05
        assert abs(oracle_speed / target - 1.0) < 0.05
        assert abs(walk_speed / oracle_speed - 1.0) < 0.05

    def test_step_size_validation(self):
        o = ModelPoint.basepoint(2, 1.0)
        with pytest.raises(ValueError):
            brownian_path(o, t_end=0.1, dt=0.2, seed=0)
        with pytest.raises(ValueError):
            brownian_path(o, t_end=-1.0, dt=0.01, seed=0)

    def test_csv_export(self):
        o = ModelPoint.basepoint(2, 1.0)
        p = brownian_path(o, t_end=0.03, dt=0.01, seed=9)
        buf = io.StringIO()
        p.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "step,time,coord_0,coord_1,coord_2"
        assert len(lines) == len(p.times) + 1


class TestPathEngine:
    @staticmethod
    def checkpoint_positions(n_paths, workers):
        o = ModelPoint.basepoint(3, 1.0)
        sizes, cp_steps, _ = time_grid([0.02, 0.05], 0.01)

        def block(b, size):
            out = np.empty((len(cp_steps), size, 4))
            for _, X, c in walk_block(o.coords, (size,), 17, b, sizes, cp_steps, 1.0):
                if c is not None:
                    out[c] = X
            return out

        return run_blocks(n_paths, workers, block)

    def test_block_contract(self):
        # block b sees only stream (seed, b): its paths do not depend on how
        # many blocks follow it or on how many threads run them
        single = self.checkpoint_positions(BLOCK_SIZE, 1)
        ragged = self.checkpoint_positions(2 * BLOCK_SIZE + 1, 1)
        assert [r.shape[1] for r in ragged] == [BLOCK_SIZE, BLOCK_SIZE, 1]
        assert np.array_equal(single[0], ragged[0])
        assert not np.array_equal(ragged[0], ragged[1])
        threaded = self.checkpoint_positions(2 * BLOCK_SIZE + 1, 2)
        assert all(np.array_equal(a, b) for a, b in zip(ragged, threaded))

    def test_time_grid_lands_on_checkpoints(self):
        sizes, cp_steps, ts = time_grid([0.25, 0.1], 0.04)
        assert ts == [0.1, 0.25]
        assert cp_steps == [3, 7]
        assert np.cumsum(sizes)[[2, 6]] == pytest.approx([0.1, 0.25], abs=1e-15)
        assert sizes.max() <= 0.04


class TestBlockGroups:
    """Consecutive blocks stepped as one array keep every block on its own stream."""

    def test_group_walk_equals_one_block_walks(self):
        o = ModelPoint.basepoint(3, 1.0)
        sizes, cp_steps, _ = time_grid([0.03], 0.01)
        counts = [BLOCK_SIZE, BLOCK_SIZE, 5]  # the last block ragged
        grouped = list(walk_block(o.coords, (sum(counts), 2), 17, 3, sizes, cp_steps, 1.0))
        singles = [
            list(walk_block(o.coords, (size, 2), 17, 3 + k, sizes, cp_steps, 1.0))
            for k, size in enumerate(counts)
        ]
        assert len(grouped) == len(sizes)
        for step, (h, X, c) in enumerate(grouped):
            rows = np.concatenate([walk[step][1] for walk in singles])
            assert np.array_equal(X, rows)
            assert (h, c) == singles[0][step][::2]

    @pytest.mark.parametrize("n_blocks", [6, 10])
    def test_grouped_routes_are_worker_invariant(self, n_blocks):
        # n_blocks - 1 full blocks and a ragged last one: 6 blocks split into
        # groups of 4 + 2, 3 + 3 and 2 + 2 + 2 at 1, 2 and 3 workers, and 10
        # cross the group cap at every worker count
        n_paths = (n_blocks - 1) * BLOCK_SIZE + 5
        cfg = FkConfig(
            spec=NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0),
            p=2,
            t_end=0.02,
            dt=0.01,
            n_paths=n_paths,
            seed=5,
            u0=RadialProfile.bump(1.0, 0.2),
        )
        sizes, cp_steps, _ = time_grid([0.01, 0.02], cfg.dt)
        grid = fkmc._pair_kernel_grid(cfg, 0.02, None)
        per_block = run_blocks(
            n_paths, 1, lambda b, size: fkmc._simulate_block(cfg, b, size, sizes, cp_steps, grid)
        )
        want = [np.concatenate([r[i] for r in per_block], axis=1) for i in (0, 1)]
        o = ModelPoint.basepoint(3, 1.0)
        radial = [radial_walk(o, [0.01, 0.02], 0.01, n_paths, 5, w) for w in (1, 2, 3)]
        for w, (_, d, d_max) in zip((1, 2, 3), radial):
            lu, sp = fkmc._run_blocks(cfg, sizes, cp_steps, grid, w)
            assert np.array_equal(lu, want[0]) and np.array_equal(sp, want[1])
            assert np.array_equal(d, radial[0][1]) and np.array_equal(d_max, radial[0][2])
        assert radial[0][1].shape == (2, n_paths)

    def test_group_split(self):
        def groups(n_paths, workers):
            return run_blocks(n_paths, workers, lambda b, size: (b, size), grouped=True)

        six = 5 * BLOCK_SIZE + 5
        assert groups(six, 1) == [(0, 4 * BLOCK_SIZE), (4, BLOCK_SIZE + 5)]
        assert groups(six, 2) == [(0, 3 * BLOCK_SIZE), (3, 2 * BLOCK_SIZE + 5)]
        assert groups(six, 3) == [(0, 2 * BLOCK_SIZE), (2, 2 * BLOCK_SIZE), (4, BLOCK_SIZE + 5)]
        assert groups(six, 16) == [(b, BLOCK_SIZE) for b in range(5)] + [(5, 5)]
        # at most four blocks a group, whatever the worker count
        ten = 9 * BLOCK_SIZE + 5
        want = [(0, 4 * BLOCK_SIZE), (4, 4 * BLOCK_SIZE), (8, BLOCK_SIZE + 5)]
        assert groups(ten, 1) == groups(ten, 2) == want
        assert groups(100, 1) == [(0, 100)]

    def test_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_blocks(10, workers, lambda b, size: size)


def _inner_sum(a, b):
    return a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def _step_sum(X, xi, K):
    """brownian_step as written with np.sum reductions, for a given frame vector xi."""
    sk = math.sqrt(K)
    Xh = sk * X
    V = np.concatenate([np.zeros(xi.shape[:-1] + (1,)), xi], axis=-1)
    qxv = -np.sum(Xh[..., 1:] * xi, axis=-1)
    w = Xh.copy()
    w[..., 0] += 1.0
    V = V - (qxv / (1.0 + Xh[..., 0]))[..., None] * w
    a = sk * np.linalg.norm(xi, axis=-1)
    den = np.where(a > 1e-12, a, 1.0)
    fac = np.where(a > 1e-12, np.sinh(a) / den, 1.0)
    Y = np.cosh(a)[..., None] * X + fac[..., None] * V
    out = Y.copy()
    out[..., 0] = np.sqrt(1.0 / K + np.sum(Y[..., 1:] ** 2, axis=-1))
    return out


# dimension, curvature, log10 of the spatial scale (far from the base point), seed
far_points = st.tuples(
    st.integers(2, 7),
    st.floats(0.25, 4.0),
    st.floats(0.0, 6.0),
    st.integers(0, 2**32 - 1),
)


class TestCoordinateLoops:
    """The coordinate loops give the bits of the np.sum forms below 8 terms."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=far_points)
    def test_inner_distance_and_sheet(self, case):
        n, K, log_scale, seed = case
        rng = np.random.default_rng(seed)
        X = random_points(n, K, 64, rng, scale=10.0**log_scale)
        Y = random_points(n, K, 64, rng, scale=10.0**log_scale)
        assert np.array_equal(minkowski_inner(X, Y), _inner_sum(X, Y))
        want = np.arccosh(np.maximum(K * _inner_sum(X, Y), 1.0)) / math.sqrt(K)
        assert np.array_equal(distance_coords(X, Y, K), want)
        scale = np.maximum(1.0, K * np.sum(X * X, axis=-1))
        want = np.abs(K * _inner_sum(X, X) - 1.0) / scale
        assert np.array_equal(sheet_violation(X, K), want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=far_points, dt=st.floats(1e-4, 0.5))
    def test_brownian_step(self, case, dt):
        n, K, log_scale, seed = case
        X = random_points(n, K, 64, np.random.default_rng(seed), scale=10.0**log_scale)
        xi = stream_generator(seed, 0).standard_normal((64, n)) * math.sqrt(2.0 * dt)
        got = brownian_step(X, stream_generator(seed, 0), dt, K)
        assert np.array_equal(got, _step_sum(X, xi, K))


class TestCoordinateMajor:
    """walk_block keeps its positions coordinate-major (X.T C-contiguous);
    the step and the pair distances give the bits they give on C order."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=far_points, dt=st.floats(1e-4, 0.5))
    def test_brownian_step_layouts_agree(self, case, dt):
        n, K, log_scale, seed = case
        rows = BLOCK_SIZE + 5  # two blocks, two streams
        pts = random_points(n, K, 2 * rows, np.random.default_rng(seed), scale=10.0**log_scale)
        X_c = pts.reshape(rows, 2, n + 1)
        X_f = X_c.copy(order="F")
        before = X_f.copy(order="F")

        def streams():
            return [stream_generator(seed, 0), stream_generator(seed, 1)]

        got_f = brownian_step(X_f, streams(), dt, K)
        got_c = brownian_step(X_c, streams(), dt, K)
        assert np.array_equal(got_f, got_c)
        assert got_f.T.flags.c_contiguous and got_c.flags.c_contiguous
        # a new array: the positions handed in are left as they were
        assert np.array_equal(X_f, before) and np.array_equal(X_c, before)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=far_points, p=st.integers(2, 6))
    def test_pair_distances_on_coordinate_major(self, case, p):
        n, K, log_scale, seed = case
        pts = random_points(n, K, 50 * p, np.random.default_rng(seed), scale=10.0**log_scale)
        X = pts.reshape(50, p, n + 1).copy(order="F")
        I, J = np.array(fkmc._pair_list(p)).T
        got = fkmc._pair_distances(X, I, J, K)
        want = np.stack([distance_coords(X[:, i], X[:, k], K) for i, k in zip(I, J)], axis=1)
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous  # each pair's column is contiguous

    def test_walk_block_state_is_coordinate_major(self):
        o = ModelPoint.basepoint(3, 1.0)
        sizes, cp_steps, _ = time_grid([0.02], 0.01)
        for _, X, _ in walk_block(o.coords, (BLOCK_SIZE + 5, 3), 17, 0, sizes, cp_steps, 1.0):
            assert X.shape == (BLOCK_SIZE + 5, 3, 4) and X.T.flags.c_contiguous


class TestHeatKernel:
    def test_exact_center_value(self):
        # P_t(0) = (4 pi t)^(-3/2) e^(-t) at K = 1
        for t in (0.1, 1.0, 2.5):
            lg = heat_kernel_log_values(t, 0.0, 3, 1.0, HeatKernelMode.exact_n3())
            assert math.exp(lg) == pytest.approx((4 * math.pi * t) ** -1.5 * math.exp(-t), rel=1e-12)
        assert HeatKernelMode.exact_n3().bracket is BracketMode.EXACT

    def test_exact_requires_n3(self):
        with pytest.raises(ValueError):
            heat_kernel_log_values(1.0, 0.5, 2, 1.0, HeatKernelMode.exact_n3())

    def test_mass_conservation(self):
        # the kernel integrated over the sphere areas 4 pi sinh(r)^2 (K = 1)
        quad = QuadratureSpec(relative_tolerance=1e-9, absolute_tolerance=1e-300)
        for t in (0.1, 1.0, 5.0):

            def f(r):
                lg = heat_kernel_log_values(t, r, 3, 1.0, HeatKernelMode.exact_n3())
                return math.exp(lg) * 4.0 * math.pi * math.sinh(r) ** 2 if lg > -700.0 else 0.0

            splits = [t, 2.0 * t, 4.0 * t + 6.0 * math.sqrt(t)]  # about the radial drift 2t
            mass = integrate(f, 0.0, math.inf, quad, split_points=splits)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_curvature_scaling(self):
        # P^K_t(r) = K^(3/2) P^1_(Kt)(sqrt(K) r)
        K = 2.7
        for t, r in ((0.3, 0.5), (1.1, 2.0)):
            lhs = math.exp(heat_kernel_log_values(t, r, 3, K, HeatKernelMode.exact_n3()))
            rhs = K**1.5 * math.exp(
                heat_kernel_log_values(K * t, math.sqrt(K) * r, 3, 1.0, HeatKernelMode.exact_n3())
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_distance(self):
        ds = np.linspace(0.0, 8.0, 40)
        for mode in (HeatKernelMode.exact_n3(), HeatKernelMode.dm_upper(2.0), HeatKernelMode.dm_lower(0.5)):
            vals = heat_kernel_log_values(0.8, ds, 3, 1.0, mode)
            assert np.all(np.diff(vals) < 0.0)

    def test_bracket_constants_scale(self):
        up_mode, lo_mode = HeatKernelMode.dm_upper(3.0), HeatKernelMode.dm_lower(0.25)
        up = math.exp(heat_kernel_log_values(0.5, 1.0, 4, 1.0, up_mode))
        lo = math.exp(heat_kernel_log_values(0.5, 1.0, 4, 1.0, lo_mode))
        base_up = math.exp(heat_kernel_log_values(0.5, 1.0, 4, 1.0, HeatKernelMode.dm_upper(1.0)))
        assert up == pytest.approx(3.0 * base_up, rel=1e-12)
        assert lo == pytest.approx(0.25 / 1.0 * base_up, rel=1e-12)
        assert up_mode.bracket is BracketMode.UPPER and lo_mode.bracket is BracketMode.LOWER

    def test_two_sided_bracket_order(self):
        # with fitted constants the exact kernel sits inside the bracket
        ts = np.geomspace(0.05, 5.0, 8)
        ds = np.linspace(0.0, 10.0, 11)
        ratios = []
        for t in ts:
            for d in ds:
                le = heat_kernel_log_values(float(t), float(d), 3, 1.0, HeatKernelMode.exact_n3())
                lh = heat_kernel_log_values(float(t), float(d), 3, 1.0, HeatKernelMode.dm_upper(1.0))
                ratios.append(le - lh)
        lo, hi = math.exp(min(ratios)), math.exp(max(ratios))
        assert hi / lo < 2.0 + 1e-9  # constant-curvature spread stays below 2

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            HeatKernelMode("nope")
        with pytest.raises(ValueError):
            HeatKernelMode.dm_upper(-1.0)


class TestRadialProfile:
    def test_constant(self):
        u = RadialProfile.constant(2.5)
        assert u.value(0.0) == 2.5 and u.value(100.0) == 2.5

    def test_bump(self):
        u = RadialProfile.bump(0.5, 2.0)
        assert u.value(1.9) == 0.5 and u.value(2.1) == 0.0
        assert u.R == 2.0
        vals = u.value(np.array([0.0, 2.0, 3.0]))
        assert vals.tolist() == [0.5, 0.5, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile.bump(-1.0, 1.0)
        with pytest.raises(ValueError):
            RadialProfile.bump(1.0, 0.0)
