"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each criterion prints a single summary line on success; the pytest -v status
line is the pass/fail record.  Monte Carlo checks use fixed seeds and fixed
block structure, so every run of this suite sees identical numbers.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import hypam
from hypam import (
    BoundConfig,
    ConstantLedger,
    FkConfig,
    HeatKernelMode,
    ModelPoint,
    NoiseSpec,
    RadialProfile,
    beta_critical,
    brownian_step,
    calibrate_lower_constant,
    dirichlet_eigenvalue_upper,
    f_profile,
    g_alpha,
    g_alpha_lower,
    gamma_lower,
    intermittency_ratio,
    log_gamma_upper,
    moment_and_chaos,
    moment_estimate,
    moment_series,
    q_sup,
    stream_generator,
    theta,
    upper_exponent,
)
from hypam.hyperbolic import distance_coords, heat_kernel_log_values, radial_walk, sheet_violation
from hypam.specialfn import EULER_GAMMA, dm_h_log

EXACT = HeatKernelMode.exact_n3()
SPEC = NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0)


def test_criterion_1_special_function_identities():
    # additivity of the split gamma integrals to 1e-10 relative
    worst_add = 0.0
    for s in (0.3, 0.75, 1.0, 2.5, 5.0):
        for x in (0.01, 0.5, 1.0, 3.0, 20.0):
            total = gamma_lower(s, x) + math.exp(log_gamma_upper(s, x))
            worst_add = max(worst_add, abs(total / math.gamma(s) - 1.0))
    assert worst_add <= 1e-10

    # recurrence upper(s+1, x) = s upper(s, x) + x^s e^(-x) to 1e-9 relative
    worst_rec = 0.0
    for s in (0.3, 0.75, 1.0, 2.5, 5.0):
        for x in (0.01, 0.5, 1.0, 3.0, 20.0):
            lhs = math.exp(log_gamma_upper(s + 1.0, x))
            rhs = s * math.exp(log_gamma_upper(s, x)) + x**s * math.exp(-x)
            worst_rec = max(worst_rec, abs(lhs / rhs - 1.0))
    assert worst_rec <= 1e-9

    # -Ei(-x) ~ -ln x - gamma_EM as x -> 0, ratio within 5%
    worst_ei = 0.0
    for x in (1e-6, 1e-8):
        ei = math.exp(log_gamma_upper(0.0, x))
        worst_ei = max(worst_ei, abs(ei / (-math.log(x) - EULER_GAMMA) - 1.0))
    assert worst_ei <= 0.05
    print(
        f"criterion 1 PASS: additivity {worst_add:.1e}, recurrence {worst_rec:.1e}, "
        f"small-x ratio err {worst_ei:.1e}"
    )


def _random_points(n, K, count, rng, scale=1.0):
    spatial = rng.standard_normal((count, n)) * scale
    x0 = np.sqrt(1.0 / K + np.sum(spatial**2, axis=-1))
    return np.concatenate([x0[:, None], spatial], axis=1)


def test_criterion_2_geometry_and_paths():
    n, K = 3, 1.0
    base = ModelPoint.basepoint(n, K)

    # sheet residual stays at or below 1e-9 after every step
    rng = stream_generator(2024, 0)
    X = np.broadcast_to(base.coords, (256, n + 1)).copy()
    worst_drift = 0.0
    for _ in range(200):
        X = brownian_step(X, rng, 0.01, K)
        worst_drift = max(worst_drift, float(np.max(sheet_violation(X, K))))
    assert worst_drift <= 1e-9

    # triangle inequality on 1e4 random triples
    rng = np.random.default_rng(7)
    A = _random_points(n, K, 10_000, rng, scale=2.0)
    B = _random_points(n, K, 10_000, rng, scale=2.0)
    C = _random_points(n, K, 10_000, rng, scale=2.0)
    viol = distance_coords(A, C, K) - distance_coords(A, B, K) - distance_coords(B, C, K)
    assert float(np.max(viol)) <= 1e-9

    # one-step mean squared displacement: E[d^2] = 2 n dt within 3 stderr
    dt = 0.01
    rng = stream_generator(2024, 1)
    X = np.broadcast_to(base.coords, (100_000, n + 1)).copy()
    X = brownian_step(X, rng, dt, K)
    d2 = distance_coords(X, base.coords, K) ** 2
    se = float(d2.std(ddof=1) / math.sqrt(d2.size))
    z_msd = (float(d2.mean()) - 2.0 * n * dt) / se
    assert abs(z_msd) <= 3.0

    # long-run radial speed within 5% of (n-1) sqrt(K) at t = 50
    target = (n - 1) * math.sqrt(K)
    t_end, dt = 50.0, 0.01
    rng = stream_generator(99, 0)
    X = np.broadcast_to(base.coords, (1000, n + 1)).copy()
    for _ in range(int(round(t_end / dt))):
        X = brownian_step(X, rng, dt, K)
    speed = float(distance_coords(X, base.coords, K).mean()) / t_end
    speed_err = abs(speed / target - 1.0)
    assert speed_err <= 0.05
    print(
        f"criterion 2 PASS: drift {worst_drift:.1e}, msd z = {z_msd:+.2f}, "
        f"radial speed off by {speed_err:.2%}"
    )


def test_criterion_3_exact_heat_kernel():
    n, K = 3, 1.0
    from hypam import QuadratureSpec, integrate

    # unit mass at t in {0.1, 1, 5} within 1e-6
    worst_mass = 0.0
    for t in (0.1, 1.0, 5.0):

        def f(d: float) -> float:
            lg = float(heat_kernel_log_values(t, d, n, K, EXACT))
            area = 4.0 * math.pi * math.sinh(d) ** 2
            return math.exp(lg) * area if lg > -700.0 else 0.0

        hi = 2.0 * t + 12.0 * math.sqrt(t) + 5.0
        mass = integrate(
            f, 0.0, hi, QuadratureSpec(1e-10, 1e-300), split_points=(2.0 * t, 4.0 * t + 2.0)
        )
        worst_mass = max(worst_mass, abs(mass - 1.0))
    assert worst_mass <= 1e-6

    # composition surrogate: E[P_s(d(Y, z))] with Y sampled at time t
    # reproduces P_{t+s}(d(x, z)) within 3 stderr, two (t, s) pairs
    base = ModelPoint.basepoint(n, K)
    z = np.array([math.cosh(1.0), math.sinh(1.0), 0.0, 0.0])
    worst_z = 0.0
    for pair_idx, (t, s) in enumerate(((0.25, 0.25), (0.5, 1.0))):
        rng = stream_generator(3001, pair_idx)
        X = np.broadcast_to(base.coords, (200_000, n + 1)).copy()
        dt = 0.002
        for _ in range(int(round(t / dt))):
            X = brownian_step(X, rng, dt, K)
        vals = np.exp(heat_kernel_log_values(s, distance_coords(X, z, K), n, K, EXACT))
        mc, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))
        exact = math.exp(heat_kernel_log_values(t + s, 1.0, n, K, EXACT))
        worst_z = max(worst_z, abs(mc - exact) / se)
    assert worst_z <= 3.0

    # two-sided comparison: fitted c h <= P <= C h on the full grid
    ts = np.geomspace(0.05, 5.0, 8)
    ds = np.linspace(0.0, 10.0, 11)
    ratios = []
    for t in ts:
        lg = heat_kernel_log_values(t, ds, n, K, EXACT)
        lh = dm_h_log(K * t, math.sqrt(K) * ds, n)
        ratios.append(np.exp(lg - lh - 1.5 * math.log(K)))
    ratios = np.array(ratios)
    c_fit, c_big = float(ratios.min()), float(ratios.max())
    assert 0.0 < c_fit <= c_big < math.inf
    assert np.all(ratios >= c_fit * (1.0 - 1e-12))
    assert np.all(ratios <= c_big * (1.0 + 1e-12))
    spread = c_big / c_fit
    assert spread < 2.0
    print(
        f"criterion 3 PASS: mass err {worst_mass:.1e}, composition |z| = {worst_z:.2f}, "
        f"two-sided spread {spread:.3f}"
    )


def test_criterion_4_kernel_asymptotics():
    n, K = 3, 1.0
    # small-d log-log slope of the kernel transform = 2 alpha - n within 0.1
    ds = np.geomspace(1e-3, 1e-2, 5)
    slopes = {}
    for alpha in (0.5, 0.6):
        spec = NoiseSpec(alpha=alpha, beta=0.0, n=n, K=K)
        vals = [g_alpha(spec, float(d), EXACT).value for d in ds]
        slopes[alpha] = float(np.polyfit(np.log(ds), np.log(vals), 1)[0])
        assert abs(slopes[alpha] - (2.0 * alpha - n)) <= 0.1

    # calibrated closed-form lower bound sits below the transform everywhere
    spec = NoiseSpec(alpha=1.0, beta=0.0, n=n, K=K)
    grid = np.geomspace(1e-3, 10.0, 120)
    exact_vals = np.array([g_alpha(spec, float(d), EXACT).value for d in grid])
    ledger = ConstantLedger()
    calibrate_lower_constant(spec, ledger, d_grid=grid)
    lower_vals = np.asarray(g_alpha_lower(spec, grid, ledger))
    assert np.all(lower_vals <= exact_vals * (1.0 + 1e-9))

    # monotone decrease everywhere on the grid, both curves
    assert np.all(np.diff(exact_vals) < 0.0)
    assert np.all(np.diff(lower_vals) < 0.0)
    margin = float(np.min(exact_vals / lower_vals))
    print(
        f"criterion 4 PASS: slopes {slopes[0.5]:.3f}/{slopes[0.6]:.3f} "
        f"(want -2.0/-1.8), lower-bound pinch ratio {margin:.6f}"
    )


def test_criterion_5_bound_pipeline():
    n, K = 3, 1.0
    rhos = np.geomspace(1e-3, 50.0, 25)
    cases = {1: 0.5, 2: 0.75, 3: 1.0}
    cfgs = {
        i: BoundConfig(spec=NoiseSpec(alpha=a, beta=1.0, n=n, K=K), r=math.inf)
        for i, a in cases.items()
    }

    # strict decrease of every profile
    for i, cfg in cfgs.items():
        vals = [f_profile(i, float(r), cfg) for r in rhos]
        assert all(b < a for a, b in zip(vals, vals[1:])), f"profile {i}"

    # threshold: exactly zero below 1/sqrt(C F(0)), continuous just above
    cfg3 = cfgs[3]
    beta_star = 1.0 / math.sqrt(f_profile(3, 0.0, cfg3))
    assert theta(beta_star * (1.0 - 1e-9), cfg3) == 0.0
    just_above = theta(beta_star * (1.0 + 1e-6), cfg3)
    assert 0.0 < just_above < 1e-3

    # round trip F_i(theta(beta)) C beta^2 = 1 to 1e-6
    worst_rt = 0.0
    for i, cfg in cfgs.items():
        for beta in (1.0, 10.0):
            th = theta(beta, cfg)
            if th == 0.0:
                continue
            worst_rt = max(worst_rt, abs(f_profile(i, th, cfg) * beta**2 - 1.0))
    assert worst_rt <= 1e-6

    # bounded-regime growth: fitted slope of theta in beta equals 2 +- 0.05
    betas = np.geomspace(1e2, 1e4, 9)
    ths = [theta(float(b), cfg3) for b in betas]
    slope = float(np.polyfit(np.log(betas), np.log(ths), 1)[0])
    assert abs(slope - 2.0) <= 0.05

    # exact small-coupling decay rate at p = 2, r = 2
    cfg_r2 = BoundConfig(spec=NoiseSpec(alpha=1.0, beta=1.0, n=n, K=K), r=2.0)
    val = upper_exponent(2, 0.05, cfg_r2)
    assert val == -((n - 1) ** 2) * K / 2.0
    print(
        f"criterion 5 PASS: roundtrip err {worst_rt:.1e}, "
        f"theta slope {slope:.6f}, small-beta exponent {val}"
    )


def test_criterion_6_feynman_kac_cross_validation():
    from hypam import QuadratureSpec, integrate

    ones = RadialProfile.constant(1.0)

    # zero coupling, flat data: the estimator is exact
    est0 = moment_estimate(
        FkConfig(spec=replace(SPEC, beta=0.0), p=2, t_end=0.5, dt=0.01,
                 n_paths=4096, seed=5, u0=ones)
    )
    assert (est0.mean, est0.stderr, est0.log_mean) == (1.0, 0.0, 0.0)
    assert est0.bias == "UNBIASED"

    # zero coupling, bump data: matches the quadrature semigroup to 3 stderr
    bump = RadialProfile.bump(1.0, 2.0)
    est_b = moment_estimate(
        FkConfig(spec=replace(SPEC, beta=0.0), p=2, t_end=0.5, dt=0.005,
                 n_paths=20_000, seed=61, u0=bump),
        workers=4,
    )

    # P_t bump at the base point: the kernel integrated over the sphere areas
    # 4 pi sinh(r)^2 out to the bump's radius, split about the radial drift
    def f(r: float) -> float:
        lg = float(heat_kernel_log_values(0.5, r, 3, 1.0, EXACT))
        return math.exp(lg) * 4.0 * math.pi * math.sinh(r) ** 2 if lg > -700.0 else 0.0

    q = integrate(f, 0.0, 2.0, QuadratureSpec(1e-9, 1e-300), split_points=(0.5, 1.0))
    z_bump = (est_b.mean - q**2) / est_b.stderr
    assert abs(z_bump) <= 3.0

    # small-coupling first order: moment - 1 vs beta^2 x chaos coefficient,
    # independent seeds, 2e4 replicas each, 3 combined stderr
    beta, t, p, N = 0.05, 0.5, 2, 20_000
    m = moment_estimate(
        FkConfig(spec=replace(SPEC, beta=beta), p=p, t_end=t, dt=0.005,
                 n_paths=N, seed=33, u0=ones),
        workers=4,
    )
    _, c = moment_and_chaos(
        FkConfig(spec=replace(SPEC, beta=beta), p=2, t_end=t, dt=0.005,
                 n_paths=N, seed=77, u0=ones),
        workers=4,
    )
    tol = 3.0 * math.hypot(m.stderr, beta**2 * c.stderr)
    diff = abs((m.mean - 1.0) - beta**2 * c.mean)
    assert diff <= tol
    print(
        f"criterion 6 PASS: bump z = {z_bump:+.2f}, first-order diff {diff:.2e} "
        f"within {tol:.2e}"
    )


def test_criterion_7_lower_bound_machinery():
    # refinement stability of the profile supremum
    coarse = q_sup(2, 3.0, SPEC, n_grid=600)
    fine = q_sup(2, 3.0, SPEC, n_grid=1200)
    rel = abs(coarse.value - fine.value) / abs(fine.value)
    assert rel <= 1e-6

    # critical coupling nonincreasing in the moment order
    bcs = [beta_critical(p, SPEC) for p in range(2, 9)]
    assert all(b <= a for a, b in zip(bcs, bcs[1:]))

    # exit-time decay rate vs the closed-form eigenvalue bound, within 10%
    R, n, K = 1.0, 3, 1.0
    ts = [0.25, 0.4, 0.55]
    # survival in the ball: paths whose largest distance so far stays within R
    _, _, d_max = radial_walk(ModelPoint.basepoint(n, K), ts, 1e-3, 60_000, 11, 1)
    surv = np.count_nonzero(d_max <= R, axis=1) / 60_000
    rate = -float(np.polyfit(ts, np.log(surv), 1)[0])
    lam = dirichlet_eigenvalue_upper(R, n, K)
    rate_err = abs(rate - lam) / lam
    assert rate_err <= 0.10
    print(
        f"criterion 7 PASS: refinement {rel:.1e}, beta_c {bcs[0]:.3f}..{bcs[-1]:.3f}, "
        f"exit rate {rate:.3f} vs bound {lam:.3f} ({rate_err:.2%})"
    )


def test_criterion_8_sandwich_and_intermittency():
    ones = RadialProfile.constant(1.0)

    # fitted log-moment slope over t in [1, 4] sits between the two bound
    # pipelines; slack = 0.05 calibration allowance + 3 stderr of the fit
    beta, p = 0.5, 2
    spec = replace(SPEC, beta=beta)
    ts = [1.0, 2.0, 3.0, 4.0]
    series = moment_series(
        FkConfig(spec=spec, p=p, t_end=ts[-1], dt=0.01, n_paths=20_000,
                 seed=505, u0=ones),
        ts,
        workers=4,
    )
    logm = [e.log_mean for e in series]
    ses = [e.stderr / max(e.mean, 1e-300) for e in series]
    slope = float(np.polyfit(ts, logm, 1)[0])
    lower = p * max(q_sup(p, beta, spec).value, -((spec.n - 1) ** 2) * spec.K / 4.0)
    upper = upper_exponent(p, beta, BoundConfig(spec=spec, r=math.inf))
    slack = 0.05 + 3.0 * max(ses) / (ts[-1] - ts[0])
    assert lower - slack <= slope <= upper + slack

    # intermittency: normalized ratio log-increasing at beta above critical,
    # with a 3-stderr margin at every consecutive pair
    bstar = 1.05 * beta_critical(4, SPEC)
    pts = intermittency_ratio(
        4,
        2,
        [0.25, 0.5, 0.75, 1.0],
        FkConfig(spec=replace(SPEC, beta=bstar), p=4, t_end=1.0, dt=0.005,
                 n_paths=40_000, seed=808, u0=ones),
        workers=4,
    )
    margins = []
    for a, b in zip(pts, pts[1:]):
        gap = b.log_ratio - a.log_ratio
        need = 3.0 * math.hypot(a.log_stderr, b.log_stderr)
        margins.append(gap - need)
        assert gap > need, (gap, need)
    print(
        f"criterion 8 PASS: slope {slope:+.4f} in [{lower - slack:+.3f}, "
        f"{upper + slack:+.3f}], intermittency margin {min(margins):.3f}"
    )


def test_criterion_9_reproducibility(tmp_path):
    # identical manifests imply identical outputs, via the real CLI
    args = [
        sys.executable, "-m", "hypam", "moment-mc",
        "--set", "mc.n_paths=8192", "--set", "mc.t_end=0.2",
        "--set", "mc.dt=0.02", "--seed", "777",
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = subprocess.run(args + ["--out", str(out)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    # the run's timer is the manifest's wall_time_s alone, so the manifests
    # must agree on everything else, the output digests included, and the
    # estimate files byte for byte
    manifests = []
    for out in outs:
        with open(out / "manifest.json") as f:
            man = json.load(f)
        man.pop("wall_time_s")
        manifests.append(man)
    assert manifests[0] == manifests[1]
    assert [e["path"] for e in manifests[0]["outputs"]] == ["estimates.jsonl"]
    data = (outs[0] / "estimates.jsonl").read_bytes()
    assert data != b"" and data == (outs[1] / "estimates.jsonl").read_bytes()

    # worker-count invariance, bitwise, W in {1, 8}
    cfg = FkConfig(spec=SPEC, p=2, t_end=0.2, dt=0.02, n_paths=8192, seed=777,
                   u0=RadialProfile.constant(1.0))
    w1 = moment_series(cfg, [0.1, 0.2], workers=1)
    w8 = moment_series(cfg, [0.1, 0.2], workers=8)
    for a, b in zip(w1, w8):
        assert (a.mean, a.stderr, a.log_mean) == (b.mean, b.stderr, b.log_mean)
    print("criterion 9 PASS: manifests identical, workers {1,8} bitwise equal")
