"""The benchmark's workloads: each is a seed-shuffled round of CLI ops plus the
checks every op's output must pass.

An op is one or more ``hypam`` CLI calls, each with its own output directory.
A check receives those directories and returns None when the output is
correct, else a one-line reason.  A run repeats whole rounds, so every run
covers the same configurations and only the per-op draws vary with the seed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np
from scipy.special import gammaln, kve

from hypam.cli import build_spec
from hypam.renewal import BoundConfig, f_profile

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    calls: tuple[tuple[str, ...], ...]
    params: dict
    check: Callable[[list[Path]], str | None]


def _sets(**pairs) -> list[str]:
    out = []
    for key, value in pairs.items():
        out += ["--set", f"{key.replace('__', '.')}={value}"]
    return out


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _ledger(out: Path, name: str) -> float:
    manifest = json.loads((out / "manifest.json").read_text())
    return float(manifest["constant_ledger"][name]["value"])


def _manifest_config(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["config"]


def _nonincreasing(x) -> bool:
    return bool(np.all(np.diff(x) <= 0.0))


def _nondecreasing(x) -> bool:
    return bool(np.all(np.diff(x) >= 0.0))


# ---------------------------------------------------------------------------
# kernel_tables: kernel-table over six (n, alpha), K from the seed

KT_CONFIGS = [(3, 0.6), (3, 1.0), (3, 1.5), (3, 2.0), (4, 0.75), (4, 1.25)]
KT_CURVATURES = (0.5, 1.0, 2.0)
KT_NODES_CHECKED = 3  # n = 4 nodes re-derived by mpmath per op


def bessel_kernel_n3(d: np.ndarray, alpha: float, K: float) -> np.ndarray:
    """Closed form of the n = 3 kernel of order alpha (DLMF 10.32.10):
    K^(3/2-a) (4 pi)^(-3/2) (rho/sinh rho) 2 (rho/2)^(a-3/2) K_(a-3/2)(rho) / Gamma(a)."""
    rho = math.sqrt(K) * np.asarray(d, dtype=float)
    nu = alpha - 1.5
    log_sinh = rho - math.log(2.0) + np.log1p(-np.exp(-2.0 * rho))
    lg = (
        (1.5 - alpha) * math.log(K)
        - 1.5 * math.log(4.0 * math.pi)
        + np.log(rho)
        - log_sinh
        + math.log(2.0)
        + nu * np.log(rho / 2.0)
        + np.log(kve(nu, rho))
        - rho
        - gammaln(alpha)
    )
    return np.exp(lg)


def dm_kernel_mpmath(d: float, alpha: float, n: int, K: float, C: float) -> float:
    """(1/Gamma(a)) * integral of t^(a-1) C K^(n/2) h(Kt, sqrt(K) d) dt, with h the
    comparison heat-kernel profile, by mpmath quadrature in log-time."""
    with mpmath.workdps(20):
        d, a, K = mpmath.mpf(d), mpmath.mpf(alpha), mpmath.mpf(K)
        z = mpmath.sqrt(K) * d

        def f(y):
            tau = K * mpmath.exp(y)
            log_h = (
                -0.5 * n * mpmath.log(tau)
                + 0.5 * (n - 3) * mpmath.log1p(tau + z)
                + mpmath.log1p(z)
                - z * z / (4 * tau)
                - (n - 1) ** 2 * tau / 4
                - (n - 1) * z / 2
            )
            return mpmath.exp(a * y + log_h)

        # the Gaussian factor kills tau << z^2 and the spectral gap tau >> 1
        y_gap, y_peak = mpmath.log(1 / K), mpmath.log(d * d / 4)
        lo, hi = min(y_gap, y_peak) - 12, max(y_gap, y_peak) + 8
        edges = sorted(set(mpmath.linspace(lo, hi, 25)) | {y_gap, y_peak})
        value = mpmath.quad(f, edges) * K ** (mpmath.mpf(n) / 2) * C / mpmath.gamma(a)
        return float(value)


def check_kernel_table(n: int, alpha: float, K: float, nodes, dirs) -> str | None:
    out = dirs[0]
    exact = _rows(out / "g_alpha.csv")
    d, v = _column(exact, "d"), _column(exact, "value")
    if len(v) != 200 or not np.all(np.isfinite(v) & (v > 0.0)):
        return "g_alpha table is not 200 finite positive values"
    if n == 3:
        err = float(np.max(np.abs(v / bessel_kernel_n3(d, alpha, K) - 1.0)))
        if err > 1e-8:
            return f"n=3 kernel off the Bessel closed form by {err:.3e} (relative)"
        lower = _column(_rows(out / "g_alpha_lower.csv"), "value")
        if np.any(lower > v * (1.0 + 1e-9)):
            return "calibrated lower table exceeds the exact kernel"
        return None
    C = _ledger(out, "dm_upper_C")
    for i in nodes:
        ref = dm_kernel_mpmath(d[i], alpha, n, K, C)
        err = abs(v[i] / ref - 1.0)
        if err > 1e-8:
            return f"n={n} node {i} (d={d[i]:.6g}) off the mpmath transform by {err:.3e}"
    return None


def kernel_table_op(n: int, alpha: float, K: float, nodes: list[int]) -> Op:
    argv = ("kernel-table", *_sets(model__n=n, noise__alpha=alpha, model__K=K))
    params = {"subcommand": "kernel-table", "n": n, "alpha": alpha, "K": K, "check_nodes": nodes}
    return Op((argv,), params, functools.partial(check_kernel_table, n, alpha, K, nodes))


def kernel_tables_round(rng: random.Random) -> list[Op]:
    # each curvature twice per round, so the round's cost varies little with the seed
    curvatures = rng.sample(KT_CURVATURES * 2, len(KT_CONFIGS))
    ops = []
    for (n, alpha), K in zip(rng.sample(KT_CONFIGS, len(KT_CONFIGS)), curvatures):
        nodes = sorted(rng.sample(range(200), KT_NODES_CHECKED)) if n == 4 else []
        ops.append(kernel_table_op(n, alpha, K, nodes))
    return ops


# ---------------------------------------------------------------------------
# bound_scans: bounds then phase-diagram per (n, alpha); p and r from the seed

BS_CONFIGS = [
    (3, 0.6), (3, 0.75), (3, 1.0), (3, 1.5), (4, 0.8),
    (4, 1.0), (4, 1.5), (5, 1.0), (5, 1.25), (5, 2.0),
]
BS_ORDERS = (2, 3, 4)
BS_R = ("inf", 2)


def check_bound_scan(dirs) -> str | None:
    bounds_dir, phase_dir = dirs
    rows = _rows(bounds_dir / "bounds.csv")
    config = _manifest_config(bounds_dir)
    r = config["moment"]["r"]
    C = _ledger(bounds_dir, "chaos_C")
    cfg = BoundConfig(build_spec(config), r=math.inf if r == "inf" else float(r), C_chaos=C)
    beta, th = _column(rows, "beta"), _column(rows, "theta")
    for b, t in zip(beta, th):
        if t > 0.0:
            err = abs(f_profile(cfg.regime, float(t), cfg) * C * b * b - 1.0)
            if err > 1e-6:
                return f"theta round trip off by {err:.3e} at beta={b:.6g}"
    if not _nondecreasing(_column(rows, "upper_exponent")):
        return "bounds: upper_exponent decreases in beta"
    phase = _rows(phase_dir / "phase.csv")
    for p in {r["p"] for r in phase}:
        ue = [float(r["upper_exponent"]) for r in phase if r["p"] == p]
        if not _nondecreasing(ue):
            return f"phase: upper_exponent decreases in beta at p={p}"
    beta_c = _column(_rows(phase_dir / "beta_critical.csv"), "beta_c")
    if not (np.all(np.isfinite(beta_c)) and _nonincreasing(beta_c)):
        return "beta_c is not nonincreasing in p"
    if not _nonincreasing(_column(_rows(phase_dir / "p_critical.csv"), "p_c")):
        return "p_c is not nonincreasing in beta"
    return None


def bound_scan_op(n: int, alpha: float, p: int, r) -> Op:
    model = _sets(model__n=n, noise__alpha=alpha)
    calls = (
        ("bounds", *model, *_sets(moment__p=p, moment__r=r)),
        ("phase-diagram", *model),
    )
    params = {"subcommand": "bounds+phase-diagram", "n": n, "alpha": alpha, "p": p, "r": r}
    return Op(calls, params, check_bound_scan)


def bound_scans_round(rng: random.Random) -> list[Op]:
    return [
        bound_scan_op(n, alpha, rng.choice(BS_ORDERS), rng.choice(BS_R))
        for n, alpha in rng.sample(BS_CONFIGS, len(BS_CONFIGS))
    ]


# ---------------------------------------------------------------------------
# fk_moments: moment-mc and intermittency on one shared exact kernel table

FK_MODEL = _sets(
    model__n=3, model__K=1.0, noise__alpha=1.0, mc__t_end=1.0, mc__dt=0.01,
    kernel__mode="exact", mc__n_paths=8192,
)
FK_WORKERS = 2
# intermittency at p = q = 2 returns exact ones without simulating, so it is left out
FK_COMBOS = [
    ("moment-mc", 2), ("moment-mc", 3), ("moment-mc", 4),
    ("intermittency", 3), ("intermittency", 4),
]
FK_BETAS = (0.5, 1.0, 1.5)
# CLI seeds: 0 made the stored references, 1 is the fixed warm-up and gate op,
# and the workload draws from [2, 2^31)
FK_REFERENCE_SEED = 0
FK_FIXED_SEED = 1
FK_REFERENCE = HERE / "fk_reference.json"


def fk_key(subcommand: str, p: int, beta: float) -> str:
    return f"{subcommand}:p={p}:beta={beta}"


@functools.cache
def fk_references() -> dict:
    return json.loads(FK_REFERENCE.read_text())["estimates"]


def read_fk_estimates(subcommand: str, out: Path) -> dict:
    """{label: (mean, stderr)} from one moment-mc or intermittency output."""
    if subcommand == "moment-mc":
        with open(out / "estimates.jsonl") as f:
            records = [json.loads(line) for line in f]
        return {r["kind"]: (r["mean"], r["stderr"]) for r in records}
    return {
        f"t={r['t']}": (float(r["ratio"]), float(r["stderr"]))
        for r in _rows(out / "intermittency.csv")
    }


def check_fk(subcommand: str, p: int, beta: float, dirs) -> str | None:
    ref = fk_references()[fk_key(subcommand, p, beta)]
    got = read_fk_estimates(subcommand, dirs[0])
    if set(got) != set(ref):
        return f"estimate labels {sorted(got)} differ from the reference {sorted(ref)}"
    for label, (mean, se) in got.items():
        ref_mean, ref_se = ref[label]
        if not (math.isfinite(mean) and math.isfinite(se)):
            return f"{label}: estimate {mean} +- {se} is not finite"
        z = abs(mean - ref_mean) / math.hypot(se, ref_se)
        if not z <= 5.0:
            return f"{label}: {mean:.6g} is {z:.1f} combined stderr from {ref_mean:.6g}"
    return None


def fk_op(subcommand: str, p: int, beta: float, seed: int, workers: int = FK_WORKERS) -> Op:
    argv = [subcommand, *FK_MODEL, *_sets(moment__p=p, noise__beta=beta)]
    argv += ["--seed", str(seed), "--workers", str(workers)]
    if subcommand == "intermittency":
        argv += ["--q", "2"]
    params = {"subcommand": subcommand, "p": p, "beta": beta, "seed": seed, "workers": workers}
    return Op((tuple(argv),), params, functools.partial(check_fk, subcommand, p, beta))


def fk_moments_round(rng: random.Random) -> list[Op]:
    return [
        fk_op(sub, p, rng.choice(FK_BETAS), rng.randrange(2, 2**31))
        for sub, p in rng.sample(FK_COMBOS, len(FK_COMBOS))
    ]


def fk_fixed_op(workers: int = FK_WORKERS) -> Op:
    return fk_op("moment-mc", 4, 1.0, FK_FIXED_SEED, workers)


def fk_records(out: Path) -> list[dict]:
    """estimates.jsonl without the fields that may differ between reruns:
    the wall time and the worker count echoed in the configuration."""
    records = []
    with open(out / "estimates.jsonl") as f:
        for line in f:
            rec = json.loads(line)
            rec.pop("wall_time_s", None)
            rec.get("config", {}).get("mc", {}).pop("workers", None)
            records.append(rec)
    return records


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[random.Random], list[Op]]
    warmup: Callable[[], Op]  # fixed op: set-up, trace-overhead reference
    gated: bool = False  # runs the worker-count reproducibility gate


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kernel_tables",
            kernel_tables_round,
            lambda: kernel_table_op(4, 1.25, 1.0, [0, 100, 199]),
        ),
        Workload("fk_moments", fk_moments_round, fk_fixed_op, gated=True),
        Workload(
            "bound_scans",
            bound_scans_round,
            lambda: bound_scan_op(3, 1.5, 2, "inf"),
        ),
    )
}
