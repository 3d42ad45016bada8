"""Reproducible experiment runner over the toolkit.

Every subcommand reads one configuration tree (JSON file plus dotted-key
overrides) and computes its plain CSV/JSON-lines outputs; only then does
``main`` create the output directory, write them, and drop an experiment
manifest beside them: the full configuration echo, the master seed, every
ledger constant with its provenance, and a content digest per output file.  Re-running a subcommand with an identical manifest
reproduces the numeric outputs byte for byte (wall-time fields aside).
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .fkmc import (
    FkConfig,
    asymptotic_slope_check,
    beta_critical,
    intermittency_ratio,
    lower_lyapunov,
    moment_and_chaos,
    moment_estimate,
    p_critical,
)
from .hyperbolic import (
    BLOCK_SIZE,
    BracketMode,
    HeatKernelMode,
    ModelPoint,
    RadialProfile,
    brownian_path,
    brownian_step,
    distance_coords,
    heat_kernel_log_values,
    radial_walk,
)
from .kernels import (
    calibrate_lower_constant,
    dalang_check,
    g_alpha_log_values,
    g_alpha_lower,
    NoiseSpec,
)
from .ledger import ConstantLedger
from .renewal import BoundConfig, f_profile, theta, upper_exponent
from .rng import stream_generator
from .specialfn import QuadratureSpec, gamma_lower, gamma_upper, integrate

__all__ = ["main", "DEFAULT_CONFIG", "load_config", "ConfigError"]

DEFAULT_CONFIG: dict = {
    "model": {"n": 3, "K": 1.0},
    "noise": {"alpha": 1.0, "beta": 0.5},
    "moment": {"p": 2, "r": "inf"},
    "mc": {"t_end": 1.0, "dt": 0.01, "n_paths": 4096, "seed": 12345, "workers": 1},
    "u0": {"kind": "constant", "epsilon": 1.0, "R": 1.0},
    "kernel": {"mode": "exact", "delta_floor": None},
    "constants": {},
}


# keys read as integers; load_config stores each as an int
_INT_KEYS = (("model", "n"), ("moment", "p"), ("mc", "n_paths"), ("mc", "seed"), ("mc", "workers"))


class ConfigError(ValueError):
    """Configuration file or override rejected; message carries diagnostics."""


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _merge_config(base: dict, incoming: dict, source: str) -> None:
    for section, values in incoming.items():
        if section not in base:
            raise ConfigError(
                f"{source}: unknown section {section!r}; valid sections: "
                + ", ".join(sorted(base))
            )
        if section == "constants":
            for k, v in values.items():
                base["constants"][k] = float(v)
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"{source}: section {section!r} must be a table")
        for key, v in values.items():
            if key not in base[section]:
                raise ConfigError(
                    f"{source}: unknown key {section}.{key}; valid keys: "
                    + ", ".join(f"{section}.{k}" for k in sorted(base[section]))
                )
            base[section][key] = v


def _apply_override(config: dict, item: str) -> None:
    key, sep, raw = item.partition("=")
    if not sep:
        raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
    section, sep2, name = key.partition(".")
    if not sep2:
        raise ConfigError(f"--set key must be dotted (section.key), got {key!r}")
    value = _parse_scalar(raw)
    if section == "constants":
        config["constants"][name] = float(value)
        return
    if section not in config or name not in config[section]:
        valid = [f"{s}.{k}" for s in config if s != "constants" for k in config[s]]
        raise ConfigError(
            f"--set: unknown key {key!r}; valid keys: " + ", ".join(sorted(valid)) + ", constants.*"
        )
    config[section][name] = value


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Default tree, file (if given), then --set overrides, strictly keyed."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            incoming = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(incoming, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _merge_config(config, incoming, path)
    for item in overrides:
        _apply_override(config, item)
    for section, key in _INT_KEYS:
        config[section][key] = _int_value(f"{section}.{key}", config[section][key])
    return config


def _int_value(name: str, raw) -> int:
    """An integral number (3, 3.0 or 1e4) as an int; anything else, booleans
    included, is rejected rather than truncated."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ConfigError(f"{name} must be an integer, got {raw!r}")


def _r_value(raw) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if isinstance(raw, str) and raw.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    raise ConfigError(f"moment.r must be a number or 'inf', got {raw!r}")


def build_spec(config: dict) -> NoiseSpec:
    m, w = config["model"], config["noise"]
    return NoiseSpec(alpha=float(w["alpha"]), beta=float(w["beta"]), n=int(m["n"]), K=float(m["K"]))


def build_u0(config: dict) -> RadialProfile:
    u = config["u0"]
    if u["kind"] == "constant":
        return RadialProfile.constant(float(u["epsilon"]))
    if u["kind"] == "bump":
        return RadialProfile.bump(float(u["epsilon"]), float(u["R"]))
    raise ConfigError(f"u0.kind must be 'constant' or 'bump', got {u['kind']!r}")


def build_fk(config: dict) -> FkConfig:
    mc, kern = config["mc"], config["kernel"]
    floor = kern["delta_floor"]
    return FkConfig(
        spec=build_spec(config),
        p=int(config["moment"]["p"]),
        t_end=float(mc["t_end"]),
        dt=float(mc["dt"]),
        n_paths=int(mc["n_paths"]),
        seed=int(mc["seed"]),
        u0=build_u0(config),
        kernel_mode=str(kern["mode"]),
        delta_floor=None if floor is None else float(floor),
    )


def _require_dalang(config: dict) -> None:
    alpha = float(config["noise"]["alpha"])
    n = int(config["model"]["n"])
    if not dalang_check(alpha, n):
        raise ConfigError(
            f"noise.alpha = {alpha} violates the integrability condition: "
            f"need alpha > (n-2)/4 = {(n - 2) / 4}"
        )


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _table(stem: str, header: list[str], rows: list, fmt: str) -> tuple[str, str]:
    """One tabular output as (file name, text): CSV, or JSON-lines keyed by the header."""
    if fmt == "jsonl":
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True) + "\n" for row in rows]
        return stem + ".jsonl", "".join(lines)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([_fmt(v) for v in row] for row in rows)
    return stem + ".csv", buf.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_kernel_table(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    spec = build_spec(config)
    n, K = spec.n, spec.K
    sk = math.sqrt(K)
    d_grid = np.geomspace(1e-3 / sk, 10.0 / sk, 200)
    mode = (
        HeatKernelMode.exact_n3()
        if n == 3
        else HeatKernelMode.dm_upper(ledger.value("dm_upper_C"))
    )
    header = ["d", "value", "mode", "alpha", "n", "K"]
    bracket = mode.bracket.value
    values = np.exp(g_alpha_log_values(spec, d_grid, mode))
    rows = [[float(d), float(v), bracket, spec.alpha, n, K] for d, v in zip(d_grid, values)]
    files = [_table("g_alpha", header, rows, args.format)]
    # pin the lower-bound constant against the exact kernel on the emitted
    # grid, unless the user supplied one; the manifest ledger records which
    if n == 3 and ledger.entry("gbar_C").provenance == "default":
        calibrate_lower_constant(spec, ledger, d_grid=d_grid)
    lower_vals = g_alpha_lower(spec, d_grid, ledger)
    lower = BracketMode.LOWER.value
    rows = [[float(d), float(v), lower, spec.alpha, n, K] for d, v in zip(d_grid, lower_vals)]
    files.append(_table("g_alpha_lower", header, rows, args.format))
    rows = []
    for t in (0.1, 1.0, 5.0):
        values = np.exp(heat_kernel_log_values(t, d_grid, n, K, mode))
        rows += [[float(d), t, float(v), bracket, n, K] for d, v in zip(d_grid, values)]
    files.append(_table("heat_kernel", ["d", "t", "value", "mode", "n", "K"], rows, args.format))
    return 0, dict(files)


def cmd_bm_sample(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    n, K = int(config["model"]["n"]), float(config["model"]["K"])
    mc = config["mc"]
    t_end, dt, seed = float(mc["t_end"]), float(mc["dt"]), int(mc["seed"])
    n_paths = int(mc["n_paths"])
    x0 = ModelPoint.basepoint(n, K)
    files = []
    for k in range(min(3, n_paths)):
        buf = io.StringIO()
        brownian_path(x0, t_end, dt, seed=seed + k).to_csv(buf)
        files.append((f"path_{k}.csv", buf.getvalue()))
    # ensemble radial statistics at ten checkpoints
    checkpoints = np.linspace(t_end / 10.0, t_end, 10)
    ts, d_all, _ = radial_walk(x0, checkpoints, dt, n_paths, seed, int(mc["workers"]))
    rows = [
        [t, float(d.mean()), float(d.std(ddof=1)), float(d.mean() / t), (n - 1) * math.sqrt(K)]
        for t, d in zip(ts, d_all)
    ]
    header = ["t", "mean_distance", "std_distance", "mean_speed", "asymptotic_speed"]
    files.append(_table("radial_stats", header, rows, args.format))
    return 0, dict(files)


def _estimate_record(kind: str, config: dict, est) -> dict:
    return {
        "kind": kind,
        "config": config,
        "mean": est.mean,
        "stderr": est.stderr,
        "log_mean": est.log_mean,
        "bias": est.bias,
        "n_paths": est.n_paths,
    }


def cmd_moment_mc(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    t0 = time.perf_counter()
    _require_dalang(config)
    cfg = build_fk(config)
    workers = int(config["mc"]["workers"])
    est, chaos = moment_and_chaos(cfg, workers=workers, ledger=ledger)
    records = [_estimate_record("moment", config, est)]
    if cfg.spec.n == 3 and cfg.kernel_mode == "exact":
        records.append(_estimate_record("chaos_k1", config, chaos))
    wall = time.perf_counter() - t0
    lines = [json.dumps({**rec, "wall_time_s": wall}, sort_keys=True) + "\n" for rec in records]
    return 0, {"estimates.jsonl": "".join(lines)}


def cmd_bounds(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    spec = build_spec(config)
    r = _r_value(config["moment"]["r"])
    cfg = BoundConfig(spec, r=r, C_chaos=ledger.value("chaos_C"))
    p = int(config["moment"]["p"])
    i = cfg.regime
    betas = np.array(sorted(set(np.geomspace(0.05, 20.0, 25)) | {spec.beta}))
    ths = theta(betas, cfg).tolist()
    ues = upper_exponent(p, betas, cfg).tolist()
    rows = [[b, p, r, th, ue, int(i)] for b, th, ue in zip(betas.tolist(), ths, ues)]
    header = ["beta", "p", "r", "theta", "upper_exponent", "regime"]
    files = [_table("bounds", header, rows, args.format)]
    rho_grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 61)))
    fs = f_profile(i, rho_grid, cfg).tolist()
    rows = [[rho, f, int(i)] for rho, f in zip(rho_grid.tolist(), fs)]
    files.append(_table("fprofile", ["rho", "f_value", "regime"], rows, args.format))
    return 0, dict(files)


def cmd_phase_diagram(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    spec = build_spec(config)
    r = _r_value(config["moment"]["r"])
    bcfg = BoundConfig(spec, r=r, C_chaos=ledger.value("chaos_C"))
    # one row per (beta, p), beta-major, each solver called once on the whole grid
    orders = np.arange(2, 9)
    betas, ps = np.meshgrid(np.geomspace(0.1, 100.0, 13), orders, indexing="ij")
    lows = lower_lyapunov(ps, betas, spec, ledger).ravel().tolist()
    ups = upper_exponent(ps, betas, bcfg).ravel().tolist()
    rows = [
        [b, p, low, int(low > 0.0), up, int(up > 0.0)]
        for b, p, low, up in zip(betas.ravel().tolist(), ps.ravel().tolist(), lows, ups)
    ]
    header = ["beta", "p", "lower_exponent", "lower_positive", "upper_exponent", "upper_positive"]
    files = [_table("phase", header, rows, args.format)]
    rows = list(zip(orders.tolist(), beta_critical(orders, spec, ledger).tolist()))
    files.append(_table("beta_critical", ["p", "beta_c"], rows, args.format))
    betas = np.geomspace(0.5, 100.0, 9)
    rows = list(zip(betas.tolist(), p_critical(betas, spec, ledger).tolist()))
    files.append(_table("p_critical", ["beta", "p_c"], rows, args.format))
    return 0, dict(files)


def cmd_slope_check(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    spec = build_spec(config)
    if args.axis == "beta":
        grid = np.geomspace(1e2, 1e4, 9)
        fixed = int(config["moment"]["p"])
    else:
        grid = np.array([4, 6, 8, 12, 16, 24, 32], dtype=float)
        fixed = float(config["noise"]["beta"])
    report = asymptotic_slope_check(args.axis, grid, fixed, spec, ledger)
    rows = list(zip(report.grid, report.exponents))
    files = [_table("slope_check", [args.axis, "lower_exponent"], rows, args.format)]
    summary = {
        "axis": report.axis,
        "case": report.case,
        "fitted_slope": report.fitted_slope,
        "claimed_slope": report.claimed_slope,
        "balance_slope": report.balance_slope,
        "ratio_spread": report.ratio_spread,
        "passed": report.passed,
    }
    files.append(("slope_report.json", _json(summary)))
    return 1 if report.passed is False else 0, dict(files)


def cmd_intermittency(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    cfg = build_fk(config)
    workers = int(config["mc"]["workers"])
    t_grid = [cfg.t_end * f for f in (0.25, 0.5, 0.75, 1.0)]
    series = intermittency_ratio(cfg.p, int(args.q), t_grid, cfg, workers=workers, ledger=ledger)
    rows = [[pt.t, pt.ratio, pt.stderr, pt.log_ratio, pt.log_stderr] for pt in series]
    header = ["t", "ratio", "stderr", "log_ratio", "log_stderr"]
    return 0, dict([_table("intermittency", header, rows, args.format)])


def _validate_checks(config: dict, quick: bool) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # incomplete-gamma split identity against the complete integral
    worst = 0.0
    for s in (0.5, 1.0, 2.5):
        for x in (0.3, 1.0, 4.0):
            total = gamma_lower(s, x) + gamma_upper(s, x)
            worst = max(worst, abs(total - math.gamma(s)) / math.gamma(s))
    check("gamma-additivity", worst < 1e-10, f"worst relative error {worst:.2e}")

    # heat-kernel mass at t = 1 (n = 3 exact kernel)
    K = 1.0
    mode = HeatKernelMode.exact_n3()

    def mass_integrand(d: float) -> float:
        lg = float(heat_kernel_log_values(1.0, d, 3, K, mode))
        area = 4.0 * math.pi * (math.sinh(math.sqrt(K) * d) / math.sqrt(K)) ** 2
        return math.exp(lg) * area

    mass = integrate(
        mass_integrand, 0.0, 60.0, QuadratureSpec(1e-10, 1e-300), split_points=(2.0, 10.0)
    )
    check("heat-kernel-mass", abs(mass - 1.0) < 1e-6, f"mass(t=1) = {mass:.9f}")

    # one-step mean squared displacement = 2 n dt
    if not quick:
        n_rep, dt = 20000, 0.01
        rng = stream_generator(int(config["mc"]["seed"]), 7)
        X = np.broadcast_to(ModelPoint.basepoint(3, K).coords, (n_rep, 4)).copy()
        X = brownian_step(X, rng, dt, K)
        d2 = distance_coords(X, ModelPoint.basepoint(3, K).coords, K) ** 2
        se = float(d2.std(ddof=1) / math.sqrt(n_rep))
        ok = abs(float(d2.mean()) - 6.0 * dt) <= 3.0 * se
        check("one-step-msd", ok, f"mean {d2.mean():.6f} vs {6 * dt:.6f} (3 se = {3 * se:.2e})")

    # kernel order: monotone decrease and calibrated lower bound
    spec = NoiseSpec(alpha=1.0, beta=0.0, n=3, K=K)
    ledger = ConstantLedger()
    ds = np.geomspace(0.05, 5.0, 8 if quick else 20)
    vals = np.exp(g_alpha_log_values(spec, ds, mode))
    mono = bool(np.all(np.diff(vals) < 0.0))
    calibrate_lower_constant(spec, ledger, d_grid=ds)
    lows = g_alpha_lower(spec, ds, ledger)
    ok = mono and bool(np.all(lows <= vals * (1.0 + 1e-9)))
    check("kernel-order", ok, "monotone and lower-bounded on the grid")

    # growth-rate inversion round trip and the exact small-beta exponent
    bcfg = BoundConfig(spec, r=2.0)
    i = bcfg.regime
    f0 = f_profile(i, 0.0, bcfg)
    beta_small = 0.5 / math.sqrt(f0)
    ok1 = theta(beta_small, bcfg) == 0.0
    beta_big = 10.0 / math.sqrt(f0)
    th = theta(beta_big, bcfg)
    rt = f_profile(i, th, bcfg) * beta_big**2
    ok2 = abs(rt - 1.0) < 1e-6
    ue = upper_exponent(2, beta_small, bcfg)
    ok3 = ue == -2.0
    check(
        "theta-pipeline",
        ok1 and ok2 and ok3,
        f"threshold zero: {ok1}, round-trip {rt:.9f}, exponent {ue}",
    )

    # trivial Feynman-Kac case: beta = 0, unit data
    cfg = FkConfig(
        spec=NoiseSpec(alpha=1.0, beta=0.0, n=3, K=K),
        p=2,
        t_end=0.2,
        dt=0.05,
        n_paths=256,
        seed=int(config["mc"]["seed"]),
        u0=RadialProfile.constant(1.0),
    )
    est = moment_estimate(cfg)
    check(
        "fk-trivial",
        est.mean == 1.0 and est.stderr == 0.0,
        f"mean {est.mean}, stderr {est.stderr}",
    )

    # worker-count invariance on a ragged ensemble, so the thread groups of
    # blocks split unevenly
    cfg2 = FkConfig(
        spec=NoiseSpec(alpha=1.0, beta=0.3, n=3, K=K),
        p=2,
        t_end=0.2,
        dt=0.02,
        n_paths=2 * BLOCK_SIZE + 37,
        seed=int(config["mc"]["seed"]),
        u0=RadialProfile.constant(1.0),
    )
    e1, e2, e3 = (moment_estimate(cfg2, workers=w) for w in (1, 2, 3))
    check(
        "worker-invariance",
        e1 == e2 == e3,
        f"W=1 mean {e1.mean:.12g}, W=2 mean {e2.mean:.12g}, W=3 mean {e3.mean:.12g}",
    )
    rerun = moment_estimate(cfg2, workers=1)
    check("rerun-determinism", e1 == rerun, "bitwise-identical estimates on rerun")
    return checks


def cmd_validate(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    checks = _validate_checks(config, args.quick)
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    summary = {
        "checks": [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks],
        "all_passed": all_ok,
    }
    return 0 if all_ok else 1, {"validate.json": _json(summary)}


# name -> (command, help); a command only computes and returns
# (exit code, {file name: text}), and main writes the files and the manifest
_COMMANDS = {
    "kernel-table": (cmd_kernel_table, "emit fractional-kernel and heat-kernel tables"),
    "bm-sample": (cmd_bm_sample, "sample Brownian paths and radial statistics"),
    "moment-mc": (cmd_moment_mc, "run the Feynman-Kac moment estimator"),
    "bounds": (cmd_bounds, "emit growth-rate and upper-exponent tables"),
    "phase-diagram": (cmd_phase_diagram, "sweep (beta, p) and emit sign-of-exponent grids"),
    "slope-check": (cmd_slope_check, "audit the large-parameter growth rates of the lower bound"),
    "intermittency": (cmd_intermittency, "run the normalized moment-ratio series"),
    "validate": (cmd_validate, "run the built-in property suite"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypam",
        description="experiments for the multiplicative-noise heat equation on hyperbolic space",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one dotted config key (repeatable)",
        )
        sp.add_argument("--out", help="output directory (default hypam-<subcommand>)")
        sp.add_argument("--workers", type=int, help="worker count (overrides mc.workers)")
        sp.add_argument("--seed", type=int, help="master seed (overrides mc.seed)")
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="table format")
        if name == "slope-check":
            sp.add_argument("--axis", choices=("beta", "p"), default="beta")
        if name == "intermittency":
            sp.add_argument("--q", type=int, default=2, help="lower moment order of the ratio")
        if name == "validate":
            sp.add_argument("--quick", action="store_true", help="skip the slower Monte Carlo checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.set)
        if args.seed is not None:
            config["mc"]["seed"] = int(args.seed)
        if args.workers is not None:
            config["mc"]["workers"] = int(args.workers)
        out = Path(args.out or f"hypam-{args.subcommand}")
        if out.exists() and not out.is_dir():
            raise FileExistsError(f"output path {str(out)!r} exists and is not a directory")
        t0 = time.perf_counter()
        ledger = ConstantLedger(config["constants"])
        code, files = _COMMANDS[args.subcommand][0](args, config, ledger)
        # only a run that computed its outputs creates the directory; an exit-1
        # run (a failed check) still writes everything
        out.mkdir(parents=True, exist_ok=True)
        digests = []
        for name, text in sorted(files.items()):
            data = text.encode()
            (out / name).write_bytes(data)
            digests.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        manifest = {
            "tool_version": __version__,
            "subcommand": args.subcommand,
            "config": config,
            "master_seed": int(config["mc"]["seed"]),
            "constant_ledger": ledger.as_dict(),
            "outputs": digests,
            "wall_time_s": time.perf_counter() - t0,
        }
        (out / "manifest.json").write_text(_json(manifest))
        return code
    except (ValueError, RuntimeError, OSError) as exc:
        # a bad configuration is exit 2, a numerical failure exit 3, an
        # output path that cannot be written exit 4
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 4 if isinstance(exc, OSError) else 3


if __name__ == "__main__":
    raise SystemExit(main())
