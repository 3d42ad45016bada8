"""Reproducible experiment runner over the toolkit.

Every subcommand reads one configuration tree (JSON file plus dotted-key
overrides) and computes its plain CSV/JSON-lines outputs; only then does
``main`` create the output directory, write them, and drop an experiment
manifest beside them: the full configuration echo, the master seed, every
ledger constant with its provenance, and a content digest per output file.
Re-running a subcommand reproduces every output file byte for byte, so the
manifests differ only in the run's timer, wall_time_s.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
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
    first_chaos_mean,
    g_alpha_log_values,
    g_alpha_lower,
    NoiseSpec,
)
from .ledger import ConstantLedger
from .renewal import BoundConfig, _exponent_from_theta, f_profile, theta, upper_exponent
from .rng import stream_generator
from .specialfn import QuadratureSpec, integrate

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


# each key's kind, checked by load_config: "integer", "number", "number or
# null", "number or inf", or the words it may be; every constants.* value is a number
_KINDS = {
    "model.n": "integer", "model.K": "number",
    "noise.alpha": "number", "noise.beta": "number",
    "moment.p": "integer", "moment.r": "number or inf",
    "mc.t_end": "number", "mc.dt": "number", "mc.n_paths": "integer", "mc.seed": "integer",
    "mc.workers": "integer",
    "u0.kind": ("constant", "bump"), "u0.epsilon": "number", "u0.R": "number",
    "kernel.mode": ("exact", "lower"), "kernel.delta_floor": "number or null",
}


class ConfigError(ValueError):
    """Configuration file, override or command line rejected; message carries diagnostics."""


class _LongInt:
    """An integer literal no double holds, kept as its digit count; no key takes it."""

    def __init__(self, digits: int):
        self.digits = digits

    def __repr__(self) -> str:
        return f"<integer of {self.digits} digits>"


def _parse_int(text: str):
    """A JSON integer literal as an int, or as a ``_LongInt`` if no double
    holds it (``int`` itself refuses more than 4300 digits)."""
    try:
        value = int(text)
        float(value)
        return value
    except (ValueError, OverflowError):
        return _LongInt(len(text.lstrip("-")))


_parse = functools.partial(json.loads, parse_int=_parse_int)


def _insert(config: dict, source: str, section: str, values) -> None:
    """The one way a value reaches the tree: ``values`` (a table of keys) into
    ``section``, from ``source`` (the config file, or ``--set``)."""
    if section not in config:
        raise ConfigError(
            f"{source}: unknown section {section!r}; valid sections: " + ", ".join(sorted(config))
        )
    if not isinstance(values, dict):
        raise ConfigError(f"{source}: section {section!r} must be a table")
    for key in values:
        if section != "constants" and key not in config[section]:
            raise ConfigError(
                f"{source}: unknown key {section}.{key}; valid keys: "
                + ", ".join(f"{section}.{k}" for k in sorted(config[section]))
            )
    config[section].update(values)


def _checked(key: str, kind, v):
    """v as load_config stores it under key: an integer key's value as an int,
    any other accepted value unchanged; anything else raises ``ConfigError``."""
    if isinstance(v, _LongInt):
        raise ConfigError(f"{key} must fit in a double, got an integer of {v.digits} digits")
    if isinstance(kind, tuple):
        if v in kind:
            return v
        raise ConfigError(f"{key} must be " + " or ".join(map(repr, kind)) + f", got {v!r}")
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if kind == "integer":
        if number and float(v).is_integer():
            return int(v)
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if number or (kind == "number or null" and v is None):
        return v
    if kind == "number or inf":
        if isinstance(v, str) and v.lower() in ("inf", "+inf", "infinity"):
            return v
        raise ConfigError(f"{key} must be a number or 'inf', got {v!r}")
    raise ConfigError(f"{key} must be a number, got {v!r}")


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Default tree, file (if given), then --set overrides, strictly keyed;
    every key is then checked against its kind."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            incoming = _parse(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(incoming, dict):
            raise ConfigError(f"{path}: top level must be an object")
        for section, values in incoming.items():
            _insert(config, path, section, values)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        section, sep, name = key.partition(".")
        if not sep:
            raise ConfigError(f"--set key must be dotted (section.key), got {key!r}")
        try:
            value = _parse(raw)
        except json.JSONDecodeError:
            value = raw
        _insert(config, "--set", section, {name: value})
    for key, kind in _KINDS.items():
        section, name = key.split(".")
        config[section][name] = _checked(key, kind, config[section][name])
    consts = config["constants"]
    for name, value in consts.items():
        consts[name] = float(_checked(f"constants.{name}", "number", value))
    return config


def build_spec(config: dict) -> NoiseSpec:
    m, w = config["model"], config["noise"]
    return NoiseSpec(alpha=float(w["alpha"]), beta=float(w["beta"]), n=m["n"], K=float(m["K"]))


def build_u0(config: dict) -> RadialProfile:
    u = config["u0"]
    if u["kind"] == "constant":
        return RadialProfile.constant(float(u["epsilon"]))
    return RadialProfile.bump(float(u["epsilon"]), float(u["R"]))


def build_fk(config: dict) -> FkConfig:
    mc, kern = config["mc"], config["kernel"]
    floor = kern["delta_floor"]
    exact, n = kern["mode"] == "exact", config["model"]["n"]
    if exact and n != 3:
        raise ConfigError(
            f"kernel.mode = 'exact' needs model.n = 3, got model.n = {n}; "
            "pass --set kernel.mode=lower"
        )
    cfg = FkConfig(
        spec=build_spec(config),
        p=config["moment"]["p"],
        t_end=float(mc["t_end"]),
        dt=float(mc["dt"]),
        n_paths=mc["n_paths"],
        seed=mc["seed"],
        u0=build_u0(config),
        kernel_mode=kern["mode"],
        delta_floor=None if floor is None else float(floor),
    )
    if exact:
        # the pair table's largest value: the order-2 alpha kernel at the floor
        spec2 = dataclasses.replace(cfg.spec, alpha=2.0 * cfg.spec.alpha)
        if not math.isfinite(g_alpha_log_values(spec2, cfg.floor, HeatKernelMode.exact_n3())):
            raise ConfigError(
                f"noise.alpha = {config['noise']['alpha']} is too large for the exact kernel table: "
                f"G_(2 alpha) overflows at its floor distance {cfg.floor:.6g}; "
                "lower noise.alpha or raise kernel.delta_floor"
            )
    return cfg


def build_bounds(config: dict, ledger: ConstantLedger) -> BoundConfig:
    r = config["moment"]["r"]
    r = math.inf if isinstance(r, str) else float(r)
    return BoundConfig(build_spec(config), r=r, C_chaos=ledger.value("chaos_C"))


def _require_dalang(config: dict) -> None:
    alpha, n = float(config["noise"]["alpha"]), config["model"]["n"]
    if not dalang_check(alpha, n):
        raise ConfigError(
            f"noise.alpha = {alpha} violates the integrability condition: "
            f"need alpha > (n-2)/4 = {(n - 2) / 4}"
        )


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _csv_rows(rows) -> str:
    """The reference CSV writer: each value through ``_fmt``, then ``csv.writer``."""
    buf = io.StringIO()
    csv.writer(buf).writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


class Column:
    """One per-row column, which tables may share: its values, and their CSV
    cells, formatted on first use and kept."""

    __slots__ = ("values", "_cells", "_plain")

    def __init__(self, values):
        self.values = list(values)
        self._cells = None

    def cells(self) -> tuple[list[str], bool]:
        """Each value through ``_fmt`` (a column of floats in one ``%.17g``
        template), and whether no cell holds a character csv quotes on."""
        if self._cells is None:
            values = self.values
            kinds = set(map(type, values))
            if kinds == {float}:
                self._cells = ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
                self._plain = True
            else:
                # _fmt is str for every value that is not a float
                fmt = _fmt if any(issubclass(k, float) for k in kinds) else str
                self._cells = list(map(fmt, values))
                self._plain = not _needs_quotes("".join(self._cells))
        return self._cells, self._plain


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_block(columns: list, nrows: int) -> str:
    """The rows as ``_csv_rows`` writes them, formatted with one ``%`` template:
    a plain value is formatted once into the template, and each column's cells
    fill its ``%s`` slots.  A block holding a value csv would quote (one with
    ``,`` ``"`` ``\\r`` ``\\n``, or a lone empty field) goes through ``_csv_rows``."""
    fields, cells, plain = [], [], True
    for col in columns:
        if isinstance(col, Column):
            col_cells, col_plain = col.cells()
            fields.append("%s")
            cells.append(col_cells)
            plain = plain and col_plain
        else:
            text = _fmt(col)
            fields.append(text.replace("%", "%%"))
            plain = plain and not _needs_quotes(text)
    if plain and not (len(columns) == 1 and "" in cells[0]):
        template = ",".join(fields) + "\r\n"
        return template * nrows % tuple(itertools.chain.from_iterable(zip(*cells)))
    return _csv_rows(_rows(columns, nrows))


def _rows(columns: list, nrows: int):
    """The block's rows as tuples, each plain value repeated in every row."""
    return zip(
        *(c.values if isinstance(c, Column) else itertools.repeat(c, nrows) for c in columns)
    )


def _table(stem: str, header: list[str], columns: list, fmt: str, *more: list) -> tuple[str, str]:
    """One tabular output as (file name, text): CSV, or JSON-lines keyed by the
    header.  ``columns`` holds one entry per header field: a list (or a
    ``Column``) of one value per row, or a plain value that every row holds.
    Each of ``more`` is a further block of rows given the same way, written
    after it."""
    blocks = []
    for block in (columns, *more):
        if len(block) != len(header):
            raise ValueError(f"{stem}: {len(block)} columns for {len(header)} header fields")
        block = [Column(c) if isinstance(c, (list, tuple)) else c for c in block]
        lengths = {len(c.values) for c in block if isinstance(c, Column)}
        if len(lengths) != 1:
            raise ValueError(f"{stem}: needs per-row columns of one length, got {sorted(lengths)}")
        blocks.append((block, lengths.pop()))
    if fmt == "jsonl":
        lines = [
            json.dumps(dict(zip(header, row)), sort_keys=True) + "\n"
            for block, nrows in blocks
            for row in _rows(block, nrows)
        ]
        return stem + ".jsonl", "".join(lines)
    return stem + ".csv", _csv_rows([header]) + "".join(_csv_block(*b) for b in blocks)


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
    # one distance column, formatted once for all five blocks of rows
    ds = Column(d_grid.tolist())
    values = np.exp(g_alpha_log_values(spec, d_grid, mode)).tolist()
    files = [_table("g_alpha", header, [ds, values, bracket, spec.alpha, n, K], args.format)]
    # pin the lower-bound constant against the exact kernel on the emitted
    # grid, unless the user supplied one; the manifest ledger records which
    if n == 3 and ledger.entry("gbar_C").provenance == "default":
        calibrate_lower_constant(spec, ledger, d_grid=d_grid)
    lower_vals = g_alpha_lower(spec, d_grid, ledger).tolist()
    columns = [ds, lower_vals, BracketMode.LOWER.value, spec.alpha, n, K]
    files.append(_table("g_alpha_lower", header, columns, args.format))
    blocks = [
        [ds, t, np.exp(heat_kernel_log_values(t, d_grid, n, K, mode)).tolist(), bracket, n, K]
        for t in (0.1, 1.0, 5.0)
    ]
    header = ["d", "t", "value", "mode", "n", "K"]
    files.append(_table("heat_kernel", header, blocks[0], args.format, *blocks[1:]))
    return 0, dict(files)


def cmd_bm_sample(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    n, K = config["model"]["n"], float(config["model"]["K"])
    mc = config["mc"]
    t_end, dt, seed, n_paths = float(mc["t_end"]), float(mc["dt"]), mc["seed"], mc["n_paths"]
    x0 = ModelPoint.basepoint(n, K)
    files = []
    for k in range(min(3, n_paths)):
        buf = io.StringIO()
        brownian_path(x0, t_end, dt, seed=seed + k).to_csv(buf)
        files.append((f"path_{k}.csv", buf.getvalue()))
    # ensemble radial statistics at ten checkpoints
    checkpoints = np.linspace(t_end / 10.0, t_end, 10)
    ts, d_all, _ = radial_walk(x0, checkpoints, dt, n_paths, seed, mc["workers"])
    columns = [
        ts,
        [float(d.mean()) for d in d_all],
        [float(d.std(ddof=1)) for d in d_all],
        [float(d.mean() / t) for t, d in zip(ts, d_all)],
        (n - 1) * math.sqrt(K),
    ]
    header = ["t", "mean_distance", "std_distance", "mean_speed", "asymptotic_speed"]
    files.append(_table("radial_stats", header, columns, args.format))
    return 0, dict(files)


def _estimate_record(kind: str, config: dict, est, **extra) -> dict:
    return {"kind": kind, "config": config, **dataclasses.asdict(est), **extra}


def cmd_moment_mc(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    cfg = build_fk(config)
    est, chaos = moment_and_chaos(cfg, workers=config["mc"]["workers"], ledger=ledger)
    records = [_estimate_record("moment", config, est)]
    if cfg.kernel_mode is BracketMode.EXACT:
        exact = first_chaos_mean(cfg.spec, cfg.t_end)
        z = (chaos.mean - exact) / chaos.stderr if chaos.stderr > 0.0 else None
        records.append(_estimate_record("chaos_k1", config, chaos, exact_mean=exact, exact_z=z))
    lines = [json.dumps(rec, sort_keys=True) + "\n" for rec in records]
    return 0, {"estimates.jsonl": "".join(lines)}


def cmd_bounds(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    cfg = build_bounds(config, ledger)
    spec, p, i = cfg.spec, config["moment"]["p"], cfg.regime
    betas = np.array(sorted(set(np.geomspace(0.05, 20.0, 25)) | {spec.beta}))
    # one theta call: the couplings, then the ones upper_exponent feeds it
    ths, th_p = np.split(theta(np.concatenate((betas, np.sqrt(p - 1.0) * betas)), cfg), 2)
    ues = _exponent_from_theta(p, th_p, cfg)
    columns = [betas.tolist(), p, cfg.r, ths.tolist(), ues.tolist(), int(i)]
    header = ["beta", "p", "r", "theta", "upper_exponent", "regime"]
    files = [_table("bounds", header, columns, args.format)]
    rho_grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 61)))
    columns = [rho_grid.tolist(), f_profile(i, rho_grid, cfg).tolist(), int(i)]
    files.append(_table("fprofile", ["rho", "f_value", "regime"], columns, args.format))
    return 0, dict(files)


def cmd_phase_diagram(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    bcfg = build_bounds(config, ledger)
    spec = bcfg.spec
    # one row per (beta, p), beta-major, each solver called once on the whole grid
    orders = np.arange(2, 9)
    betas, ps = np.meshgrid(np.geomspace(0.1, 100.0, 13), orders, indexing="ij")
    lows = lower_lyapunov(ps, betas, spec, ledger).ravel()
    ups = upper_exponent(ps, betas, bcfg).ravel()
    columns = [betas.ravel().tolist(), ps.ravel().tolist()]
    for exps in (lows, ups):
        columns += [exps.tolist(), (exps > 0.0).astype(int).tolist()]
    header = ["beta", "p", "lower_exponent", "lower_positive", "upper_exponent", "upper_positive"]
    files = [_table("phase", header, columns, args.format)]
    columns = [orders.tolist(), beta_critical(orders, spec, ledger).tolist()]
    files.append(_table("beta_critical", ["p", "beta_c"], columns, args.format))
    betas = np.geomspace(0.5, 100.0, 9)
    columns = [betas.tolist(), p_critical(betas, spec, ledger).tolist()]
    files.append(_table("p_critical", ["beta", "p_c"], columns, args.format))
    return 0, dict(files)


def cmd_slope_check(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    spec = build_spec(config)
    if args.axis == "beta":
        grid = np.geomspace(1e2, 1e4, 9)
        fixed = config["moment"]["p"]
    else:
        grid = np.array([4, 6, 8, 12, 16, 24, 32], dtype=float)
        fixed = spec.beta
    report = asymptotic_slope_check(args.axis, grid, fixed, spec, ledger)
    columns = [report.grid, report.exponents]
    files = [_table("slope_check", [args.axis, "lower_exponent"], columns, args.format)]
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
    if report.passed is False:
        if report.axis == "beta":
            miss = f"fitted slope {report.fitted_slope:.4g} is outside the claimed 2 +/- 0.1"
        else:
            miss = f"ratio spread {report.ratio_spread:.4g} is above the claimed 0.1"
        print(f"slope-check failed: {miss} (case {report.case}); see slope_report.json", file=sys.stderr)
        return 1, dict(files)
    return 0, dict(files)


def cmd_intermittency(args, config: dict, ledger: ConstantLedger) -> tuple[int, dict[str, str]]:
    _require_dalang(config)
    cfg = build_fk(config)
    if args.q >= cfg.p:
        raise ConfigError(
            f"intermittency needs moment.p above --q = {args.q}, got moment.p = {cfg.p}; "
            f"pass --set moment.p={args.q + 1}"
        )
    workers = config["mc"]["workers"]
    t_grid = [cfg.t_end * f for f in (0.25, 0.5, 0.75, 1.0)]
    series = intermittency_ratio(cfg.p, args.q, t_grid, cfg, workers=workers, ledger=ledger)
    header = ["t", "ratio", "stderr", "log_ratio", "log_stderr"]
    columns = [[getattr(pt, name) for pt in series] for name in header]
    return 0, dict([_table("intermittency", header, columns, args.format)])


def _validate_checks(config: dict, quick: bool) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

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
        rng = stream_generator(config["mc"]["seed"], 7)
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
    ones = RadialProfile.constant(1.0)
    cfg = FkConfig(spec, p=2, t_end=0.2, dt=0.05, n_paths=256, seed=config["mc"]["seed"], u0=ones)
    est = moment_estimate(cfg)
    ok = est.mean == 1.0 and est.stderr == 0.0
    check("fk-trivial", ok, f"mean {est.mean}, stderr {est.stderr}")

    # the engine's first-chaos coefficient against its closed form, at a step
    # whose bias is a fraction of a stderr
    if not quick:
        run = dataclasses.replace(cfg, t_end=1.0, dt=0.0025, n_paths=8192)
        chaos = moment_and_chaos(run, workers=config["mc"]["workers"])[1]
        exact = first_chaos_mean(spec, 1.0)
        z = (chaos.mean - exact) / chaos.stderr
        detail = f"mean {chaos.mean:.6g} vs exact {exact:.6g}, z = {z:+.2f}"
        check("fk-chaos-exact", abs(z) < 3.0, detail)

    # worker-count invariance on a ragged ensemble, so the thread groups of
    # blocks split unevenly
    spec2 = dataclasses.replace(spec, beta=0.3)
    cfg2 = dataclasses.replace(cfg, spec=spec2, dt=0.02, n_paths=2 * BLOCK_SIZE + 37)
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ``ConfigError``, so ``main``
    reports them in one line and returns 2 instead of printing the usage block."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypam",
        description="experiments for the multiplicative-noise heat equation on hyperbolic space",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # the options every subcommand shares, declared once; the append action
    # copies the --set default before adding to it, so the one list is never
    # mutated across parses
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one dotted config key (repeatable)",
    )
    common.add_argument("--out", help="output directory (default hypam-<subcommand>)")
    common.add_argument("--workers", type=int, help="worker count (overrides mc.workers)")
    common.add_argument("--seed", type=int, help="master seed (overrides mc.seed)")
    common.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="table format")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, parents=[common])
        if name == "slope-check":
            sp.add_argument("--axis", choices=("beta", "p"), default="beta")
        if name == "intermittency":
            sp.add_argument("--q", type=int, default=2, help="lower moment order of the ratio")
        if name == "validate":
            sp.add_argument("--quick", action="store_true", help="skip the slower Monte Carlo checks")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call.  A parse only reads
    the tree, and each parse fills a fresh namespace, so no option carries over
    from one call to the next; help is formatted at the width of the moment."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # --seed and --workers are two more overrides, applied last
        flags = {"mc.seed": args.seed, "mc.workers": args.workers}
        overrides = [*args.set, *(f"{k}={v}" for k, v in flags.items() if v is not None)]
        config = load_config(args.config, overrides)
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
            "master_seed": config["mc"]["seed"],
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
