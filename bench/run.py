"""hypam benchmark: one workload per run, CLI ops driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (imports and one fixed warm-up op) is timed from the top of this file.
The timed phase then repeats seed-shuffled rounds of the workload's ops until
S seconds have passed; each op is one ``hypam.cli.main`` call (two
for bound_scans) into a fresh output directory.  The speed probe of
``speed.py`` runs between ops, outside the op timers, and every reported time
is divided by the machine's slowdown next to it, so a shared host's slow
phases cancel out of the metrics; unscaled times go to the record.  Outputs
are checked after the timed phase, so checks stay out of every timer.  With
``--trace 1`` the same schedule runs with layer wrappers installed and the
per-layer metrics are reported instead of the end-to-end ones.  The last
stdout line is the JSON result; a run record (and, traced, the spans) goes to
``.bench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TAIL_PERCENTILE = 90
OVERHEAD_PAIRS = 3

PER_LAYER = {
    "specialfn.integrate.calls_per_op": "count",
    "specialfn.integrate.self_s_per_op": "s",
    "specialfn.log_gamma_upper.calls_per_op": "count",
    "hyperbolic.heat_kernel_log_values.calls_per_op": "count",
    "hyperbolic.brownian_step.point_steps_per_op": "count",
    "hyperbolic.brownian_step.ns_per_point_step": "ns",
    "hyperbolic.distance_coords.self_s_per_op": "s",
    "kernels.g_alpha.calls_per_op": "count",
    "kernels.g_alpha.ms_per_node": "ms",
    "kernels.calibrate.s_per_op": "s",
    "kernels.grid_build.s": "s",
    "kernels.grid_lookup.ns_per_point": "ns",
    "kernels.grid_lookup.clipped_frac": "ratio",
    "kernels.grid_cache.hit_ratio": "ratio",
    "kernels.g_alpha_lower_log.points_per_op": "count",
    "kernels.g_alpha_lower_log.ns_per_point": "ns",
    "renewal.theta.calls_per_op": "count",
    "renewal.theta.ms_per_call": "ms",
    "renewal.f_profile.evals_per_theta": "count",
    "fkmc.q_sup.calls_per_op": "count",
    "fkmc.q_sup.ms_per_call": "ms",
    "fkmc.beta_critical.ms_per_call": "ms",
    "fkmc.p_critical.ms_per_call": "ms",
    "fkmc.dirichlet_eigenvalue_upper.calls_per_op": "count",
    "fkmc.sim.self_s_per_op": "s",
    "fkmc.sim.ns_per_path_step": "ns",
    "fkmc.worker_speedup": "ratio",
    "rng.stream_generator.calls_per_op": "count",
    "cli.self_s_per_op": "s",
    "cli.bytes_written_per_op": "bytes",
    "trace.overhead_frac": "ratio",
}


def load_cli():
    """Import hypam from this checkout's sources; exit nonzero without them."""
    if not (SRC / "hypam" / "__init__.py").is_file():
        sys.exit(f"error: no hypam sources at {SRC / 'hypam'}")
    sys.path.insert(0, str(SRC))
    import hypam.cli

    return hypam.cli


@dataclass
class Result:
    op: object
    dirs: list
    wall: float
    error: str | None
    detail: str | None = None
    scale: float = 1.0  # 1 / the probes' mean slowdown around this op
    bytes_written: int = 0
    layer_self_s: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.detail is None

    def record(self) -> dict:
        rec = {
            "params": self.op.params,
            "wall_s": self.wall,
            "scaled_s": self.wall * self.scale,
            "ok": self.ok,
            "detail": self.error or self.detail,
            "bytes_written": self.bytes_written,
        }
        if self.layer_self_s is not None:
            rec["layer_self_s"] = self.layer_self_s
        return rec


class Runner:
    def __init__(self, cli, tmp_root: Path):
        self.cli = cli
        self.tmp_root = tmp_root

    def run(self, op) -> Result:
        dirs = [Path(tempfile.mkdtemp(dir=self.tmp_root)) for _ in op.calls]
        error = None
        t0 = time.perf_counter()
        for argv, out in zip(op.calls, dirs):
            try:
                # looked up per call, so a traced run goes through the wrapper
                rc = self.cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
                break
            if rc != 0:
                error = f"{argv[0]} exited with {rc}"
                break
        return Result(op, dirs, time.perf_counter() - t0, error)

    @staticmethod
    def finish(res: Result) -> Result:
        """Check the op's outputs, measure them, then delete them."""
        if res.error is None:
            try:
                res.detail = res.op.check(res.dirs)
            except Exception:
                res.detail = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        res.bytes_written = sum(
            f.stat().st_size for d in res.dirs for f in d.rglob("*") if f.is_file()
        )
        for d in res.dirs:
            shutil.rmtree(d)
        return res


def reproducibility_gate(runner: Runner, workloads) -> tuple[Result, Result, str | None]:
    """Rerun the fixed fk op at one worker and at two; records must be equal."""
    one = runner.run(workloads.fk_fixed_op(workers=1))
    two = runner.run(workloads.fk_fixed_op(workers=2))
    problem = one.error or two.error
    if problem is None:
        try:
            if workloads.fk_records(one.dirs[0]) != workloads.fk_records(two.dirs[0]):
                problem = "estimates differ between --workers 1 and --workers 2"
        except (OSError, ValueError, KeyError) as exc:
            problem = f"cannot compare gate records: {exc!r}"
    return Runner.finish(one), Runner.finish(two), problem


def tail(walls: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE-th percentile of per-op wall time and the number of
    ops beyond it."""
    q = statistics.quantiles(walls, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return q, sum(w > q for w in walls)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


def per_layer_metrics(tracer_mod, per_op, timed: list[Result], speedup, overhead) -> dict:
    n = len(timed)
    L = tracer_mod.merge(per_op, range(n))
    A = tracer_mod.merge(per_op, [*range(n), "setup"])

    def get(name, key="calls", table=L):
        return table.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "specialfn.integrate.calls_per_op": get("specialfn.integrate") / n,
        "specialfn.integrate.self_s_per_op": get("specialfn.integrate", "self_s") / n,
        "specialfn.log_gamma_upper.calls_per_op": get("specialfn.log_gamma_upper") / n,
        "hyperbolic.heat_kernel_log_values.calls_per_op": get("hyperbolic.heat_kernel_log_values") / n,
        "hyperbolic.brownian_step.point_steps_per_op": get("hyperbolic.brownian_step", "points") / n,
        "hyperbolic.brownian_step.ns_per_point_step": ratio(
            1e9 * get("hyperbolic.brownian_step", "incl_s"), get("hyperbolic.brownian_step", "points")
        ),
        "hyperbolic.distance_coords.self_s_per_op": get("hyperbolic.distance_coords", "self_s") / n,
        "kernels.g_alpha.calls_per_op": get("kernels.g_alpha") / n,
        "kernels.g_alpha.ms_per_node": ratio(1e3 * get("kernels.g_alpha", "incl_s"), get("kernels.g_alpha")),
        "kernels.calibrate.s_per_op": get("kernels.calibrate", "incl_s") / n,
        "kernels.grid_build.s": ratio(
            get("kernels.grid_build", "incl_s", A), get("kernels.grid_build", table=A)
        ),
        "kernels.grid_lookup.ns_per_point": ratio(
            1e9 * get("kernels.grid_lookup", "self_s"), get("kernels.grid_lookup", "points")
        ),
        "kernels.grid_lookup.clipped_frac": ratio(
            get("kernels.grid_lookup", "clipped"), get("kernels.grid_lookup", "points")
        ),
        "kernels.grid_cache.hit_ratio": ratio(
            get("kernels.grid_cache", table=A) - get("kernels.grid_build", table=A),
            get("kernels.grid_cache", table=A),
        ),
        "kernels.g_alpha_lower_log.points_per_op": get("kernels.g_alpha_lower_log", "points") / n,
        "kernels.g_alpha_lower_log.ns_per_point": ratio(
            1e9 * get("kernels.g_alpha_lower_log", "incl_s"), get("kernels.g_alpha_lower_log", "points")
        ),
        "renewal.theta.calls_per_op": get("renewal.theta") / n,
        "renewal.theta.ms_per_call": ratio(1e3 * get("renewal.theta", "incl_s"), get("renewal.theta")),
        "renewal.f_profile.evals_per_theta": ratio(
            get("renewal.f_profile.in_theta"), get("renewal.theta")
        ),
        "fkmc.q_sup.calls_per_op": get("fkmc.q_sup") / n,
        "fkmc.q_sup.ms_per_call": ratio(1e3 * get("fkmc.q_sup", "incl_s"), get("fkmc.q_sup")),
        "fkmc.beta_critical.ms_per_call": ratio(
            1e3 * get("fkmc.beta_critical", "incl_s"), get("fkmc.beta_critical")
        ),
        "fkmc.p_critical.ms_per_call": ratio(1e3 * get("fkmc.p_critical", "incl_s"), get("fkmc.p_critical")),
        "fkmc.dirichlet_eigenvalue_upper.calls_per_op": get("fkmc.dirichlet_eigenvalue_upper") / n,
        "fkmc.sim.self_s_per_op": get("fkmc.sim", "self_s") / n,
        "fkmc.sim.ns_per_path_step": ratio(1e9 * get("fkmc.sim", "incl_s"), get("fkmc.sim", "points")),
        "fkmc.worker_speedup": speedup or 0.0,
        "rng.stream_generator.calls_per_op": get("rng.stream_generator") / n,
        "cli.self_s_per_op": get("cli", "self_s") / n,
        "cli.bytes_written_per_op": statistics.mean(r.bytes_written for r in timed),
        "trace.overhead_frac": overhead,
    }


def layer_shares(tracer_mod, per_op, timed: list[Result]) -> dict:
    """Self time per span name as a share of the timed ops' wall time (worker
    threads can push a sum above 1); also stores each op's self times."""
    total = sum(r.wall for r in timed)
    merged = tracer_mod.merge(per_op, range(len(timed)))
    for i, r in enumerate(timed):
        r.layer_self_s = {name: t["self_s"] for name, t in per_op[i].items() if "self_s" in t}
    return {name: t["self_s"] / total for name, t in merged.items() if "self_s" in t}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    import speed
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=OUT, prefix="ops-"))
    runner = Runner(cli, tmp_root)
    tr = tracer_mod.Tracer() if args.trace else None
    extra: list[Result] = []  # checked, counted, never timed

    try:
        if tr:
            tr.install()
            tr.op = "setup"
        extra.append(runner.run(wl.warmup()))
        if tr:
            tr.op = None
            tr.uninstall()
        setup_raw_s = time.perf_counter() - T_START
        probes = [speed.probe()]

        if tr:
            tr.install()
        timed: list[Result] = []
        t_timed = time.perf_counter()
        while time.perf_counter() - t_timed < args.seconds:
            for op in wl.round(rng):
                if tr:
                    tr.op = len(timed)
                res = runner.run(op)
                probes.append(speed.probe())
                res.scale = 1.0 / statistics.mean(map(speed.slowdown, probes[-2:]))
                timed.append(res)
        if tr:
            tr.op = None
            tr.uninstall()
            # the fixed op untraced and traced, back to back, so drift in
            # machine speed cancels out of the overhead
            plain, traced = [], []
            for _ in range(OVERHEAD_PAIRS):
                plain.append(runner.run(wl.warmup()))
                tr.install()
                tr.op = "reference"
                traced.append(runner.run(wl.warmup()))
                tr.op = None
                tr.uninstall()
            extra += plain + traced

        gate = None
        speedup = None
        if wl.gated:
            one, two, problem = reproducibility_gate(runner, workloads)
            speedup = one.wall / two.wall
            gate = {"workers_1_s": one.wall, "workers_2_s": two.wall, "problem": problem,
                    "ops": [one.record(), two.record()]}
        for res in [*extra, *timed]:
            Runner.finish(res)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    checked = [*extra, *timed]
    attempted = len(checked) + (gate is not None)
    failed = sum(not r.ok for r in checked)
    if gate is not None:
        failed += gate["problem"] is not None or not all(o["ok"] for o in gate["ops"])
    walls = [r.wall * r.scale for r in timed]
    tail_s, beyond = tail(walls)
    e2e = {
        "setup_s": setup_raw_s / statistics.median(map(speed.slowdown, probes)),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "ops_per_s": len(timed) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_walls = [r.wall for r in timed]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "end_to_end": e2e,
        "unscaled": {
            "setup_s": setup_raw_s,
            "op_s_p50": statistics.median(raw_walls),
            "op_s_tail": tail(raw_walls)[0],
            "ops_per_s": len(timed) / sum(raw_walls),
        },
        "speed_probe_s": {"reference": speed.REFERENCE_S, "between_ops": probes},
        "tail": {"percentile": TAIL_PERCENTILE, "samples": len(walls), "beyond": beyond},
        "failed_frac": failed / attempted,
        "gate": gate,
        "extra_ops": [r.record() for r in extra],
    }
    if tr:
        overhead = (
            statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain) - 1.0
        )
        per_op = tracer_mod.layer_totals(tr)
        metrics = per_layer_metrics(tracer_mod, per_op, timed, speedup, overhead)
        units = PER_LAYER
        record["per_layer"] = metrics
        record["layer_shares"] = layer_shares(tracer_mod, per_op, timed)
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.csv"
        tr.write_spans(spans)
        record["spans_file"] = spans.name
    else:
        metrics = e2e
        units = END_TO_END
    record["ops"] = [r.record() for r in timed]
    name = f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    for key, value in metrics.items():
        print(f"{key:48s} {value:.6g} {units[key]}", file=sys.stderr)
    print(f"{'failed_frac':48s} {failed / attempted:.6g} ratio  ({failed} of {attempted})", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
