"""The benchmark's layer tracer (bench/tracer.py) still finds what it patches.

The tracer names hypam functions by module and attribute and reads the
arguments of fkmc._simulate_block by position, so a rename or a signature
change would silently empty its layers; these tests catch that."""

import importlib
import types
from pathlib import Path

import pytest

import hypam.cli  # noqa: F401  the tracer patches every loaded hypam module
from hypam import FkConfig, NoiseSpec, RadialProfile, fkmc, moment_estimate
from hypam.hyperbolic import BLOCK_SIZE

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # exec the source rather than import it, so nothing is written under bench/
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("hook", sorted({**TRACER.SPANS, **TRACER.COUNTS}), ids=str)
def test_hook_resolves(hook):
    mod_name, attr = hook
    target = importlib.import_module(mod_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_sim_span_counts_block_steps():
    cfg = FkConfig(
        spec=NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0),
        p=2,
        t_end=0.05,
        dt=0.01,
        n_paths=100,
        seed=1,
        u0=RadialProfile.constant(1.0),
    )
    original = fkmc._simulate_block
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        tracer.op = "probe"
        moment_estimate(cfg)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert fkmc._simulate_block is original
    totals = TRACER.layer_totals(tracer)["probe"]
    assert totals["fkmc.run_blocks"]["calls"] == 1
    assert totals["fkmc.sim"]["calls"] == 1
    assert totals["fkmc.sim"]["points"] == 100 * 5  # block_size x steps
    assert totals["hyperbolic.brownian_step"]["points"] == 100 * 2 * 5
    assert totals["rng.stream_generator"]["calls"] == 1


def test_phase_diagram_calls_each_solver_once(tmp_path):
    # the solvers take the whole (p, beta) grid, so the bound_scans layer
    # metrics count one call per grid; an empty layer would mean a lost hook
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        tracer.op = "probe"
        assert hypam.cli.main(["phase-diagram", "--out", str(tmp_path / "pd")]) == 0
    finally:
        tracer.op = None
        tracer.uninstall()
    totals = TRACER.layer_totals(tracer)["probe"]
    assert totals["fkmc.q_sup"]["calls"] == 1
    assert totals["fkmc.beta_critical"]["calls"] == 1
    assert totals["fkmc.p_critical"]["calls"] == 1
    assert totals["renewal.theta"]["calls"] >= 1
    assert totals["renewal.f_profile.in_theta"]["calls"] >= 1
    assert totals["kernels.g_alpha_lower_log"]["points"] > 0


def test_grouped_run_keeps_the_tracer_counts():
    # three blocks (the last ragged) on two workers: two groups, each stepping
    # a coordinate-major state that the tracer still counts by shape[:-1]
    n_paths, p, steps = 2 * BLOCK_SIZE + 5, 3, 5
    cfg = FkConfig(
        spec=NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0),
        p=p,
        t_end=0.05,
        dt=0.01,
        n_paths=n_paths,
        seed=1,
        u0=RadialProfile.constant(1.0),
    )
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        tracer.op = "probe"
        moment_estimate(cfg, workers=2)
    finally:
        tracer.op = None
        tracer.uninstall()
    totals = TRACER.layer_totals(tracer)["probe"]
    assert totals["fkmc.sim"]["calls"] == 2
    assert totals["fkmc.sim"]["points"] == n_paths * steps
    assert totals["hyperbolic.brownian_step"]["calls"] == 2 * steps
    assert totals["hyperbolic.brownian_step"]["points"] == n_paths * p * steps
    assert totals["rng.stream_generator"]["calls"] == 3  # one stream per block
