"""The benchmark's workloads (bench/workloads.py) still run and pass their
own output checks.

The workloads call the CLI, build_spec, BoundConfig and f_profile, and match
the record kinds of estimates.jsonl against bench/fk_reference.json, so a
change to any of these would fail a benchmark run; these tests catch that."""

import random
import sys
import types
from pathlib import Path

import pytest

import hypam.cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads() -> types.ModuleType:
    # exec the source rather than import it, so nothing is written under bench/.
    # Its dataclasses look the module up in sys.modules, so it is registered
    # for the exec only: hypothesis draws constants from every local module
    # there, and would otherwise draw other tests' examples from this one.
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PATH)
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


WORKLOADS = load_workloads()


def run_op(op, root: Path) -> list[Path]:
    """Every CLI call of the op, each into its own directory, as bench/run.py runs them."""
    dirs = []
    for k, argv in enumerate(op.calls):
        out = root / str(k)
        assert hypam.cli.main([*argv, "--out", str(out)]) == 0, argv
        dirs.append(out)
    return dirs


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_one_round_passes_its_checks(name, tmp_path):
    ops = WORKLOADS.WORKLOADS[name].round(random.Random(7))
    assert ops
    for i, op in enumerate(ops):
        assert op.check(run_op(op, tmp_path / str(i))) is None, op.params


def test_fk_worker_gate(tmp_path):
    one, two = (
        run_op(WORKLOADS.fk_fixed_op(workers=w), tmp_path / f"w{w}")[0] for w in (1, 2)
    )
    assert WORKLOADS.fk_records(one) == WORKLOADS.fk_records(two)
