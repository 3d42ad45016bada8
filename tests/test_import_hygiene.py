"""Every subcommand but ``validate`` runs without scipy.optimize,
scipy.interpolate or scipy.integrate: each would add about 24 MB and 0.2 s
to a one-shot process.  Each run is a fresh interpreter."""

import json
import subprocess
import sys

import pytest

HEAVY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate")

SCRIPT = f"""
import json, sys
from hypam.cli import main
code = main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": [m for m in {HEAVY!r} if m in sys.modules]}}))
"""

FK = ("--set", "mc.n_paths=256", "--set", "mc.t_end=0.2", "--set", "mc.dt=0.02")


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds",),
        ("phase-diagram",),
        ("slope-check",),
        ("kernel-table",),
        ("bm-sample", "--set", "mc.n_paths=256"),
        ("moment-mc", *FK),
        ("intermittency", *FK, "--set", "moment.p=3", "--set", "model.n=4", "--set", "kernel.mode=lower"),
    ],
    ids=lambda argv: argv[0],
)
def test_subcommand_loads_no_heavy_scipy_subpackage(tmp_path, argv):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv, "--out", str(tmp_path / argv[0])],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"code": 0, "loaded": []}
    assert (tmp_path / argv[0] / "manifest.json").is_file()
