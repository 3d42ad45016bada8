"""Regenerate bench/fk_reference.json, the fk_moments output-check references.

    python3 bench/make_reference.py

Every (subcommand, p, beta) the fk_moments workload can draw is run once with
16 times the workload's paths, on a CLI seed the workload never draws.  The
stored (mean, stderr) pairs are what each op's estimates must lie within five
combined standard errors of.  Takes about five minutes on two cores.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hypam.cli import main as hypam_main  # noqa: E402

import workloads as wl  # noqa: E402

PATHS = 16 * 8192


def main() -> int:
    estimates = {}
    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench_reference-"))
    try:
        for sub, p in wl.FK_COMBOS:
            for beta in wl.FK_BETAS:
                op = wl.fk_op(sub, p, beta, wl.FK_REFERENCE_SEED)
                out = scratch / f"{sub}-{p}-{beta}"
                rc = hypam_main([*op.calls[0], "--set", f"mc.n_paths={PATHS}", "--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"{sub} p={p} beta={beta} exited with {rc}")
                key = wl.fk_key(sub, p, beta)
                estimates[key] = wl.read_fk_estimates(sub, out)
                print(key, estimates[key], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {
        "about": "fk_moments references: n=3, alpha=1, K=1, t_end=1, dt=0.01, exact kernel, "
        f"{PATHS} paths, CLI seed {wl.FK_REFERENCE_SEED}; values are [mean, stderr]",
        "estimates": estimates,
    }
    wl.FK_REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
