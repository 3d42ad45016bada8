"""Layer tracing from outside the program.

The tracer replaces chosen hypam functions with wrappers, in every hypam
module that bound them, and restores the originals on ``uninstall``.  A span
wrapper records (id, parent id, name, op, thread, start, end, self time,
attributes) in memory; a count wrapper only counts calls, for functions that
run too often for a span each (quadrature integrands, per-point solvers).
Self time is kept per thread: a span's duration minus the spans it directly
enclosed on the same thread.  Nothing is recorded while ``op`` is None.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) -> span name; attribute "Class.method" patches the class
SPANS = {
    ("hypam.cli", "main"): "cli",
    ("hypam.specialfn", "integrate"): "specialfn.integrate",
    ("hypam.hyperbolic", "brownian_step"): "hyperbolic.brownian_step",
    ("hypam.hyperbolic", "distance_coords"): "hyperbolic.distance_coords",
    ("hypam.kernels", "g_alpha"): "kernels.g_alpha",
    ("hypam.kernels", "calibrate_lower_constant"): "kernels.calibrate",
    ("hypam.kernels", "g_alpha_lower_log"): "kernels.g_alpha_lower_log",
    ("hypam.kernels", "KernelGrid.__init__"): "kernels.grid_build",
    ("hypam.kernels", "KernelGrid.__call__"): "kernels.grid_lookup",
    ("hypam.renewal", "theta"): "renewal.theta",
    ("hypam.fkmc", "q_sup"): "fkmc.q_sup",
    ("hypam.fkmc", "beta_critical"): "fkmc.beta_critical",
    ("hypam.fkmc", "p_critical"): "fkmc.p_critical",
    ("hypam.fkmc", "_run_blocks"): "fkmc.run_blocks",  # holds the wait for worker threads
    ("hypam.fkmc", "_simulate_block"): "fkmc.sim",
}

COUNTS = {
    ("hypam.specialfn", "log_gamma_upper"): "specialfn.log_gamma_upper",
    ("hypam.hyperbolic", "heat_kernel_log_values"): "hyperbolic.heat_kernel_log_values",
    ("hypam.renewal", "f_profile"): "renewal.f_profile",
    ("hypam.fkmc", "dirichlet_eigenvalue_upper"): "fkmc.dirichlet_eigenvalue_upper",
    ("hypam.fkmc", "_pair_kernel_grid"): "kernels.grid_cache",
    ("hypam.rng", "stream_generator"): "rng.stream_generator",
}


def _points(x) -> int:
    return int(np.size(x))


def _span_attrs(name: str, args, kwargs) -> tuple[int, int]:
    """(points, clipped) describing the work a span was handed."""
    if name == "hyperbolic.brownian_step":
        return math.prod(np.shape(args[0])[:-1]), 0
    if name == "kernels.g_alpha_lower_log":
        return _points(args[1] if len(args) > 1 else kwargs["z"]), 0
    if name == "kernels.grid_lookup":
        grid, d = args[0], np.asarray(args[1], dtype=float)
        clipped = int(np.count_nonzero((d < grid.delta_floor) | (d > grid.d_max)))
        return d.size, clipped
    if name == "fkmc.sim":
        # _simulate_block(cfg, block_index, block_size, sizes, cp_steps, grid)
        return int(args[2]) * len(args[3]), 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            points, clipped = _span_attrs(name, args, kwargs)
            stack = self._stack()
            # frame: [span id, name, time covered by direct children]
            frame = [next(self._ids), name, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += t1 - t0
                self.spans.append(
                    (frame[0], parent, name, op, threading.get_ident(), t0, t1,
                     t1 - t0 - frame[2], points, clipped)
                )

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is not None:
                keys = [(op, name)]
                if name == "renewal.f_profile" and any(
                    f[1] == "renewal.theta" for f in self._stack()
                ):
                    keys.append((op, "renewal.f_profile.in_theta"))
                with self._lock:
                    for key in keys:
                        self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every hypam module (and class) that holds a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "hypam" or k.startswith("hypam.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for (mod_name, attr), name in table.items():
                owner = sys.modules[mod_name]
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, make(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "parent", "name", "op", "thread", "start_s", "end_s",
                        "self_s", "points", "clipped"])
            w.writerows(self.spans)


def layer_totals(tracer: Tracer) -> dict:
    """{op: {name: totals}}.  A span name totals calls, inclusive and self
    seconds, points and clipped points; a count name totals calls only."""
    out: dict = defaultdict(dict)
    for (_, _, name, op, _, t0, t1, self_s, points, clipped) in tracer.spans:
        t = out[op].setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "points": 0, "clipped": 0}
        )
        t["calls"] += 1
        t["incl_s"] += t1 - t0
        t["self_s"] += self_s
        t["points"] += points
        t["clipped"] += clipped
    for (op, name), n in tracer.counts.items():
        out[op].setdefault(name, {"calls": 0})["calls"] += n
    return out


def merge(per_op: dict, ops) -> dict:
    """Sum layer_totals over the given ops."""
    merged: dict = {}
    for op in ops:
        for name, t in per_op.get(op, {}).items():
            m = merged.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                m[key] += value
    return merged
