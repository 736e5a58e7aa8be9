"""Spans around the package's public functions and the LAPACK entry points
they call, recorded from outside the package.

`installed(tracer)` replaces each traced function in every `netobs` module
namespace that holds it (a name imported from another module included, such
as `netobs.solver`'s imports from `radius_core`), and the five linear-algebra
entry points on `numpy.linalg` and `scipy.linalg` themselves. Only those
package attributes are replaced, so the SVD that `numpy.linalg.cond` runs
internally counts as `cond`, not as `svd`. Everything is put back on exit.

Spans are kept in flat arrays (name, start, end, parent, operation) and
written out at the end; self time is a span's duration minus the durations
of its direct children. Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# layer -> (module that defines the functions, functions traced)
LAYERS = {
    "network_model": ("netobs.network_model",
                      ("canonicalize", "verify_unobservability", "load_network")),
    "radius_core": ("netobs.radius_core",
                    ("assemble_pencil", "assemble_real_pencil", "build_weightings",
                     "system_residual", "reconstruct_perturbation")),
    "solver": ("netobs.solver",
               ("solve_radius", "candidate_lambdas", "solve_fixed_lambda",
                "heuristic_iterate", "generalized_spectrum")),
    "analytic_oracles": ("netobs.analytic_oracles", ("line_radius", "star_radius")),
    "montecarlo": ("netobs.montecarlo", ("sample_network",)),
    "cli": ("netobs.cli", ("main",)),
}
# span name -> (module, attribute)
LINALG = {
    "qz": ("scipy.linalg", "eigvals"),
    "lstsq": ("numpy.linalg", "lstsq"),
    "solve": ("numpy.linalg", "solve"),
    "svd": ("numpy.linalg", "svd"),
    "cond": ("numpy.linalg", "cond"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns) \
    + tuple(f"linalg.{short}" for short in LINALG)
OP_SPAN = "op"
MARK = "_perfbench_span"


def _on_solve_radius(counts, args, rr):
    counts["solver.candidates_pruned"] += rr.pruned
    counts["solver.refine_evals"] += rr.refine_evals


def _on_heuristic_iterate(counts, args, res):
    counts["solver.restarts_converged"] += int(bool(res.converged))
    counts["solver.iterations"] += res.iterations


def _on_qz(counts, args, _out):
    counts["linalg.qz.work_n3"] += int(np.shape(args[0])[0]) ** 3


HOOKS = {
    "solver.solve_radius": _on_solve_radius,
    "solver.heuristic_iterate": _on_heuristic_iterate,
    "linalg.qz": _on_qz,
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names = [OP_SPAN, *SPAN_NAMES]
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._op = -1

    def _open(self, name_id):
        k = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def _close(self, k):
        self.end[k] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation; its spans carry op_id."""
        self._op = op_id
        k = self._open(0)
        try:
            yield
        finally:
            self._close(k)
            self._op = -1

    def wrap(self, name, fn):
        name_id = self._ids[name]
        hook = HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            k = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                self._close(k)
            if hook is not None:
                hook(counts, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        setattr(traced, MARK, name)
        return traced

    def summary(self):
        """calls and self seconds per span name, plus the hook counts."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        out = {}
        for k, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[k])
            out[f"{span}.self_s"] = float(self_s[k])
        sr = self._ids["solver.solve_radius"]
        out["solver.candidates_solved"] = int(np.count_nonzero(
            (name == self._ids["solver.solve_fixed_lambda"]) & has_parent
            & (name[np.where(has_parent, parent, 0)] == sr)))
        out.update(self.counts)
        return out

    def dump(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64))


def layer_metrics(summary, overhead_s):
    """Every per-layer metric of one traced round: name -> (value, unit)."""
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = (summary[f"{span}.calls"], "count")
        out[f"{span}.self_s"] = (summary[f"{span}.self_s"], "s")
    out["radius_core.reconstruct_perturbation.rejected"] = (
        summary.get("radius_core.reconstruct_perturbation.raised", 0), "count")
    for key in ("solver.candidates_solved", "solver.candidates_pruned",
                "solver.refine_evals", "solver.restarts_converged"):
        out[key] = (summary.get(key, 0), "count")
    restarts = summary["solver.heuristic_iterate.calls"]
    out["solver.restart_converged_ratio"] = (
        summary.get("solver.restarts_converged", 0) / restarts if restarts else 0.0, "1")
    out["solver.iterations"] = (summary.get("solver.iterations", 0), "count")
    out["linalg.qz.work_n3"] = (summary.get("linalg.qz.work_n3", 0), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "netobs" or name.startswith("netobs."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced function through `tracer` for the with-block."""
    patches = []
    try:
        modules = _package_modules()
        for layer, (home, fns) in LAYERS.items():
            home_mod = importlib.import_module(home)
            for fn_name in fns:
                original = getattr(home_mod, fn_name)
                wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for short, (home, attr) in LINALG.items():
            mod = importlib.import_module(home)
            original = getattr(mod, attr)
            patches.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(f"linalg.{short}", original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)
