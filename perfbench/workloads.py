"""The benchmark's workloads: a fixed pool of inputs each, and one operation.

Every pool is drawn from fixed master seeds, so a round (one pass over the
pool) does the same work and returns the same radii in every run; the run's
--seed only sets the order of the operations within a round. One operation
takes from 0.02 s to 9 s on these inputs, so a pool redrawn from each --seed
would move wall_s by more than any useful bound.

The package is always reached through its module attributes
(`solver.solve_radius`, not an imported name), so the traced run's wrappers
see every call the operations make.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from netobs import analytic_oracles, cli, montecarlo, solver

import checks

# claim C7 of the acceptance gate: its generator seeds and solver settings
ENSEMBLE_SEEDS = {"line": 4040, "star": 4041}
ENSEMBLE_SIZES = (4, 5, 6, 7, 8)
ENSEMBLE_TRIALS = 4
# claim C3: 3-node chains from master seed 7, solved at lambda = i
CHAIN3_SEED = 7
CHAIN3_TRIALS = 24
CHAIN3_LAMBDA = 1j
# network files for `netobs radius`: (topology, n) per file, one master seed
CLI_SEED = 2611
CLI_FILES = (("line", 4), ("line", 6), ("line", 7),
             ("star", 4), ("star", 5), ("star", 7), ("star", 9), ("star", 12),
             ("random", 4), ("random", 5), ("random", 6), ("random", 7),
             ("random", 8), ("random", 10), ("random", 12))


@dataclass(frozen=True)
class Workload:
    pool: Callable[[Path], list]     # fixed inputs; files go under the dir
    warmup: int                      # pool index of the untimed warm-up op
    run: Callable[[object], object]  # the timed operation
    outcome: Callable                # (spec, raw) -> (radius | None, [Output])

    def check(self, spec, raw):
        """(radius or None, names of the failed checks) for one operation."""
        radius, outputs = self.outcome(spec, raw)
        if radius is None:
            return None, ["program_failure"]
        failed = [name for out in outputs for name in checks.check(out)]
        return (None if failed else radius), failed


def _reference(topology, a):
    if topology == "line":
        return checks.line_reference(a)
    if topology == "star":
        return checks.star_reference(a)
    return None


# ---------------------------------------------------------------------------
# ensemble_line_star: one solver trial of the C7 ensemble


def _ensemble_pool(_workdir):
    return [(topo, n, trial) for topo in ("line", "star")
            for n in ENSEMBLE_SIZES for trial in range(ENSEMBLE_TRIALS)]


def _ensemble_run(spec):
    topo, n, trial = spec
    seed = ENSEMBLE_SEEDS[topo]
    net, mask, _ = montecarlo.sample_network(topo, n, seed, trial)
    if topo == "line":
        oracle = analytic_oracles.line_radius(net.weights)
    else:
        oracle = analytic_oracles.star_radius(net.weights)
    cfg = solver.SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    return net, mask, oracle, solver.solve_radius(net, mask, "topo", cfg)


def _ensemble_outcome(spec, raw):
    net, mask, oracle, rr = raw
    if not rr.best.converged:
        return None, []
    a = net.weights
    ref = _reference(spec[0], a)
    solved = checks.Output(a=a, sensors=net.sensors, mask=mask.mask,
                           delta=rr.best.perturbation.delta, lam=rr.best.lam,
                           radius=rr.cost, global_search=True, reference=ref)
    # the package's closed form is an output of the operation too
    closed = checks.Output(a=a, sensors=net.sensors, mask=mask.mask,
                           delta=oracle.perturbation, lam=oracle.lambda_star,
                           radius=oracle.delta, global_search=True, reference=ref)
    return rr.cost, [solved, closed]


# ---------------------------------------------------------------------------
# chain3_fixed_lambda: one trial of the C3 convergence study


def _chain3_pool(_workdir):
    pool = []
    for trial in range(CHAIN3_TRIALS):
        net, mask, _ = montecarlo.sample_network("line", 3, CHAIN3_SEED, trial)
        try:
            # a separate derivation: the root system of the exact 3-node problem
            ref = analytic_oracles.line3_optimal(net.weights, CHAIN3_LAMBDA).delta
        except analytic_oracles.OracleFailure:
            ref = None
        pool.append((trial, net, mask, ref))
    return pool


_CHAIN3_CFG = solver.SolverConfig(restarts=12, sweep_iters=15, seed=CHAIN3_SEED,
                                  keep_delta_trace=True)


def _chain3_run(spec):
    _, net, mask, _ = spec
    return solver.solve_fixed_lambda(net, mask, CHAIN3_LAMBDA, _CHAIN3_CFG)


def _chain3_outcome(spec, res):
    _, net, mask, ref = spec
    if not res.converged:
        return None, []
    out = checks.Output(a=net.weights, sensors=net.sensors, mask=mask.mask,
                        delta=res.perturbation.delta, lam=res.lam,
                        radius=res.cost, global_search=False, reference=ref)
    return res.cost, [out]


# ---------------------------------------------------------------------------
# cli_default_grid: `netobs radius <file>` with every default, in process


def random_sparse(n, seed):
    """Random digraph sensed at node 0: every self-loop, and each other entry
    with probability 2/(n-1), weights uniform on [0, 1]. Draws that are not
    observable with a PBH margin above 1e-6 are redrawn."""
    c = np.zeros((1, n))
    c[0, 0] = 1.0
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, attempt)))
        a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 2.0 / (n - 1))
        np.fill_diagonal(a, rng.uniform(size=n))
        margin = min(np.linalg.svd(np.vstack([lam * np.eye(n) - a, c]),
                                   compute_uv=False)[-1]
                     for lam in np.linalg.eigvals(a))
        if margin > 1e-6:
            return a
    raise RuntimeError(f"no observable random graph with n={n}")


def _network_doc(a):
    n = a.shape[0]
    return {"n": n, "sensors": [1],
            "edges": [[i + 1, j + 1, float(a[i, j])]
                      for i in range(n) for j in range(n) if a[i, j] != 0.0]}


def write_cli_inputs(workdir):
    """Write the network files; returns [(topology, n, path, a)]."""
    workdir.mkdir(parents=True, exist_ok=True)
    pool = []
    for topo, n in CLI_FILES:
        if topo == "random":
            a = random_sparse(n, CLI_SEED)
        else:
            a = montecarlo.sample_network(topo, n, CLI_SEED, 0)[0].weights
        path = workdir / f"{topo}{n}.json"
        path.write_text(json.dumps(_network_doc(a)))
        pool.append((topo, n, str(path), a))
    return pool


def _cli_run(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["radius", spec[2]])
    return code, out.getvalue()


def _cli_outcome(spec, raw):
    topo, _, _, a = spec
    code, text = raw
    if code != 0:
        return None, []
    payload = json.loads(text)
    if not payload["converged"] or payload["perturbation"] is None:
        return None, []
    radius = float(payload["delta_frobenius"])
    out = checks.Output(a=a, sensors=(0,), mask=(a != 0.0).astype(float),
                        delta=np.array(payload["perturbation"], dtype=float),
                        lam=complex(*payload["lambda_star"]), radius=radius,
                        global_search=True, reference=_reference(topo, a))
    return radius, [out]


WORKLOADS = {
    "ensemble_line_star": Workload(
        _ensemble_pool, _ensemble_pool(None).index(("star", 4, 0)),
        _ensemble_run, _ensemble_outcome),
    "chain3_fixed_lambda": Workload(_chain3_pool, 0, _chain3_run, _chain3_outcome),
    "cli_default_grid": Workload(
        write_cli_inputs, CLI_FILES.index(("star", 4)), _cli_run, _cli_outcome),
}
