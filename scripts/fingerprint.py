#!/usr/bin/env python3
"""Answer fingerprints: one sha256 per set of solves, to show that a change
keeps every answer's bits.

    python scripts/fingerprint.py [--only SET ...] [--limit N]

Prints one line per set, `<set> <sha256>`:
- ensemble, chain3, cli: the three benchmark pools of perfbench/workloads.py
  (40 solve_radius results, 24 solve_fixed_lambda results, 15 `netobs
  radius` stdouts);
- c3: the convergence study of the acceptance gate (100 chains at
  lambda = i), its gap curve and every trial's result;
- c7: the solver ensemble of the acceptance gate (1,000 line and star
  solves), its records, summaries, samples and results;
- oracle: the closed-form ensembles of the acceptance gate (C1 and C2: 5,000
  line and 5,000 star trials at each of n = 5, 10, 20, 40), hashed as c7;
- graphs: `netobs radius` stdout on 88 graphs: the 15 CLI pool files,
  random_sparse(10, 15) times 0.5, 1 and 2, and random_sparse(n, seed) for
  n in 4, 5, 6, 7, 8, 10, 12 and seeds 1 to 10;
- validate: `netobs validate --seed 3` stdout.

A result is hashed with every field a caller can read: cost, lambda, the
iteration count, the failure, phi + mu, the triple, Delta's bytes, the
history, the polish start, the Delta trace and the certificate, and for a
radius search also lambda*, the search trace, the pruned count, the
descent probes, the branch and the search's own answer. Two trees give the
same digests only when every answer keeps its bits. --limit N takes the
first N items of each set (N trials per size for c7 and oracle, N chains
for c3), for a quick run.

runs(set, workdir) yields each set's runs; scripts/answer_ledger.py reads
the same runs, so the two scripts cover the same instances.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ("ensemble", "chain3", "cli", "c3", "c7", "oracle", "graphs", "validate")


def _feed(h, obj):
    """Feeds obj to the hash h, type-tagged, floats by their bits."""
    import numpy as np

    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(b"c" + struct.pack("<dd", obj.real, obj.imag))
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(obj, np.ndarray):
        h.update(b"a" + obj.dtype.str.encode() + repr(obj.shape).encode()
                 + np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        _feed(h, [getattr(obj, f.name) for f in dataclasses.fields(obj)])
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _fixed(res):
    """What a caller can read of a FixedLambdaResult."""
    t, pert = res.triple, res.perturbation
    return (res.lam, res.converged, res.cost, res.iterations, res.failure,
            res.phi_plus_mu, None if t is None else (t.sigma, t.x, t.y),
            None if pert is None else pert.delta, res.history, res.polish_start,
            res.delta_trace, res.verification)


def _radius(rr):
    """What a caller can read of a RadiusResult."""
    return (_fixed(rr.best), rr.lambda_star, rr.search_trace, rr.pruned,
            rr.refine_evals, rr.branch, None if rr.search is None else _fixed(rr.search))


def _ensemble_result(rr):
    """What a caller can read of an EnsembleResult."""
    return (rr.spec, rr.method, rr.records, rr.summaries, rr.samples,
            [_radius(r) for r in rr.results])


def _convergence(res):
    """What a caller can read of a ConvergenceResult."""
    return (res.iterations, res.mean_gap, res.std_gap, res.final_gaps, res.n_trials,
            res.n_used, res.oracle_failures, res.solver_failures,
            [_fixed(r) for r in res.results])


# the experiments of the acceptance gate: C3's chains at lambda = i, C7's
# solver ensembles and C1's and C2's closed-form ones, (topology, seed) each
C3 = dict(n_trials=100, lam=1j, master_seed=7)
C7 = (("line", 4040), ("star", 4041))
C7_SIZES = (4, 5, 6, 7, 8)
C7_TRIALS = 100
ORACLE = (("line", 2026), ("star", 2027))
ORACLE_SIZES = (5, 10, 20, 40)
ORACLE_TRIALS = 5000
# the benchmark pools: the workload, and each operation's key
POOLS = {"ensemble": ("ensemble_line_star", lambda spec: f"{spec[0]}{spec[1]}/trial{spec[2]}"),
         "chain3": ("chain3_fixed_lambda", lambda spec: f"trial{spec[0]}"),
         "cli": ("cli_default_grid", lambda spec: Path(spec[2]).stem)}
# what is hashed of each run's result
HASHED = {"ensemble": lambda raw: _radius(raw[3]), "chain3": _fixed, "cli": lambda raw: raw,
          "c3": _convergence, "c7": _ensemble_result, "oracle": _ensemble_result,
          "graphs": lambda raw: raw, "validate": lambda raw: raw}


def pin_environment():
    """One BLAS thread, as in the benchmark, so that two trees compare on one
    machine whatever its core count; no NETOBS_SEED; this tree's sources
    first on the path. Call it before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NETOBS_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))


def _workloads():
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def _stdout(argv):
    """(exit code, stdout) of the netobs command with arguments argv."""
    from netobs import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _graphs(workdir, workloads, limit):
    """The 88 graphs as network files: [path]."""
    paths = [path for _, _, path, _ in workloads.write_cli_inputs(workdir / "cli")]
    base = workloads.random_sparse(10, 15)
    mats = [c * base for c in (0.5, 1.0, 2.0)]
    mats += [workloads.random_sparse(n, seed) for n in (4, 5, 6, 7, 8, 10, 12)
             for seed in range(1, 11)]
    for k, a in enumerate(mats):
        path = workdir / f"graph{k}.json"
        path.write_text(json.dumps(workloads._network_doc(a)))
        paths.append(str(path))
    return paths[:limit]


def runs(name, workdir, limit=None):
    """The runs of one set, in order, as (key, result); workdir takes the
    network files:
    - ensemble, chain3, cli: one per pool operation, keyed "line4/trial0",
      "trial0" and the file's stem, the workload's result;
    - graphs: one per file, keyed by its stem, `netobs radius <file>`'s
      (exit code, stdout);
    - c3: one, keyed "c3", the ConvergenceResult with every result kept;
    - c7, oracle: one per topology, keyed by it, the EnsembleResult (c7's
      with every result kept);
    - validate: one, keyed "validate", `netobs validate --seed 3`'s (exit
      code, stdout)."""
    from netobs import EnsembleSpec, convergence_experiment, estimate_expected_radius

    workloads = _workloads()
    if name in POOLS:
        workload, key = POOLS[name]
        wl = workloads.WORKLOADS[workload]
        for spec in wl.pool(workdir)[:limit]:
            yield key(spec), wl.run(spec)
    elif name == "c3":
        yield name, convergence_experiment(**dict(C3, n_trials=limit or C3["n_trials"]),
                                           keep_results=True)
    elif name == "c7":
        for topo, seed in C7:
            spec = EnsembleSpec(topo, C7_SIZES, limit or C7_TRIALS, seed=seed)
            yield topo, estimate_expected_radius(spec, method="solver", grid="topo",
                                                 keep_results=True)
    elif name == "oracle":
        for topo, seed in ORACLE:
            spec = EnsembleSpec(topo, ORACLE_SIZES, limit or ORACLE_TRIALS, seed=seed)
            yield topo, estimate_expected_radius(spec)
    elif name == "graphs":
        for path in _graphs(workdir, workloads, limit):
            yield Path(path).stem, _stdout(["radius", path])
    elif name == "validate":
        yield name, _stdout(["validate", "--seed", "3"])
    else:
        raise ValueError(f"unknown set {name!r}")


def fingerprint(name, limit=None, workdir=None):
    """The sha256 hex digest of one set's runs."""
    h = hashlib.sha256()
    for _, result in runs(name, workdir, limit):
        _feed(h, HASHED[name](result))
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", choices=SETS, default=SETS, metavar="SET",
                    help=f"the sets to fingerprint, of {', '.join(SETS)}")
    ap.add_argument("--limit", type=int, default=None,
                    help="take only the first N items of each set")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.only:
            digest = fingerprint(name, args.limit, Path(tmp) / name)
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    pin_environment()
    raise SystemExit(main())
