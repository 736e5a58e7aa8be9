#!/usr/bin/env python3
"""Answer ledger: every answer on the fixed instance sets, one entry per
instance, so that a change that moves an answer shows which one and by how
much.

    python scripts/answer_ledger.py [--out PATH]

Writes tests/answer_ledger.json (or PATH), one instance per line: the numpy
and scipy versions and the CPU model it was written on, and per set and
instance the radius, lambda*, the converged flag, the failure and the
branch ("search" or "edge-deletion"; null for a fixed-lambda solve), and for
c7 the closed form's radius (oracle). A radius is null where the solve
failed. The instances are the runs of scripts/fingerprint.py's sets
(fingerprint.runs), which both scripts read:
- ensemble, chain3, cli: the three benchmark pools of perfbench/workloads.py
  (cli as `netobs radius` prints each answer);
- graphs: `netobs radius` on the 88 graphs;
- c7: the 1,000 line and star solves of the acceptance gate's C7;
- c3: the 100 chains of C3 at lambda = i, the trials whose oracle and solve
  both succeed.

The tests compare answers against the file (compare): a radius, and c7's
oracle, to 1e-9 relative, the flags, failures and branches exactly, and a
failure lists every instance that moved. lambda* is recorded, not compared:
along a flat cost it may move far more than the radius. A change that moves
answers on purpose rewrites the file, and its diff shows each move.
"""
import argparse
import contextlib
import importlib.util
import json
import math
import platform
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "answer_ledger.json"
SETS = ("ensemble", "chain3", "cli", "graphs", "c7", "c3")
# the relative difference of a radius (or an oracle's) that counts as a move
RADIUS_RTOL = 1e-9


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint = _script("fingerprint")


def entry(radius, lam, converged, failure, branch, **extra):
    """One instance's answer, as the ledger holds it: a radius that is not
    finite is null, lambda* is [re, im] or null."""
    radius = float(radius)
    lam = None if lam is None or not math.isfinite(abs(complex(lam))) else complex(lam)
    return dict(radius=radius if math.isfinite(radius) else None,
                lam=None if lam is None else [lam.real, lam.imag],
                converged=bool(converged), failure=failure, branch=branch, **extra)


def radius_entry(rr):
    """The entry of a RadiusResult."""
    return entry(rr.cost, rr.lambda_star, rr.best.converged, rr.best.failure, rr.branch)


def fixed_entry(res):
    """The entry of a FixedLambdaResult: it has no branch."""
    return entry(res.cost, res.lam, res.converged, res.failure, None)


def cli_entry(run):
    """The entry of `netobs radius`'s (exit code, stdout). A solve that
    fails prints nothing: its failure is its exit code."""
    code, text = run
    if code != 0:
        return entry(math.inf, None, False, f"exit code {code}", None)
    payload = json.loads(text)
    return entry(payload["delta_frobenius"], complex(*payload["lambda_star"]),
                 payload["converged"], None, payload["branch"])


def record_entry(rec):
    """The entry of a solver ensemble's TrialRecord, with its oracle."""
    return entry(rec.delta, complex(rec.lambda_re, rec.lambda_im), rec.converged,
                 rec.failure, rec.branch, oracle=rec.oracle_delta)


def c7_entries(results):
    """The c7 entries of C7's EnsembleResults, one per trial record."""
    return {f"{rec.topology}{rec.n}/trial{rec.trial}": record_entry(rec)
            for res in results for rec in res.records}


def c3_entries(conv):
    """The c3 entries of C3's ConvergenceResult (keep_results=True)."""
    return {f"trial{t}": fixed_entry(res) for t, res in zip(conv.trials, conv.results)}


# the entry of one run's result, per set of per-instance runs
ENTRIES = {"ensemble": lambda raw: radius_entry(raw[3]), "chain3": fixed_entry,
           "cli": cli_entry, "graphs": cli_entry}


def build(name, workdir):
    """The entries of one set, {instance: entry}, from its runs
    (fingerprint.runs); workdir takes the network files."""
    runs = fingerprint.runs(name, workdir)
    if name == "c7":
        return c7_entries(result for _, result in runs)
    if name == "c3":
        (_, conv), = runs
        return c3_entries(conv)
    return {key: ENTRIES[name](result) for key, result in runs}


def _moved(a, b):
    """Whether two radii (None for a failure) differ by more than
    RADIUS_RTOL relative."""
    if a is None or b is None:
        return (a is None) != (b is None)
    return abs(a - b) > RADIUS_RTOL * max(abs(a), abs(b))


def compare(want, got):
    """Every instance whose answer moved from the ledger's want to got, both
    {instance: entry}, one line each: a radius or an oracle beyond
    RADIUS_RTOL relative, a flag, failure or branch that differs, or an
    instance on one side only. Empty when nothing moved."""
    out = []
    for key in sorted(set(want) | set(got)):
        if key not in got or key not in want:
            out.append(f"{key}: {'missing' if key not in got else 'not in the ledger'}")
            continue
        w, g = want[key], got[key]
        diffs = [f"{field} {w.get(field)!r} -> {g.get(field)!r}"
                 for field in ("radius", "oracle") if _moved(w.get(field), g.get(field))]
        diffs += [f"{field} {w[field]!r} -> {g[field]!r}"
                  for field in ("converged", "failure", "branch") if w[field] != g[field]]
        if diffs:
            out.append(f"{key}: " + ", ".join(diffs))
    return out


def read(path=LEDGER):
    """The ledger's sets, {set: {instance: entry}}."""
    with open(path) as fh:
        return json.load(fh)["sets"]


def _cpu():
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def write(sets, path):
    """Writes the ledger: the library versions, the CPU and one line per
    instance, sets and instances in sorted order."""
    import numpy
    import scipy

    head = {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "cpu": _cpu()}
    body = ",\n".join(
        f"  {json.dumps(name)}: {{\n" + ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(e, sort_keys=True)}"
            for key, e in sorted(sets[name].items())) + "\n  }"
        for name in sorted(sets))
    Path(path).write_text("{\n" + "".join(f" {json.dumps(k)}: {json.dumps(v)},\n"
                                          for k, v in head.items())
                          + ' "sets": {\n' + body + "\n }\n}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(LEDGER), help="the ledger file to write")
    args = ap.parse_args(argv)
    sets = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SETS:
            sets[name] = build(name, Path(tmp) / name)
            print(name, len(sets[name]), "instances", flush=True)
    write(sets, args.out)
    return 0


if __name__ == "__main__":
    fingerprint.pin_environment()
    raise SystemExit(main())
