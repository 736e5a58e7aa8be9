"""Benchmark of the netobs package: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/` directory. A run builds the workload's fixed input pool, warms up
with one operation, then times whole rounds (one pass over the pool, in an
order drawn from --seed) for about --seconds. Every output is checked by
checks.py after its round; checking is not timed. The last line of stdout is
one JSON object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics: setup_s (median of three fresh
interpreters importing netobs and running one warm-up operation), wall_s
(median round time), op_p50_ms (Harrell-Davis median of the operation
latencies), radius_mean and peak_rss_mb. Every time is scaled to a nominal
machine speed with reference.py. --trace 1 times one round, runs one more round with spans
around the package's functions (spans.py), and reports the per-layer metrics
of the traced round; the span arrays go to out/spans-<workload>-seed<n>.npz.
"""

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread, so that runs compare across machines and BLAS builds;
    # the pencils are at most 4n x 4n with n <= 12. Set before numpy loads,
    # here and in the set-up probes, which inherit the environment.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    # `netobs radius` reads its default seed from here; the workload wants 0
    os.environ.pop("NETOBS_SEED", None)
    # one CPU for the run and its probes, so that an operation and the
    # kernel readings around it run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload):
    """Median of the scaled set-up times of fresh interpreters (probe.py)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              capture_output=True, text=True, timeout=150,
                              check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


class Tally:
    """Operations attempted and failed, and the radii of the first round."""

    def __init__(self, wl, pool):
        self.wl, self.pool = wl, pool
        self.attempted = 0
        self.failed = 0
        self.failed_checks = {}  # pool index -> names of the failed checks
        self.radii = None        # pool index -> radius, None when it failed
        self.consistent = True   # every later round returned the same radii

    def add_round(self, order, raws):
        radii = {}
        for i, raw in zip(order, raws):
            self.attempted += 1
            radii[i], failed = self.wl.check(self.pool[i], raw)
            if failed:
                self.failed += 1
                self.failed_checks.setdefault(i, failed)
        if self.radii is None:
            self.radii = radii
        elif radii != self.radii:
            self.consistent = False


def harrell_davis_median(values):
    """Harrell-Davis estimate of the median: the order statistics weighted by
    a Beta((n+1)/2, (n+1)/2) distribution. Unlike the sample median it moves
    smoothly when two neighbouring operations swap places."""
    x = np.sort(values)
    a = (len(x) + 1) / 2.0
    weights = np.diff(betainc(a, a, np.linspace(0.0, 1.0, len(x) + 1)))
    return float(weights @ x)


def run_round(wl, pool, order, tracer=None):
    """One pass over the pool: (latencies, scaled latencies, raw outputs).

    The reference kernel runs before the first operation, after each one
    and, in untraced rounds, every half second during it. An operation's
    scaled latency is its latency divided by the machine's speed, read from
    the kernel within a second of the operation. The traced round reads the
    kernel between operations only, so its time never lands inside a span.
    """
    latencies, intervals, raws = [], [], []
    clock = time.perf_counter
    sampler = reference.Sampler()
    with spans.installed(tracer) if tracer else sampler:
        sampler.read()
        for k, i in enumerate(order):
            spent = sampler.spent
            with tracer.operation(k) if tracer else contextlib.nullcontext():
                t0 = clock()
                raws.append(wl.run(pool[i]))
                t1 = clock()
            latencies.append(t1 - t0 - (sampler.spent - spent))
            intervals.append((t0, t1))
            sampler.read()
    scaled = [lat / sampler.speed(t0, t1)
              for lat, (t0, t1) in zip(latencies, intervals)]
    return latencies, scaled, raws


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "netobs" / "__init__.py").is_file():
        print(f"error: no netobs package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netobs
    import workloads
    if Path(netobs.__file__).resolve().parent != (SRC / "netobs").resolve():
        print(f"error: netobs imported from {netobs.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    pool = wl.pool(OUT / "inputs" / args.workload)
    order = random.Random(args.seed).sample(range(len(pool)), len(pool))

    setup_s = setup_samples = None
    if args.trace == 0:
        setup_s, setup_samples = measure_setup(args.workload)
    wl.run(pool[wl.warmup])

    tally = Tally(wl, pool)
    rounds = []  # (latencies, scaled latencies) per timed round
    started = time.perf_counter()
    while True:
        lat, scaled, raws = run_round(wl, pool, order)
        rounds.append((lat, scaled))
        tally.add_round(order, raws)
        # whole rounds while the next one is expected to end within --seconds;
        # a traced run times one
        elapsed = time.perf_counter() - started
        if args.trace or elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break
    walls = [sum(scaled) for _, scaled in rounds]
    raw_walls = [sum(lat) for lat, _ in rounds]
    scaled_all = [x for _, scaled in rounds for x in scaled]

    if args.trace == 0:
        radii = [r for r in tally.radii.values() if r is not None]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (1e3 * harrell_davis_median(scaled_all), "ms"),
            "radius_mean": (statistics.fmean(radii) if radii else float("nan"), "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    else:
        tracer = spans.Tracer()
        lat, scaled, raws = run_round(wl, pool, order, tracer)
        tally.add_round(order, raws)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = spans.layer_metrics(tracer.summary(), sum(scaled) - walls[0])
        raw_walls.append(sum(lat))

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"op_p50_ms: median of {len(scaled_all)} operation latencies "
              f"({len(rounds)} rounds of {len(pool)}); unscaled round times "
              + ", ".join(f"{w:.3f}" for w in raw_walls) + " s")
    for i, names in sorted(tally.failed_checks.items()):
        print(f"failed: pool item {i}: {', '.join(names)}")
    result = {
        "correct": tally.consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pool": len(pool), "order": order, "round_walls_s": walls,
        "unscaled_round_walls_s": raw_walls, "setup_samples_s": setup_samples,
        "scaled_latencies_s": [dict(zip(order, scaled)) for _, scaled in rounds],
        "failed_checks": {str(i): names for i, names in sorted(tally.failed_checks.items())},
        "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
