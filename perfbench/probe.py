"""One set-up sample: import netobs, then run one warm-up operation.

Run by run.py in a fresh interpreter, so the import is cold in the module
sense (the file cache is whatever the machine has). Prints one JSON line
with the seconds spent importing plus the warm-up operation; building the
operation's input is left out. `setup_s` is scaled to the nominal machine
speed, read by the reference kernel twice in this process after the warm-up
operation; `unscaled_s` is the raw time.

    python3 perfbench/probe.py <workload>
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload):
    t0 = time.perf_counter()
    import netobs  # noqa: F401  (the import is what is being timed)
    import workloads
    imported = time.perf_counter() - t0
    wl = workloads.WORKLOADS[workload]
    spec = wl.pool(HERE / "out" / "inputs" / workload)[wl.warmup]
    t1 = time.perf_counter()
    wl.run(spec)
    warm = time.perf_counter() - t1
    import reference
    sampler = reference.Sampler()
    sampler.read()
    sampler.read()
    raw = imported + warm
    print(json.dumps({"setup_s": raw / sampler.speed(0.0, float("inf")),
                      "unscaled_s": raw, "import_s": imported}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1]))
