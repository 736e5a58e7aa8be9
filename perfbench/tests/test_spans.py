"""The traced run returns the same radii and leaves the package as it found it."""

import sys
import time

import numpy as np
import pytest
from netobs import network_model, radius_core, solver

import spans
import workloads


def _cheap_specs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    pool = wl.pool(tmp_path)
    if name == "ensemble_line_star":
        picks = [pool.index(s) for s in (("line", 4, 0), ("star", 5, 1))]
    elif name == "chain3_fixed_lambda":
        picks = [0, 4]
    else:
        picks = [workloads.CLI_FILES.index(("star", 4))]
    return wl, [pool[i] for i in picks]


def _radius_and_delta(name, raw):
    if name == "ensemble_line_star":
        best = raw[3].best
        return best.cost, best.perturbation.delta, best.lam
    if name == "chain3_fixed_lambda":
        return raw.cost, raw.perturbation.delta, raw.lam
    return raw  # exit code and the payload text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_bit_identical(name, tmp_path):
    wl, specs = _cheap_specs(name, tmp_path)
    plain = [_radius_and_delta(name, wl.run(s)) for s in specs]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = []
        for k, s in enumerate(specs):
            with tracer.operation(k):
                traced.append(_radius_and_delta(name, wl.run(s)))
    for p, t in zip(plain, traced):
        if name == "cli_default_grid":
            assert p == t
        else:
            assert p[0] == t[0] and p[2] == t[2]
            assert np.array_equal(p[1], t[1])
    summary = tracer.summary()
    assert summary["op.calls"] == len(specs)
    # every span's time is someone's self time, so the self times add up
    # to the duration of the operations
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    roots = np.frombuffer(tracer.parent, dtype=np.int64) < 0
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(dur[roots].sum(), rel=1e-9)


def _wrapped_anywhere():
    found = []
    for mod_name, mod in list(sys.modules.items()):
        for attr, value in list(getattr(mod, "__dict__", {}).items()):
            if hasattr(value, spans.MARK):
                found.append(f"{mod_name}.{attr}")
    return found


def test_wrappers_cover_imported_names_and_are_removed():
    originals = {
        (network_model, "canonicalize"): network_model.canonicalize,
        (solver, "canonicalize"): solver.canonicalize,
        (solver, "reconstruct_perturbation"): solver.reconstruct_perturbation,
        (radius_core, "reconstruct_perturbation"): radius_core.reconstruct_perturbation,
        (np.linalg, "cond"): np.linalg.cond,
    }
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            for (mod, attr), fn in originals.items():
                assert getattr(mod, attr) is not fn
                assert hasattr(getattr(mod, attr), spans.MARK)
            raise RuntimeError("leave the block by an exception")
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert _wrapped_anywhere() == []


def test_rejected_reconstructions_are_counted():
    net, mask, _ = workloads.montecarlo.sample_network("line", 4, 1, 0)
    cf = network_model.canonicalize(net, mask)
    rp = radius_core.build_reduced(cf, 0.5j)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(2 * rp.m), rng.standard_normal(2 * rp.n)
    bogus = radius_core.CandidateTriple(1.0, x / np.linalg.norm(x), y / np.linalg.norm(y))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        with pytest.raises(radius_core.SpuriousTripleError):
            radius_core.reconstruct_perturbation(rp, bogus, cf)
    metrics = spans.layer_metrics(tracer.summary(), 0.0)
    assert metrics["radius_core.reconstruct_perturbation.rejected"] == (1, "count")
    assert metrics["radius_core.reconstruct_perturbation.calls"] == (1, "count")
    assert metrics["radius_core.system_residual.calls"] == (1, "count")


def test_traced_round_records_no_span_outside_operations(tmp_path):
    import run
    wl, specs = _cheap_specs("ensemble_line_star", tmp_path)
    tracer = spans.Tracer()
    latencies, scaled, raws = run.run_round(wl, specs, [1, 0], tracer)
    assert len(raws) == 2 and all(x > 0 for x in latencies + scaled)
    assert np.all(np.frombuffer(tracer.op, dtype=np.int64) >= 0)
    assert _wrapped_anywhere() == []


def test_sampler_restores_the_alarm_handler():
    import signal
    import reference
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(period=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        sampler.read()
    # ticks came in while the loop ran, none inside another reading
    assert len(sampler.readings) > 2 and sampler.spent > 0
    times = [t for t, _ in sampler.readings]
    assert all(b - a >= r for (a, r), b in zip(sampler.readings, times[1:]))
    assert sampler.speed(t0, t0) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
