"""Acceptance gate: the eight headline claims, one verdict line each.

Every test computes its statistic from a module-scoped experiment fixture,
prints a single pass/fail line (visible even under capture), then asserts
the pinned thresholds. Wall-clock budgets are measured around the
experiment call itself, not around pytest overhead.
"""
import time

import numpy as np
import pytest

from netobs import (EnsembleSpec, assemble_pencil, build_reduced,
                    canonicalize, convergence_experiment, cut_bound,
                    dkw_epsilon, estimate_expected_radius, min_deletion_cost,
                    properties, survival_deviation)
from netobs.montecarlo import sample_network
from conftest import load_script, net_of

SIZES = (5, 10, 20, 40)
TRIALS = 5000


def announce(tag, ok, detail, capsys):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# shared experiments


@pytest.fixture(scope="module")
def line_ens():
    t0 = time.perf_counter()
    res = estimate_expected_radius(EnsembleSpec("line", SIZES, TRIALS, seed=2026))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def star_ens():
    t0 = time.perf_counter()
    res = estimate_expected_radius(EnsembleSpec("star", SIZES, TRIALS, seed=2027))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def conv():
    t0 = time.perf_counter()
    res = convergence_experiment(n_trials=100, lam=1j, master_seed=7,
                                 keep_results=True)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def solver_ens():
    t0 = time.perf_counter()
    out = {}
    for topo, seed in (("line", 4040), ("star", 4041)):
        spec = EnsembleSpec(topo, (4, 5, 6, 7, 8), 100, seed=seed)
        out[topo] = estimate_expected_radius(spec, method="solver",
                                             grid="topo", keep_results=True)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_c1_line_expectation(line_ens, capsys):
    res, wall = line_ens
    zmax = max(abs(s.mean - 1.0 / s.n) / s.se for s in res.summaries)
    ok = zmax <= 3.0 and wall < 10.0 and res.valid
    announce("C1", ok,
             f"line mean radius vs 1/n at n in {SIZES}, {TRIALS} trials: "
             f"max |mean - 1/n|/SE = {zmax:.2f} (<= 3), "
             f"runtime {wall:.1f}s (< 10s)", capsys)
    assert zmax <= 3.0
    assert wall < 10.0
    assert res.valid


def test_c2_star_corridor(star_ens, capsys):
    res, wall = star_ens
    inside = all(s.bound_low - 3 * s.se <= s.mean <= s.bound_high + 3 * s.se
                 for s in res.summaries)
    s40 = next(s for s in res.summaries if s.n == 40)
    ratio = s40.mean * np.sqrt(2.0) * 40 ** 2
    ok = inside and 0.8 <= ratio <= 1.2 and wall < 10.0 and res.valid
    announce("C2", ok,
             f"star mean radius in [lo-3SE, hi+3SE] at every n: {inside}; "
             f"mean*sqrt(2)*n^2 = {ratio:.3f} in [0.8, 1.2] at n=40; "
             f"runtime {wall:.1f}s (< 10s)", capsys)
    assert inside
    assert 0.8 <= ratio <= 1.2
    assert wall < 10.0


@pytest.mark.slow
def test_c3_three_node_convergence(conv, capsys):
    res, wall = conv
    rate = res.convergence_rate
    final = float(res.final_gaps.max())
    tail = res.mean_gap[len(res.mean_gap) // 2:]
    worst_rise = float(np.diff(tail).max()) if len(tail) > 1 else 0.0
    ok = rate >= 0.9 and final <= 1e-5 and worst_rise <= 0.0 and wall < 60.0
    announce("C3", ok,
             f"100 random 3-node chains at lambda=i: rate {rate:.2f} (>= 0.90), "
             f"max final gap {final:.2e} (<= 1e-5), worst mean-gap rise over "
             f"last half {worst_rise:.2e} (<= 0), runtime {wall:.1f}s (< 60s)",
             capsys)
    assert rate >= 0.9
    assert final <= 1e-5
    assert worst_rise <= 0.0
    assert wall < 60.0


def test_c4_cut_bound_consistency(line_ens, star_ens, capsys):
    exact = all(cut_bound(1, n - 1) == 1.0 / n for n in range(2, 61))
    margins = []
    for res in (line_ens[0], star_ens[0]):
        for s in res.summaries:
            margins.append((1.0 / s.n + 3 * s.se) - s.mean)
    worst = min(margins)
    ok = exact and worst >= 0.0
    announce("C4", ok,
             f"cut_bound(1, n-1) == 1/n exactly for n in 2..60: {exact}; "
             f"mean radius <= 1/n + 3SE on both topologies, worst margin "
             f"{worst:.2e} (>= 0)", capsys)
    assert exact
    assert worst >= 0.0


def _pencil_instance(idx):
    rng = np.random.default_rng(np.random.SeedSequence((5050, idx)))
    kind = ("line", "star", "random")[idx % 3]
    n = int(rng.integers(3, 9))
    if kind == "random":
        a = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        np.fill_diagonal(a, rng.uniform(0.1, 1.0, size=n))
        try:
            net, mask = net_of(a)
        except ValueError:
            return None
    else:
        net, mask, _ = sample_network(kind, n, 5050, idx)
    lam = rng.uniform(-1, 1) + 1j * rng.uniform(0.1, 1.0)
    rp = build_reduced(canonicalize(net, mask), lam)
    x = rng.standard_normal(2 * rp.m)
    y = rng.standard_normal(2 * rp.n)
    return assemble_pencil(rp, x / np.linalg.norm(x), y / np.linalg.norm(y))


def test_c5_pencil_property_suite(capsys):
    checked = 0
    worst = {"zero": 0.0, "imag": 0.0, "pair": 0.0}
    idx = 0
    while checked < 200 and idx < 600:
        pp = _pencil_instance(idx)
        idx += 1
        if pp is None:
            continue
        residuals = properties.spectrum_residuals(pp)
        if residuals is None:
            continue
        for key, value in zip(("zero", "imag", "pair"), residuals):
            worst[key] = max(worst[key], value)
        checked += 1
    ok = checked >= 200 and all(v <= 1e-8 for v in worst.values())
    announce("C5", ok,
             f"{checked} random pencils (line/star/random masks, n <= 8): "
             f"0 in spectrum resid {worst['zero']:.1e}, max imag "
             f"{worst['imag']:.1e}, +/- pairing resid {worst['pair']:.1e} "
             f"(all <= 1e-8)", capsys)
    assert checked >= 200
    assert worst["zero"] <= 1e-8
    assert worst["imag"] <= 1e-8
    assert worst["pair"] <= 1e-8


@pytest.mark.slow
def test_c6_cost_identities(conv, solver_ens, capsys):
    recs = [r.reconstruction for r in conv[0].results]
    # the search's own answer: an edge-deletion answer has no triple, so no
    # cost identity
    for res in solver_ens[0].values():
        recs.extend(rr.search.reconstruction for rr in res.results
                    if rr.search is not None)
    identity, bound = zip(*map(properties.cost_identity_residuals, recs))
    rel = max(identity)
    slack = -max(bound)
    ok = rel <= 1e-6 and slack >= -1e-9 and len(recs) >= 900
    announce("C6", ok,
             f"{len(recs)} converged runs: max |cost - sigma*x'At'y|/cost = "
             f"{rel:.1e} (<= 1e-6), min sigma*|At|_F - cost = {slack:.1e} "
             f"(>= -1e-9)", capsys)
    assert rel <= 1e-6
    assert slack >= -1e-9
    assert len(recs) >= 900


@pytest.mark.slow
def test_c7_oracle_dominance(solver_ens, capsys):
    ens, wall = solver_ens
    gaps = []
    converged = total = 0
    for res in ens.values():
        for rec in res.records:
            total += 1
            if rec.converged:
                converged += 1
                gaps.append(rec.delta - rec.oracle_delta)
    gaps = np.asarray(gaps)
    rate = converged / total
    agree = float(np.mean(np.abs(gaps) <= 1e-4))
    floor = float(gaps.min())
    ok = rate >= 0.9 and agree >= 0.9 and floor >= -1e-6 and wall < 600.0
    announce("C7", ok,
             f"{total} line+star instances (n in 4..8): converged {rate:.2f}, "
             f"within 1e-4 of oracle on {agree:.2%} of converged (>= 90%), "
             f"min gap {floor:.1e} (>= -1e-6), runtime {wall:.0f}s (< 600s)",
             capsys)
    assert rate >= 0.9
    assert agree >= 0.9
    assert floor >= -1e-6
    assert wall < 600.0


# ---------------------------------------------------------------------------
# the answers of C3 and C7, instance by instance (scripts/answer_ledger.py)


@pytest.mark.slow
def test_c3_answers_match_the_ledger(conv):
    ledger = load_script("answer_ledger")
    moved = ledger.compare(ledger.read()["c3"], ledger.c3_entries(conv[0]))
    assert not moved, "\n".join(moved)


@pytest.mark.slow
def test_c7_answers_match_the_ledger(solver_ens):
    ledger = load_script("answer_ledger")
    moved = ledger.compare(ledger.read()["c7"], ledger.c7_entries(solver_ens[0].values()))
    assert not moved, "\n".join(moved)


@pytest.mark.slow
def test_c7_answers_at_or_below_the_cheapest_cut(solver_ens):
    # an edge-deletion answer is the cut itself, to the last bit
    seeds = {"line": 4040, "star": 4041}
    deletions = 0
    for res in solver_ens[0].values():
        for rec in res.records:
            net, mask, _ = sample_network(rec.topology, rec.n, seeds[rec.topology], rec.trial)
            cut = min_deletion_cost(net, mask, 1)[0]
            assert rec.delta <= cut, rec
            if rec.branch == "edge-deletion":
                deletions += 1
                assert rec.delta == cut, rec
    assert deletions > 0


def test_c8_line_survival_dkw(line_ens, capsys):
    samples = line_ens[0].samples[10]
    dev = survival_deviation(samples, lambda x: (1.0 - x) ** 9)
    eps = dkw_epsilon(len(samples), 0.001)
    ok = len(samples) == TRIALS and dev <= eps
    announce("C8", ok,
             f"line n=10 survival vs (1-x)^9, {len(samples)} samples: "
             f"sup deviation {dev:.4f} <= DKW eps {eps:.4f} (alpha=0.001)",
             capsys)
    assert len(samples) == TRIALS
    assert dev <= eps
