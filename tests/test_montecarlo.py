import math

import numpy as np
import pytest

from netobs import (EnsembleSpec, SolverConfig, convergence_experiment,
                    dkw_epsilon, estimate_expected_radius, montecarlo,
                    sample_network, survival_deviation)
from netobs.montecarlo import (RECORD_COLUMNS, SUMMARY_COLUMNS,
                               write_records_csv, write_summary_csv)
from netobs.solver import FixedLambdaResult, RadiusResult


# ---------------------------------------------------------------------------
# sampling


def test_line_sample_structure():
    net, mask, attempts = sample_network("line", 5, 123, 0)
    a = net.weights
    assert np.count_nonzero(a) == 5 + 4 + 4
    assert np.count_nonzero(np.diag(a)) == 5
    assert all(a[i, i + 1] != 0 for i in range(4))
    assert all(a[i + 1, i] != 0 for i in range(4))
    assert net.sensors == (0,)
    np.testing.assert_array_equal(mask.mask, (a != 0).astype(float))
    assert attempts >= 1


def test_star_sample_structure():
    net, mask, _ = sample_network("star", 5, 123, 0)
    a = net.weights
    assert np.count_nonzero(a) == 5 + 4 + 4
    assert all(a[0, j] != 0 for j in range(1, 5))
    assert all(a[j, 0] != 0 for j in range(1, 5))
    assert np.count_nonzero(a[1:, 1:] - np.diag(np.diag(a[1:, 1:]))) == 0


def test_sampling_is_deterministic():
    a1 = sample_network("line", 6, 9, 4)[0].weights
    a2 = sample_network("line", 6, 9, 4)[0].weights
    np.testing.assert_array_equal(a1, a2)
    a3 = sample_network("line", 6, 9, 5)[0].weights
    assert not np.array_equal(a1, a3)


def test_unknown_topology_rejected():
    with pytest.raises(ValueError):
        sample_network("ring", 5, 1, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(topology="ring", sizes=(5,), trials=10, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec(topology="line", sizes=(2,), trials=10, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec(topology="line", sizes=(5,), trials=0, seed=0)


# ---------------------------------------------------------------------------
# ensembles


def test_line_oracle_means_track_inverse_n():
    spec = EnsembleSpec(topology="line", sizes=(5, 10), trials=800, seed=31)
    res = estimate_expected_radius(spec, method="oracle")
    for s in res.summaries:
        assert abs(s.mean - 1.0 / s.n) <= 3 * s.se
        assert s.bound_low == pytest.approx(1.0 / s.n)
        assert s.exclusion_rate < 0.1
    assert res.valid


def test_star_oracle_means_inside_corridor():
    spec = EnsembleSpec(topology="star", sizes=(6, 12), trials=800, seed=37)
    res = estimate_expected_radius(spec, method="oracle")
    for s in res.summaries:
        lo = 1.0 / (math.sqrt(2) * s.n * (s.n - 1))
        hi = 1.0 / (math.sqrt(2) * s.n * (s.n - 2))
        assert s.bound_low == pytest.approx(lo, rel=1e-12)
        assert s.bound_high == pytest.approx(hi, rel=1e-12)
        assert lo - 3 * s.se <= s.mean <= hi + 3 * s.se


def test_summary_se_is_sample_std_over_sqrt_n():
    spec = EnsembleSpec(topology="line", sizes=(5,), trials=100, seed=41)
    res = estimate_expected_radius(spec, method="oracle")
    deltas = np.array([r.delta for r in res.records if r.n == 5])
    s = res.summaries[0]
    assert s.se == pytest.approx(deltas.std(ddof=1) / math.sqrt(len(deltas)),
                                 rel=1e-12)
    assert s.mean == pytest.approx(deltas.mean(), rel=1e-12)


def test_ensemble_determinism_and_csv_bytes(tmp_path):
    spec = EnsembleSpec(topology="line", sizes=(5,), trials=60, seed=17)
    r1 = estimate_expected_radius(spec, method="oracle")
    r2 = estimate_expected_radius(spec, method="oracle")
    assert [t.delta for t in r1.records] == [t.delta for t in r2.records]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(r1, p1)
    write_records_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    s1 = tmp_path / "s1.csv"
    write_summary_csv(r1, s1)
    header = s1.read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


def test_record_columns_layout(tmp_path):
    spec = EnsembleSpec(topology="star", sizes=(5,), trials=5, seed=2)
    res = estimate_expected_radius(spec, method="oracle")
    path = tmp_path / "r.csv"
    write_records_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[0] == "star" and first[1] == "5" and first[4] == "oracle"


def test_solver_method_gap_small():
    spec = EnsembleSpec(topology="line", sizes=(4,), trials=5, seed=51)
    res = estimate_expected_radius(spec, method="solver")
    s = res.summaries[0]
    assert s.mean_gap is not None
    assert s.max_gap <= 1e-4
    for rec in res.records:
        assert rec.method == "solver"
        assert rec.converged
        assert rec.delta >= rec.oracle_delta - 1e-6


def test_solver_method_excludes_a_failed_trial_but_keeps_its_record(monkeypatch):
    solve_radius = montecarlo.solve_radius
    calls = []

    def second_trial_fails(net, mask, grid, cfg):
        calls.append(net)
        if len(calls) == 2:
            return RadiusResult(best=FixedLambdaResult(
                lam=0j, converged=False, failure="no candidate converged"), search_trace=())
        return solve_radius(net, mask, grid, cfg)

    monkeypatch.setattr(montecarlo, "solve_radius", second_trial_fails)
    spec = EnsembleSpec(topology="line", sizes=(4,), trials=4, seed=51)
    res = estimate_expected_radius(spec, method="solver", keep_results=True)
    assert [rec.trial for rec in res.records] == [0, 1, 2, 3]
    failed = res.records[1]
    assert not failed.converged and failed.method == "solver"
    assert math.isnan(failed.delta) and math.isnan(failed.lambda_re)
    assert failed.oracle_delta > 0.0
    kept = [rec for rec in res.records if rec.converged]
    assert len(kept) == 3
    s, = res.summaries
    assert s.included == 3 and s.exclusion_rate == 0.25 and not res.valid
    np.testing.assert_array_equal(res.samples[4], [rec.delta for rec in kept])
    assert s.mean == float(np.mean([rec.delta for rec in kept]))
    gaps = [abs(rec.delta - rec.oracle_delta) for rec in kept]
    assert s.mean_gap == float(np.mean(gaps)) and s.max_gap == max(gaps)
    assert [rr.cost for rr in res.results] == [rec.delta for rec in kept]
    assert all(rr.best.converged for rr in res.results)
    # the oracle method has no RadiusResult to keep
    assert estimate_expected_radius(spec, method="oracle", keep_results=True).results == ()


# ---------------------------------------------------------------------------
# survival statistics


def test_dkw_epsilon_formula():
    assert dkw_epsilon(5000, 0.001) == pytest.approx(
        math.sqrt(math.log(2.0 / 0.001) / (2 * 5000)), rel=1e-12)


def test_survival_deviation_hand_case():
    samples = np.array([0.2, 0.4, 0.8])
    # reference survival 1-x on [0,1]: empirical jumps at the samples
    dev = survival_deviation(samples, lambda x: 1.0 - x)
    # at x=0.4+: empirical 1/3 vs 0.6 -> 0.2667 is the sup
    assert dev == pytest.approx(4.0 / 15.0, abs=1e-12)


def test_line_survival_within_dkw():
    spec = EnsembleSpec(topology="line", sizes=(10,), trials=2000, seed=61)
    res = estimate_expected_radius(spec, method="oracle")
    samples = res.samples[10]
    dev = survival_deviation(samples, lambda x: (1.0 - x) ** 9)
    assert dev <= dkw_epsilon(len(samples), 0.001)


# ---------------------------------------------------------------------------
# convergence experiment


def test_convergence_experiment_smoke():
    cfg = SolverConfig(restarts=12, sweep_iters=10, seed=7,
                       keep_delta_trace=True)
    cr = convergence_experiment(n_trials=8, master_seed=7, cfg=cfg,
                                keep_results=True)
    assert cr.n_used >= 7
    assert cr.convergence_rate >= 0.875
    assert np.all(cr.final_gaps <= 1e-5)
    assert cr.mean_gap[-1] < cr.mean_gap[0]
    assert len(cr.results) == cr.n_used
    for res in cr.results:
        assert res.converged


def test_convergence_experiment_requires_trace_cfg():
    with pytest.raises(ValueError):
        convergence_experiment(n_trials=2, cfg=SolverConfig(seed=1))
