"""Each output check passes real solver outputs and rejects a tampered one."""

from dataclasses import replace

import numpy as np
import pytest
from netobs import analytic_oracles, montecarlo, solver

import checks


def _radius_output(topology, n, seed, trial):
    net, mask, _ = montecarlo.sample_network(topology, n, seed, trial)
    rr = solver.solve_radius(net, mask, "topo",
                             solver.SolverConfig(restarts=4, sweep_iters=12, seed=seed))
    assert rr.best.converged
    ref = (checks.line_reference if topology == "line" else checks.star_reference)(net.weights)
    return checks.Output(a=net.weights, sensors=net.sensors, mask=mask.mask,
                         delta=rr.best.perturbation.delta, lam=rr.best.lam,
                         radius=rr.cost, global_search=True, reference=ref)


@pytest.fixture(scope="module")
def line_out():
    return _radius_output("line", 5, 4040, 0)


@pytest.fixture(scope="module")
def star_out():
    # C7 star trial whose optimum pulls two leaf self-loops together
    for trial in range(20):
        net, _, _ = montecarlo.sample_network("star", 5, 4041, trial)
        if analytic_oracles.star_radius(net.weights).branch == "symmetry-creation":
            return _radius_output("star", 5, 4041, trial)
    pytest.fail("no symmetry-branch star in the first 20 trials")


@pytest.fixture(scope="module")
def chain3_out():
    net, mask, _ = montecarlo.sample_network("line", 3, 7, 0)
    cfg = solver.SolverConfig(restarts=12, sweep_iters=15, seed=7, keep_delta_trace=True)
    res = solver.solve_fixed_lambda(net, mask, 1j, cfg)
    assert res.converged
    ref = analytic_oracles.line3_optimal(net.weights, 1j).delta
    return checks.Output(a=net.weights, sensors=net.sensors, mask=mask.mask,
                         delta=res.perturbation.delta, lam=res.lam, radius=res.cost,
                         global_search=False, reference=ref)


@pytest.fixture(params=["line_out", "star_out", "chain3_out"])
def out(request):
    return request.getfixturevalue(request.param)


def test_solver_outputs_pass(out):
    assert checks.check(out) == []


def test_scaled_delta_fails_certificate(out):
    d = 0.99 * out.delta
    tampered = replace(out, delta=d, radius=float(np.linalg.norm(d)))
    assert "certificate" in checks.check(tampered)


def test_shifted_lambda_fails_certificate(out):
    assert "certificate" in checks.check(replace(out, lam=out.lam + 1e-4))


def test_entry_outside_mask_fails(out):
    i, j = np.argwhere(out.mask == 0.0)[0]
    d = out.delta.copy()
    d[i, j] = 1e-9
    assert checks.check(replace(out, delta=d)) == ["mask"]


def test_misreported_norm_fails(out):
    assert "norm" in checks.check(replace(out, radius=out.radius * (1 + 1e-9)))


def test_radius_below_unstructured_bound_fails(out):
    d = 1e-3 * out.delta
    tampered = replace(out, delta=d, radius=float(np.linalg.norm(d)))
    assert "lower_bound" in checks.check(tampered)


def test_costlier_cut_fails_cut_bound_and_oracle(line_out):
    # deleting the heaviest forward edge also hides a mode, at a higher cost
    a = line_out.a
    k = int(np.argmax(np.diag(a, 1)))
    d = np.zeros_like(a)
    d[k, k + 1] = -a[k, k + 1]
    lam = complex(np.linalg.eigvals(a[k + 1:, k + 1:])[0])
    feasible = replace(line_out, delta=d, lam=lam, radius=float(a[k, k + 1]))
    assert checks.check(feasible) == ["cut_bound", "oracle"]


def test_radius_off_the_oracle_fails(star_out):
    # spoke deletion is feasible and is the cheapest cut, but the symmetry
    # branch of this star is cheaper by more than the tolerance
    a = star_out.a
    k = 1 + int(np.argmin(a[0, 1:]))
    d = np.zeros_like(a)
    d[0, k] = -a[0, k]
    assert a[0, k] > star_out.reference + checks.ORACLE_ATOL
    spoke = replace(star_out, delta=d, lam=complex(a[k, k]), radius=float(a[0, k]))
    assert checks.check(spoke) == ["oracle"]


def test_cut_search_matches_the_closed_forms(line_out, star_out):
    a = line_out.a
    assert checks.cheapest_single_edge_cut(a, line_out.mask, (0,)) == np.min(np.diag(a, 1))
    a = star_out.a
    assert checks.cheapest_single_edge_cut(a, star_out.mask, (0,)) == np.min(a[0, 1:])
    full = np.ones((4, 4))
    assert checks.cheapest_single_edge_cut(full, full, (0,)) is None


@pytest.mark.parametrize("topology", ["line", "star"])
def test_closed_forms_agree_with_the_package(topology):
    ours = checks.line_reference if topology == "line" else checks.star_reference
    theirs = (analytic_oracles.line_radius if topology == "line"
              else analytic_oracles.star_radius)
    for n in (4, 6, 8):
        for trial in range(5):
            a = montecarlo.sample_network(topology, n, 99, trial)[0].weights
            assert ours(a) == pytest.approx(theirs(a).delta, rel=1e-14)
