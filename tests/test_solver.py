import hashlib
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
from dataclasses import replace

from netobs import (SolverConfig, UnobservableSystemError, assemble_pencil,
                    build_reduced, candidate_lambdas, canonicalize,
                    generalized_spectrum, line_radius, min_deletion_cost,
                    normalize_triple, orthogonality_diagnostic,
                    solve_fixed_lambda, solve_radius, star_radius)
from netobs import properties, solver
from netobs.montecarlo import sample_network
from netobs.radius_core import (ReducedProblem, SpuriousTripleError, _delta_bar,
                                _stationarity_fj, assemble_real_pencil)
from netobs.solver import _Sweep, _qz
from conftest import line_matrix, net_of, star_matrix


def random_pencil(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(3, 7))
    a = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    np.fill_diagonal(a, rng.uniform(0.1, 1.0, size=n))
    try:
        net, mask = net_of(a)
    except Exception:
        return None
    rp = build_reduced(canonicalize(net, mask),
                       rng.uniform(-1, 1) + 1j * rng.uniform(0.1, 1.0))
    x = rng.standard_normal(2 * rp.m); x /= np.linalg.norm(x)
    y = rng.standard_normal(2 * rp.n); y /= np.linalg.norm(y)
    return rp, assemble_pencil(rp, x, y)


# ---------------------------------------------------------------------------
# generalized spectrum


def test_spectrum_real_paired_with_zero():
    checked = 0
    for seed in range(40):
        out = random_pencil(seed)
        if out is None:
            continue
        residuals = properties.spectrum_residuals(out[1])
        if residuals is None:
            continue
        checked += 1
        zero, imag, pair = residuals
        assert imag <= 1e-8
        assert zero <= 1e-8
        assert pair <= 1e-8
    assert checked >= 25


def test_shift_moves_spectrum():
    # sigma in spec(H, D) iff sigma - mu in spec(H - mu D, D)
    out = random_pencil(3)
    assert out is not None
    residual = properties.shift_residual(out[1], 0.6, 4)
    assert residual is not None
    assert residual < 1e-8


def test_spectrum_is_deterministic():
    out = random_pencil(7)
    _, pp = out
    v1 = generalized_spectrum(pp).values
    v2 = generalized_spectrum(pp).values
    np.testing.assert_array_equal(v1, v2)


def reference_spectrum(pp):
    """generalized_spectrum's filter and ordering on top of scipy's eigvals."""
    alpha, beta = sla.eigvals(pp.h, pp.d, homogeneous_eigvals=True)
    finite = np.abs(beta) > 5e-7 * (1.0 + np.abs(alpha))
    values = alpha[finite] / beta[finite]
    return values[np.lexsort((values.imag, values.real))]


def test_qz_handle_matches_scipy_eigvals_bitwise():
    # half-size pencils of order 3 interleaved with full pencils of order up
    # to 22, on an empty cache and smallest first: LAPACK's workspace for
    # order 3 is too small for order 22, so a workspace size cached for the
    # wrong order shows as an error, and any other slip as different bits
    a = line_matrix([0.9, 0.35], [0.62], [0.27])
    rp_real = build_reduced(canonicalize(*net_of(a)), 0.6)
    rng = np.random.default_rng(2)
    pencils = []
    for seed in range(40):
        out = random_pencil(seed)
        if out is None:
            continue
        pencils.append(assemble_real_pencil(rp_real, rng.standard_normal(rp_real.m),
                                            rng.standard_normal(rp_real.n)))
        pencils.append(out[1])
    orders = [pp.size for pp in pencils]
    assert orders[0] == min(orders) == 3 and max(orders) == 22
    solver._GGEV.clear()
    for pp in pencils:
        alpha, beta = _qz(pp.h, pp.d)
        ref_alpha, ref_beta = sla.eigvals(pp.h, pp.d, homogeneous_eigvals=True)
        for got, ref in ((alpha, ref_alpha), (beta, ref_beta)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got.real), np.signbit(ref.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))
        assert np.array_equal(generalized_spectrum(pp).values, reference_spectrum(pp))
    assert {key[2] for key in solver._GGEV} == set(orders)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(psi=0.4)
    with pytest.raises(ValueError):
        SolverConfig(psi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="conv_tol"):
            SolverConfig(conv_tol=tol)


def test_config_rejects_a_negative_seed_and_sweep_count():
    # a negative seed used to fail mid-solve in numpy's seed sequence, and
    # a negative sweep count ran as 0
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="sweep_iters must be >= 0, got -1"):
        SolverConfig(sweep_iters=-1)
    assert SolverConfig(seed=0, sweep_iters=0).sweep_iters == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.5, -np.inf),
                                 complex(np.nan, 1.0)])
def test_a_lambda_that_is_not_finite_is_an_input_error(monkeypatch, bad):
    # it used to die in an SVD ("SVD did not converge"), or, next to a finite
    # grid point, to be solved around; now it fails before any work
    def no_work(*args):
        raise AssertionError("solved a lambda that is not finite")

    monkeypatch.setattr(solver, "canonicalize", no_work)
    net, mask, _ = sample_network("line", 4, 42, 1)
    with pytest.raises(ValueError, match="candidate lambda must be finite"):
        solve_fixed_lambda(net, mask, bad)
    for grid in ([bad], [0.5, bad]):
        with pytest.raises(ValueError, match="candidate lambda must be finite"):
            candidate_lambdas(net, mask, grid)
        with pytest.raises(ValueError, match="candidate lambda must be finite"):
            solve_radius(net, mask, grid)


# ---------------------------------------------------------------------------
# fixed-lambda solves


def test_two_node_chain_unique_solution():
    a = line_matrix([0.9, 0.35], [0.62], [0.27])
    net, mask = net_of(a)
    res = solve_fixed_lambda(net, mask, a[1, 1], SolverConfig(seed=1, restarts=4))
    assert res.converged
    expected = np.zeros((2, 2)); expected[0, 1] = -a[0, 1]
    np.testing.assert_allclose(res.perturbation.delta, expected, atol=1e-9)
    assert res.residual <= 1e-9
    assert res.verification.verified


def test_three_node_matches_root_oracle():
    lam = 1j
    cfg = SolverConfig(restarts=12, sweep_iters=10, seed=5)
    for trial in range(5):
        net, mask, _ = sample_network("line", 3, 5, trial)
        res, gap = properties.line3_oracle_gap(net, mask, lam, cfg)
        assert res.converged
        assert gap < 1e-8


def test_star_symmetry_feasible_point_bound():
    # solver cost can never exceed the two-leaf equalization cost
    a = star_matrix([0.5, 0.30, 0.38, 0.9], [0.7, 0.8, 0.9], [0.6, 0.5, 0.4])
    net, mask = net_of(a)
    lam = (a[1, 1] + a[2, 2]) / 2.0
    feasible = abs(a[1, 1] - a[2, 2]) / np.sqrt(2.0)
    assert feasible < min(a[0, 1:])  # symmetry branch beats edge deletion
    res = solve_fixed_lambda(net, mask, lam, SolverConfig(seed=2, restarts=6))
    assert res.converged
    assert res.cost <= feasible + 1e-6


def test_converged_implies_residual_within_tol():
    cfg = SolverConfig(seed=9, restarts=4)
    for trial in range(4):
        net, mask, _ = sample_network("line", 4, 9, trial)
        res = solve_fixed_lambda(net, mask, 0.5 + 0.5j, cfg)
        if res.converged:
            assert res.residual <= cfg.conv_tol
            assert res.history[-1] == pytest.approx(0.0, abs=1e-12)


def test_restart_stability_across_seeds():
    lam = 1j
    agree = 0
    total = 0
    for trial in range(10):
        net, mask, _ = sample_network("line", 3, 13, trial)
        r1 = solve_fixed_lambda(net, mask, lam, SolverConfig(seed=101, restarts=8))
        r2 = solve_fixed_lambda(net, mask, lam, SolverConfig(seed=202, restarts=8))
        if r1.converged and r2.converged:
            total += 1
            if abs(r1.cost - r2.cost) < 1e-6:
                agree += 1
    assert total >= 9
    assert agree / total >= 0.9


def test_bit_identical_reruns():
    net, mask, _ = sample_network("line", 4, 21, 0)
    cfg = SolverConfig(seed=33, restarts=4, keep_delta_trace=True)
    r1 = solve_fixed_lambda(net, mask, 0.2 + 0.7j, cfg)
    r2 = solve_fixed_lambda(net, mask, 0.2 + 0.7j, cfg)
    assert r1.history == r2.history
    np.testing.assert_array_equal(r1.perturbation.delta, r2.perturbation.delta)
    assert r1.cost == r2.cost


def test_real_lambda_routes_agree():
    cfg = SolverConfig(seed=3, restarts=4, sweep_iters=12)
    full_cfg = replace(cfg, restarts=12, force_full_pencil=True)
    agreed = 0
    for trial in range(3):
        net, mask, _ = sample_network("line", 3, 17, trial)
        lam = complex(np.diag(net.weights)[-1], 0.0)
        half = solve_fixed_lambda(net, mask, lam, cfg)
        full = solve_fixed_lambda(net, mask, lam, full_cfg)
        if half.converged and full.converged:
            assert abs(half.cost - full.cost) < 1e-8
            agreed += 1
    assert agreed >= 2


def iterate_alone(rp, cf, cfg, z0):
    """The restart of one start vector z0 on its own: its sweep as a block
    of one row (solver._sweep), then solver.heuristic_iterate on that row,
    both on an assembly built here for rp and cfg, then the reconstruction
    of its triples until one passes or the restart fails
    (solver._Restart.settle)."""
    asm = solver._assembly(rp, cfg)
    row, = solver._sweep([asm], [[z0]], cfg)
    restart = solver._Restart.start(cf, row, asm, cfg.seed, cfg.keep_delta_trace)
    res = solver.heuristic_iterate(restart)
    while res.converged and res.reconstruction is None:
        res = restart.settle(cf, cfg.conv_tol)
    return res


def test_warm_start_survives_singular_sweep_pencil():
    # a start with zero imaginary blocks makes the full pencil singular at
    # real lambda; the start must still reach the polish instead of being
    # replaced by a random draw (seed 42 trial 1 used to land one basin up)
    cfg = SolverConfig(seed=42, restarts=4, sweep_iters=12)
    net, mask, _ = sample_network("line", 4, 42, 1)
    lam = complex(np.diag(net.weights)[-1], 0.0)
    half = solve_fixed_lambda(net, mask, lam, cfg)
    assert half.converged
    cf = canonicalize(net, mask)
    rp = build_reduced(cf, lam)
    t = half.triple
    warm = iterate_alone(rp, cf, replace(cfg, force_full_pencil=True),
                         np.concatenate([t.x, t.y]))
    assert warm.converged
    assert warm.iterates.sweep == ()  # the sweep took no step
    assert abs(warm.cost - half.cost) < 1e-10


def eager_distances(res, rp, cf):
    """Reference history, polish_start and delta_trace, built eagerly from
    the kept iterates."""
    tr = res.iterates
    d_final = _delta_bar(rp, res.triple)
    nx = 2 * rp.m
    parts = []
    for us in (tr.sweep, tr.polish):
        hist, deltas = [], []
        for u in us:
            try:
                ti = normalize_triple(u[-1], u[:nx], u[nx:-1])
            except ValueError:
                continue
            di = _delta_bar(rp, ti)
            hist.append(float(np.linalg.norm(di - d_final)))
            full = np.zeros((rp.n, rp.n))
            full[:, cf.free] = di
            deltas.append(full)
        parts.append((hist, deltas))
    (h_sweep, d_sweep), (h_gn, d_gn) = parts
    return tuple(h_sweep + h_gn), len(h_sweep), tuple(d_sweep + d_gn)


def test_iterate_history_built_once_for_the_winner(monkeypatch):
    # C3 settings: a 3-node chain at lambda = i, 12 restarts
    net, mask, _ = sample_network("line", 3, 7, 0)
    cfg = SolverConfig(restarts=12, sweep_iters=15, seed=7, keep_delta_trace=True)
    builds = []
    converged = []
    build, iterate = solver._distance_history, solver.heuristic_iterate

    def counting_build(tr):
        builds.append(tr)
        return build(tr)

    def counting_iterate(*args, **kwargs):
        res = iterate(*args, **kwargs)
        converged.append(res.converged)
        return res

    monkeypatch.setattr(solver, "_distance_history", counting_build)
    monkeypatch.setattr(solver, "heuristic_iterate", counting_iterate)
    res = solve_fixed_lambda(net, mask, 1j, cfg)
    assert res.converged
    assert len(converged) == 12 and sum(converged) >= 2
    assert builds == []
    history, start, deltas = res.history, res.polish_start, res.delta_trace
    assert res.history is history and res.delta_trace is deltas
    assert len(builds) == 1 and builds[0] is res.iterates

    cf = canonicalize(net, mask)
    ref_history, ref_start, ref_deltas = eager_distances(res, build_reduced(cf, 1j), cf)
    assert history == ref_history
    assert start == ref_start
    assert 0 < start < len(history)
    assert len(deltas) == len(ref_deltas) == len(history)
    for got, ref in zip(deltas, ref_deltas):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert history[-1] == 0.0
    assert np.array_equal(deltas[-1], res.perturbation.delta)


def block_jacobian(at, v_bar, u):
    """Reference Jacobian of the complex-route polish, assembled densely
    from its blocks."""
    n, m = v_bar.shape
    vt = v_bar.T
    x, y, sig = u[:2 * m], u[2 * m:2 * m + 2 * n], u[-1]
    xr, xi = x[:m], x[m:]
    y1, y2 = y[:n], y[n:]
    sy = vt @ (y1 * y1); ty = vt @ (y1 * y2); qy = vt @ (y2 * y2)
    sx = v_bar @ (xr * xr); tx = v_bar @ (xr * xi); qx = v_bar @ (xi * xi)
    dy_mat = np.block([[np.diag(sy), np.diag(ty)], [np.diag(ty), np.diag(qy)]])
    dx_mat = np.block([[np.diag(sx), np.diag(tx)], [np.diag(tx), np.diag(qx)]])
    dyx = np.concatenate([sy * xr + ty * xi, ty * xr + qy * xi])
    dxy = np.concatenate([sx * y1 + tx * y2, tx * y1 + qx * y2])
    ddyx_dy = np.block([
        [vt * (2 * np.outer(xr, y1) + np.outer(xi, y2)), vt * np.outer(xi, y1)],
        [vt * np.outer(xr, y2), vt * (np.outer(xr, y1) + 2 * np.outer(xi, y2))]])
    ddxy_dx = np.block([
        [v_bar * (2 * np.outer(y1, xr) + np.outer(y2, xi)), v_bar * np.outer(y2, xr)],
        [v_bar * np.outer(y1, xi), v_bar * (np.outer(y1, xr) + 2 * np.outer(y2, xi))]])
    top = np.hstack([-sig * dy_mat, at.T - sig * ddyx_dy, -dyx[:, None]])
    mid = np.hstack([at - sig * ddxy_dx, -sig * dx_mat, -dxy[:, None]])
    r1 = np.concatenate([x, np.zeros(2 * n), [0.0]])[None, :]
    r2 = np.concatenate([np.zeros(2 * m), y, [0.0]])[None, :]
    return np.vstack([top, mid, r1, r2])


def block_jacobian_real(at, v_bar, u):
    """Reference Jacobian of the half-size (real lambda) polish, assembled
    densely from its blocks."""
    n, m = v_bar.shape
    vt = v_bar.T
    x, y, sig = u[:m], u[m:m + n], u[-1]
    sy = vt @ (y * y)
    sx = v_bar @ (x * x)
    return np.block([
        [-sig * np.diag(sy), at.T - 2 * sig * vt * np.outer(x, y), -(sy * x)[:, None]],
        [at - 2 * sig * v_bar * np.outer(y, x), -sig * np.diag(sx), -(sx * y)[:, None]],
        [x[None, :], np.zeros((1, n + 1))],
        [np.zeros((1, m)), y[None, :], np.zeros((1, 1))]])


@pytest.mark.parametrize("route", ["complex", "real"])
def test_full_jacobian_matches_block_assembly(route):
    rng = np.random.default_rng(12)
    blocks = 2 if route == "complex" else 1
    for trial in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        at = rng.standard_normal((blocks * n, blocks * m))
        v_bar = (rng.uniform(size=(n, m)) < 0.6).astype(float)
        u = rng.standard_normal(blocks * (m + n) + 1)
        if trial % 2:
            u[-1] = -u[-1]
        f_of, j_of = _stationarity_fj(at, v_bar)
        jac = j_of(u)
        if route == "complex":
            ref = block_jacobian(at, v_bar, u)
            # bit-identical, down to the sign of every zero
            np.testing.assert_array_equal(jac, ref)
            np.testing.assert_array_equal(np.signbit(jac), np.signbit(ref))
        else:
            # the same entries; the products may round in another order
            np.testing.assert_allclose(jac, block_jacobian_real(at, v_bar, u),
                                       rtol=1e-14, atol=1e-14)
        # and it is the derivative of the residual
        h = 1e-6
        fd = np.column_stack([(f_of(u + h * e) - f_of(u - h * e)) / (2 * h)
                              for e in np.eye(len(u))])
        np.testing.assert_allclose(jac, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt polish


C3_CFG = SolverConfig(restarts=12, sweep_iters=15, seed=7, keep_delta_trace=True)
ENSEMBLE_CFG = SolverConfig(restarts=4, sweep_iters=12, seed=4040)


def record_polish(mp):
    """Wrap solver._gn_core, which polishes a block of rows; every row of
    every call appends a record of its residual and Jacobian evaluations,
    its return value and its inputs. The block's return value is recorded;
    the evaluations are counted on the row polished again as a block of one
    row, where each call evaluates that row alone."""
    runs = []
    core = solver._gn_core

    def recording(f_of, j_of, u0, max_iter, tol):
        out = core(f_of, j_of, u0, max_iter, tol)
        for row, row_out in zip(u0, out):
            calls = {"f": 0, "j": 0}

            def f_counted(u):
                calls["f"] += 1
                return f_of(u)

            def j_counted(u):
                calls["j"] += 1
                return j_of(u)

            core(f_counted, j_counted, row[None], max_iter, tol)
            runs.append(dict(residuals=calls["f"], jacobians=calls["j"], out=row_out,
                             f_of=f_of, j_of=j_of, u0=row, max_iter=max_iter, tol=tol))
        return out

    mp.setattr(solver, "_gn_core", recording)
    return runs


# two real "topo" candidates of the C7 ensemble's first 6-node line, keyed
# by their index in the grid that held every pairwise mean of the diagonal
LINE6_CANDIDATES = {4: 0.30195004840465134, 14: 0.6162872821089159}


def line6_candidate(index):
    net, mask, _ = sample_network("line", 6, 4040, 0)
    lam = complex(LINE6_CANDIDATES[index])
    assert lam in candidate_lambdas(net, mask, "topo")
    return net, mask, lam


@pytest.fixture(scope="module")
def c3_polish_runs():
    """Every polish run of C3's solves of chains 0..5 (seed 7, lambda = i)."""
    with pytest.MonkeyPatch.context() as mp:
        runs = record_polish(mp)
        for trial in range(6):
            net, mask, _ = sample_network("line", 3, 7, trial)
            assert solve_fixed_lambda(net, mask, 1j, C3_CFG).converged
    return runs


def assert_residual_falls(runs):
    for run in runs:
        norms = [np.linalg.norm(run["f_of"](u)) for u in run["out"][3]]
        assert all(b < a for a, b in zip(norms, norms[1:])), norms


def test_polish_residual_strictly_decreasing_on_c3_chains(c3_polish_runs):
    # C3's monotone tail rests on this: ||F|| falls at every accepted iterate
    assert sum(len(run["out"][3]) > 5 for run in c3_polish_runs) >= 20
    assert_residual_falls(c3_polish_runs)


def test_polish_residual_strictly_decreasing_on_real_route(monkeypatch):
    # a real candidate of a 6-node line whose polish runs take damped steps
    net, mask, lam = line6_candidate(14)
    runs = record_polish(monkeypatch)
    assert solve_fixed_lambda(net, mask, lam, ENSEMBLE_CFG).converged
    assert any(run["residuals"] > run["jacobians"] + 1 for run in runs)
    assert_residual_falls(runs)


def test_polish_counts_jacobians_and_spends_few_residuals(c3_polish_runs):
    # its counts Jacobians; the damping trials at a point share one SVD and
    # cost one residual each, so the residuals per Jacobian stay near 1
    for run in c3_polish_runs:
        assert run["out"][1] == run["jacobians"]
    residuals = sum(run["residuals"] for run in c3_polish_runs)
    jacobians = sum(run["jacobians"] for run in c3_polish_runs)
    assert residuals <= 2 * jacobians, residuals / jacobians


def reference_gauss_newton(f_of, j_of, u0, max_iter, tol):
    """Iterates of the undamped Gauss-Newton loop with lstsq steps."""
    us = [u0]
    u, f = u0, f_of(u0)
    while len(us) <= max_iter and np.linalg.norm(f, np.inf) > tol:
        u = u + np.linalg.lstsq(j_of(u), -f, rcond=None)[0]
        f = f_of(u)
        us.append(u)
    return us


def test_polish_takes_full_gauss_newton_steps_where_they_are_accepted(monkeypatch):
    # a real candidate of a 6-node line (the C7 ensemble's first instance)
    # where every full step is accepted: one residual per Jacobian, plus the
    # one at the start, and the iterates of undamped Gauss-Newton
    net, mask, lam = line6_candidate(4)
    runs = record_polish(monkeypatch)
    assert solve_fixed_lambda(net, mask, lam, ENSEMBLE_CFG).converged
    assert len(runs) == 4 and all(run["jacobians"] >= 3 for run in runs)
    for run in runs:
        u, its, ok, us = run["out"]
        assert ok
        assert run["residuals"] == run["jacobians"] + 1
        ref = reference_gauss_newton(run["f_of"], run["j_of"], run["u0"],
                                     run["max_iter"], run["tol"])
        assert len(us) == len(ref)
        for got, want in zip(us, ref):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def relative_gradient(f_of, j_of, u):
    """||J'F|| / (||J||_2 ||F||) at u, from numpy's own norms."""
    f, j = f_of(u), j_of(u)
    return np.linalg.norm(j.T @ f) / (np.linalg.norm(j, 2) * np.linalg.norm(f))


# the relative gradient at or below which _gn_core gives a run up
STATIONARY_EXIT = 1e-6
# the relative fall of ||F|| over 10 Jacobians below which it gives up too
NO_PROGRESS_EXIT = 1e-4


def test_polish_stops_at_a_nonzero_residual_minimum():
    # F(t) = (t + 1, c t^2 + t - 1) has its least-squares minimum at t = 0
    # with ||F|| = sqrt(2) for every c; near it Gauss-Newton contracts only
    # by about c per step, so with c = 0.99 the run would crawl through its
    # whole budget. The relative-gradient exit ends it within a few steps.
    c = 0.99

    def f_of(u):
        t = u[..., 0]
        return np.stack([t + 1.0, c * t ** 2 + t - 1.0], axis=-1)

    def j_of(u):
        t = u[..., 0]
        return np.stack([np.ones_like(t), 2.0 * c * t + 1.0], axis=-1)[..., None]

    (u, its, ok, us), = solver._gn_core(f_of, j_of, np.array([[1e-4]]), 60, 1e-12)
    assert not ok
    assert its <= 5
    assert abs(u[0]) < 1e-4
    assert np.linalg.norm(f_of(u)) == pytest.approx(np.sqrt(2.0), rel=1e-8)
    assert relative_gradient(f_of, j_of, u) <= STATIONARY_EXIT


def test_polish_gives_up_runs_that_make_no_progress(monkeypatch):
    # the 4-node line of the CLI benchmark pool (master seed 2611) at a
    # complex lambda where ten restarts crawl at ||F|| ~ 0.36 through the
    # whole 60-Jacobian budget without the no-progress exit
    net, mask, _ = sample_network("line", 4, 2611, 0)
    runs = record_polish(monkeypatch)
    res = solve_fixed_lambda(net, mask, 1.4 + 0.4j, SolverConfig())
    failed = [run for run in runs if not run["out"][2]]
    assert len(failed) >= 5
    assert all(run["out"][1] <= 30 for run in failed)
    assert res.converged
    # the cost the solve returned before the exit existed
    assert res.cost == pytest.approx(1.369563764841636, rel=1e-12)


# a toy system on u = (t, p): p, rounded, picks the mode, and the
# Jacobian's p column is zero, so no step moves p. Mode 1 has a root at
# t = 0; mode 0 is the toy of test_polish_stops_at_a_nonzero_residual_minimum
# and crawls; mode 2 is mode 0 with the Jacobian's sign wrong, so every step
# climbs; mode 3 is t^2, where Gauss-Newton halves t at every step.
TOY_C = 0.99


def toy_f(u):
    t, mode = u[..., 0], np.rint(u[..., 1])
    root = mode == 1
    first = np.where(mode == 3, t * t, t + 1.0 - root)
    second = np.where(mode == 3, 0.0, TOY_C * t ** 2 + t - 1.0 + root)
    return np.stack([first, second], axis=-1)


def toy_j(u):
    t, mode = u[..., 0], np.rint(u[..., 1])
    d1 = np.where(mode == 3, 2.0 * t, 1.0)
    d2 = np.where(mode == 3, 0.0, 2.0 * TOY_C * t + 1.0)
    col = np.where(mode == 2, -1.0, 1.0)[..., None] * np.stack([d1, d2], axis=-1)
    return np.stack([col, np.zeros_like(col)], axis=-1)


def assert_same_polish(got, want):
    """Two _gn_core results of one row, bit for bit: u, Jacobians taken,
    converged and the accepted iterates."""
    (u, its, ok, us), (u1, its1, ok1, us1) = got, want
    assert raw(u) == raw(u1)
    assert (its, ok) == (its1, ok1)
    assert [raw(x) for x in us] == [raw(x) for x in us1]


def test_block_polish_gives_every_row_what_a_block_of_one_gives():
    # one block whose rows leave on different rounds, one through each exit
    rows = np.array([[0.5, 1],    # converged
                     [1.0, 3],    # out of budget: 12 halvings leave t^2 at 6e-8
                     [1e-2, 0],   # no progress over 10 Jacobians
                     [1e-4, 0],   # relative gradient at or below 1e-6
                     [0.5, 2]])   # predicted decrease at or below eps ||F||^2
    max_iter = 12
    block = solver._gn_core(toy_f, toy_j, rows, max_iter, 1e-12)
    for k, polish in enumerate(block):
        assert_same_polish(polish, solver._gn_core(toy_f, toy_j, rows[k:k + 1],
                                                   max_iter, 1e-12)[0])
    (u0, its0, ok0, _), (_, its1, ok1, _), (_, its2, ok2, _), \
        (u3, its3, ok3, _), (u4, its4, ok4, us4) = block
    assert ok0 and np.linalg.norm(toy_f(u0), np.inf) <= 1e-12
    assert not ok1 and its1 == max_iter
    assert not ok2 and its2 == 10
    assert not ok3 and its3 < 10
    assert relative_gradient(toy_f, toy_j, u3) <= STATIONARY_EXIT
    assert not ok4 and its4 == 1 and len(us4) == 1
    assert len({its0, its1, its2, its3, its4}) == 5


@pytest.mark.parametrize("case", ["c3_chain0", "line6"])
def test_block_polish_of_every_seed_matches_each_seed_alone(case):
    # every seed of every restart of a candidate, on the polish kernel of
    # either route, as one block and as blocks of one row
    if case == "c3_chain0":
        net, mask, _ = sample_network("line", 3, 7, 0)
        lam, cfg = 1j, C3_CFG
    else:
        (net, mask, lam), cfg = line6_candidate(14), ENSEMBLE_CFG
    cf = canonicalize(net, mask)
    cand = solver._candidate(cf, lam, cfg)
    sweeps, = solver._sweep_candidates([cand], cfg)
    seeds = np.array([u for r, sweep in enumerate(sweeps)
                      for u in solver._Restart.start(
                          cf, sweep, cand.asm, cfg.seed * 1009 + r,
                          cfg.keep_delta_trace).seeds])
    assert len(seeds) >= 3 * cfg.restarts
    asm = cand.asm
    block = solver._gn_core(asm.f_of, asm.j_of, seeds, solver._POLISH_MAX_ITER,
                            solver._POLISH_TOL)
    for k, polish in enumerate(block):
        assert_same_polish(polish, solver._gn_core(
            asm.f_of, asm.j_of, seeds[k:k + 1], solver._POLISH_MAX_ITER,
            solver._POLISH_TOL)[0])
    assert len({polish[1] for polish in block}) > 1


def triple_digest(t):
    """The first 16 hex digits of the sha256 of a triple's sigma, x and y
    bytes."""
    h = hashlib.sha256()
    for part in (np.float64(t.sigma), t.x, t.y):
        h.update(part.tobytes())
    return h.hexdigest()[:16]


# (converged, iterations, triple_digest) of every restart, in restart order,
# as polishing one restart at a time, one seed at a time, gave them
PINNED_RESTARTS = {
    "c3_chain0": [
        (True, 24, "ec88033b073da4bb"), (True, 24, "818ad83dfe66475d"),
        (True, 24, "8cf50cfd5cc58480"), (True, 22, "152010eb7236d694"),
        (True, 25, "914357c0459cbf60"), (True, 25, "0250ec63cc327759"),
        (True, 25, "5f0c8b17efb6ec96"), (True, 25, "54da124f747b2500"),
        (True, 24, "9dab3615c7eadf2a"), (True, 24, "980df0ec4000d802"),
        (True, 21, "a4ecee34045f6b25"), (True, 24, "2a82c227e6c47833")],
    # restart 1 reaches the polish's basin after 9 of the 12 sweep steps
    "line6": [
        (True, 17, "547588258a1f2e04"), (True, 10, "612f7b7bd96f6535"),
        (True, 17, "eab0d3a9b43ced5b"), (True, 17, "7967a96782766032")],
    # restarts that polish two to four seeds, one of them in vain
    "c3_chain3": [
        (True, 115, "d703ed27aa8e53ff"), (True, 31, "2c46c58f8c8eb54d"),
        (True, 19, "2f318281747949ea"), (True, 66, "3f3edafd6ee13580"),
        (True, 22, "8af3f6bae4d5a842"), (True, 48, "ed711f3a1f888742"),
        (False, 170, None), (True, 105, "7ea527d5ee8507dc"),
        (True, 68, "2bea38efb7bbefd0"), (True, 39, "173e7cd0232d39f8"),
        (True, 72, "3e446158704d3e80"), (True, 29, "72b533439efca524")],
}


@pytest.mark.parametrize("case", ["c3_chain0", "line6", "c3_chain3"])
def test_heuristic_iterate_is_called_once_per_restart(monkeypatch, case):
    # the benchmark tracer counts restarts and their iterations on
    # heuristic_iterate's calls and results; the polish waves keep one call
    # per restart with the result of that restart polished alone
    if case == "line6":
        (net, mask, lam), cfg = line6_candidate(14), ENSEMBLE_CFG
    else:
        net, mask, _ = sample_network("line", 3, 7, 0 if case == "c3_chain0" else 3)
        lam, cfg = 1j, C3_CFG
    got = []
    iterate = solver.heuristic_iterate

    def recording(*args, **kwargs):
        res = iterate(*args, **kwargs)
        got.append((res.converged, res.iterations,
                    res.triple and triple_digest(res.triple)))
        return res

    monkeypatch.setattr(solver, "heuristic_iterate", recording)
    assert solve_fixed_lambda(net, mask, lam, cfg).converged
    assert len(got) == cfg.restarts
    assert got == PINNED_RESTARTS[case]


def assert_exit_margins(runs):
    # a converging run never comes within 10x of either exit's threshold:
    # the relative gradient where each Jacobian is taken, and the relative
    # fall of ||F|| over the 10 Jacobians before each one
    converged = [run for run in runs if run["out"][2]]
    assert converged
    for run in converged:
        us = run["out"][3]
        for u in us[:-1]:  # the last iterate takes no Jacobian
            assert (relative_gradient(run["f_of"], run["j_of"], u)
                    >= 10 * STATIONARY_EXIT)
        norms = [np.linalg.norm(run["f_of"](u)) for u in us]
        for i in range(10, len(us) - 1):
            assert 1.0 - norms[i] / norms[i - 10] >= 10 * NO_PROGRESS_EXIT


def test_converging_polish_keeps_clear_of_the_stationary_exit(c3_polish_runs):
    # some converging runs are long enough for a 10-Jacobian window
    assert any(run["out"][2] and len(run["out"][3]) > 11 for run in c3_polish_runs)
    assert_exit_margins(c3_polish_runs)


@pytest.mark.parametrize("index", [4, 14])
def test_converging_polish_keeps_clear_of_the_stationary_exit_real_route(
        monkeypatch, index):
    net, mask, lam = line6_candidate(index)
    runs = record_polish(monkeypatch)
    assert solve_fixed_lambda(net, mask, lam, ENSEMBLE_CFG).converged
    assert_exit_margins(runs)


# ---------------------------------------------------------------------------
# lockstep sweep


def handoff_threshold(asm, u):
    """The merit ||F(u)|| below which a sweep step at u hands its row to the
    polish: solver._HANDOFF_TOL times min(||A_tilde||_F, sigma)."""
    return solver._HANDOFF_TOL * min(np.linalg.norm(asm.rp.a_tilde), u[-1])


def handed_off(row, asm):
    """Whether a sweep row left the block in the polish's basin: the merit
    of its last step is below the handoff threshold."""
    u = row.trace[-1]
    return bool(np.linalg.norm(asm.f_of(u)) < handoff_threshold(asm, u))


def reference_sweep(asm, z0, cfg):
    """The sweep of one start as a loop over steps with one-vector numpy
    calls (@, np.linalg.norm, a solve per step): what every row of the
    lockstep block must reproduce bit for bit. It stops after the step
    where ||z_k - z_{k-1}|| falls below solver._STILL_TOL or the merit
    ||F(u)|| below its handoff_threshold. Returns (init, trace, best,
    phi_plus_mu), with init None when the start degenerates."""
    nx = asm.nx

    def rebalance(z):
        nzx, nzy = np.linalg.norm(z[:nx]), np.linalg.norm(z[nx:])
        if nzx < 1e-300 or nzy < 1e-300:
            return None
        return np.concatenate([z[:nx] / (np.sqrt(2.0) * nzx),
                               z[nx:] / (np.sqrt(2.0) * nzy)])

    def u_of(pp, z):
        den = z @ (pp.d @ z)
        sigma_bar = abs(z @ (pp.h @ z) / den) if den != 0 else 1.0
        return np.append(np.sqrt(2.0) * z, sigma_bar / 2.0)

    z = rebalance(np.array(z0, dtype=float))
    if z is None:
        return None, [], None, None
    init = u_of(asm.pencil(z[:nx], z[nx:]), z)
    trace, best, best_merit, psi, phi_plus_mu = [], None, np.inf, cfg.psi, None
    for _ in range(cfg.sweep_iters):
        pp = asm.pencil(z[:nx], z[nx:])
        spec = generalized_spectrum(pp)
        re, im = spec.values.real, spec.values.imag
        if not spec.regular or not len(re):
            break
        scale = max(1.0, float(np.abs(re).max()))
        ok = (re > solver._POSITIVE_TOL * scale) & (np.abs(im) <= 1e-6 * scale)
        if not ok.any():
            break
        mp = float(re[ok].min())
        mu = psi * mp
        mmat = pp.h - mu * pp.d
        s = np.linalg.svd(mmat, compute_uv=False)
        if s[-1] == 0.0 or s[0] / s[-1] > solver._COND_LIMIT:
            psi = max(0.5 + 0.45 * (psi - 0.5), 0.500001)
            mu = psi * mp
            mmat = pp.h - mu * pp.d
        try:
            w = np.linalg.solve(mmat, pp.d @ z)
        except np.linalg.LinAlgError:
            break
        phi = np.linalg.norm(w)
        if not np.isfinite(phi) or phi < 1e-300:
            break
        zn = w / phi
        zn = rebalance(-zn if zn @ z < 0 else zn)
        if zn is None:
            break
        phi_plus_mu = mu + 1.0 / phi
        u = u_of(pp, zn)
        trace.append(u)
        merit = np.linalg.norm(asm.f_of(u))
        if merit < best_merit:
            best_merit, best = merit, u
        if (np.linalg.norm(zn - z) < solver._STILL_TOL
                or merit < handoff_threshold(asm, u)):
            break
        z = zn
    return init, trace, best, phi_plus_mu


def lockstep_and_alone(monkeypatch, net, mask, lam, cfg):
    """(sweep row, result) of every restart: from _best_of_restarts, which
    sweeps its restarts in lockstep, and from iterate_alone on each
    restart's start vector, drawn as a restart loop draws it; and the
    reference_sweep of each start."""
    cf = canonicalize(net, mask)
    rows, results = [], []
    sweep, iterate = solver._sweep, solver.heuristic_iterate

    def recording_sweep(*args):
        out = sweep(*args)
        rows.extend(out)
        return out

    def recording_iterate(*args, **kwargs):
        res = iterate(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(solver, "_sweep", recording_sweep)
    monkeypatch.setattr(solver, "heuristic_iterate", recording_iterate)
    solver._best_of_restarts(cf, lam, cfg)
    lockstep = list(zip(rows, results))
    rows.clear()
    results.clear()
    rp = build_reduced(cf, lam)
    asm = solver._assembly(rp, cfg)
    reference = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        z0 = solver._pbh_warm_start(cf, lam, asm, rng) if r == 0 else None
        if z0 is None:
            z0 = rng.standard_normal(asm.size)
        iterate_alone(rp, cf, replace(cfg, seed=cfg.seed * 1009 + r), z0)
        reference.append(reference_sweep(asm, z0, cfg))
    alone = list(zip(rows, results))
    assert len(lockstep) == len(alone) == cfg.restarts
    return lockstep, alone, reference


def raw(a):
    return None if a is None else np.asarray(a).tobytes()


def assert_same_restarts(lockstep, alone, reference):
    for (row, res), (row1, res1), (init, trace, best, phi_plus_mu) in zip(
            lockstep, alone, reference):
        for other in (row1, _Sweep(init, trace, best, phi_plus_mu=phi_plus_mu)):
            assert raw(row.init) == raw(other.init)
            assert [raw(u) for u in row.trace] == [raw(u) for u in other.trace]
            assert raw(row.best) == raw(other.best)
            assert row.phi_plus_mu == other.phi_plus_mu
        assert res.converged == res1.converged
        assert res.failure == res1.failure
        assert res.iterations == res1.iterations
        assert res.phi_plus_mu == res1.phi_plus_mu
        assert res.cost == res1.cost
        assert raw(res.perturbation and res.perturbation.delta) == \
            raw(res1.perturbation and res1.perturbation.delta)
        for part in ("sigma", "x", "y"):
            assert raw(res.triple and getattr(res.triple, part)) == \
                raw(res1.triple and getattr(res1.triple, part))
        if res.converged:
            assert [raw(u) for u in res.iterates.sweep] == \
                [raw(u) for u in res1.iterates.sweep]


def c3_chain3():
    # C3's trial 3: some restarts leave the sweep before its 15 steps
    net, mask, _ = sample_network("line", 3, 7, 3)
    return net, mask, 1j


def cli_line4():
    # the CLI benchmark pool's 4-node line at a real lambda of its default
    # grid, solved with the CLI's defaults: some rows reach the polish's
    # basin after 8, 9 or 12 of the 20 steps, the others run all 20
    net, mask, _ = sample_network("line", 4, 2611, 0)
    return net, mask, -0.2 + 0j


def star6():
    # C7's star generator, trial 1 of the 6-node stars, at the mean of two
    # neighbouring self-loops, a real "topo" candidate: restart 0 (the PBH
    # warm start) stops moving after 4 of the 12 steps at a merit of 6e-3
    # ||A_tilde||_F, and the others reach the polish's basin after 7
    net, mask, _ = sample_network("star", 6, 4041, 1)
    lam = 0.1849429887639228 + 0j
    assert lam in candidate_lambdas(net, mask, "topo")
    return net, mask, lam


# C7's solver settings for its stars
STAR_CFG = replace(ENSEMBLE_CFG, seed=4041)


def last_step(row):
    """||z_k - z_{k-1}|| of a sweep row's last step, from the polish
    variables u = (sqrt(2) z, sigma) of its start and steps."""
    us = [row.init] + row.trace
    return np.linalg.norm(us[-1][:-1] / np.sqrt(2.0) - us[-2][:-1] / np.sqrt(2.0))


def assert_rows_stop_early(rows, asm, cfg, least):
    """The rows of one candidate (assembly asm) that stop before the last
    step do so at `least` different steps or more, each at a still iterate
    or in the polish's basin. Returns (still, handed off) counts."""
    short = [row for row in rows if 0 < len(row.trace) < cfg.sweep_iters]
    assert len({len(row.trace) for row in short}) >= least
    still = handed = 0
    for row in short:
        if handed_off(row, asm):
            handed += 1
        else:
            still += 1
            assert last_step(row) < 2 * solver._STILL_TOL
    return still, handed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["c3_chain3", "ensemble_line", "cli_line4", "star6"])
def test_lockstep_sweep_matches_one_start_at_a_time(monkeypatch, case):
    if case == "c3_chain3":
        (net, mask, lam), cfg = c3_chain3(), C3_CFG
    elif case == "ensemble_line":
        (net, mask, lam), cfg = line6_candidate(4), ENSEMBLE_CFG
        assert lam.imag == 0.0  # the half-size route
    elif case == "cli_line4":
        (net, mask, lam), cfg = cli_line4(), SolverConfig()
    else:
        (net, mask, lam), cfg = star6(), STAR_CFG
    lockstep, alone, reference = lockstep_and_alone(monkeypatch, net, mask, lam, cfg)
    assert_same_restarts(lockstep, alone, reference)
    steps = sum(len(row.trace) for row, _ in lockstep)
    if case == "c3_chain3":
        assert steps < cfg.restarts * cfg.sweep_iters
    if case in ("cli_line4", "star6"):
        # rows leave the block early, at different steps: on the 4-node line
        # in the polish's basin while others take every step, on the star
        # at a fixed point and in the basin
        asm = solver._assembly(build_reduced(canonicalize(net, mask), lam), cfg)
        still, handed = assert_rows_stop_early(
            [row for row, _ in lockstep], asm, cfg, 2)
        assert steps < cfg.restarts * cfg.sweep_iters
        if case == "cli_line4":
            assert handed >= 3
            assert any(len(row.trace) == cfg.sweep_iters for row, _ in lockstep)
        else:
            assert (still, handed) == (1, 3)
    assert sum(res.converged for _, res in lockstep) >= 2


def full_length_sweep(monkeypatch, cand, cfg):
    """The sweep rows of a candidate with both early exits off."""
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_STILL_TOL", 0.0)
        mp.setattr(solver, "_HANDOFF_TOL", 0.0)
        return solver._sweep([cand.asm], [cand.starts], cfg)


# the largest distance between a polish seed kept at the fixed-point exit
# and the same seed of a full-length sweep, over every candidate polished in
# the three benchmark pools and the 73 other random graphs, was 2.9e-6 (at
# _STILL_TOL = 1e-8; 9.3e-8 in the CLI pool). Every restart polished from
# the kept seeds converged, or failed, as it did from the full-length ones,
# to the same stationary point. At _STILL_TOL = 1e-6 one seed moved by 2.3
# and one restart's convergence changed. A seed kept at the handoff is not
# near a full-length sweep's (the sweep goes on moving), only in the basin
# of the same stationary point
SEED_MARGIN = 1e-5


def test_seeds_kept_at_the_exit_polish_to_the_same_point(monkeypatch):
    # the CLI pool's 4-node line: three rows hand off
    exits = seeds_kept_polish_to_the_same_point(
        monkeypatch, *cli_line4(), SolverConfig(), handoff_rel=1e-12)
    assert exits == {"basin": 3}
    # the C7 star: one row stops at a fixed point and three hand off. The
    # polish stops at ||F||_inf <= 1e-12, absolute, and on this star (radius
    # 6.7e-3) the seeds kept at the handoff and the full-length ones reach
    # the same stationary point up to 6.3e-12 in cost
    exits = seeds_kept_polish_to_the_same_point(
        monkeypatch, *star6(), STAR_CFG, handoff_rel=1e-10)
    assert exits == {"basin": 3, "still": 1}


def seeds_kept_polish_to_the_same_point(monkeypatch, net, mask, lam, cfg, handoff_rel):
    """Checks a candidate's sweep rows against a full-length sweep's, and
    the restarts polished from both: costs within handoff_rel relative for
    a row handed off, 1e-12 otherwise. Returns the count of each early
    exit."""
    cf = canonicalize(net, mask)
    cand = solver._candidate(cf, lam, cfg)
    rows = solver._sweep([cand.asm], [cand.starts], cfg)
    full = full_length_sweep(monkeypatch, cand, cfg)
    rp = cand.asm.rp
    exits = Counter()
    for r, (row, row1) in enumerate(zip(rows, full)):
        assert len(row.trace) <= len(row1.trace)
        # the exit keeps the steps it took, bit for bit
        assert [raw(u) for u in row.trace] == \
            [raw(u) for u in row1.trace[:len(row.trace)]]
        handed = len(row.trace) < len(row1.trace) and handed_off(row, cand.asm)
        if handed:
            exits["basin"] += 1
        elif len(row.trace) < len(row1.trace):
            exits["still"] += 1
            for seed, seed1 in ((row.best, row1.best), (row.trace[-1], row1.trace[-1])):
                assert np.linalg.norm(seed - seed1) <= SEED_MARGIN
        res, res1 = (solver.heuristic_iterate(solver._Restart.start(
            cf, sweep, cand.asm, cfg.seed * 1009 + r, cfg.keep_delta_trace))
            for sweep in (row, row1))
        assert res.converged and res1.converged
        assert solver._triple_cost(rp, res.triple) == pytest.approx(
            solver._triple_cost(rp, res1.triple), rel=handoff_rel if handed else 1e-12,
            abs=0.0)
    best = solver._polish_restarts(cf, cand, rows, cfg)
    best1 = solver._polish_restarts(cf, cand, full, cfg)
    assert best.cost == pytest.approx(best1.cost, rel=1e-12, abs=0.0)
    return exits


def test_no_c3_row_stops_at_a_fixed_point(monkeypatch):
    # C3's sweep rows never move less than 3.8e-3 in a step (100 chains), far
    # above _STILL_TOL, and their merits never fall below 2.8e-3 times
    # min(||A_tilde||_F, sigma), far above the handoff: every row runs until
    # it breaks or takes all sweep_iters steps, so C3's outputs keep their
    # bits
    net, mask, lam = c3_chain3()
    cand = solver._candidate(canonicalize(net, mask), lam, C3_CFG)
    rows = solver._sweep([cand.asm], [cand.starts], C3_CFG)
    full = full_length_sweep(monkeypatch, cand, C3_CFG)
    for row, row1 in zip(rows, full):
        assert [raw(u) for u in row.trace] == [raw(u) for u in row1.trace]
        us = [row.init] + row.trace
        for u, u1 in zip(us, us[1:]):
            assert np.linalg.norm(u1[:-1] - u[:-1]) / np.sqrt(2.0) > 1e4 * solver._STILL_TOL
            assert np.linalg.norm(cand.asm.f_of(u1)) > 1e3 * handoff_threshold(cand.asm, u1)
    assert any(len(row.trace) < C3_CFG.sweep_iters for row in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lockstep_sweep_backs_psi_off_row_by_row(monkeypatch):
    # with a condition limit of 1e6 the shift backs off on some rows of a
    # step and not on others; the condition guard's decisions show which
    monkeypatch.setattr(solver, "_COND_LIMIT", 1e6)
    guard, backed_off = solver._ill_conditioned, []

    def recording_guard(mmat):
        back = guard(mmat)
        backed_off.append(back)
        return back

    monkeypatch.setattr(solver, "_ill_conditioned", recording_guard)
    lockstep, alone, reference = lockstep_and_alone(monkeypatch, *c3_chain3(), C3_CFG)
    assert_same_restarts(lockstep, alone, reference)
    # the guard's calls of _best_of_restarts come first, one per step
    assert any(b.any() and not b.all() for b in backed_off[:C3_CFG.sweep_iters])


def conditioned_stack(kappas, order=23, seed=5):
    """Symmetric matrices Q diag(s) Q', one per condition number kappa, with
    s running from 1 down to 1/kappa: all its middle values at 1/sqrt(kappa)
    for even rows, where ||M||_F ||M^-1||_F is closest to kappa, and
    geometric for odd rows."""
    rng = np.random.default_rng(seed)
    out = []
    for k, kappa in enumerate(kappas):
        q, _ = np.linalg.qr(rng.standard_normal((order, order)))
        if k % 2:
            s = np.geomspace(1.0, 1.0 / kappa, order)
        else:
            s = np.full(order, 1.0 / np.sqrt(kappa))
            s[0], s[-1] = 1.0, 1.0 / kappa
        out.append((q * s) @ q.T)
    return np.array(out)


def svd_test(mmat):
    s = np.linalg.svd(mmat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (s[:, -1] == 0.0) | (s[:, 0] / s[:, -1] > solver._COND_LIMIT)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("limit", [solver._COND_LIMIT, 1e6])
def test_condition_guard_gives_every_row_the_svd_decision(monkeypatch, limit):
    # condition numbers from 1e2 to 1e16, several within 1% of either limit;
    # the Frobenius bound clears the well-conditioned rows without an SVD,
    # and the rest take the SVD test
    monkeypatch.setattr(solver, "_COND_LIMIT", limit)
    near = [f * lim for lim in (1e6, solver._COND_LIMIT)
            for f in (0.99, 0.995, 0.999, 1.001, 1.005, 1.01)]
    kappas = [1e2, 1e5, 1e8, 1e10] + list(np.geomspace(1e12, 1e16, 9)) + near
    svd, svd_rows = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        svd_rows.append(len(a))
        return svd(a, *args, **kwargs)

    mmat = conditioned_stack(kappas)
    want = svd_test(mmat)
    assert want.any() and not want.all()
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert np.array_equal(solver._ill_conditioned(mmat), want)
    assert 0 < svd_rows[-1] < len(mmat)
    # an exactly singular row (a zero row and column) makes the stacked
    # inverse fail: every row takes the SVD test
    singular = mmat.copy()
    singular[3, -1, :] = singular[3, :, -1] = 0.0
    monkeypatch.setattr(np.linalg, "svd", svd)
    want = svd_test(singular)
    assert want[3]
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert np.array_equal(solver._ill_conditioned(singular), want)
    assert svd_rows[-1] == len(mmat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lockstep_sweep_drops_a_singular_row_alone(monkeypatch):
    # make the shifted matrix of one restart at sweep step 3 singular: the
    # stacked solve then fails as a whole, and only that row may leave
    solve, matrices = np.linalg.solve, []

    def recording_solve(a, b):
        matrices.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    cf = canonicalize(*c3_chain3()[:2])
    solver._best_of_restarts(cf, 1j, C3_CFG)
    singular = matrices[3][5].tobytes()

    def singular_solve(a, b):
        if any(m.tobytes() == singular for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_solve)
    lockstep, alone, reference = lockstep_and_alone(monkeypatch, *c3_chain3(), C3_CFG)
    assert_same_restarts(lockstep, alone, reference)
    assert len(lockstep[5][0].trace) == 3
    assert sum(len(row.trace) > 3 for row, _ in lockstep) >= 6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["c3", "backs_psi_off", "singular_row", "cli_line4"])
def test_sweep_block_of_candidates_matches_each_alone(monkeypatch, case):
    # three complex candidates of C3's trial 3 in one block: rows of every
    # candidate leave before the 15 steps, so the row -> candidate index is
    # filtered mid-block. A condition limit of 1e6 backs psi off on some
    # rows; a singular shifted matrix of the first candidate at step 3 drops
    # its row in the per-row fallback of the stacked solve. Three real
    # candidates of the CLI pool's 4-node line: rows of every candidate
    # leave early, at different steps
    if case == "cli_line4":
        net, mask, lam = cli_line4()
        cfg, lams = SolverConfig(), (lam, -0.1 + 0j, 0.5 + 0j)
    else:
        net, mask, lam = c3_chain3()
        cfg, lams = C3_CFG, (lam, 0.5 + 0.8j, 1.2j)
    cf = canonicalize(net, mask)
    if case == "backs_psi_off":
        monkeypatch.setattr(solver, "_COND_LIMIT", 1e6)
    cands = [solver._candidate(cf, lam, cfg) for lam in lams]
    if case == "singular_row":
        solve, matrices = np.linalg.solve, []

        def recording_solve(a, b):
            matrices.append(a.copy())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        solver._sweep([cands[0].asm], [cands[0].starts], cfg)
        singular = matrices[3][5].tobytes()

        def singular_solve(a, b):
            if any(m.tobytes() == singular for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_solve)
    block = solver._sweep([c.asm for c in cands], [c.starts for c in cands], cfg)
    alone = [row for c in cands for row in solver._sweep([c.asm], [c.starts], cfg)]
    assert len(block) == len(alone) == 3 * cfg.restarts
    for row, row1 in zip(block, alone):
        assert raw(row.init) == raw(row1.init)
        assert [raw(u) for u in row.trace] == [raw(u) for u in row1.trace]
        assert raw(row.best) == raw(row1.best)
        assert row.phi_plus_mu == row1.phi_plus_mu
    for k in range(len(cands)):
        rows = block[k * cfg.restarts:(k + 1) * cfg.restarts]
        assert any(len(row.trace) < cfg.sweep_iters for row in rows)
        if case == "cli_line4":
            assert_rows_stop_early(rows, cands[k].asm, cfg, 1)
    if case == "cli_line4":
        lengths = {len(row.trace) for row in block}
        assert len(lengths) >= 4 and cfg.sweep_iters in lengths
    if case == "singular_row":
        assert any(len(row.trace) == 3 for row in block[:cfg.restarts])


# ---------------------------------------------------------------------------
# ranked reconstruction


def reconstruct_every_restart(cf, cand, sweeps, cfg):
    """solver._polish_restarts without the ranking: every restart's triples
    are reconstructed in turn until one passes or the restart fails, and the
    winner is picked in restart order, a cost below the incumbent's by more
    than 1e-15 taking its place."""
    best, failures = None, []
    for r, sweep in enumerate(sweeps):
        restart = solver._Restart.start(cf, sweep, cand.asm, cfg.seed * 1009 + r,
                                        cfg.keep_delta_trace)
        res = solver.heuristic_iterate(restart)
        # a triple rejected as spurious sends the restart on to its next seed
        while res.converged and res.reconstruction is None:
            res = restart.settle(cf, cfg.conv_tol)
        if not res.converged:
            failures.append(res.failure)
        elif best is None or res.cost < best.cost - 1e-15:
            best = res
    if best is None:
        return solver.FixedLambdaResult(
            lam=cand.asm.rp.lam, converged=False,
            failure="all restarts failed: " + "; ".join(sorted(set(failures))))
    return best


RANKED_CASES = {
    # the C7 ensemble's 5-node line on the "topo" grid, lambda descent included
    "line5": lambda: solve_radius(*sample_network("line", 5, 4040, 0)[:2], "topo",
                                  ENSEMBLE_CFG),
    # C3's chain 0 at lambda = i, 12 restarts
    "c3_chain0": lambda: solve_fixed_lambda(*sample_network("line", 3, 7, 0)[:2], 1j,
                                            C3_CFG),
    # a real candidate of the C7 ensemble's 6-node line (the half-size route)
    "line6": lambda: solve_fixed_lambda(*line6_candidate(4), ENSEMBLE_CFG),
}


def solve_both_ways(mp, case, reconstruct=None):
    """RANKED_CASES[case] solved by solver._polish_restarts and by
    reconstruct_every_restart, reconstruct_perturbation replaced by
    reconstruct when given. Returns, per way, the result and the number of
    reconstructions each polished candidate took (with whether it converged)."""
    out = []
    polish = solver._polish_restarts
    for way in (polish, reconstruct_every_restart):
        calls, per_candidate = [], []
        inner = reconstruct or solver.reconstruct_perturbation

        def counting(*args):
            calls.append(args)
            return inner(*args)

        def polish_counted(*args):
            before = len(calls)
            res = way(*args)
            per_candidate.append((len(calls) - before, res.converged))
            return res

        with mp.context() as m:
            m.setattr(solver, "reconstruct_perturbation", counting)
            m.setattr(solver, "_polish_restarts", polish_counted)
            out.append((RANKED_CASES[case](), per_candidate))
    return out


def assert_same_winner(got, want):
    if hasattr(got, "best"):  # a RadiusResult
        assert got.lambda_star == want.lambda_star
        assert got.search_trace == want.search_trace
        assert (got.pruned, got.refine_evals) == (want.pruned, want.refine_evals)
        got, want = got.best, want.best
    assert got.converged == want.converged
    assert got.failure == want.failure
    assert got.cost == want.cost
    assert raw(got.perturbation and got.perturbation.delta) == \
        raw(want.perturbation and want.perturbation.delta)
    assert got.iterations == want.iterations
    assert got.history == want.history


@pytest.mark.parametrize("case", ["line5", "c3_chain0"])
def test_ranked_reconstruction_matches_reconstructing_every_restart(monkeypatch, case):
    (ranked, counts), (reference, ref_counts) = solve_both_ways(monkeypatch, case)
    assert (ranked.best if hasattr(ranked, "best") else ranked).converged
    assert_same_winner(ranked, reference)
    # one reconstruction per polished candidate, where every converged
    # restart took one before
    assert [ok for _, ok in counts] == [ok for _, ok in ref_counts]
    assert all(n == 1 for n, ok in counts if ok)
    assert sum(n for n, _ in ref_counts) > sum(n for n, _ in counts)


def test_rank_key_is_the_reconstructed_cost_bit_for_bit(monkeypatch):
    # the ranking's cost of a triple is the cost its reconstruction gives, to
    # the last bit, so ties are broken as if every restart were reconstructed
    pairs = []
    reconstruct = solver.reconstruct_perturbation

    def recording(rp, t, cf):
        rec = reconstruct(rp, t, cf)
        pairs.append((solver._triple_cost(rp, t), rec.perturbation.frob_norm))
        return rec

    monkeypatch.setattr(solver, "_polish_restarts", reconstruct_every_restart)
    monkeypatch.setattr(solver, "reconstruct_perturbation", recording)
    for topo in ("line", "star"):
        solve_radius(*sample_network(topo, 6, 4040, 0)[:2], "topo", ENSEMBLE_CFG)
    for trial in range(4):
        solve_fixed_lambda(*sample_network("line", 3, 7, trial)[:2], 1j, C3_CFG)
    assert len(pairs) >= 100
    assert all(key == cost for key, cost in pairs)


def triple_bytes(t):
    return (t.sigma, raw(t.x), raw(t.y))


@pytest.mark.parametrize("case", ["c3_chain0", "line6"])
def test_a_rejected_top_triple_hands_over(monkeypatch, case):
    # the top-ranked triple is rejected as spurious: the solve goes on to the
    # next-ranked triple, or that restart's next seed, and lands where
    # reconstructing every restart with the same rejection lands
    rejected = []
    reconstruct = solver.reconstruct_perturbation

    def reject_the_first(rp, t, cf):
        if not rejected or triple_bytes(t) == rejected[0]:
            rejected.append(triple_bytes(t))
            raise solver.SpuriousTripleError("forced")
        return reconstruct(rp, t, cf)

    (ranked, counts), (reference, _) = solve_both_ways(monkeypatch, case,
                                                       reject_the_first)
    assert ranked.converged and ranked.verification.verified
    assert triple_bytes(ranked.triple) != rejected[0]
    assert counts[0][0] >= 2
    assert len(rejected) == 2  # once each way
    assert_same_winner(ranked, reference)


@pytest.mark.parametrize("kind", ["spurious", "residual"])
@pytest.mark.parametrize("case", ["c3_chain0", "line6"])
def test_every_triple_rejected_fails_the_solve(monkeypatch, case, kind):
    # a spurious triple sends its restart on to its next seed, and a triple
    # that fails the residual test fails its restart: both ways take the
    # same reconstructions and give the same failure
    reconstruct = solver.reconstruct_perturbation

    def reject(rp, t, cf):
        if kind == "spurious":
            raise solver.SpuriousTripleError("forced")
        return replace(reconstruct(rp, t, cf), r_stat=1.0)

    (ranked, counts), (reference, ref_counts) = solve_both_ways(monkeypatch, case, reject)
    assert not ranked.converged
    assert ranked.failure == ("all restarts failed: spurious stationary point: forced"
                              if kind == "spurious" else
                              "all restarts failed: pencil residual 7.071e-01 above tolerance")
    assert counts == ref_counts
    assert_same_winner(ranked, reference)


# ---------------------------------------------------------------------------
# lambda search


def test_candidate_grids():
    net, mask, _ = sample_network("line", 5, 41, 0)
    topo = candidate_lambdas(net, mask, "topo")
    assert all(l.imag >= 0 for l in topo)
    assert len(topo) == len(set(topo))
    assert set(topo) <= set(candidate_lambdas(net, mask, "default"))
    explicit = candidate_lambdas(net, mask, [0.5, 0.5 - 0.25j])
    assert explicit == (0.5 + 0.0j, 0.5 + 0.25j)  # folded to upper half plane
    with pytest.raises(ValueError):
        candidate_lambdas(net, mask, "rect:bad")
    with pytest.raises(ValueError):
        candidate_lambdas(net, mask, [])
    with pytest.raises(ValueError):
        candidate_lambdas(net, mask, "nope")


def test_topo_grid_holds_every_star_symmetry_optimum():
    # C7's star generator (seed 4041): where star_radius pulls two leaf
    # self-loops to their mean, that mean is a "topo" candidate, although
    # the grid holds only the means of neighbours in sorted order
    symmetric = 0
    for n in range(4, 9):
        for trial in range(8):
            net, mask, _ = sample_network("star", n, 4041, trial)
            ora = star_radius(net.weights)
            if ora.branch != "symmetry-creation":
                continue
            symmetric += 1
            topo = np.array(candidate_lambdas(net, mask, "topo"))
            assert np.abs(topo - ora.lambda_star).min() <= 1e-12, (n, trial)
    assert symmetric >= 10


def test_topo_grid_size():
    # the eigenvalues of the m trailing submatrices, at most m(m + 1)/2, and
    # the m - 1 means of neighbouring diagonal entries, every one of them
    cases = [sample_network(topo, n, 4040, 0)[:2]
             for topo in ("line", "star") for n in range(4, 9)]
    cases += [net_of(a) for a in RECTANGLE_GRAPHS]
    cases.append(net_of(from_entries(5, RANDOM_5_7)))
    for net, mask in cases:
        m = len(net.free)
        topo = np.array(candidate_lambdas(net, mask, "topo"))
        assert len(topo) <= m * (m + 1) // 2 + m - 1
        diag = np.sort(np.diag(net.weights)[net.free])
        for mean in (diag[:-1] + diag[1:]) / 2.0:
            assert np.abs(topo - mean).min() <= 1e-9
        assert set(topo) <= set(candidate_lambdas(net, mask, "default"))


def test_topo_grid_with_one_free_node_adds_no_means():
    net, mask = net_of([[0.5, 0.3], [0.2, 0.9]])
    assert candidate_lambdas(net, mask, "topo") == (0.9 + 0.0j,)


def test_topo_grid_deduplicates_a_repeated_diagonal_value():
    # two free nodes share the self-loop 0.4: their mean is that value, as
    # is the eigenvalue of the last 1 x 1 trailing submatrix; it appears once
    a = line_matrix([0.5, 0.4, 0.7, 0.4], [0.6, 0.8, 0.9], [0.3, 0.5, 0.2])
    net, mask = net_of(a)
    topo = np.array(candidate_lambdas(net, mask, "topo"))
    assert np.count_nonzero(np.abs(topo - 0.4) <= 1e-9) == 1
    assert np.count_nonzero(np.abs(topo - (0.4 + 0.7) / 2.0) <= 1e-9) == 1
    assert all(abs(b - a) > 1e-9 for a, b in zip(topo, topo[1:]))
    assert set(topo) <= set(candidate_lambdas(net, mask, "default"))


def test_default_grid_finds_the_star_optima():
    # C7's star generator (seed 4041): without the means of the diagonal
    # entries, the default grid overshot star_radius on (n, trial) = (5, 4),
    # (6, 0), (7, 1) and (8, 4), by 0.9% to 11.6%
    for n in range(4, 9):
        for trial in range(8):
            net, mask, _ = sample_network("star", n, 4041, trial)
            rr = solve_radius(net, mask, "default", SolverConfig())
            assert rr.best.converged, (n, trial)
            assert rr.cost == pytest.approx(star_radius(net.weights).delta,
                                            rel=1e-4), (n, trial)


# perfbench.workloads.random_sparse(8, 1) and (5, 3): sparse random graphs
# whose optimum sits at a negative real lambda (-0.1178 and -0.1598) that
# only the default grid's real segment on [-2, 2] reaches. The "topo" grid
# returns the cheapest single-edge cut there, 0.18537 and 0.15614.
RECTANGLE_GRAPHS = [
    [[0.3848791126673835, 0.0, 0.6787285378586676, 0.3718653937112826, 0.0, 0.0, 0.0, 0.0],
     [0.7323854999832594, 0.5043109211449907, 0.5497963041939613, 0.0, 0.17521907238791334, 0.38252702404038075, 0.7219176493952201, 0.0],
     [0.0, 0.6900678032951408, 0.46453167117654204, 0.8742210935351404, 0.0, 0.0, 0.0, 0.0],
     [0.0, 0.8057235818348285, 0.0, 0.2225072017509977, 0.0, 0.5716062220556649, 0.0, 0.0],
     [0.29074070678318786, 0.0, 0.0, 0.0, 0.5360163042635753, 0.8293405228421208, 0.5055580724757186, 0.0],
     [0.0, 0.0, 0.19353636346019898, 0.0, 0.0, 0.9162164326588572, 0.0, 0.18537036488711578],
     [0.0, 0.0, 0.0, 0.0, 0.9655624770113932, 0.0, 0.949419858518582, 0.0],
     [0.0, 0.0, 0.5492036547222132, 0.3274509534886989, 0.0, 0.6655905904098901, 0.0, 0.3141632821339918]],
    [[0.6382542709124965, 0.0, 0.20618433385947377, 0.0, 0.0],
     [0.5166898767104239, 0.2507935055677428, 0.9732641927539101, 0.0, 0.38170398485456203],
     [0.6451460749099084, 0.9887484016290731, 0.529303075119165, 0.15613843414052853, 0.8960753767103953],
     [0.0, 0.8265615855475409, 0.4257178760828795, 0.7287086411743471, 0.44060875562249135],
     [0.3058426353541114, 0.9481725774172665, 0.0, 0.0, 0.7353569857052163]],
]


@pytest.mark.parametrize("a", RECTANGLE_GRAPHS, ids=["n8", "n5"])
def test_default_grid_beats_the_cheapest_cut_off_the_topo_grid(a):
    net, mask = net_of(a)
    rr = solve_radius(net, mask, "default", SolverConfig(restarts=4, sweep_iters=12))
    assert rr.best.converged
    assert rr.best.verification.verified
    assert rr.cost < 0.6 * min_deletion_cost(net, mask, 1)[0]


def test_radius_line_matches_min_superdiagonal():
    net, mask, _ = sample_network("line", 5, 43, 1)
    rr, gap = properties.oracle_radius_gap(net, mask, "line",
                                           SolverConfig(seed=4, restarts=4))
    assert rr.best.converged
    assert gap <= 1e-4
    assert rr.cost >= line_radius(net.weights).delta - 1e-6


def test_radius_star_matches_oracle():
    net, mask, _ = sample_network("star", 5, 47, 2)
    rr, gap = properties.oracle_radius_gap(net, mask, "star",
                                           SolverConfig(seed=6, restarts=4))
    assert rr.best.converged
    assert gap <= 1e-4


def test_a_handed_off_row_polishes_to_the_star_closed_form():
    # C7's star(5, trial 79): a restart that swept on to a stationary iterate
    # was accepted there without a polish step (||F||_inf = 9.5e-13 against
    # the absolute 1e-12) and won at 2.0e-9 relative below star_radius. The
    # row now reaches the polish's basin after 7 steps, and one
    # Gauss-Newton step takes it to the closed form
    net, mask, _ = sample_network("star", 5, 4041, 79)
    rr = solve_radius(net, mask, "topo", STAR_CFG)
    assert len(rr.best.iterates.sweep) == 7
    assert rr.cost == pytest.approx(star_radius(net.weights).delta, rel=1e-12, abs=0.0)


def test_radius_grid_containing_true_lambda():
    net, mask, _ = sample_network("line", 4, 53, 0)
    ora = line_radius(net.weights)
    rr = solve_radius(net, mask, [ora.lambda_star],
                      SolverConfig(seed=8, restarts=6))
    assert rr.best.converged
    assert abs(rr.cost - ora.delta) < 1e-6


def test_radius_verifies_only_its_answer(monkeypatch):
    calls = []
    verify = solver.verify_unobservability

    def counting_verify(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(solver, "verify_unobservability", counting_verify)
    net, mask, _ = sample_network("line", 5, 59, 3)
    rr = solve_radius(net, mask, "topo", SolverConfig(seed=10, restarts=3))
    assert rr.best.converged and rr.best.verification.verified
    assert len(rr.search_trace) > 1
    assert len(calls) == 1 and calls[0][1] is rr.best.perturbation
    calls.clear()
    res = solve_fixed_lambda(net, mask, rr.lambda_star, SolverConfig(seed=10, restarts=3))
    assert res.verification.verified and len(calls) == 1


def test_radius_search_trace_records_bound_pruning():
    net, mask, _ = sample_network("line", 5, 59, 3)
    rr = solve_radius(net, mask, "topo", SolverConfig(seed=10, restarts=3))
    assert rr.best.converged
    evaluated = [c for _, c in rr.search_trace if np.isfinite(c)]
    assert len(evaluated) >= 1
    assert min(evaluated) == pytest.approx(rr.best.cost, rel=1e-9)
    assert rr.pruned >= 0


def radius_recorded(net, mask, grid, cfg):
    """solve_radius with its sweep rows and polished restarts recorded:
    (result, every row _sweep returned, (lambda, row) per heuristic_iterate
    call)."""
    swept, polished = [], []
    sweep, iterate = solver._sweep, solver.heuristic_iterate

    def recording_sweep(*args):
        out = sweep(*args)
        swept.extend(out)
        return out

    def recording_iterate(restart, *args):
        polished.append((restart.pencil.rp.lam, restart.sweep))
        return iterate(restart, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_sweep", recording_sweep)
        mp.setattr(solver, "heuristic_iterate", recording_iterate)
        rr = solve_radius(net, mask, grid, cfg)
    return rr, swept, polished


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_candidate_blocks_match_one_candidate_at_a_time(monkeypatch):
    cases = [
        # the C7 ensemble's 5-node line: 13 candidates, 10 solved; with 64
        # rows a block sweeps some candidates that are then pruned
        ("ensemble_line5", sample_network("line", 5, 4040, 0)[:2], "topo",
         SolverConfig(restarts=4, sweep_iters=12, seed=4040)),
        # perfbench.workloads.random_sparse(5, 7): 12 candidates solved, the
        # first of them complex, so both routes are swept; the winner is
        # complex, and the lambda descent moves it in both coordinates
        ("random5", net_of(from_entries(5, RANDOM_5_7)), "default", SolverConfig()),
        # RECTANGLE_GRAPHS' 5-node graph: one sweep-ahead block holds real
        # and complex candidates, so it is split by route
        ("rectangle_n5", net_of(RECTANGLE_GRAPHS[1]), "default", SolverConfig()),
    ]
    for name, (net, mask), grid, cfg in cases:
        blocks, swept, polished = radius_recorded(net, mask, grid, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_BLOCK_ROWS", cfg.restarts)
            alone, swept1, polished1 = radius_recorded(net, mask, grid, cfg)
        assert blocks.best.converged, name
        assert blocks.cost == alone.cost
        assert blocks.lambda_star == alone.lambda_star
        assert raw(blocks.best.perturbation.delta) == raw(alone.best.perturbation.delta)
        assert blocks.best.iterations == alone.best.iterations
        assert blocks.best.history == alone.best.history
        assert blocks.search_trace == alone.search_trace
        assert blocks.pruned == alone.pruned
        assert blocks.refine_evals == alone.refine_evals
        lams = [lam for lam, _ in polished]
        assert lams == [lam for lam, _ in polished1]
        # one candidate per block sweeps only what it polishes
        assert {id(row) for row in swept1} == {id(row) for _, row in polished1}

        # the polished candidates are a prefix of the bound order
        cands = candidate_lambdas(net, mask, grid)
        order = [lam for lam, _ in sorted(zip(cands, solver._pbh_lower_bounds(net, cands)),
                                          key=lambda t: (t[1], t[0].real, t[0].imag))]
        solved = list(dict.fromkeys(lams))
        assert solved == order[:len(solved)]
        assert len(lams) == cfg.restarts * len(solved)
        if name == "ensemble_line5":
            # whole candidates are swept ahead and dropped unpolished
            unpolished = {id(row) for row in swept} - {id(row) for _, row in polished}
            assert unpolished and len(unpolished) % cfg.restarts == 0
        else:
            assert any(lam.imag for lam in solved) and not all(lam.imag for lam in solved)


def continue_triple(cf, lam, t, cfg):
    """The triple t continued to lam (solver._continuation) and settled:
    reconstructed and held to cfg.conv_tol, or failed."""
    asm = solver._assembly(build_reduced(cf, lam), cfg)
    return solver._continuation(asm, t, cfg).settle(cf, cfg.conv_tol)


def test_lambda_gradient_matches_central_difference():
    # the lambda descent in solve_radius steps and stops on this identity:
    # d||Delta||^2/dRe(lam) = -2 sigma c_re, d||Delta||^2/dIm(lam) = +2 sigma c_im
    cfg = SolverConfig(seed=1, restarts=4)
    h = 1e-5
    checked = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 1.0, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.7)
        np.fill_diagonal(a, rng.uniform(0.1, 1.0, size=5))
        net, mask = net_of(a)
        lam = complex(rng.uniform(-0.5, 1.0), rng.uniform(0.2, 0.8))
        res = solve_fixed_lambda(net, mask, lam, cfg)
        assert res.converged
        cf = canonicalize(net, mask)
        t = res.triple
        c_re, c_im = orthogonality_diagnostic(build_reduced(cf, lam), t)
        grad = (-2.0 * t.sigma * c_re, 2.0 * t.sigma * c_im)
        for d, g in ((h, grad[0]), (1j * h, grad[1])):
            plus = continue_triple(cf, lam + d, t, cfg)
            minus = continue_triple(cf, lam - d, t, cfg)
            fd = (plus.cost ** 2 - minus.cost ** 2) / (2 * h)
            assert fd == pytest.approx(g, rel=1e-5, abs=1e-8)
        assert np.hypot(*grad) > 1e-2  # a nontrivial check, not 0 == 0
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("route", ["real", "complex"])
def test_continuation_at_own_lambda_keeps_cost(route):
    # continuing a converged triple to its own lambda is a polish from a
    # stationary point: the same acceptance step must hand back the same cost
    net, mask, _ = sample_network("line", 4, 42, 1)
    lam = complex(np.diag(net.weights)[-1], 0.0) if route == "real" else 0.3 + 0.5j
    cfg = SolverConfig(seed=42, restarts=4, sweep_iters=12)
    res = solve_fixed_lambda(net, mask, lam, cfg)
    assert res.converged
    cf = canonicalize(net, mask)
    cont = continue_triple(cf, lam, res.triple, cfg)
    assert cont is not None and cont.converged
    assert cont.lam == lam
    assert cont.cost == pytest.approx(res.cost, rel=1e-12)


@pytest.mark.parametrize("topology,seed,trial", [("line", 4040, 0),
                                                 ("star", 4041, 1)])
def test_refinement_skipped_at_lambda_stationary_winner(
        monkeypatch, topology, seed, trial):
    # C7 instances: the topo-grid winner is the oracle's eigenvalue, where
    # the lambda-gradient vanishes, so the lambda descent spends no probe
    def no_probe(*args):
        raise AssertionError("the lambda descent probed a stationary winner")

    monkeypatch.setattr(solver, "_continuation", no_probe)
    net, mask, _ = sample_network(topology, 5, seed, trial)
    ora = (line_radius if topology == "line" else star_radius)(net.weights)
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    rr = solve_radius(net, mask, "topo", cfg)
    assert rr.best.converged
    assert rr.refine_evals == 0
    assert abs(rr.cost - ora.delta) < 1e-9


def test_refinement_runs_and_lowers_cost_off_stationary_lambda(monkeypatch):
    # a one-point grid beside the optimum: the gradient there is nonzero and
    # the lambda descent walks back to the oracle's eigenvalue
    net, mask, _ = sample_network("line", 5, 4040, 0)
    ora = line_radius(net.weights)
    lam0 = ora.lambda_star + 0.05
    probes = []
    cont = solver._continuation

    def recording(asm, t_prev, cfg):
        probes.append((t_prev, asm.rp.lam))
        return cont(asm, t_prev, cfg)

    monkeypatch.setattr(solver, "_continuation", recording)
    rr = solve_radius(net, mask, [lam0],
                      SolverConfig(restarts=4, sweep_iters=12, seed=4040))
    # the incumbent is real, so the descent stays on the real axis; no
    # lambda is probed twice from the same incumbent triple (the list holds
    # every triple, so no id is reused)
    assert len(probes) == rr.refine_evals
    assert len({(id(t), lam) for t, lam in probes}) == len(probes)
    grid_cost = rr.search_trace[0][1]
    assert rr.search_trace[0][0] == lam0
    assert rr.refine_evals > 0
    assert rr.cost < grid_cost - 1e-3
    assert rr.cost >= ora.delta - 1e-9
    assert rr.cost == pytest.approx(ora.delta, abs=1e-6)


def from_entries(n, entries):
    """The n x n matrix with the {(row, col): weight} entries, zero elsewhere."""
    a = np.zeros((n, n))
    for (i, j), w in entries.items():
        a[i, j] = w
    return a


# perfbench.workloads.random_sparse(n, seed) as {(row, col): weight}
RANDOM_5_7 = {
    (0, 0): 0.3280524273204354, (0, 3): 0.4600394234996644, (0, 4): 0.4105703205637019,
    (1, 1): 0.3215858003740858, (1, 3): 0.5195425378079709, (2, 0): 0.9186678649490221,
    (2, 2): 0.49515185030547637, (2, 4): 0.8214243511147936, (3, 0): 0.8837855182053062,
    (3, 1): 0.9566863198002332, (3, 2): 0.6314204021440919, (3, 3): 0.3563152921824574,
    (3, 4): 0.30497180431315696, (4, 0): 0.36828768690927727, (4, 1): 0.0727373487647408,
    (4, 4): 0.6722602231600852}
RANDOM_10_15 = {
    (0, 0): 0.8382674055978878, (0, 1): 0.8381767707450666, (0, 3): 0.24701156631646992,
    (0, 4): 0.8268304055823289, (1, 1): 0.7764568207580675, (1, 5): 0.20072461447878032,
    (2, 2): 0.9323934314231315, (2, 4): 0.791888794773107, (3, 3): 0.9090129155362516,
    (3, 6): 0.7896904537681662, (4, 4): 0.34843577808178283, (5, 4): 0.6198215671330062,
    (5, 5): 0.2902665997806577, (5, 6): 0.2807344882193987, (5, 8): 0.12139914867679258,
    (6, 5): 0.7194168348689338, (6, 6): 0.4743151068775453, (6, 7): 0.6349314853198883,
    (7, 0): 0.8806542411822047, (7, 7): 0.2352981685767338, (7, 9): 0.9004629825798856,
    (8, 2): 0.8356857201299946, (8, 8): 0.0672196430278783, (9, 2): 0.09450769103585666,
    (9, 7): 0.21709659683100413, (9, 9): 0.2374275298129107}
RANDOM_6_4 = {
    (0, 0): 0.03531373960190243, (0, 2): 0.7143177570748067, (0, 3): 0.42420198943722853,
    (0, 5): 0.6497810307730831, (1, 0): 0.5861813399454989, (1, 1): 0.11309450265391441,
    (1, 2): 0.18152199285683834, (1, 3): 0.11363029310882777, (1, 5): 0.4782094235676757,
    (2, 1): 0.7637097097452387, (2, 2): 0.6281855282768471, (2, 3): 0.9504286070121262,
    (2, 4): 0.577456208446713, (3, 3): 0.5841413209192869, (3, 4): 0.4671851097656905,
    (4, 3): 0.008021112743214043, (4, 4): 0.5454782256951665, (5, 1): 0.07876076895081285,
    (5, 2): 0.5722444860854555, (5, 5): 0.7378598987000398}
RANDOM_12_10 = {
    (0, 0): 0.3379139798475823, (0, 2): 0.831220419993463, (0, 8): 0.8080751952427954,
    (0, 11): 0.7174402490851536, (1, 0): 0.512082874210049, (1, 1): 0.8654064422825204,
    (1, 2): 0.46414067937974457, (1, 9): 0.9831448209057568, (1, 11): 0.023409407479765942,
    (2, 2): 0.6223205628814058, (2, 4): 0.4282786126247915, (2, 8): 0.898209554222929,
    (2, 10): 0.7516466069761315, (3, 3): 0.49488722708787103, (3, 9): 0.4331930263673688,
    (4, 4): 0.14960399888878806, (4, 7): 0.047407091076477004, (4, 11): 0.6107390251674926,
    (5, 2): 0.12609430250151232, (5, 5): 0.11557894775271216, (6, 5): 0.40279819092476954,
    (6, 6): 0.49544071071918394, (7, 7): 0.38553100410882524, (7, 9): 0.5369919185288035,
    (7, 11): 0.4529718398979027, (8, 0): 0.978607627060848, (8, 1): 0.6936136961930982,
    (8, 3): 0.8871403950383299, (8, 4): 0.8471474113680372, (8, 6): 0.5428027184956594,
    (8, 8): 0.8783781442561439, (9, 3): 0.2054383630015958, (9, 9): 0.34030383671923414,
    (10, 9): 0.9894433942888656, (10, 10): 0.5365864622365619, (11, 11): 0.8726951955982439}


@pytest.mark.parametrize("n,entries,scale,radius", [
    (10, RANDOM_10_15, 0.5, 0.5 * 0.018061764376),
    (10, RANDOM_10_15, 1.0, 0.018061764376),
    (10, RANDOM_10_15, 2.0, 2.0 * 0.018061764376),
    (6, RANDOM_6_4, 1.0, 0.000388041139),
    (12, RANDOM_12_10, 1.0, 0.004986570422),
], ids=["n10_x0.5", "n10", "n10_x2", "n6", "n12"])
def test_lambda_descent_reaches_the_minimum(n, entries, scale, radius):
    # the minima of ||Delta(lambda)|| lie a long walk in lambda from the grid
    # winner, so a search that stops on a step count rather than on the
    # gradient returns a radius 26% to 73% too high, and every other check
    # passes. The scaled copies of one graph must reach the scaled radius.
    net, mask = net_of(scale * from_entries(n, entries))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and rr.best.verification.verified
    assert rr.refine_evals > 0
    assert rr.cost <= radius * (1.0 + 1e-6)


def settled(asm, cf, t, cfg):
    """The triple t on the assembly asm reconstructed and held to
    cfg.conv_tol, as solver._Restart.settle does it for a pending triple."""
    pending = solver.FixedLambdaResult(lam=asm.rp.lam, converged=True, triple=t)
    restart = solver._Restart(_Sweep(), asm, [], False, result=pending)
    return restart.settle(cf, cfg.conv_tol)


def test_lambda_descent_reconstructs_only_the_probes_that_win(monkeypatch):
    # each converged probe is ranked by its triple's cost; only one that
    # beats the incumbent by more than 1e-12 is reconstructed, and one that
    # loses enters search_trace with the cost its reconstruction would give
    probes, reconstructed = [], []
    restarts = []  # every probe's _Restart
    cont, settle = solver._continuation, solver._Restart.settle

    def continued(asm, t_prev, cfg):
        restart = cont(asm, t_prev, cfg)
        restarts.append(restart)
        if restart.result.converged:
            probes.append((asm, restart.result.triple))
        return restart

    def reconstructing(restart, cf, conv_tol):
        if any(restart is r for r in restarts):
            reconstructed.append(restart.pencil.rp.lam)
        return settle(restart, cf, conv_tol)

    monkeypatch.setattr(solver, "_continuation", continued)
    monkeypatch.setattr(solver._Restart, "settle", reconstructing)
    net, mask = net_of(from_entries(5, RANDOM_5_7))
    cfg = SolverConfig()
    rr = solve_radius(net, mask, "default", cfg)
    assert rr.best.converged and len(probes) == rr.refine_evals
    grid, descent = rr.search_trace[:-len(probes)], rr.search_trace[-len(probes):]
    cf = canonicalize(net, mask)
    incumbent, wins = min(cost for _, cost in grid), []
    for (asm, t), (lam, cost) in zip(probes, descent):
        assert lam == asm.rp.lam
        res = settled(asm, cf, t, cfg)
        assert res.converged and res.cost == cost
        if cost < incumbent - 1e-12:
            incumbent = cost
            wins.append(lam)
    assert reconstructed == wins
    assert 0 < len(wins) < len(probes)
    assert rr.cost == incumbent


def test_a_descent_winner_carries_its_continuation_iterates():
    # the lambda descent moves this graph's grid winner; the probe it accepts
    # is a restart with no sweep, and its iterates are its one polish
    net, mask = net_of(from_entries(5, RANDOM_5_7))
    rr = solve_radius(net, mask, "default", SolverConfig(keep_delta_trace=True))
    assert rr.best.converged and rr.refine_evals > 0
    grid = [lam for lam, _ in rr.search_trace[:-rr.refine_evals]]
    assert rr.lambda_star not in grid
    best = rr.best
    assert best.iterates.sweep == ()
    assert best.polish_start == 0
    assert best.history[-1] == 0.0
    assert len(best.delta_trace) == len(best.history) > 1


def test_a_descent_probe_rejected_as_spurious_halves_the_step(monkeypatch):
    # the first probe that beats the incumbent is rejected as spurious when it
    # is reconstructed: it has no seed left, so it fails without another
    # polish, the step halves from the same incumbent, and the solve goes on
    events, waves, rejected = [], [], []
    cont, direction = solver._continuation, solver._descent_direction
    wave, reconstruct = solver._wave, solver.reconstruct_perturbation

    def continued(asm, t_prev, cfg):
        restart = cont(asm, t_prev, cfg)
        events.append(("probe", restart, t_prev))
        return restart

    def directing(rp, res):
        events.append(("incumbent", rp.lam, res.triple))
        return direction(rp, res)

    def recording_wave(block):
        waves.append(list(block))
        return wave(block)

    def rejecting(rp, t, cf):
        if not rejected and events and events[-1][0] == "probe" \
                and rp is events[-1][1].pencil.rp:
            rejected.append(events[-1][1])
            raise SpuriousTripleError("rejected for the test")
        return reconstruct(rp, t, cf)

    monkeypatch.setattr(solver, "_continuation", continued)
    monkeypatch.setattr(solver, "_descent_direction", directing)
    monkeypatch.setattr(solver, "_wave", recording_wave)
    monkeypatch.setattr(solver, "reconstruct_perturbation", rejecting)
    net, mask = net_of(from_entries(5, RANDOM_5_7))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and rr.best.verification.verified
    failed, = rejected
    assert failed.polished == 1 and not failed.result.converged
    assert failed.result.failure == "spurious stationary point: rejected for the test"
    assert sum(any(r is failed for r in block) for block in waves) == 1
    k = next(i for i, e in enumerate(events) if e[0] == "probe" and e[1] is failed)
    _, lam0, t0 = next(e for e in reversed(events[:k]) if e[0] == "incumbent")
    kind, after, t_after = events[k + 1]
    assert kind == "probe" and t_after is t0 and events[k][2] is t0
    step, half = failed.pencil.rp.lam - lam0, after.pencil.rp.lam - lam0
    assert half == pytest.approx(step / 2.0, rel=1e-9)
    assert rr.refine_evals == sum(e[0] == "probe" for e in events)


def test_one_solve_builds_a_tilde_once_per_reduced_problem(monkeypatch):
    # the assemblies, system_residual, reconstruct_perturbation and the
    # lambda descent all read ReducedProblem.a_tilde: it is built once per
    # reduced problem, however many reconstructions and descent steps read it
    built = []
    build = ReducedProblem.a_tilde.func

    def counting(rp):
        built.append(rp)
        return build(rp)

    # the property's own builder, counted; its caching is left as it is
    monkeypatch.setattr(ReducedProblem.a_tilde, "func", counting)
    # every read, counted by a property in front of the cached one
    reads, cached = [], ReducedProblem.a_tilde

    def reading(rp):
        reads.append(rp)
        return cached.__get__(rp, ReducedProblem)

    monkeypatch.setattr(ReducedProblem, "a_tilde", property(reading))
    reconstructions = []
    reconstruct = solver.reconstruct_perturbation

    def recording(rp, t, cf):
        reconstructions.append(rp)
        return reconstruct(rp, t, cf)

    monkeypatch.setattr(solver, "reconstruct_perturbation", recording)
    # the winner is complex and the descent moves it in both coordinates
    rr = solve_radius(*net_of(from_entries(5, RANDOM_5_7)), "default", SolverConfig())
    assert rr.best.converged and rr.refine_evals > 0
    assert len({id(rp) for rp in built}) == len(built)
    # every problem built is read by its assembly, and every problem
    # reconstructed at least three times (its assembly, and system_residual
    # and the cost identity of its reconstruction); descent probes that lose
    # to the incumbent are ranked, not reconstructed
    assert {id(rp) for rp in reconstructions} < {id(rp) for rp in built}
    counts = Counter(id(rp) for rp in reads)
    assert min(counts[id(rp)] for rp in built) >= 1
    assert min(counts[id(rp)] for rp in reconstructions) >= 3


def test_the_grid_winner_is_not_built_twice(monkeypatch):
    # the lambda descent starts from the reduced problem the winner's
    # assembly holds: no lambda of one solve is built twice
    built = []
    build = solver.build_reduced

    def counting(cf, lam):
        built.append(complex(lam))
        return build(cf, lam)

    monkeypatch.setattr(solver, "build_reduced", counting)
    net, mask = net_of(from_entries(5, RANDOM_5_7))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and rr.refine_evals > 0
    assert len(set(built)) == len(built)
    assert len(built) <= len(candidate_lambdas(net, mask, "default")) + rr.refine_evals


def sensed_anywhere(seed):
    """A random graph with n from 4 to 7 and one or two sensors anywhere,
    but not node 0 alone."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(4, 8))
        a = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        np.fill_diagonal(a, rng.uniform(0.1, 1.0, size=n))
        sensors = tuple(int(s) for s in
                        rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        if sensors != (0,):
            try:
                return net_of(a, sensors=sensors)
            except UnobservableSystemError:
                pass


@pytest.mark.parametrize("seed", range(10))
def test_radius_does_not_depend_on_where_the_sensors_sit(seed):
    # the input against its relabeling with the sensors first (in the order
    # given) and the other nodes in ascending order: the reduction reads the
    # columns free and the lambda-gradient the rows free wherever they sit,
    # and a random start's rows move with the nodes (graph 0 lands 15% higher
    # when they are drawn in node order)
    net, mask = sensed_anywhere(seed)
    order = list(net.sensors) + [i for i in range(net.n) if i not in net.sensors]
    moved, moved_mask = net_of(net.weights[np.ix_(order, order)],
                               sensors=range(len(net.sensors)))
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    rr = solve_radius(net, mask, "topo", cfg)
    ref = solve_radius(moved, moved_mask, "topo", cfg)
    assert rr.best.verification.verified and ref.best.verification.verified
    assert rr.cost == pytest.approx(ref.cost, rel=1e-9)
    assert rr.lambda_star == pytest.approx(ref.lambda_star, rel=1e-9)
    delta = rr.best.perturbation.delta[np.ix_(order, order)]
    assert np.abs(delta - ref.best.perturbation.delta).max() <= 1e-9 * ref.cost
