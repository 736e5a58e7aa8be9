import numpy as np
import pytest
import scipy.linalg as sla
from dataclasses import replace

from netobs import (SolverConfig, assemble_pencil, build_reduced,
                    candidate_lambdas, canonicalize, generalized_spectrum,
                    heuristic_iterate, line_radius, min_deletion_cost,
                    normalize_triple, orthogonality_diagnostic,
                    solve_fixed_lambda, solve_radius, star_radius)
from netobs import properties, solver
from netobs.montecarlo import sample_network
from netobs.radius_core import _delta_bar, assemble_real_pencil
from netobs.solver import _Sweep, _continue_triple, _qz, _stationarity_fj
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
    warm = heuristic_iterate(rp, cf, replace(cfg, force_full_pencil=True),
                             z0=np.concatenate([t.x, t.y]))
    assert warm.converged
    assert abs(warm.cost - half.cost) < 1e-10


def test_heuristic_iterate_from_given_start():
    net, mask, _ = sample_network("line", 3, 29, 0)
    cf = canonicalize(net, mask)
    rp = build_reduced(cf, 1j)
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal(2 * rp.m + 2 * rp.n)
    res = heuristic_iterate(rp, cf, SolverConfig(seed=0), z0=z0)
    if res.converged:
        assert res.sigma > 0
        assert res.polish_start <= len(res.history)


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
            deltas.append(cf.to_original(np.hstack([np.zeros((rp.n, rp.p)), di])))
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
    """Wrap solver._gn_core; every call appends a record of its residual
    and Jacobian evaluations, its return value and its inputs."""
    runs = []
    core = solver._gn_core

    def recording(f_of, j_of, u0, max_iter, tol):
        calls = {"f": 0, "j": 0}

        def f_counted(u):
            calls["f"] += 1
            return f_of(u)

        def j_counted(u):
            calls["j"] += 1
            return j_of(u)

        out = core(f_counted, j_counted, u0, max_iter, tol)
        runs.append(dict(residuals=calls["f"], jacobians=calls["j"], out=out,
                         f_of=f_of, j_of=j_of, u0=u0, max_iter=max_iter, tol=tol))
        return out

    mp.setattr(solver, "_gn_core", recording)
    return runs


def line6_candidate(index):
    net, mask, _ = sample_network("line", 6, 4040, 0)
    return net, mask, candidate_lambdas(net, mask, "topo")[index]


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
        return np.array([u[0] + 1.0, c * u[0] ** 2 + u[0] - 1.0])

    def j_of(u):
        return np.array([[1.0], [2.0 * c * u[0] + 1.0]])

    u, its, ok, us = solver._gn_core(f_of, j_of, np.array([1e-4]), 60, 1e-12)
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


def reference_sweep(asm, f_of, z0, cfg):
    """The sweep of one start as a loop over steps with one-vector numpy
    calls (@, np.linalg.norm, a solve per step): what every row of the
    lockstep block must reproduce bit for bit. Returns (init, trace, best,
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
        ok = (re > cfg.zero_tol * scale) & (np.abs(im) <= 1e-6 * scale)
        if not ok.any():
            break
        mp = float(re[ok].min())
        mu = psi * mp
        mmat = pp.h - mu * pp.d
        s = np.linalg.svd(mmat, compute_uv=False)
        if s[-1] == 0.0 or s[0] / s[-1] > cfg.cond_limit:
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
        merit = np.linalg.norm(f_of(u))
        if merit < best_merit:
            best_merit, best = merit, u
        z = zn
    return init, trace, best, phi_plus_mu


def lockstep_and_alone(monkeypatch, net, mask, lam, cfg):
    """(sweep row, result) of every restart: from _best_of_restarts, which
    sweeps its restarts in lockstep, and from heuristic_iterate run alone on
    each restart's start vector, drawn as a restart loop draws it; and the
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
    asm = solver.PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)
    f_of = _stationarity_fj(asm.a_tilde, rp.v_bar)[0]
    reference = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        z0 = solver._pbh_warm_start(cf, lam, asm, rng) if r == 0 else None
        if z0 is None:
            z0 = rng.standard_normal(asm.size)
        recording_iterate(rp, cf, replace(cfg, seed=cfg.seed * 1009 + r), z0=z0)
        reference.append(reference_sweep(asm, f_of, z0, cfg))
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
        if res.converged:
            assert [raw(u) for u in res.iterates.sweep] == \
                [raw(u) for u in res1.iterates.sweep]


def c3_chain3():
    # C3's trial 3: some restarts leave the sweep before its 15 steps
    net, mask, _ = sample_network("line", 3, 7, 3)
    return net, mask, 1j


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["c3_chain3", "ensemble_line"])
def test_lockstep_sweep_matches_one_start_at_a_time(monkeypatch, case):
    if case == "c3_chain3":
        (net, mask, lam), cfg = c3_chain3(), C3_CFG
    else:
        (net, mask, lam), cfg = line6_candidate(4), ENSEMBLE_CFG
        assert lam.imag == 0.0  # the half-size route
    lockstep, alone, reference = lockstep_and_alone(monkeypatch, net, mask, lam, cfg)
    assert_same_restarts(lockstep, alone, reference)
    steps = sum(len(row.trace) for row, _ in lockstep)
    if case == "c3_chain3":
        assert steps < cfg.restarts * cfg.sweep_iters
    assert sum(res.converged for _, res in lockstep) >= 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lockstep_sweep_backs_psi_off_row_by_row(monkeypatch):
    # with cond_limit = 1e6 the shift backs off on some rows of a step and
    # not on others; the stacked SVD's singular values show which
    cfg = replace(C3_CFG, cond_limit=1e6)
    svd, backed_off = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        s = svd(a, *args, **kwargs)
        if kwargs.get("compute_uv") is False and s.ndim == 2:
            backed_off.append(s[:, 0] / s[:, -1] > cfg.cond_limit)
        return s

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    lockstep, alone, reference = lockstep_and_alone(monkeypatch, *c3_chain3(), cfg)
    assert_same_restarts(lockstep, alone, reference)
    # the stacked SVDs of _best_of_restarts come first, one per step
    assert any(b.any() and not b.all() for b in backed_off[:cfg.sweep_iters])


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
@pytest.mark.parametrize("case", ["c3", "backs_psi_off", "singular_row"])
def test_sweep_block_of_candidates_matches_each_alone(monkeypatch, case):
    # three complex candidates of C3's trial 3 in one block: rows of every
    # candidate leave before the 15 steps, so the row -> candidate index is
    # filtered mid-block. cond_limit = 1e6 backs psi off on some rows; a
    # singular shifted matrix of the first candidate at step 3 drops its row
    # in the per-row fallback of the stacked solve
    net, mask, lam = c3_chain3()
    cf = canonicalize(net, mask)
    cfg = replace(C3_CFG, cond_limit=1e6) if case == "backs_psi_off" else C3_CFG
    cands = [solver._candidate(cf, lam, cfg) for lam in (lam, 0.5 + 0.8j, 1.2j)]
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
    if case == "singular_row":
        assert any(len(row.trace) == 3 for row in block[:cfg.restarts])


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


@pytest.mark.slow
def test_default_grid_finds_the_star_optima():
    # C7's star generator (seed 4041): without the pairwise diagonal means,
    # the default grid overshot star_radius on (n, trial) = (5, 4), (6, 0),
    # (7, 1) and (8, 4), by 0.9% to 11.6%
    for n in range(4, 9):
        for trial in range(8):
            net, mask, _ = sample_network("star", n, 4041, trial)
            rr = solve_radius(net, mask, "default", SolverConfig())
            assert rr.best.converged, (n, trial)
            assert rr.cost == pytest.approx(star_radius(net.weights).delta,
                                            rel=1e-4), (n, trial)


# perfbench.workloads.random_sparse(8, 1) and (5, 3): sparse random graphs
# whose optimum sits at a negative real lambda (-0.1178 and -0.1598) that
# only the default grid's 21x21 rectangle reaches. The "topo" grid returns
# the cheapest single-edge cut there, 0.18537 and 0.15614.
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

    def recording_iterate(rp, *args, **kwargs):
        polished.append((rp.lam, kwargs["sweep"]))
        return iterate(rp, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_sweep", recording_sweep)
        mp.setattr(solver, "heuristic_iterate", recording_iterate)
        rr = solve_radius(net, mask, grid, cfg)
    return rr, swept, polished


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_candidate_blocks_match_one_candidate_at_a_time(monkeypatch):
    cases = [
        # the C7 ensemble's 5-node line: 16 candidates, 11 solved; with 64
        # rows a block sweeps some candidates that are then pruned
        ("ensemble_line5", sample_network("line", 5, 4040, 0)[:2], "topo",
         SolverConfig(restarts=4, sweep_iters=12, seed=4040)),
        # the CLI pool's 4-node line: 37 candidates solved, 15 of them
        # complex, so real and complex rows share a block
        ("cli_line4", sample_network("line", 4, 2611, 0)[:2], "default",
         SolverConfig()),
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


def test_lambda_gradient_matches_central_difference():
    # the refinement gate in solve_radius relies on this identity:
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
            plus = _continue_triple(build_reduced(cf, lam + d), cf, t, cfg)
            minus = _continue_triple(build_reduced(cf, lam - d), cf, t, cfg)
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
    cont = _continue_triple(build_reduced(cf, lam), cf, res.triple, cfg)
    assert cont is not None and cont.converged
    assert cont.lam == lam
    assert cont.cost == pytest.approx(res.cost, rel=1e-12)


@pytest.mark.parametrize("topology,seed,trial", [("line", 4040, 0),
                                                 ("star", 4041, 1)])
def test_refinement_skipped_at_lambda_stationary_winner(topology, seed, trial):
    # C7 instances: the topo-grid winner is the oracle's eigenvalue, where
    # the lambda-gradient vanishes, so no refinement probe is spent
    net, mask, _ = sample_network(topology, 5, seed, trial)
    ora = (line_radius if topology == "line" else star_radius)(net.weights)
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    rr = solve_radius(net, mask, "topo", cfg)
    assert rr.best.converged
    assert rr.refine_evals == 0
    assert rr.cost == solve_radius(net, mask, "topo",
                                   replace(cfg, refine_steps=0)).cost
    assert abs(rr.cost - ora.delta) < 1e-9


def test_refinement_runs_and_lowers_cost_off_stationary_lambda(monkeypatch):
    # a one-point grid beside the optimum: the gradient there is nonzero and
    # the compass search walks back to the oracle's eigenvalue
    net, mask, _ = sample_network("line", 5, 4040, 0)
    ora = line_radius(net.weights)
    lam0 = ora.lambda_star + 0.05
    probes = []
    cont = solver._continue_triple

    def recording(rp, cf, t_prev, cfg):
        probes.append((t_prev, rp.lam))
        return cont(rp, cf, t_prev, cfg)

    monkeypatch.setattr(solver, "_continue_triple", recording)
    rr = solve_radius(net, mask, [lam0],
                      SolverConfig(restarts=4, sweep_iters=12, seed=4040))
    # the incumbent is real, where (0, h) and (0, -h) fold onto one lambda;
    # no lambda is probed twice from the same incumbent triple (the list
    # holds every triple, so no id is reused)
    assert len(probes) == rr.refine_evals
    assert len({(id(t), lam) for t, lam in probes}) == len(probes)
    grid_cost = rr.search_trace[0][1]
    assert rr.search_trace[0][0] == lam0
    assert rr.refine_evals > 0
    assert rr.cost < grid_cost - 1e-3
    assert rr.cost >= ora.delta - 1e-9
    assert rr.cost == pytest.approx(ora.delta, abs=1e-6)
