import hashlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from dataclasses import replace
from functools import partial

from netobs import (SolverConfig, UnobservableSystemError, assemble_pencil,
                    build_reduced, candidate_lambdas, canonicalize,
                    generalized_spectrum, line_radius, min_deletion_cost,
                    normalize_triple, orthogonality_diagnostic,
                    solve_fixed_lambda, solve_radius, star_radius)
from netobs import properties, radius_core, solver
from netobs.analytic_oracles import cut_off
from netobs.montecarlo import sample_network
from netobs.network_model import pbh_stack
from netobs.radius_core import (PencilAssembly, ReducedProblem, SpuriousTripleError,
                                _delta_bar, _form, assemble_real_pencil)
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


def test_generalized_spectrum_matches_scipy_eigvals_bitwise():
    # half-size pencils of order 3 interleaved with full pencils of order up
    # to 22
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
    for pp in pencils:
        assert np.array_equal(generalized_spectrum(pp).values, reference_spectrum(pp))


# ---------------------------------------------------------------------------
# the sweep's shift eigenvalue (_lambda_plus)


def dense(a):
    """A stack of D or F as PencilAssembly.weightings gives it for the sweep,
    as dense matrices: on the half-size route it gives their diagonals."""
    if a.ndim == 3:
        return a
    out = np.zeros(a.shape + a.shape[-1:])
    i = np.arange(a.shape[-1])
    out[:, i, i] = a
    return out


def dense_weightings(asm, x, y):
    """PencilAssembly.weightings (D, F) at a stack of points, dense."""
    return tuple(dense(a) for a in asm.weightings(x, y))


@pytest.mark.parametrize("route", ["real", "complex"])
def test_pencil_root_squares_to_the_weighting(route):
    # F is symmetric positive semidefinite on D's pattern and F F = D, on
    # stacks of points with some weightings zero (x vanishing on a node)
    rng = np.random.default_rng(11)
    rp = build_reduced(canonicalize(*net_of(line_matrix([0.9, 0.35, 0.5], [0.62, 0.4],
                                                        [0.27, 0.8]))),
                       0.6 if route == "real" else 0.6 + 0.3j)
    asm = PencilAssembly(rp, real=route == "real")
    x = rng.standard_normal((5, asm.nx))
    y = rng.standard_normal((5, asm.size - asm.nx))
    x[0, 0] = 0.0
    if route == "complex":
        x[0, rp.m] = 0.0
    d, f = dense_weightings(asm, x, y)
    assert np.array_equal(d, asm.pencil(x, y).d)
    assert np.array_equal(f != 0, d != 0)
    assert np.array_equal(f, np.swapaxes(f, 1, 2))
    assert np.linalg.eigvalsh(f).min() >= -1e-15 * np.abs(f).max()
    np.testing.assert_allclose(f @ f, d, rtol=0, atol=1e-15 * np.abs(d).max())


def lambda_plus(h, d, f, t0):
    """solver._lambda_plus of a stack, with ||H||_F per row taken from h (the
    sweep passes it, once per candidate)."""
    return solver._lambda_plus(h, d, f, t0, np.linalg.norm(h, axis=(1, 2)))


def qz_lambda_plus(h, d):
    """(lambda_+, agree) from QZ's eigenvalues (scipy's eigvals, classified
    as generalized_spectrum does): the smallest finite one above
    solver._POSITIVE_TOL times the pencil's scale c = ||H||_F / ||D||_F, NaN
    if there is none; agree is whether QZ's finite positive eigenvalues are
    those at most c / solver._FINITE_TOL, the finite test of _lambda_plus."""
    alpha, beta = sla.eigvals(h, d, homogeneous_eigvals=True)
    finite = np.abs(beta) > 5e-7 * (1.0 + np.abs(alpha))
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = (alpha / beta).real
    c = np.linalg.norm(h) / np.linalg.norm(d)
    positive = sigma > solver._POSITIVE_TOL * c
    agree = np.array_equal(finite & positive,
                           positive & (sigma <= c / solver._FINITE_TOL))
    ok = finite & positive
    return (sigma[ok].min() if ok.any() else np.nan), agree


def recorded_shift_pencils(monkeypatch, solve):
    """(h, d, f, t0, lambda_+) of every sweep row _lambda_plus saw in solve()."""
    rows, lambda_plus = [], solver._lambda_plus

    def recording(h, d, f, t0, h_norm):
        out = lambda_plus(h, d, f, t0, h_norm)
        rows.extend(zip(h, dense(d), dense(f), t0, out))
        return out

    monkeypatch.setattr(solver, "_lambda_plus", recording)
    solve()
    monkeypatch.undo()
    return rows


def shift_case(case):
    """A solve whose sweep pencils the shift tests record."""
    if case == "c3_chain0":
        net, mask, _ = sample_network("line", 3, 7, 0)
        return lambda: solve_fixed_lambda(net, mask, 1j, C3_CFG)
    if case in ("c7_line", "c7_star"):
        net, mask, _ = (sample_network("line", 6, 4040, 0) if case == "c7_line"
                        else sample_network("star", 6, 4041, 1))
        return lambda: solve_radius(net, mask, "topo",
                                    ENSEMBLE_CFG if case == "c7_line" else STAR_CFG)
    net, mask = (net_of(sample_network("line", 4, 2611, 0)[0].weights) if case == "cli_line4"
                 else net_of(from_entries(7, RANDOM_7_2611)))
    return lambda: solve_radius(net, mask, "default", SolverConfig())


@pytest.mark.parametrize("case", ["c3_chain0", "c7_line", "c7_star", "cli_line4",
                                  "cli_random7"])
def test_lambda_plus_matches_qz_on_sweep_pencils(monkeypatch, case):
    # wherever QZ's finite test and the pencil-scale one count the same
    # positive eigenvalues as finite, both give lambda_+ or neither does, to
    # 1e-12 relative. The exception is C3's badly scaled pencils at shifts
    # outside [lambda_+ / 2, lambda_+], where lambda_+ does not dominate S:
    # 3 of chain 0's 180 rows (t0 / lambda_+ of 0.012, 0.0015 and 446) sit
    # 1.4e-12 to 4.6e-11 from QZ. Against a 60-digit reference, QZ is off
    # there by up to 5.8e-11 and _lambda_plus by up to 3.4e-11
    rows = recorded_shift_pencils(monkeypatch, shift_case(case))
    compared = dominant = 0
    for h, d, f, t0, got in rows:
        want, agree = qz_lambda_plus(h, d)
        if not agree:
            continue
        compared += 1
        assert np.isnan(got) == np.isnan(want)
        if np.isnan(want):
            continue
        dominant += bool(want / 2 <= t0 <= want)
        tol = 1e-10 if case == "c3_chain0" and not want / 2 <= t0 <= want else 1e-12
        assert abs(got - want) <= tol * want
    assert compared >= 0.9 * len(rows) and dominant >= 0.2 * compared


def test_lambda_plus_drops_a_singular_pencil():
    # H and D share the null vector e_0, so det(H - tD) vanishes for every
    # t: that pencil is dropped, and a regular one stacked with it keeps the
    # bits it has alone
    h = np.zeros((2, 4, 4))
    h[:, 1, 2] = h[:, 2, 1] = 1.0
    h[:, 1, 3] = h[:, 3, 1] = 0.5
    h[1, 0, 3] = h[1, 3, 0] = 0.7
    d = np.stack([np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.5, 1.0, 2.0, 3.0])])
    f, t0 = np.sqrt(d), np.array([0.3, 0.3])
    both = lambda_plus(h, d, f, t0)
    assert np.isnan(both[0])
    assert both[1] == lambda_plus(h[1:], d[1:], f[1:], t0[1:])[0]
    assert abs(both[1] - qz_lambda_plus(h[1], d[1])[0]) <= 1e-12 * both[1]


def test_lambda_plus_retries_a_row_at_half_its_shift():
    # t0 = 1 is an eigenvalue of the middle pencil, so H - t0 D is singular
    # there: that row alone is tried again at t0 / 2, where it gets the bits
    # of a first pass from t0 / 2, and the rows around it keep theirs
    h = np.zeros((3, 3, 3))
    h[:, 0, 1] = h[:, 1, 0] = 1.0
    h[:, 1, 2] = h[:, 2, 1] = np.array([0.3, 0.0, 0.6])
    d = np.stack([np.diag([1.0, 2.0, 0.5]), np.eye(3), np.diag([0.7, 1.0, 1.3])])
    f = np.sqrt(d)
    t0 = np.array([0.4, 1.0, 0.6])
    got = lambda_plus(h, d, f, t0)
    assert got[1] == lambda_plus(h[1:2], d[1:2], f[1:2], np.array([0.5]))[0]
    assert abs(got[1] - 1.0) <= 1e-15
    for k in (0, 2):
        assert got[k] == lambda_plus(h[k:k + 1], d[k:k + 1], f[k:k + 1], t0[k:k + 1])[0]


@pytest.mark.parametrize("h,d", [
    (np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0])),       # every eigenvalue 0
    (np.diag([-1.0, -2.0, -3.0]), np.eye(3)),           # every one negative
    (np.diag([-1.0, 1.0]), np.diag([1.0, 1e-14])),      # -1, and 1e14: infinite
], ids=["zero", "negative", "infinite"])
def test_lambda_plus_drops_a_pencil_without_a_positive_eigenvalue(h, d):
    assert np.isnan(lambda_plus(h[None], d[None], np.sqrt(d)[None], np.array([0.5]))[0])


def tiny_weighting_pencil(seed, route):
    """(h, d, f) of a line's pencil at a point x with one entry of order 1
    and the others of order 1e-8, so that D has weightings near 1e-16."""
    rng = np.random.default_rng(seed)
    a = line_matrix(*(rng.uniform(0.1, 1.0, k) for k in (5, 4, 4)))
    rp = build_reduced(canonicalize(*net_of(a)), 0.45 if route == "real" else 0.45 + 0.2j)
    asm = PencilAssembly(rp, real=route == "real")
    x = 1e-8 * rng.standard_normal(asm.nx)
    x[0] = 1.0
    y = rng.standard_normal(asm.size - asm.nx)
    return (asm.h, *(a[0] for a in dense_weightings(asm, x[None], y[None])))


@pytest.mark.parametrize("route", ["real", "complex"])
def test_lambda_plus_with_weightings_near_1e_16_is_qz_s(route):
    for seed in range(8):
        h, d, f = tiny_weighting_pencil(seed, route)
        assert 0 < np.abs(np.diag(d)[np.diag(d) > 0]).min() < 1e-15
        want, agree = qz_lambda_plus(h, d)
        assert agree and np.isfinite(want)
        got, = lambda_plus(h[None], d[None], f[None], np.array([0.9 * want]))
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("seed", range(6))
def test_lambda_plus_with_t0_on_an_eigenvalue(seed):
    # t0 on lambda_+ itself, on the next positive eigenvalue and on the
    # pencil's zero eigenvalue
    rp, pp = random_pencil(seed)
    asm = PencilAssembly(rp)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(asm.nx)
    y = rng.standard_normal(asm.size - asm.nx)
    h, (d, f) = asm.h, asm.weightings(x, y)
    alpha, beta = sla.eigvals(h, d, homogeneous_eigvals=True)
    finite = np.abs(beta) > 5e-7 * (1.0 + np.abs(alpha))
    spectrum = np.sort((alpha[finite] / beta[finite]).real)
    want, agree = qz_lambda_plus(h, d)
    assert agree
    above = spectrum[spectrum > want]
    for t0 in (want, above[0], 0.0):
        got, = lambda_plus(h[None], d[None], f[None], np.array([t0]))
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("case", ["c3_chain0", "cli_line4"])
def test_lambda_plus_scales_with_the_pencil(monkeypatch, case):
    # (2^k H, D, 2^k t0) gives 2^k lambda_+, bit for bit
    h, d, f, t0, _ = (np.array(a) for a in zip(*recorded_shift_pencils(
        monkeypatch, shift_case(case))))
    base = lambda_plus(h, d, f, t0)
    assert np.isfinite(base).all()
    for k in range(-30, 31):
        got = lambda_plus(np.ldexp(h, k), d, f, np.ldexp(t0, k))
        assert np.array_equal(got, np.ldexp(base, k))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(psi=0.4)
    with pytest.raises(ValueError):
        SolverConfig(psi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)


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
            assert res.residual <= 1e-9
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
    # a grid search redraws no random start: every candidate takes the
    # restarts' draws from one cache, which a rerun must find unchanged
    s1, s2 = (solve_radius(net, mask, "default", cfg) for _ in range(2))
    assert len(s1.search_trace) > 1
    assert s1.search_trace == s2.search_trace
    np.testing.assert_array_equal(s1.best.perturbation.delta, s2.best.perturbation.delta)
    assert s1.cost == s2.cost


def test_real_lambda_routes_agree():
    cfg = SolverConfig(seed=3, restarts=4, sweep_iters=12)
    agreed = 0
    for trial in range(3):
        net, mask, _ = sample_network("line", 3, 17, trial)
        lam = complex(np.diag(net.weights)[-1], 0.0)
        half = solve_fixed_lambda(net, mask, lam, cfg)
        cf = canonicalize(net, mask)
        full = solver._best_of_restarts(cf, PencilAssembly(build_reduced(cf, lam)),
                                        replace(cfg, restarts=12))
        if half.converged and full.converged:
            assert abs(half.cost - full.cost) < 1e-8
            agreed += 1
    assert agreed >= 2


def iterate_alone(asm, cf, cfg, z0):
    """The restart of one start vector z0 on the assembly asm, on its own,
    with its random seed drawn from cfg.seed: its sweep as a block of one
    row (solver._sweep), its polish as a stream of one restart
    (solver._polish), its result read by solver.heuristic_iterate, and the
    reconstruction of its triple (solver._reconstructed)."""
    restart = solver._Restart(asm, cfg.keep_delta_trace, z0, partial(
        solver._random_seed, cf, cfg.seed, asm.nx, asm.size - asm.nx))
    solver._sweep([restart], cfg)
    solver._polish([restart])
    return solver._reconstructed(cf, solver.heuristic_iterate(restart))


def swept(cf, lams, cfg):
    """The restarts of every lam (solver._restarts), one list per lam, swept
    as solver._solved sweeps them and left unpolished."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_polish", lambda restarts: None)
        return solver._solved(cf, [solver._assembly(build_reduced(cf, lam)) for lam in lams],
                              cfg)


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
    warm = iterate_alone(PencilAssembly(rp), cf, cfg, np.concatenate([t.x, t.y]))
    assert warm.converged
    assert warm.iterates.sweep == ()  # the sweep took no step
    assert abs(warm.cost - half.cost) < 1e-10


def test_pbh_warm_start_falls_back_to_the_first_draw_of_its_stream():
    # where A_tilde x vanishes (here an assembly whose A_tilde is zero), the
    # warm start's y is the first standard normal draw of the stream
    # (seed, 0), the numbers a fresh generator of that stream draws first,
    # with each half of y filled sensor rows first: the sensor sits at
    # node 2, so the draw's first entry of each half goes to node 2
    a = line_matrix([0.7, 0.4, 0.9, 0.3, 0.6], [0.5, 0.3, 0.8, 0.2], [0.6, 0.8, 0.4, 0.7])
    cf = canonicalize(*net_of(a, sensors=(2,)))
    n, m, seed = 5, 4, 11
    asm = SimpleNamespace(nx=2 * m, a_tilde=np.zeros((2 * n, 2 * m)))
    v_min = np.linspace(1.0, 2.0, n) * np.exp(0.3j * np.arange(n))
    z = solver._pbh_warm_start(cf, v_min, asm, seed)
    draw = np.random.default_rng(np.random.SeedSequence((seed, 0))).standard_normal(2 * n)
    y = np.empty(2 * n)
    for half in range(2):
        y[half * n + np.array([2, 0, 1, 3, 4])] = draw[half * n:(half + 1) * n]
    assert raw(z[2 * m:]) == raw(y / (np.sqrt(2.0) * np.linalg.norm(y)))
    assert np.linalg.norm(z[:2 * m]) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


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
        form = _form(v_bar, route == "real")
        f_of, j_of = partial(form.f, at), partial(form.j, at)
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
    """Wrap solver._gn_core, which polishes a stream of rows; every polish
    run of every call (each start of each row, refills included) appends a
    record of its residual and Jacobian evaluations, its polish (u,
    Jacobians, exit, iterates) and its inputs. The stream's polish of the
    run is recorded; the evaluations are counted on the run polished again
    as a stream of one row, where each call evaluates that run alone. f_of
    and j_of are recorded as functions of u alone, on the run's key."""
    runs = []
    core = solver._gn_core

    def recording(f_of, j_of, u0, keys, collapsed, refill):
        starts = list(zip(u0, keys))
        polished = []

        def recorded_refill(i, polish):
            polished.append((starts[i], polish))
            start = refill(i, polish)
            if start is not None:
                starts[i] = start
            return start

        core(f_of, j_of, u0, keys, collapsed, recorded_refill)
        for (row, key), row_out in polished:
            f1 = lambda u, key=key: f_of(u, key)
            j1 = lambda u, key=key: j_of(u, key)
            calls = {"f": 0, "j": 0}

            def f_counted(u, keys):
                calls["f"] += 1
                return f_of(u, keys)

            def j_counted(u, keys):
                calls["j"] += 1
                return j_of(u, keys)

            core(f_counted, j_counted, row[None], [key], collapsed, lambda i, polish: None)
            runs.append(dict(residuals=calls["f"], jacobians=calls["j"], out=row_out,
                             f_of=f1, j_of=j1, u0=row, max_iter=solver._POLISH_MAX_ITER,
                             tol=solver._POLISH_TOL))

    mp.setattr(solver, "_gn_core", recording)
    return runs


def every_trailing_eigenvalue(net, mask, grid="topo"):
    """As an explicit grid, the named grid as it was before "topo" kept one
    eigenvalue per trailing block: every eigenvalue of every trailing block
    of A[free][:, free] and the means of neighbouring diagonal entries, and
    for "default" its 21 points on [-2, 2]. The tests that take their lambda
    or their candidates from those grids keep their workload through it."""
    block = net.weights[np.ix_(net.free, net.free)]
    diag = np.sort(np.diag(block))
    vals = [v for k in range(len(block)) for v in np.linalg.eigvals(block[k:, k:])]
    vals += list((diag[:-1] + diag[1:]) / 2.0)
    if grid == "default":
        vals += list(np.linspace(-2, 2, 21))
    return candidate_lambdas(net, mask, vals)


# two real candidates of the C7 ensemble's first 6-node line, keyed by their
# index in the grid that held every pairwise mean of the diagonal and every
# eigenvalue of every trailing block
LINE6_CANDIDATES = {4: 0.30195004840465134, 14: 0.6162872821089159}


def line6_candidate(index):
    net, mask, _ = sample_network("line", 6, 4040, 0)
    lam = complex(LINE6_CANDIDATES[index])
    assert lam in every_trailing_eigenvalue(net, mask)
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
        assert ok == "converged"
        assert run["residuals"] == run["jacobians"] + 1
        ref = reference_gauss_newton(run["f_of"], run["j_of"], run["u0"],
                                     run["max_iter"], run["tol"])
        assert len(us) == len(ref)
        for got, want in zip(us, ref):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def polish_rows(f_of, j_of, u0, collapsed):
    """The polish of every row of u0, each row started once, by one
    solver._gn_core stream on the kernel (f_of, j_of) with every key 0."""
    out = [None] * len(u0)

    def refill(i, polish):
        out[i] = polish

    solver._gn_core(f_of, j_of, u0, [0] * len(u0), collapsed, refill)
    return out


def never_collapsed(f):
    return False


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

    (u, its, ok, us), = polish_rows(lambda u, keys: f_of(u), lambda u, keys: j_of(u),
                                    np.array([[1e-4]]), never_collapsed)
    assert ok == "stationary"
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
    failed = [run for run in runs if run["out"][2] != "converged"]
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


def toy_kernel():
    return (lambda u, keys: toy_f(u)), (lambda u, keys: toy_j(u))


def test_block_polish_gives_every_row_what_a_block_of_one_gives(monkeypatch):
    # one block whose rows leave on different rounds, one through each exit
    rows = np.array([[0.5, 1],    # converged
                     [1.0, 3],    # out of budget: 12 halvings leave t^2 at 6e-8
                     [1e-2, 0],   # no progress over 10 Jacobians
                     [1e-4, 0],   # relative gradient at or below 1e-6
                     [0.5, 2]])   # predicted decrease at or below eps ||F||^2
    max_iter = 12
    monkeypatch.setattr(solver, "_POLISH_MAX_ITER", max_iter)
    block = polish_rows(*toy_kernel(), rows, never_collapsed)
    for k, polish in enumerate(block):
        assert_same_polish(polish, polish_rows(*toy_kernel(), rows[k:k + 1],
                                               never_collapsed)[0])
    (u0, its0, ok0, _), (_, its1, ok1, _), (_, its2, ok2, _), \
        (u3, its3, ok3, _), (u4, its4, ok4, us4) = block
    assert [ok0, ok1, ok2, ok3, ok4] == ["converged", "budget", "no progress",
                                         "stationary", "no decrease"]
    assert np.linalg.norm(toy_f(u0), np.inf) <= 1e-12
    assert its1 == max_iter
    assert its2 == 10
    assert its3 < 10
    assert relative_gradient(toy_f, toy_j, u3) <= STATIONARY_EXIT
    assert its4 == 1 and len(us4) == 1
    assert len({its0, its1, its2, its3, its4}) == 5


@pytest.mark.parametrize("case", ["c3_chain0", "c3_chain3", "line6"])
def test_block_polish_of_every_seed_matches_each_seed_alone(case):
    # every seed of every restart of a candidate, on the polish kernel of
    # either route, as one block and as blocks of one row, with the
    # restarts' collapse exit; chain 3's block holds rows that take it
    if case.startswith("c3"):
        net, mask, _ = sample_network("line", 3, 7, int(case[-1]))
        lam, cfg = 1j, C3_CFG
    else:
        (net, mask, lam), cfg = line6_candidate(14), ENSEMBLE_CFG
    restarts, = swept(canonicalize(net, mask), [lam], cfg)
    for restart in restarts:
        restart.seed()  # builds the restart's seed list
    seeds = np.array([u() if callable(u) else u for restart in restarts
                      for u in restart.seeds])
    assert len(seeds) >= 3 * cfg.restarts
    f_of, j_of = solver._kernel([restarts[0].pencil])
    block = polish_rows(f_of, j_of, seeds, solver._collapsed)
    for k, polish in enumerate(block):
        assert_same_polish(polish, polish_rows(f_of, j_of, seeds[k:k + 1],
                                               solver._collapsed)[0])
    assert len({polish[1] for polish in block}) > 1
    if case == "c3_chain3":
        assert any(ok != "converged" and solver._collapsed(f_of(u, 0))
                   for u, _, ok, _ in block)


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
        (True, 24, "aa4e00a47eb1b5f7"), (True, 24, "899aa276fa60221a"),
        (True, 24, "dfdcd4d6b63b6df5"), (True, 22, "51c2b28f2072650d"),
        (True, 25, "fc5edd9119be1a52"), (True, 25, "486f76b5dc1c7a7c"),
        (True, 25, "66dc0a15dec672c0"), (True, 25, "53e78c1a7abde932"),
        (True, 24, "175893d7047e0532"), (True, 24, "fbcb22b549b03124"),
        (True, 21, "7c5e85f1caf970d0"), (True, 24, "2f95d69a1c721cb0")],
    # restart 1 reaches the polish's basin after 9 of the 12 sweep steps
    "line6": [
        (True, 17, "b4f0b319d7fcac6d"), (True, 10, "8d2fe1d7e32d2a71"),
        (True, 17, "9d887eefa3836df6"), (True, 17, "df8a5a50494b2ce3")],
    # restarts that polish two to four seeds, one of them in vain
    "c3_chain3": [
        (True, 104, "d703ed27aa8e53ff"), (True, 31, "8797bdffd85aff98"),
        (True, 21, "ecd0869ebfe8babc"), (True, 68, "419d52f30b94ebaa"),
        (True, 22, "0834dab2d89455b0"), (True, 38, "9e01fd99ecbef4c8"),
        (False, 150, None), (True, 99, "7ea527d5ee8507dc"),
        (True, 69, "356626a6abefed93"), (True, 29, "2ccf80897232f991"),
        (True, 42, "3e446158704d3e80"), (True, 27, "130e42afd562a8d3")],
}


@pytest.mark.parametrize("case", ["c3_chain0", "line6", "c3_chain3"])
def test_heuristic_iterate_is_called_once_per_restart(monkeypatch, case):
    # the benchmark tracer counts restarts and their iterations on
    # heuristic_iterate's calls and results; the polish streams keep one call
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


def polish_in_waves(restarts):
    """The polish of restarts one candidate at a time, in waves: wave k
    polishes the next seed of every restart of the candidate still
    searching, as one solver._gn_core block on the candidate's own
    assembly, and a restart whose polish fails waits for the next wave."""
    for asm in dict.fromkeys(r.pencil for r in restarts):
        block = [r for r in restarts if r.pencil is asm]
        while searching := [r for r in block if r.result is None]:
            polishes = polish_rows(*solver._kernel([asm]),
                                   np.array([r.seed() for r in searching]),
                                   solver._collapsed)
            for restart, polish in zip(searching, polishes):
                restart.take(polish)


def polishes_taken(mp, polish, restarts):
    """Every polish each restart takes while polish(restarts) runs, in
    restart order."""
    taken = {id(r): [] for r in restarts}
    take = solver._Restart.take

    def recording(self, polish):
        taken[id(self)].append(polish)
        return take(self, polish)

    with mp.context() as m:
        m.setattr(solver._Restart, "take", recording)
        polish(restarts)
    return [taken[id(r)] for r in restarts]


@pytest.mark.parametrize("case", ["ensemble", "ensemble_5_rows", "c3_chain3"])
def test_polish_stream_matches_per_candidate_waves(monkeypatch, case):
    # the restarts of many candidates polish in one refilled _gn_core stream
    # (solver._polish), each row on its own candidate's A_tilde: every polish
    # of every restart (u, Jacobians, exit, iterates) and every restart's
    # result is that of polishing each candidate alone in waves. The C7
    # ensemble's 6-node line: its 19 real "topo" candidates, 76 restarts, in
    # one stream of 64 rows and of 5, so that restarts wait and take rows
    # other candidates' restarts leave. C3's chain 3 at three complex
    # candidates: seeds that collapse or fail hand their row to the
    # restart's next seed
    if case == "c3_chain3":
        net, mask, _ = sample_network("line", 3, 7, 3)
        cfg, lams = C3_CFG, [1j, 0.5 + 0.8j, 1.2j]
    else:
        net, mask, _ = sample_network("line", 6, 4040, 0)
        cfg, lams = ENSEMBLE_CFG, [lam for lam in every_trailing_eigenvalue(net, mask)
                                   if lam.imag == 0.0]
        if case == "ensemble_5_rows":
            monkeypatch.setattr(solver, "_BLOCK_ROWS", 5)
    cf = canonicalize(net, mask)
    stream, waves = ([r for block in swept(cf, lams, cfg) for r in block] for _ in range(2))
    calls = []
    core = solver._gn_core

    def recording_core(f_of, j_of, u0, keys, collapsed, refill):
        calls.append((len(u0), set(keys)))
        core(f_of, j_of, u0, keys, collapsed, refill)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_gn_core", recording_core)
        got = polishes_taken(mp, solver._polish, stream)
    want = polishes_taken(monkeypatch, polish_in_waves, waves)
    assert len(calls) == 1 and len(calls[0][1]) > 1  # rows of many candidates
    assert sum(map(len, got)) > calls[0][0]  # rows were refilled
    for polishes, polishes1, r, r1 in zip(got, want, stream, waves):
        assert len(polishes) == len(polishes1) == r.polished
        for polish, polish1 in zip(polishes, polishes1):
            assert_same_polish(polish, polish1)
        res, res1 = r.result, r1.result
        assert (res.converged, res.failure, res.iterations, res.phi_plus_mu) == \
            (res1.converged, res1.failure, res1.iterations, res1.phi_plus_mu)
        for part in ("sigma", "x", "y"):
            assert raw(res.triple and getattr(res.triple, part)) == \
                raw(res1.triple and getattr(res1.triple, part))
        if res.converged:
            for us, us1 in ((res.iterates.sweep, res1.iterates.sweep),
                            (res.iterates.polish[:-1], res1.iterates.polish[:-1])):
                assert [raw(u) for u in us] == [raw(u) for u in us1]
    if case == "c3_chain3":
        assert any(len(polishes) > 1 for polishes in got)
        assert [(r.result.converged, r.result.iterations,
                 r.result.triple and triple_digest(r.result.triple))
                for r in stream[:cfg.restarts]] == PINNED_RESTARTS["c3_chain3"]
    else:
        assert len(stream) > solver._BLOCK_ROWS


def assert_exit_margins(runs):
    # a converging run never comes within 10x of either exit's threshold:
    # the relative gradient where each Jacobian is taken, and the relative
    # fall of ||F|| over the 10 Jacobians before each one
    converged = [run for run in runs if run["out"][2] == "converged"]
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
    assert any(run["out"][2] == "converged" and len(run["out"][3]) > 11
               for run in c3_polish_runs)
    assert_exit_margins(c3_polish_runs)


@pytest.mark.parametrize("index", [4, 14])
def test_converging_polish_keeps_clear_of_the_stationary_exit_real_route(
        monkeypatch, index):
    net, mask, lam = line6_candidate(index)
    runs = record_polish(monkeypatch)
    assert solve_fixed_lambda(net, mask, lam, ENSEMBLE_CFG).converged
    assert_exit_margins(runs)


def norm_floor(f_of, u):
    """min(||x||^2, ||y||^2) at u, read off F's two norm rows."""
    f = f_of(u)
    return 1.0 + 2.0 * min(f[-2], f[-1])


def test_polish_stops_where_it_collapses_onto_x_or_y_zero(monkeypatch):
    # chain 3 of C3 (the chain3 pool's fourth chain): most of its failed
    # polish runs slide onto the x = 0 / y = 0 branch, where ||F|| settles
    # at 1/2. Each stops at its first point with min(||x||^2, ||y||^2)
    # below the threshold, where the no-progress exit took about 10 more
    # Jacobians, and the solve's triple keeps its bits. Each collapsing run
    # reports the exit "collapsed", and the restart names its failure from
    # that exit without evaluating F again
    net, mask, _ = sample_network("line", 3, 7, 3)
    runs = record_polish(monkeypatch)
    restarts = []
    iterate, take, form_f = solver.heuristic_iterate, solver._Restart.take, radius_core._Form.f
    taking, residuals_in_take = [], []

    def recording(*args, **kwargs):
        restarts.append(iterate(*args, **kwargs))
        return restarts[-1]

    def recording_take(self, polish):
        taking.append(True)
        try:
            return take(self, polish)
        finally:
            taking.pop()

    def recording_f(self, at, u):
        if taking:
            residuals_in_take.append(u)
        return form_f(self, at, u)

    monkeypatch.setattr(solver, "heuristic_iterate", recording)
    monkeypatch.setattr(solver._Restart, "take", recording_take)
    monkeypatch.setattr(radius_core._Form, "f", recording_f)
    res = solve_fixed_lambda(net, mask, 1j, C3_CFG)
    assert res.converged and triple_digest(res.triple) == "ecd0869ebfe8babc"
    assert not residuals_in_take
    collapsed = 0
    for run in runs:
        u, its, ok, us = run["out"]
        below = [k for k, v in enumerate(us)
                 if norm_floor(run["f_of"], v) < solver._COLLAPSE_TOL]
        if ok == "converged" or not below:
            assert not below and ok != "collapsed"
            continue
        collapsed += 1
        assert ok == "collapsed"
        assert below == [len(us) - 1] and its == len(us) - 1
        assert np.linalg.norm(run["f_of"](u)) == pytest.approx(0.5, abs=1e-2)
    assert collapsed >= 5  # 9 when written
    # restart 6's last seed collapses too, and names its failure
    assert [r.failure for r in restarts if not r.converged] == [
        "polish collapsed onto x = 0 or y = 0"]


def test_converging_polish_keeps_clear_of_the_collapse_exit(c3_polish_runs, monkeypatch):
    # along every converging run of C3's chains 0..5 and of C7's 6-node
    # line and star, min(||x||^2, ||y||^2) stays 10x above the threshold
    runs = record_polish(monkeypatch)
    assert solve_radius(*sample_network("line", 6, 4040, 0)[:2], "topo",
                        ENSEMBLE_CFG).best.converged
    assert solve_radius(*sample_network("star", 6, 4041, 1)[:2], "topo",
                        STAR_CFG).best.converged
    converged = [run for run in c3_polish_runs + runs if run["out"][2] == "converged"]
    assert len(converged) >= 100
    for run in converged:
        for u in run["out"][3]:
            assert norm_floor(run["f_of"], u) >= 10 * solver._COLLAPSE_TOL


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
    return bool(np.linalg.norm(solver._kernel([asm])[0](u, 0)) < handoff_threshold(asm, u))


def reference_sweep(asm, z0, cfg):
    """The sweep of one start as a loop over steps with one-vector numpy
    calls (@, np.linalg.norm, a solve per step) and dense D and F, its
    shift eigenvalue from solver._lambda_plus (lambda_plus) on a one-row
    stack at the previous step's shift (at first half the start's Rayleigh
    quotient): what every row of the lockstep block must reproduce bit for
    bit. It stops after the step
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
    trace, best, best_merit, phi_plus_mu = [], None, np.inf, None
    mu = init[-1]
    for _ in range(cfg.sweep_iters):
        pp = asm.pencil(z[:nx], z[nx:])
        mp, = lambda_plus(pp.h[None], pp.d[None],
                          dense_weightings(asm, z[None, :nx], z[None, nx:])[1], np.array([mu]))
        if np.isnan(mp):
            break
        mu = cfg.psi * mp
        try:
            w = np.linalg.solve(pp.h - mu * pp.d, pp.d @ z)
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
        merit = np.linalg.norm(solver._kernel([asm])[0](u, 0))
        if merit < best_merit:
            best_merit, best = merit, u
        if (np.linalg.norm(zn - z) < solver._STILL_TOL
                or merit < handoff_threshold(asm, u)):
            break
        z = zn
    return init, trace, best, phi_plus_mu


def lockstep_and_alone(monkeypatch, net, mask, lam, cfg):
    """(swept restart, result) of every restart: from _best_of_restarts,
    which sweeps its restarts in lockstep, and from iterate_alone on each
    restart's start vector, drawn as a restart loop draws it; and the
    reference_sweep of each start."""
    cf = canonicalize(net, mask)
    rp = build_reduced(cf, lam)
    asm = solver._assembly(rp)
    rows, results = [], []
    sweep, iterate = solver._sweep, solver.heuristic_iterate

    def recording_sweep(restarts, cfg):
        rows.extend(restarts)
        return sweep(restarts, cfg)

    def recording_iterate(*args, **kwargs):
        res = iterate(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(solver, "_sweep", recording_sweep)
    monkeypatch.setattr(solver, "heuristic_iterate", recording_iterate)
    solver._best_of_restarts(cf, asm, cfg)
    lockstep = list(zip(rows, results))
    rows.clear()
    results.clear()
    reference = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        # the PBH singular vector of lam alone, not of a stacked SVD
        v_min = np.linalg.svd(pbh_stack(net.weights, net.c_matrix, [lam])[0])[2][-1]
        z0 = solver._pbh_warm_start(cf, v_min, asm, cfg.seed) if r == 0 else None
        if z0 is None:
            z0 = rng.standard_normal(asm.size)
        iterate_alone(asm, cf, replace(cfg, seed=cfg.seed * 1009 + r), z0)
        reference.append(reference_sweep(asm, z0, cfg))
    alone = list(zip(rows, results))
    assert len(lockstep) == len(alone) == cfg.restarts
    return lockstep, alone, reference


def raw(a):
    return None if a is None else np.asarray(a).tobytes()


def assert_same_restarts(lockstep, alone, reference):
    for (row, res), (row1, res1), (init, trace, best, phi_plus_mu) in zip(
            lockstep, alone, reference):
        for other in (row1, SimpleNamespace(init=init, trace=trace, best=best,
                                            phi_plus_mu=phi_plus_mu)):
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
        asm = solver._assembly(build_reduced(canonicalize(net, mask), lam))
        still, handed = assert_rows_stop_early(
            [row for row, _ in lockstep], asm, cfg, 2)
        assert steps < cfg.restarts * cfg.sweep_iters
        if case == "cli_line4":
            assert handed >= 3
            assert any(len(row.trace) == cfg.sweep_iters for row, _ in lockstep)
        else:
            assert (still, handed) == (1, 3)
    assert sum(res.converged for _, res in lockstep) >= 2


def test_diagonal_weightings_apply_as_the_dense_matrices():
    # on the half-size route the sweep keeps D and F as their diagonals:
    # H - t D, F M F and D z formed from them equal the dense forms bit for
    # bit, signed zeros included, with zero weights (x or y vanishing on a
    # node's support), t = 0, and zeros of either sign in M and z
    rng = np.random.default_rng(5)
    a = line_matrix(*(rng.uniform(0.1, 1.0, k) for k in (7, 6, 6)))
    rp = build_reduced(canonicalize(*net_of(a)), 0.6)
    asm = PencilAssembly(rp, real=True)
    # pencils of order 13, whose rows are longer than numpy's 8-term
    # pairwise-sum blocks
    assert asm.size == 13
    rows = 8
    x = rng.standard_normal((rows, asm.nx))
    y = rng.standard_normal((rows, asm.size - asm.nx))
    x[0], y[1], x[2, :2] = 0.0, 0.0, 0.0
    d, f = asm.weightings(x, y)
    dd, fd = dense_weightings(asm, x, y)
    assert d.shape == (rows, asm.size) and (d == 0).any() and not (d == 0).all()
    h = np.repeat(asm.h[None], rows, axis=0)
    t = rng.uniform(0.0, 2.0, rows)
    t[0] = 0.0
    m = rng.standard_normal(h.shape)
    m[np.abs(m) < 0.3] = 0.0
    m[np.abs(m) > 1.5] = -0.0
    z = rng.standard_normal((rows, asm.size))
    z[:, 1], z[:, 2] = -0.0, 0.0
    for got, want in ((radius_core._shifted(h, t, d), h - t[:, None, None] * dd),
                      (radius_core._sandwich(f, m), fd @ (m @ fd)),
                      (radius_core._times(d, z), np.matmul(dd, z[..., None])[..., 0])):
        assert raw(got) == raw(want)


def test_half_size_sweep_with_zero_weights_matches_the_dense_reference(monkeypatch):
    # the C7 ensemble's 6-node line, swept on the half-size route from its
    # optimum (an edge-deletion optimum) with the entries below 1e-12 set to
    # zero, and from random starts with zero entries, so that the pencils of
    # the first steps have zero weights: every row equals the dense-D
    # reference_sweep of its start, bit for bit
    net, mask, _ = sample_network("line", 6, 4040, 0)
    rr = solve_radius(net, mask, every_trailing_eigenvalue(net, mask), ENSEMBLE_CFG)
    cf = canonicalize(net, mask)
    asm = solver._assembly(build_reduced(cf, rr.search.lam))
    assert asm.real
    z_opt = asm.u_of(rr.search.triple)[:-1] / np.sqrt(2.0)
    z_opt[np.abs(z_opt) < 1e-12] = 0.0
    rng = np.random.default_rng(3)
    starts = [z_opt]
    for k in range(5):
        z0 = rng.standard_normal(asm.size)
        z0[k:k + 3] = 0.0
        starts.append(z0)
    weights, lambda_plus = [], solver._lambda_plus

    def recording(h, d, f, t0, h_norm):
        weights.append(d)
        return lambda_plus(h, d, f, t0, h_norm)

    rows = [solver._Restart(asm, False, z0) for z0 in starts]
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_lambda_plus", recording)
        solver._sweep(rows, ENSEMBLE_CFG)
    assert weights[0].ndim == 2 and (weights[0] == 0).any(axis=1).sum() >= 3
    for z0, row in zip(starts, rows):
        init, trace, best, phi_plus_mu = reference_sweep(asm, z0, ENSEMBLE_CFG)
        assert trace
        assert raw(row.init) == raw(init)
        assert [raw(u) for u in row.trace] == [raw(u) for u in trace]
        assert raw(row.best) == raw(best)
        assert row.phi_plus_mu == phi_plus_mu


def full_length_sweep(monkeypatch, cf, lam, cfg):
    """The swept restarts of the candidate lam with both early exits off."""
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_STILL_TOL", 0.0)
        mp.setattr(solver, "_HANDOFF_TOL", 0.0)
        return swept(cf, [lam], cfg)[0]


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
    rows, = swept(cf, [lam], cfg)
    full = full_length_sweep(monkeypatch, cf, lam, cfg)
    for restarts in (rows, full):
        solver._polish(restarts)
    asm = rows[0].pencil
    rp = asm.rp
    exits = Counter()
    for row, row1 in zip(rows, full):
        assert len(row.trace) <= len(row1.trace)
        # the exit keeps the steps it took, bit for bit
        assert [raw(u) for u in row.trace] == \
            [raw(u) for u in row1.trace[:len(row.trace)]]
        handed = len(row.trace) < len(row1.trace) and handed_off(row, asm)
        if handed:
            exits["basin"] += 1
        elif len(row.trace) < len(row1.trace):
            exits["still"] += 1
            for seed, seed1 in ((row.best, row1.best), (row.trace[-1], row1.trace[-1])):
                assert np.linalg.norm(seed - seed1) <= SEED_MARGIN
        res, res1 = solver.heuristic_iterate(row), solver.heuristic_iterate(row1)
        assert res.converged and res1.converged
        assert solver._triple_cost(rp, res.triple) == pytest.approx(
            solver._triple_cost(rp, res1.triple), rel=handoff_rel if handed else 1e-12,
            abs=0.0)
    best, best1 = solver._ranked(cf, rows), solver._ranked(cf, full)
    assert best.cost == pytest.approx(best1.cost, rel=1e-12, abs=0.0)
    return exits


def test_no_c3_row_stops_at_a_fixed_point(monkeypatch):
    # C3's sweep rows never move less than 3.8e-3 in a step (100 chains), far
    # above _STILL_TOL, and their merits never fall below 2.8e-3 times
    # min(||A_tilde||_F, sigma), far above the handoff: every row runs until
    # it breaks or takes all sweep_iters steps, so C3's outputs keep their
    # bits
    net, mask, lam = c3_chain3()
    cf = canonicalize(net, mask)
    rows, = swept(cf, [lam], C3_CFG)
    full = full_length_sweep(monkeypatch, cf, lam, C3_CFG)
    asm = rows[0].pencil
    for row, row1 in zip(rows, full):
        assert [raw(u) for u in row.trace] == [raw(u) for u in row1.trace]
        us = [row.init] + row.trace
        for u, u1 in zip(us, us[1:]):
            assert np.linalg.norm(u1[:-1] - u[:-1]) / np.sqrt(2.0) > 1e4 * solver._STILL_TOL
            assert (np.linalg.norm(solver._kernel([asm])[0](u1, 0))
                    > 1e3 * handoff_threshold(asm, u1))
    assert any(len(row.trace) < C3_CFG.sweep_iters for row in rows)


def test_kept_compacts_rows_only_when_one_leaves():
    # the sweep's row filter: every row kept gives back the very arrays,
    # so a step where no row leaves copies nothing
    a, b = np.arange(4.0), np.arange(8.0).reshape(4, 2)
    kept = solver._kept(np.ones(4, dtype=bool), a, b)
    assert len(kept) == 2 and kept[0] is a and kept[1] is b
    x, y = solver._kept(np.array([True, False, True, True]), a, b)
    assert x.tolist() == [0.0, 2.0, 3.0]
    assert y.tolist() == [[0.0, 1.0], [4.0, 5.0], [6.0, 7.0]]
    x, = solver._kept(np.zeros(4, dtype=bool), a)
    assert x.shape == (0,)


def test_lockstep_sweep_drops_a_singular_row_alone(monkeypatch):
    # make the shifted matrix of one restart at sweep step 3 singular: the
    # stacked solve then fails as a whole, and only that row may leave
    solve, matrices = np.linalg.solve, []

    def recording_solve(a, b):
        matrices.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    cf = canonicalize(*c3_chain3()[:2])
    solver._best_of_restarts(cf, solver._assembly(build_reduced(cf, 1j)), C3_CFG)
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


@pytest.mark.parametrize("case", ["c3", "retries_t0", "singular_row", "cli_line4"])
def test_sweep_block_of_candidates_matches_each_alone(monkeypatch, case):
    # three complex candidates of C3's trial 3 in one block: rows of every
    # candidate leave before the 15 steps, so the row -> candidate index is
    # filtered mid-block. A condition limit of 1e6 makes _lambda_plus retry
    # some rows at t0 / 2, of which some are rescued and some leave partway
    # through the block; a singular shifted matrix of the first candidate at
    # step 3 drops its row in the per-row fallback of the stacked solve.
    # Three real candidates of the CLI pool's 4-node line: rows of every
    # candidate leave early, at different steps
    if case == "cli_line4":
        net, mask, lam = cli_line4()
        cfg, lams = SolverConfig(), (lam, -0.1 + 0j, 0.5 + 0j)
    else:
        net, mask, lam = c3_chain3()
        cfg, lams = C3_CFG, (lam, 0.5 + 0.8j, 1.2j)
    cf = canonicalize(net, mask)
    asms = [solver._assembly(build_reduced(cf, lam)) for lam in lams]
    # per _lambda_plus call: the rows of each of its inverse stacks, then how
    # many rows it drops
    lambda_plus_calls = []
    if case == "retries_t0":
        monkeypatch.setattr(solver, "_COND_LIMIT", 1e6)
        lambda_plus, stacked = solver._lambda_plus, solver._stacked_lapack

        def recording_lambda_plus(*args):
            lambda_plus_calls.append([])
            out = lambda_plus(*args)
            lambda_plus_calls[-1].append(int(np.isnan(out).sum()))
            return out

        def recording_stacked(fn, a, *b):
            if fn is np.linalg.inv:
                lambda_plus_calls[-1].append(len(a))
            return stacked(fn, a, *b)

        monkeypatch.setattr(solver, "_lambda_plus", recording_lambda_plus)
        monkeypatch.setattr(solver, "_stacked_lapack", recording_stacked)
    if case == "singular_row":
        solve, matrices = np.linalg.solve, []

        def recording_solve(a, b):
            matrices.append(a.copy())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        solver._sweep(solver._restarts(cf, asms[:1], cfg)[0], cfg)
        singular = matrices[3][5].tobytes()

        def singular_solve(a, b):
            if any(m.tobytes() == singular for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_solve)
    block = [r for restarts in solver._restarts(cf, asms, cfg) for r in restarts]
    solver._sweep(block, cfg)
    block_calls = list(lambda_plus_calls)
    alone = solver._restarts(cf, asms, cfg)
    for restarts in alone:
        solver._sweep(restarts, cfg)
    alone = [r for restarts in alone for r in restarts]
    assert len(block) == len(alone) == 3 * cfg.restarts
    for row, row1 in zip(block, alone):
        assert raw(row.init) == raw(row1.init)
        assert [raw(u) for u in row.trace] == [raw(u) for u in row1.trace]
        assert raw(row.best) == raw(row1.best)
        assert row.phi_plus_mu == row1.phi_plus_mu
    for k, asm in enumerate(asms):
        rows = block[k * cfg.restarts:(k + 1) * cfg.restarts]
        assert any(len(row.trace) < cfg.sweep_iters for row in rows)
        if case == "cli_line4":
            assert_rows_stop_early(rows, asm, cfg, 1)
    if case == "cli_line4":
        lengths = {len(row.trace) for row in block}
        assert len(lengths) >= 4 and cfg.sweep_iters in lengths
    if case == "singular_row":
        assert any(len(row.trace) == 3 for row in block[:cfg.restarts])
    if case == "retries_t0":
        # a step where rows retry, some of them rescued and some dropped
        # while the rest of the block goes on
        retries = [c for c in block_calls if len(c) == 3]
        assert any(rows > retried > dropped > 0 for rows, retried, dropped in retries)


def test_one_candidate_sweep_goes_in_blocks_of_block_rows(monkeypatch):
    # a candidate with more restarts than _BLOCK_ROWS is swept in several
    # _sweep calls, none of them larger than the cap, and every row gets the
    # bits of its start swept alone
    cfg = replace(C3_CFG, restarts=solver._BLOCK_ROWS + 6)
    net, mask, lam = c3_chain3()
    sweep, sizes = solver._sweep, []

    def recording_sweep(restarts, cfg):
        sizes.append(len(restarts))
        return sweep(restarts, cfg)

    monkeypatch.setattr(solver, "_sweep", recording_sweep)
    rows, = swept(canonicalize(net, mask), [lam], cfg)
    assert sizes == [solver._BLOCK_ROWS, 6]
    assert len(rows) == cfg.restarts
    for row in rows:
        row1 = solver._Restart(row.pencil, False, row.z0)
        sweep([row1], cfg)
        assert raw(row.init) == raw(row1.init)
        assert [raw(u) for u in row.trace] == [raw(u) for u in row1.trace]
        assert raw(row.best) == raw(row1.best)
        assert row.phi_plus_mu == row1.phi_plus_mu


# ---------------------------------------------------------------------------
# ranked reconstruction


def reconstruct_every_restart(cf, restarts):
    """solver._ranked without the ranking: every converged restart
    is reconstructed (solver._reconstructed), and the winner is picked in
    restart order, a cost below the incumbent's by more than 1e-15 taking
    its place."""
    best, failures = None, []
    for restart in restarts:
        res = solver._reconstructed(cf, solver.heuristic_iterate(restart))
        if not res.converged:
            failures.append(res.failure)
        elif best is None or res.cost < best.cost - 1e-15:
            best = res
    if best is None:
        return solver.FixedLambdaResult(
            lam=restarts[0].pencil.rp.lam, converged=False,
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


def solve_both_ways(mp, case):
    """RANKED_CASES[case] solved by solver._ranked and by
    reconstruct_every_restart. Returns, per way, the result and the number
    of reconstructions each polished candidate took (with whether it
    converged)."""
    out = []
    for way in (solver._ranked, reconstruct_every_restart):
        calls, per_candidate = [], []
        inner = solver.reconstruct_perturbation

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
            m.setattr(solver, "_ranked", polish_counted)
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

    monkeypatch.setattr(solver, "_ranked", reconstruct_every_restart)
    monkeypatch.setattr(solver, "reconstruct_perturbation", recording)
    for topo in ("line", "star"):
        net, mask, _ = sample_network(topo, 6, 4040, 0)
        solve_radius(net, mask, every_trailing_eigenvalue(net, mask), ENSEMBLE_CFG)
    for trial in range(4):
        solve_fixed_lambda(*sample_network("line", 3, 7, trial)[:2], 1j, C3_CFG)
    assert len(pairs) >= 100
    assert all(key == cost for key, cost in pairs)


@pytest.mark.parametrize("case", ["c3_chain0", "line6"])
def test_a_rejected_reconstruction_fails_its_candidate(monkeypatch, case):
    # the top-ranked triple is rejected as spurious when it is reconstructed:
    # the candidate fails with that reason, and no seed is polished after it
    events = []
    core = solver._gn_core

    def recording_core(*args, **kwargs):
        events.append("polish")
        return core(*args, **kwargs)

    def rejecting(rp, t, cf):
        events.append("reconstruct")
        raise SpuriousTripleError("forced")

    monkeypatch.setattr(solver, "_gn_core", recording_core)
    monkeypatch.setattr(solver, "reconstruct_perturbation", rejecting)
    res = RANKED_CASES[case]()
    assert not res.converged and res.cost == np.inf
    assert res.failure == "spurious stationary point: forced"
    assert res.verification is None
    assert events.count("reconstruct") == 1 and events[-1] == "reconstruct"
    assert events.count("polish") >= 1


def test_every_polished_triple_solves_the_stationarity_system(monkeypatch):
    # the premise of accepting a converged polish without a second test:
    # every triple that passes the polish (all restarts, all candidates and
    # every lambda-descent probe) reconstructs with residuals far below
    # reconstruct_perturbation's 1e-8, and its polish variable has unit
    # blocks, so no collapsed branch reaches _checked_triple
    polished = []
    checked = solver._checked_triple

    def recording(asm, u):
        t, detail = checked(asm, u)
        if t is not None:
            polished.append((asm, detail, t))
        return t, detail

    monkeypatch.setattr(solver, "_checked_triple", recording)
    cases = [(sample_network("line", 3, 7, trial)[:2], C3_CFG) for trial in range(6)]
    cases += [(sample_network("line", 6, 4040, 0)[:2], ENSEMBLE_CFG),
              (sample_network("star", 6, 4041, 1)[:2], STAR_CFG)]
    seen = 0
    for (net, mask), cfg in cases:
        polished.clear()
        if cfg is C3_CFG:
            assert solve_fixed_lambda(net, mask, 1j, cfg).converged
        else:
            assert solve_radius(net, mask, "topo", cfg).best.converged
        assert polished
        seen += len(polished)
        cf = canonicalize(net, mask)
        for asm, u, t in polished:
            rec = solver.reconstruct_perturbation(asm.rp, t, cf)
            assert rec.r_stat <= 1e-10 and rec.r_eig <= 1e-10
            for block in (u[:asm.nx], u[asm.nx:-1]):
                assert abs(np.linalg.norm(block) - 1.0) <= 1e-11
    assert seen >= 100  # 128 when written


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
    # one eigenvalue of each of the m trailing submatrices, and the m - 1
    # means of neighbouring diagonal entries, every one of them
    cases = [sample_network(topo, n, 4040, 0)[:2]
             for topo in ("line", "star") for n in range(4, 9)]
    cases += [net_of(a) for a in RECTANGLE_GRAPHS]
    cases.append(net_of(from_entries(5, RANDOM_5_7)))
    for net, mask in cases:
        m = len(net.free)
        topo = np.array(candidate_lambdas(net, mask, "topo"))
        assert len(topo) <= 2 * m - 1
        diag = np.sort(np.diag(net.weights)[net.free])
        for mean in (diag[:-1] + diag[1:]) / 2.0:
            assert np.abs(topo - mean).min() <= 1e-9
        assert set(topo) <= set(candidate_lambdas(net, mask, "default"))


def test_topo_grid_keeps_the_least_bound_eigenvalue_of_each_trailing_block(monkeypatch):
    # the C7 ensemble's first 6-node line: 5 free nodes, so 5 trailing
    # blocks and 4 diagonal means, where the grid that held every eigenvalue
    # of every trailing block had 19 candidates
    net, mask, _ = sample_network("line", 6, 4040, 0)
    block = net.weights[np.ix_(net.free, net.free)]
    kept = []
    for k in range(len(block)):
        eigs = [solver._fold(v) for v in np.linalg.eigvals(block[k:, k:])]
        bounds = solver._pbh_lower_bounds(net, eigs)
        kept.append(min(zip(bounds, eigs), key=lambda t: (t[0], t[1].real, t[1].imag))[1])
    diag = np.sort(np.diag(block))
    means = list((diag[:-1] + diag[1:]) / 2.0)
    calls = []
    bounds_of = solver._pbh_lower_bounds
    monkeypatch.setattr(solver, "_pbh_lower_bounds",
                        lambda net, lams: calls.append(len(lams)) or bounds_of(net, lams))
    topo = candidate_lambdas(net, mask, "topo")
    assert len(calls) == 1  # every block's bounds from one stacked SVD
    assert topo == candidate_lambdas(net, mask, kept + means)
    assert len(topo) == 9 and len(every_trailing_eigenvalue(net, mask)) == 19
    assert candidate_lambdas(net, mask, "default") == candidate_lambdas(
        net, mask, kept + means + list(np.linspace(-2, 2, 21)))
    # a solve takes its grid and the bounds it orders and prunes by from
    # that one stacked SVD, and solves in (bound, Re, Im) order
    calls.clear()
    rr = solve_radius(net, mask, "topo", ENSEMBLE_CFG)
    assert len(calls) == 1
    order = sorted(zip(bounds_of(net, list(topo)), topo),
                   key=lambda t: (t[0], t[1].real, t[1].imag))
    solved = [lam for lam, _ in rr.search_trace[:len(rr.search_trace) - rr.refine_evals]]
    assert solved == [lam for _, lam in order][:len(solved)]
    assert len(solved) + rr.pruned == len(topo)


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


def test_an_unverified_certificate_fails_the_solve(monkeypatch):
    # the certificate is the answer's gate: an answer it does not verify
    # comes back failed, naming the certificate, never as a radius
    verify = solver.verify_unobservability
    monkeypatch.setattr(solver, "verify_unobservability",
                        lambda *args: replace(verify(*args), verified=False))
    net, mask, _ = sample_network("line", 5, 59, 3)
    cfg = SolverConfig(seed=10, restarts=3)
    rr = solve_radius(net, mask, "topo", cfg)
    res = solve_fixed_lambda(net, mask, rr.lambda_star, cfg)
    for got in (rr.best, res):
        assert not got.converged and got.cost == np.inf
        assert got.failure.startswith("certificate not verified: smin ")
        assert got.verification is not None and not got.verification.verified
    assert rr.cost == np.inf


def test_a_deletion_answer_is_the_cheapest_cut_certified():
    # the C7 ensemble's first 6-node line: the search converges onto the
    # cost of its cheapest cut, within rounding, so the cut is the answer
    net, mask, _ = sample_network("line", 6, 4040, 0)
    rr = solve_radius(net, mask, "topo", ENSEMBLE_CFG)
    cost, (edge,) = min_deletion_cost(net, mask, 1)
    assert rr.branch == "edge-deletion" and rr.best.converged
    assert rr.cost == cost and abs(rr.search.cost - cost) <= 1e-12 * cost
    delta = np.zeros_like(net.weights)
    delta[edge] = -net.weights[edge]
    assert raw(rr.best.perturbation.delta) == raw(delta)
    # lambda*: the first eigenvalue of the cut-off block, folded, in (Re, Im)
    # order; every one of them is unobservable
    u = cut_off(net, [edge])
    assert list(u) == list(range(edge[1], 6))
    eigs = sorted(map(solver._fold, np.linalg.eigvals(net.weights[np.ix_(u, u)])),
                  key=lambda v: (v.real, v.imag))
    assert rr.lambda_star == rr.best.lam == eigs[0]
    for lam in eigs:
        assert solver.verify_unobservability(net, rr.best.perturbation, lam).verified
    assert rr.best.verification.verified
    again = solver._certified(net, replace(rr.best, verification=None))
    assert again.converged and again.verification.smin == rr.best.verification.smin
    assert rr.best.triple is None and rr.best.iterates is None
    assert rr.best.sigma is None and rr.best.reconstruction is None
    assert rr.best.iterations == 0 and rr.best.history == ()


@pytest.mark.parametrize("topo,n,trial,branch", [
    ("line", 5, 49, "edge-deletion"),  # the search ends 4.5e-13 below the cut
    ("star", 4, 11, "search"),         # the search is 0.74% below the cut
])
def test_the_search_replaces_the_cut_only_when_cheaper_beyond_rounding(topo, n, trial, branch):
    # C7 instances: a search that converges onto the cut may end a few ulps
    # below it, and the exact cut is then still the answer
    seed = {"line": 4040, "star": 4041}[topo]
    net, mask, _ = sample_network(topo, n, seed, trial)
    rr = solve_radius(net, mask, "topo", SolverConfig(restarts=4, sweep_iters=12, seed=seed))
    cut = min_deletion_cost(net, mask, 1)[0]
    assert rr.search.cost < cut and rr.branch == branch
    if branch == "edge-deletion":
        assert rr.cost == cut and rr.search.cost >= cut * (1 - solver._CUT_RTOL)
    else:
        assert rr.cost == rr.search.cost < cut * (1 - 1e-3)
        assert rr.lambda_star == rr.search.lam


def test_the_cut_answers_where_no_candidate_converges(monkeypatch, line4):
    def failed(cf, restarts):
        return solver.FixedLambdaResult(lam=restarts[0].pencil.rp.lam, converged=False,
                                        failure="all restarts failed: did not converge")

    monkeypatch.setattr(solver, "_ranked", failed)
    net, mask = line4
    rr = solve_radius(net, mask, "topo", SolverConfig(restarts=2))
    assert rr.search is None and rr.refine_evals == 0
    assert rr.search_trace and all(cost == np.inf for _, cost in rr.search_trace)
    assert rr.branch == "edge-deletion" and rr.best.converged
    assert rr.cost == min_deletion_cost(net, mask, 1)[0] == 0.3
    assert rr.best.verification.verified
    # where no single edge cuts either, the solve fails
    net, mask = net_of(np.full((3, 3), 0.5) + np.diag([0.1, 0.2, 0.3]))
    assert min_deletion_cost(net, mask, 1)[1] == ()
    rr = solve_radius(net, mask, "topo", SolverConfig(restarts=2))
    assert rr.branch == "search" and rr.search is None and rr.lambda_star is None
    assert not rr.best.converged and rr.best.failure == "no candidate converged"


def test_radius_search_trace_records_bound_pruning():
    net, mask, _ = sample_network("line", 5, 59, 3)
    rr = solve_radius(net, mask, "topo", SolverConfig(seed=10, restarts=3))
    assert rr.best.converged
    evaluated = [c for _, c in rr.search_trace if np.isfinite(c)]
    assert len(evaluated) >= 1
    assert min(evaluated) == pytest.approx(rr.best.cost, rel=1e-9)
    assert rr.pruned >= 0


def radius_recorded(net, mask, grid, cfg):
    """solve_radius with its swept and read restarts recorded: (result,
    every restart _sweep swept, (lambda, restart) per heuristic_iterate
    call)."""
    swept_rows, polished = [], []
    sweep, iterate = solver._sweep, solver.heuristic_iterate

    def recording_sweep(restarts, cfg):
        swept_rows.extend(restarts)
        return sweep(restarts, cfg)

    def recording_iterate(restart, *args):
        polished.append((restart.pencil.rp.lam, restart))
        return iterate(restart, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_sweep", recording_sweep)
        mp.setattr(solver, "heuristic_iterate", recording_iterate)
        rr = solve_radius(net, mask, grid, cfg)
    return rr, swept_rows, polished


def test_candidate_blocks_match_one_candidate_at_a_time(monkeypatch):
    # each case on its named grid with every eigenvalue of every trailing
    # block (every_trailing_eigenvalue)
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
        grid = every_trailing_eigenvalue(net, mask, grid)
        blocks, swept_rows, polished = radius_recorded(net, mask, grid, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_BLOCK_ROWS", cfg.restarts)
            alone, swept1, polished1 = radius_recorded(net, mask, grid, cfg)
        assert blocks.best.converged, name
        assert blocks.cost == alone.cost
        assert blocks.lambda_star == alone.lambda_star
        # the answer, and the search's own where the cut is the answer
        for got, want in ((blocks.best, alone.best), (blocks.search, alone.search)):
            assert raw(got.perturbation.delta) == raw(want.perturbation.delta)
            assert got.iterations == want.iterations
            assert got.history == want.history
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
        # every candidate after the solved ones is pruned
        assert blocks.pruned == len(order) - len(solved)
        if name == "ensemble_line5":
            # whole candidates are swept ahead and dropped unpolished
            unpolished = {id(row) for row in swept_rows} - {id(row) for _, row in polished}
            assert unpolished and len(unpolished) % cfg.restarts == 0
        else:
            assert any(lam.imag for lam in solved) and not all(lam.imag for lam in solved)


def continue_triple(cf, lam, t, cfg):
    """The triple t continued to lam (solver._continuation) and
    reconstructed (solver._reconstructed), or failed."""
    asm = solver._assembly(build_reduced(cf, lam))
    return solver._reconstructed(cf, solver._continuation(asm, t, cfg))


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
# the CLI benchmark pool's random7, perfbench.workloads.random_sparse(7, 2611)
RANDOM_7_2611 = {
    (0, 0): 0.5349827376041129, (0, 6): 0.748741843787179, (1, 1): 0.37556660226265015,
    (2, 1): 0.7383511756090215, (2, 2): 0.7807666395753257, (2, 3): 0.25784467050446613,
    (2, 4): 0.29169444681368684, (3, 0): 0.6162756882379655, (3, 2): 0.5376103119882086,
    (3, 3): 0.7175481300269667, (3, 4): 0.1465774926386907, (3, 5): 0.8414958352156268,
    (3, 6): 0.4217146521561548, (4, 0): 0.3488930743344225, (4, 2): 0.9178950979489696,
    (4, 4): 0.7566568496678566, (4, 5): 0.9879050513468252, (4, 6): 0.11241015542427546,
    (5, 1): 0.8965296594004329, (5, 5): 0.1646084060548879, (6, 1): 0.7761542679572985,
    (6, 2): 0.5531174467611941, (6, 6): 0.1999503762420355}
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


def test_lambda_descent_reconstructs_only_the_probes_that_win(monkeypatch):
    # each converged probe is ranked by its triple's cost; only one that
    # beats the incumbent by more than 1e-12 is reconstructed, and one that
    # loses enters search_trace with the cost its reconstruction would give
    probes, reconstructed = [], []
    cont, reconstruct = solver._continuation, solver._reconstructed

    def continued(asm, t_prev, cfg):
        res = cont(asm, t_prev, cfg)
        if res.converged:
            probes.append(res)
        return res

    def reconstructing(cf, res):
        if any(res is probe for probe in probes):
            reconstructed.append(res.lam)
        return reconstruct(cf, res)

    monkeypatch.setattr(solver, "_continuation", continued)
    monkeypatch.setattr(solver, "_reconstructed", reconstructing)
    net, mask = net_of(from_entries(5, RANDOM_5_7))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and len(probes) == rr.refine_evals
    grid, descent = rr.search_trace[:-len(probes)], rr.search_trace[-len(probes):]
    cf = canonicalize(net, mask)
    incumbent, wins = min(cost for _, cost in grid), []
    for probe, (lam, cost) in zip(probes, descent):
        assert lam == probe.lam
        res = reconstruct(cf, probe)
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
    # is reconstructed: it fails with that reason and without another polish,
    # the step halves from the same incumbent, and the solve goes on
    events, outcomes = [], []
    cont, direction = solver._continuation, solver._descent_direction
    core, reconstruct = solver._gn_core, solver.reconstruct_perturbation
    reconstructed = solver._reconstructed

    def continued(asm, t_prev, cfg):
        events.append(("probe", asm.rp, t_prev))
        return cont(asm, t_prev, cfg)

    def directing(rp, res):
        events.append(("incumbent", rp.lam, res.triple))
        return direction(rp, res)

    def recording_core(*args, **kwargs):
        events.append(("polish",))
        return core(*args, **kwargs)

    def rejecting(rp, t, cf):
        probe = next((e for e in reversed(events) if e[0] == "probe"), None)
        if probe is not None and rp is probe[1] and not any(
                e[0] == "rejected" for e in events):
            events.append(("rejected", rp))
            raise SpuriousTripleError("rejected for the test")
        return reconstruct(rp, t, cf)

    def recording_reconstructed(cf, res):
        out = reconstructed(cf, res)
        outcomes.append(out)
        return out

    monkeypatch.setattr(solver, "_continuation", continued)
    monkeypatch.setattr(solver, "_descent_direction", directing)
    monkeypatch.setattr(solver, "_gn_core", recording_core)
    monkeypatch.setattr(solver, "reconstruct_perturbation", rejecting)
    monkeypatch.setattr(solver, "_reconstructed", recording_reconstructed)
    net, mask = net_of(from_entries(5, RANDOM_5_7))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and rr.best.verification.verified
    r = next(i for i, e in enumerate(events) if e[0] == "rejected")
    failed = next(o for o in outcomes if o.lam == events[r][1].lam)
    assert not failed.converged
    assert failed.failure == "spurious stationary point: rejected for the test"
    k = max(i for i, e in enumerate(events[:r]) if e[0] == "probe")
    # the probe's one polish, its rejection, and then the next probe
    assert [e[0] for e in events[k:r + 2]] == ["probe", "polish", "rejected", "probe"]
    _, lam0, t0 = next(e for e in reversed(events[:k]) if e[0] == "incumbent")
    _, rejected_rp, t_rejected = events[k]
    _, after_rp, t_after = events[r + 1]
    assert t_rejected is t0 and t_after is t0
    step, half = rejected_rp.lam - lam0, after_rp.lam - lam0
    assert half == pytest.approx(step / 2.0, rel=1e-9)
    assert rr.refine_evals == sum(e[0] == "probe" for e in events)


def test_every_descent_probe_enters_search_trace(monkeypatch):
    # the last refine_evals entries of search_trace are the descent's probes,
    # in order and at the lambdas they were continued to; a probe whose polish
    # fails, or whose reconstruction is rejected, holds inf, as a failed grid
    # candidate does. On this graph many continuations fail to converge
    probes, rejected = [], []
    cont, reconstruct = solver._continuation, solver._reconstructed

    def continued(asm, t_prev, cfg):
        res = cont(asm, t_prev, cfg)
        probes.append((asm.rp.lam, res))
        return res

    def reconstructing(cf, res):
        out = reconstruct(cf, res)
        if res.converged and not out.converged:
            rejected.append(res)
        return out

    monkeypatch.setattr(solver, "_continuation", continued)
    monkeypatch.setattr(solver, "_reconstructed", reconstructing)
    net, mask = net_of(0.5 * from_entries(10, RANDOM_10_15))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and len(probes) == rr.refine_evals
    descent = rr.search_trace[-rr.refine_evals:]
    assert [lam for lam, _ in descent] == [lam for lam, _ in probes]
    failed = [not res.converged or any(res is r for r in rejected) for _, res in probes]
    assert any(failed) and not all(failed)
    assert [cost == np.inf for _, cost in descent] == failed


@pytest.mark.parametrize("n,entries,max_probes,radius,complex_winner", [
    (7, RANDOM_7_2611, 8, 0.0979662560475, False),
    (5, RANDOM_5_7, 16, 0.1086378407087, True),
], ids=["random7_2611", "random5_7"])
def test_lambda_descent_steps_from_its_gradient(n, entries, max_probes, radius,
                                                complex_winner):
    # two-point steps after a win and an interpolating backtrack after a
    # loss: a descent that only doubles and halves its step zigzags across
    # the minimum and spends 37 and 49 probes on these graphs, for a radius
    # no lower. A complex winner moves in both coordinates, a real one along
    # the real axis
    net, mask = net_of(from_entries(n, entries))
    rr = solve_radius(net, mask, "default", SolverConfig())
    assert rr.best.converged and rr.best.verification.verified
    assert 0 < rr.refine_evals <= max_probes
    assert rr.cost <= radius + 1e-11
    grid = rr.search_trace[:-rr.refine_evals]
    moved = rr.lambda_star - min(grid, key=lambda e: e[1])[0]
    assert moved.real != 0.0
    assert (moved.imag != 0.0) == complex_winner


@pytest.mark.parametrize("n,entries,scale", [
    (5, RANDOM_5_7, 1.0), (10, RANDOM_10_15, 0.5), (6, RANDOM_6_4, 1.0),
], ids=["random5_7", "random10_15_x0.5", "random6_4"])
def test_a_descent_move_after_a_win_is_at_most_twice_the_winning_one(
        monkeypatch, n, entries, scale):
    # the two-point step length is capped at twice the accepted move: without
    # the cap, a long step from a win lands where the continuation of the
    # incumbent triple no longer converges, and the descent backtracks
    probes = []
    cont = solver._continuation

    def continued(asm, t_prev, cfg):
        probes.append((asm.rp.lam, t_prev))
        return cont(asm, t_prev, cfg)

    monkeypatch.setattr(solver, "_continuation", continued)
    rr = solve_radius(*net_of(scale * from_entries(n, entries)), "default", SolverConfig())
    assert rr.best.converged and len(probes) == rr.refine_evals
    # an incumbent and the lambda of the probe that made it one
    grid = rr.search_trace[:-rr.refine_evals]
    lam, t = min(grid, key=lambda e: e[1])[0], probes[0][1]
    moves = 0
    for (lam_win, _), (lam_next, t_next) in zip(probes, probes[1:]):
        if t_next is t:
            continue
        # the probe at lam_win won: its triple is the next one continued
        won = abs(lam_win - lam)
        assert abs(lam_next - lam_win) <= 2.0 * won * (1.0 + 1e-12) + 1e-12
        lam, t, moves = lam_win, t_next, moves + 1
    assert moves > 0


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
