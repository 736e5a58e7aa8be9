from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobs import (CandidateTriple, SolverConfig, SpuriousTripleError,
                    assemble_pencil, assemble_real_pencil,
                    build_reduced, build_weightings, canonicalize,
                    embed_real_triple, normalize_triple,
                    orthogonality_diagnostic, reconstruct_perturbation,
                    solve_fixed_lambda, system_residual)
from netobs import properties
from netobs.montecarlo import sample_network
from netobs.radius_core import PencilAssembly
from conftest import line_matrix, net_of


def reduced3(lam=1j):
    a = line_matrix([0.7, 0.4, 0.9], [0.5, 0.3], [0.6, 0.8])
    net, mask = net_of(a)
    cf = canonicalize(net, mask)
    return build_reduced(cf, lam), cf


def loop_weightings(v_bar, x, y):
    """Entry-by-entry evaluation of the S/T/Q sums, independent of the
    vectorized implementation."""
    n, m = v_bar.shape
    xr, xi = x[:m], x[m:]
    y1, y2 = y[:n], y[n:]
    sx = np.zeros(n); tx = np.zeros(n); qx = np.zeros(n)
    for i in range(n):
        for j in range(m):
            sx[i] += v_bar[i, j] * xr[j] ** 2
            tx[i] += v_bar[i, j] * xr[j] * xi[j]
            qx[i] += v_bar[i, j] * xi[j] ** 2
    sy = np.zeros(m); ty = np.zeros(m); qy = np.zeros(m)
    for j in range(m):
        for i in range(n):
            sy[j] += v_bar[i, j] * y1[i] ** 2
            ty[j] += v_bar[i, j] * y1[i] * y2[i]
            qy[j] += v_bar[i, j] * y2[i] ** 2
    d_x = np.block([[np.diag(sx), np.diag(tx)], [np.diag(tx), np.diag(qx)]])
    d_y = np.block([[np.diag(sy), np.diag(ty)], [np.diag(ty), np.diag(qy)]])
    return d_x, d_y


# ---------------------------------------------------------------------------
# reduced problem blocks


def lambda_blocks(rp):
    """(M_bar, N_bar): lam_im I_bar and lam_re I_bar as dense n x (n-p)
    blocks, the identity in the rows free and +0.0 in the sensor rows."""
    m_bar, n_bar = np.zeros((rp.n, rp.m)), np.zeros((rp.n, rp.m))
    m_bar[rp.free] = rp.lam.imag * np.eye(rp.m)
    n_bar[rp.free] = rp.lam.real * np.eye(rp.m)
    return m_bar, n_bar


def test_blocks_at_purely_imaginary_lambda():
    rp, _ = reduced3(1j)
    n, m = rp.n, rp.m
    at = rp.a_tilde
    np.testing.assert_array_equal(at[:n, :m], rp.a_bar)
    np.testing.assert_array_equal(at[rp.free, m:], np.eye(m))
    np.testing.assert_array_equal(at[n + rp.free, :m], -np.eye(m))
    # the sensor rows of lam_im I_bar are +0.0, those of -lam_im I_bar -0.0
    assert not np.signbit(at[0, m:]).any() and np.signbit(at[n, :m]).all()


def test_blocks_at_real_lambda():
    rp, _ = reduced3(0.4)
    n, m = rp.n, rp.m
    assert rp.is_real
    at = rp.a_tilde
    assert not at[:n, m:].any() and not at[n:, :m].any()
    np.testing.assert_array_equal(at[rp.free, :m], rp.a_bar[rp.free] - 0.4 * np.eye(m))
    np.testing.assert_array_equal(at[0, :m], rp.a_bar[0])


def test_blocks_single_column_when_one_free_node():
    a = line_matrix([0.5, 0.8], [0.6], [0.3])
    net, mask = net_of(a)
    rp = build_reduced(canonicalize(net, mask), 0.25 + 0.1j)
    for blk in (rp.a_bar, rp.v_bar):
        assert blk.shape[1] == 1
    assert rp.free.tolist() == [1] and rp.a_tilde.shape == (4, 2)


def test_a_tilde_layout():
    # the dense block form, signed zeros included, wherever the sensors sit
    a = line_matrix([0.7, 0.4, 0.9, 0.2], [0.5, 0.3, 0.6], [0.6, 0.8, 0.1])
    for sensors in ((0,), (2,), (3, 1)):
        net, mask = net_of(a, sensors=sensors)
        for lam in (0.3 + 0.6j, -0.2 - 0.5j):
            rp = build_reduced(canonicalize(net, mask), lam)
            m_bar, n_bar = lambda_blocks(rp)
            an = rp.a_bar - n_bar
            assert_bitwise(rp.a_tilde, np.block([[an, m_bar], [-m_bar, an]]))


# ---------------------------------------------------------------------------
# weighting matrices


def test_weightings_match_loop_oracle():
    rp, _ = reduced3(0.2 + 0.9j)
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.standard_normal(2 * rp.m)
        y = rng.standard_normal(2 * rp.n)
        d_x, d_y = build_weightings(rp, x, y)
        ox, oy = loop_weightings(rp.v_bar, x, y)
        np.testing.assert_allclose(d_x, ox, atol=1e-14)
        np.testing.assert_allclose(d_y, oy, atol=1e-14)


def test_weightings_line3_hand_case():
    # x_Re = e_1, x_Im = e_2: S_x picks column 1 of V_bar, Q_x column 2
    rp, _ = reduced3(1j)
    x = np.array([1.0, 0.0, 0.0, 1.0])
    y = np.zeros(2 * rp.n)
    d_x, _ = build_weightings(rp, x, y)
    np.testing.assert_array_equal(np.diag(d_x)[: rp.n], rp.v_bar[:, 0])
    np.testing.assert_array_equal(np.diag(d_x)[rp.n:], rp.v_bar[:, 1])
    np.testing.assert_array_equal(d_x[: rp.n, rp.n:], np.zeros((rp.n, rp.n)))


def test_weightings_all_ones_mask_real_vector():
    rp, _ = reduced3(1j)
    rp_full = replace(rp, v_bar=np.ones_like(rp.v_bar))
    xr = np.array([0.6, 0.8])
    x = np.concatenate([xr, np.zeros(2)])
    d_x, _ = build_weightings(rp_full, x, np.zeros(2 * rp.n))
    np.testing.assert_allclose(d_x[: rp.n, : rp.n], np.eye(rp.n), atol=1e-15)
    assert np.all(np.diag(d_x)[rp.n:] == 0)


def test_weightings_zero_mask_degenerate():
    rp, _ = reduced3(1j)
    rp0 = replace(rp, v_bar=np.zeros_like(rp.v_bar))
    x = np.ones(2 * rp.m)
    y = np.ones(2 * rp.n)
    d_x, d_y = build_weightings(rp0, x, y)
    assert not d_x.any() and not d_y.any()


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 5.0), st.integers(0, 10 ** 6))
def test_weighting_scaling_is_quadratic(alpha, seed):
    rp, _ = reduced3(0.3 + 0.7j)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2 * rp.m)
    y = rng.standard_normal(2 * rp.n)
    assert properties.weighting_scaling_residual(rp, x, y, alpha) <= 1e-12
    _, d_y = build_weightings(rp, x, y)
    _, d_y2 = build_weightings(rp, alpha * x, y)
    np.testing.assert_allclose(d_y2, d_y, atol=0)


def test_weighting_traces_full_mask_unit_vectors():
    rp, _ = reduced3(1j)
    rp_full = replace(rp, v_bar=np.ones_like(rp.v_bar))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2 * rp.m); x /= np.linalg.norm(x)
    y = rng.standard_normal(2 * rp.n); y /= np.linalg.norm(y)
    d_x, d_y = build_weightings(rp_full, x, y)
    assert np.trace(d_x) == pytest.approx(rp.n, rel=1e-12)
    assert np.trace(d_y) == pytest.approx(rp.m, rel=1e-12)


# ---------------------------------------------------------------------------
# pencil assembly


def test_pencil_structure():
    rp, _ = reduced3(0.1 + 0.8j)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2 * rp.m); x /= np.linalg.norm(x)
    y = rng.standard_normal(2 * rp.n); y /= np.linalg.norm(y)
    pp = assemble_pencil(rp, x, y)
    k = pp.size
    assert k == 2 * rp.n + 2 * rp.m
    np.testing.assert_array_equal(pp.h, pp.h.T)
    np.testing.assert_array_equal(pp.h[: 2 * rp.m, : 2 * rp.m], np.zeros((2 * rp.m,) * 2))
    np.testing.assert_array_equal(pp.h[2 * rp.m:, 2 * rp.m:], np.zeros((2 * rp.n,) * 2))
    np.testing.assert_array_equal(pp.d, pp.d.T)
    assert np.linalg.eigvalsh(pp.d).min() >= -1e-12
    # H always singular: zero belongs to the pencil spectrum
    assert np.linalg.svd(pp.h, compute_uv=False)[-1] < 1e-12


def test_a_tilde_full_column_rank_observable():
    rp, _ = reduced3(0.45 + 0.3j)
    assert np.linalg.matrix_rank(rp.a_tilde) == 2 * rp.m


def test_real_pencil_requires_real_lambda():
    rp, _ = reduced3(1j)
    with pytest.raises(ValueError):
        assemble_real_pencil(rp, np.ones(rp.m), np.ones(rp.n))


def block_pencil(rp, x, y, real):
    """Dense reference assembly of (H, D) and A_tilde with np.block."""
    v = rp.v_bar
    m_bar, n_bar = lambda_blocks(rp)
    if real:
        at = rp.a_bar - n_bar
        d_x, d_y = np.diag(v @ (x * x)), np.diag(v.T @ (y * y))
    else:
        an = rp.a_bar - n_bar
        at = np.block([[an, m_bar], [-m_bar, an]])
        m, n = rp.m, rp.n
        xr, xi, y1, y2 = x[:m], x[m:], y[:n], y[n:]
        sx, tx, qx = v @ (xr * xr), v @ (xr * xi), v @ (xi * xi)
        sy, ty, qy = v.T @ (y1 * y1), v.T @ (y1 * y2), v.T @ (y2 * y2)
        d_x = np.block([[np.diag(sx), np.diag(tx)], [np.diag(tx), np.diag(qx)]])
        d_y = np.block([[np.diag(sy), np.diag(ty)], [np.diag(ty), np.diag(qy)]])
    k, l = at.shape
    h = np.block([[np.zeros((l, l)), at.T], [at, np.zeros((k, k))]])
    d = np.block([[d_y, np.zeros((l, k))], [np.zeros((k, l)), d_x]])
    return h, d, at, d_x, d_y


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_pencil_fill_matches_block_assembly():
    # H once, D's diagonals filled per point: the same bits as a dense
    # np.block assembly, signed zeros included, at every point of one
    # assembly (nothing left over from the previous point)
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        np.fill_diagonal(a, rng.uniform(0.1, 1.0, size=n))
        try:
            net, mask = net_of(a)
        except ValueError:
            continue
        cf = canonicalize(net, mask)
        real = trial % 2 == 0
        lam = complex(rng.uniform(-1, 1), 0.0 if real else rng.uniform(-1, 1))
        rp = build_reduced(cf, lam)
        asm = PencilAssembly(rp, real=real)
        nx, ny = (rp.m, rp.n) if real else (2 * rp.m, 2 * rp.n)
        for _ in range(3):
            x, y = rng.standard_normal(nx), rng.standard_normal(ny)
            h, d, at, d_x, d_y = block_pencil(rp, x, y, real)
            pp = asm.pencil(x, y)
            assert asm.nx == nx
            for got, ref in ((pp.h, h), (pp.d, d), (asm.a_tilde, at)):
                assert_bitwise(got, ref)
            one = (assemble_real_pencil if real else assemble_pencil)(rp, x, y)
            assert_bitwise(one.h, h)
            assert_bitwise(one.d, d)
            if not real:
                assert_bitwise(rp.a_tilde, at)
                got_x, got_y = build_weightings(rp, x, y)
                assert_bitwise(got_x, d_x)
                assert_bitwise(got_y, d_y)
        checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# triples


@pytest.mark.parametrize("real", [False, True], ids=["complex", "half_size"])
def test_assembly_maps_round_trip(real):
    # u_of inverts triple on both routes; on the half-size route a triple
    # whose real half of x or of y vanishes has no polish variable
    rp, _ = reduced3(0.4 + 0j if real else 0.3 + 0.6j)
    asm = PencilAssembly(rp, real=real)
    if not real:
        assert asm.a_tilde is rp.a_tilde and not rp.a_tilde.flags.writeable
    rng = np.random.default_rng(17)
    for _ in range(20):
        x, y = rng.standard_normal(asm.nx), rng.standard_normal(asm.size - asm.nx)
        u = np.concatenate([x / np.linalg.norm(x), y / np.linalg.norm(y),
                            [rng.uniform(0.1, 2.0)]])
        np.testing.assert_allclose(asm.u_of(asm.triple(u)), u, rtol=1e-14, atol=1e-15)
    m, n = rp.m, rp.n
    imag_x = np.concatenate([np.zeros(m), np.ones(m) / np.sqrt(m)])
    imag_y = np.concatenate([np.zeros(n), np.ones(n) / np.sqrt(n)])
    real_y = np.concatenate([np.ones(n) / np.sqrt(n), np.zeros(n)])
    for t in (CandidateTriple(0.5, imag_x, imag_y), CandidateTriple(0.5, imag_x, real_y)):
        u = asm.u_of(t)
        if real:
            assert u is None
        else:
            assert np.array_equal(u, np.concatenate([t.x, t.y, [0.5]]))


def test_triple_validation():
    x = np.array([1.0, 0.0]); y = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        CandidateTriple(sigma=-0.5, x=x, y=y)
    with pytest.raises(ValueError):
        CandidateTriple(sigma=0.5, x=2 * x, y=y)


@settings(max_examples=40, deadline=None)
@given(st.floats(-4, 4), st.integers(0, 10 ** 6))
def test_normalize_triple_gauge(sigma, seed):
    if abs(sigma) < 1e-3:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4) * 2.0
    y = rng.standard_normal(6) * 0.5
    t = normalize_triple(sigma, x, y)
    assert t.sigma > 0
    assert np.linalg.norm(t.x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(t.y) == pytest.approx(1.0, abs=1e-12)
    # sigma * outer(y, x) is gauge invariant under the rescaling
    np.testing.assert_allclose(t.sigma * np.outer(t.y, t.x),
                               sigma * np.outer(y, x),
                               rtol=1e-10, atol=1e-12)


def test_result_residual_is_the_balanced_pencil_residual():
    # FixedLambdaResult.residual is ||H z - sigma_bar D(z) z|| at the balanced
    # embedding z = (x, y)/sqrt(2), sigma_bar = 2 sigma, taken as the
    # stationarity residual over sqrt(2); checked against the dense pencil
    # on C3's chains at lambda = i and on a candidate of the half-size route
    cases = [(sample_network("line", 3, 7, trial)[:2], 1j,
              SolverConfig(restarts=12, sweep_iters=15, seed=7))
             for trial in range(6)]
    net, mask, _ = sample_network("line", 4, 42, 1)
    cases.append(((net, mask), complex(np.diag(net.weights)[-1], 0.0),
                  SolverConfig(seed=42, restarts=4, sweep_iters=12)))
    for (net, mask), lam, cfg in cases:
        res = solve_fixed_lambda(net, mask, lam, cfg)
        assert res.converged
        assert res.iterates.asm.real == (lam.imag == 0.0)
        rp = build_reduced(canonicalize(net, mask), lam)
        t = res.triple
        z = np.concatenate([t.x, t.y]) / np.sqrt(2.0)
        pp = PencilAssembly(rp).pencil(z[:2 * rp.m], z[2 * rp.m:])
        dense = float(np.linalg.norm(pp.h @ z - 2.0 * t.sigma * (pp.d @ z)))
        assert abs(res.residual - dense) <= 1e-14
        assert res.residual == res.reconstruction.r_stat / np.sqrt(2.0)
        assert 0.0 < res.residual <= 1e-9


# ---------------------------------------------------------------------------
# reconstruction


def two_node_optimal_triple():
    """n=2 chain, lambda = a22: the unique admissible perturbation kills a12.

    Stationarity holds with x = e1 (reduced coordinates), y = e1, sigma = a12;
    brute force over the one-parameter family confirms optimality.
    """
    a = line_matrix([0.9, 0.35], [0.62], [0.27])
    net, mask = net_of(a)
    cf = canonicalize(net, mask)
    rp = build_reduced(cf, a[1, 1])
    t = CandidateTriple(sigma=a[0, 1],
                        x=np.array([1.0, 0.0]),
                        y=np.array([1.0, 0.0, 0.0, 0.0]))
    return a, net, mask, cf, rp, t


def test_two_node_reconstruction_matches_brute_force():
    a, net, mask, cf, rp, t = two_node_optimal_triple()
    assert system_residual(rp, t) < 1e-14
    rec = reconstruct_perturbation(rp, t, cf)
    delta = rec.perturbation.delta
    expected = np.zeros((2, 2))
    expected[0, 1] = -a[0, 1]
    np.testing.assert_allclose(delta, expected, atol=1e-12)
    assert rec.perturbation.frob_norm == pytest.approx(a[0, 1], rel=1e-12)
    # brute force over the one-free-parameter feasible family: x = e2 forces
    # d12 = -a12, and d22 only shifts the eigenvalue, so cost is minimal at 0
    from netobs import Perturbation, verify_unobservability
    costs = []
    for d22 in np.linspace(-1, 1, 41):
        d = np.zeros((2, 2))
        d[0, 1] = -a[0, 1]
        d[1, 1] = d22
        rep = verify_unobservability(net, Perturbation(d, mask), a[1, 1] + d22)
        assert rep.verified  # every member is feasible
        costs.append(np.sqrt(a[0, 1] ** 2 + d22 ** 2))
    assert min(costs) == pytest.approx(a[0, 1], rel=1e-12)
    assert all(c >= a[0, 1] - 1e-12 for c in costs)


def test_reconstruction_cost_identities():
    a, net, mask, cf, rp, t = two_node_optimal_triple()
    rec = reconstruct_perturbation(rp, t, cf)
    identity, bound = properties.cost_identity_residuals(rec)
    assert identity < 1e-10
    assert bound <= 1e-12
    assert rec.r_eig <= 1e-10


def test_orthogonality_diagnostic_near_zero_at_stationary():
    _, _, _, _, rp, t = two_node_optimal_triple()
    c_re, c_im = orthogonality_diagnostic(rp, t)
    assert abs(c_re) < 1e-12 and abs(c_im) < 1e-12


def test_reconstruction_rejects_garbage_triple():
    rp, cf = reduced3(1j)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2 * rp.m); x /= np.linalg.norm(x)
    y = rng.standard_normal(2 * rp.n); y /= np.linalg.norm(y)
    t = CandidateTriple(sigma=1.0, x=x, y=y)
    with pytest.raises(SpuriousTripleError):
        reconstruct_perturbation(rp, t, cf)


def test_embed_real_triple_roundtrip():
    t = embed_real_triple(0.7, np.array([0.6, 0.8]), np.array([0.0, 1.0, 0.0]))
    assert t.sigma == pytest.approx(0.7)
    assert np.all(t.x[2:] == 0) and np.all(t.y[3:] == 0)
    assert np.linalg.norm(t.x) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# the norms of the polish and the sweep: numpy's own results, bit for bit


def special_rows(rows, k, seed):
    """A (rows, k) stack of ordinary entries with 0.0, -0.0, inf, NaN,
    subnormals and entries whose squares overflow or underflow in some
    rows, the first row ordinary."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-3, 4, (rows, k))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-310, 1e200, 1e-200]
    for r in range(1, rows):
        picks = rng.integers(0, len(specials), rng.integers(1, 3))
        x[r, rng.integers(0, k, len(picks))] = [specials[p] for p in picks]
    return x


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def norm_cases():
    """Vectors, and stacks of one and of many rows, contiguous and not."""
    out = {}
    for rows, k in ((1, 1), (1, 12), (7, 11), (40, 5)):
        x = special_rows(rows, k, 100 * rows + k)
        out[f"{rows}x{k}"] = x
        out[f"{rows}x{k}-cols"] = np.asfortranarray(x)
        out[f"{rows}x{k}-every-other"] = special_rows(rows, 2 * k, k)[:, ::2]
        out[f"{rows}x{k}-reversed"] = x[::-1, ::-1]
    out["zeros"] = np.zeros((3, 4))
    out["negative-zeros"] = np.full((3, 4), -0.0)
    out["subnormals"] = np.full((2, 6), 5e-324)
    out["empty"] = np.zeros((2, 0))
    return out


NORM_CASES = norm_cases()


@pytest.mark.parametrize("name", NORM_CASES)
def test_norm_helpers_are_numpys_norms_bit_for_bit(name):
    """radius_core's norms evaluate what np.linalg.norm evaluates, on every
    row, on the whole array, on views and on special values: a numpy
    release that changes np.linalg.norm fails here."""
    from netobs.radius_core import _inf_norm, _norm, _norms, _rowdot

    x = NORM_CASES[name]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert same_bits(_norm(x), np.linalg.norm(x))
        assert same_bits(_norms(x, 1), np.linalg.norm(x, axis=1))
        for row in x:
            assert same_bits(_norm(row), np.linalg.norm(row))
            assert same_bits(_inf_norm(row), np.linalg.norm(row, np.inf))
            assert same_bits(row.sum(), np.sum(row))
        if x.shape[1] and x.strides[1] == x.itemsize:
            # the sweep's row norms, sqrt of _rowdot, on rows of adjacent
            # entries, as in every stack the sweep forms
            assert same_bits(np.sqrt(_rowdot(x, x))[:, 0], [np.linalg.norm(r) for r in x])
        rows, k = x.shape
        for stack in (x[None], x[:, None], np.swapaxes(x[None], 1, 2),
                      x[:rows - rows % 2].reshape(2, rows // 2, k)):
            assert same_bits(_norms(stack, (1, 2)), np.linalg.norm(stack, axis=(1, 2)))
