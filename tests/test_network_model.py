import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobs import (ConstraintMask, MaskSupportError, NetworkFormatError,
                    NetworkSystem, Perturbation, UnobservableSystemError,
                    canonicalize, is_observable, load_network,
                    network_from_dict, pbh_margin, perturbation_from_dict,
                    perturbation_to_dict, verify_unobservability)
from conftest import line_matrix, net_of, star_matrix


# ---------------------------------------------------------------------------
# construction and validation


def test_rejects_all_sensors():
    a = np.array([[0.5, 0.2], [0.3, 0.7]])
    with pytest.raises(NetworkFormatError):
        NetworkSystem(a, (0, 1))


def test_rejects_duplicate_and_out_of_range_sensors():
    a = line_matrix([0.5, 0.6, 0.7], [0.4, 0.3], [0.2, 0.1])
    with pytest.raises(NetworkFormatError):
        NetworkSystem(a, (0, 0))
    with pytest.raises(NetworkFormatError):
        NetworkSystem(a, (3,))


@pytest.mark.parametrize("check_observability", [True, False])
def test_rejects_non_finite_weights(check_observability):
    a = np.array([[np.nan, 1.0, 0.0], [1.0, 0.5, 0.2], [0.0, 0.3, 0.1]])
    with pytest.raises(NetworkFormatError, match=r"edge \(1,1\) has non-finite weight nan"):
        NetworkSystem(a, (0,), check_observability=check_observability)
    a[0, 0], a[2, 1] = 0.7, -np.inf
    with pytest.raises(NetworkFormatError, match=r"edge \(3,2\) has non-finite weight -inf"):
        NetworkSystem(a, (0,), check_observability=check_observability)


def test_rejects_unobservable_by_default():
    with pytest.raises(UnobservableSystemError):
        NetworkSystem(np.zeros((2, 2)), (0,))
    net = NetworkSystem(np.zeros((2, 2)), (0,), check_observability=False)
    ok, margin = is_observable(net)
    assert not ok
    assert margin < 1e-12


def test_zero_matrix_unobservable():
    ok, _ = is_observable(NetworkSystem(np.zeros((2, 2)), (0,),
                                        check_observability=False))
    assert not ok


def test_line_all_super_nonzero_observable(line4):
    net, _ = line4
    ok, margin = is_observable(net)
    assert ok and margin > 0


def test_star_equal_leaf_diagonals_unobservable():
    # equal leaf self-loops admit an eigenvector in Ker(A12) x Ker(C)
    a = star_matrix([0.5, 0.3, 0.3, 0.8], [0.6, 0.7, 0.9], [0.2, 0.4, 0.5])
    net = NetworkSystem(a, (0,), check_observability=False)
    ok, margin = is_observable(net)
    assert not ok
    assert margin <= 1e-10
    x = np.array([0.0, a[0, 2], -a[0, 1], 0.0])
    x /= np.linalg.norm(x)
    assert np.linalg.norm(a @ x - 0.3 * x) < 1e-14  # direct PBH evidence


def test_observable_margin_positive_everywhere(line3):
    net, _ = line3
    margin, _ = pbh_margin(net.weights, net.sensors)
    assert margin > 1e-6


def reference_pbh_margin(weights, sensors):
    """pbh_margin as a loop over the eigenvalues of A, one SVD each, keeping
    the first minimum."""
    a = np.asarray(weights, dtype=float)
    n = a.shape[0]
    c = np.zeros((len(sensors), n))
    for k, s in enumerate(sensors):
        c[k, s] = 1.0
    margin, worst = np.inf, None
    for lam in np.linalg.eigvals(a):
        smin = np.linalg.svd(np.vstack([lam * np.eye(n) - a, c]), compute_uv=False)[-1]
        if smin < margin:
            margin, worst = float(smin), complex(lam)
    return margin, worst


def test_pbh_margin_matches_a_loop_over_eigenvalues():
    # bit for bit, on real spectra (symmetric and triangular A, which take
    # real SVDs), complex ones, and repeated eigenvalues (block-diagonal
    # copies), where the first of equal minima must be the one reported
    rng = np.random.default_rng(8)
    kinds = set()
    for trial in range(400):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        if trial % 4 == 0:
            a = a + a.T
        elif trial % 4 == 1:
            a = np.triu(a)
        elif trial % 4 == 2:
            a = np.kron(np.eye(2), a[:max(1, n // 2), :max(1, n // 2)])
            n = a.shape[0]
        sensors = tuple(int(s) for s in rng.permutation(n)[:int(rng.integers(1, n))])
        kinds.add(np.linalg.eigvals(a).dtype.kind)
        margin, worst = pbh_margin(a, sensors)
        ref_margin, ref_worst = reference_pbh_margin(a, sensors)
        assert repr((margin, worst)) == repr((ref_margin, ref_worst))
    assert kinds == {"f", "c"}


# ---------------------------------------------------------------------------
# canonical form


def assert_column_block(block, full, free):
    np.testing.assert_array_equal(block, full[:, free])
    assert block.flags.c_contiguous and not block.flags.writeable


def test_canonicalize_keeps_the_input_order(line3):
    net, mask = line3
    cf = canonicalize(net, mask)
    assert cf.net is net and cf.mask is mask
    assert cf.free.tolist() == [1, 2] and not cf.free.flags.writeable
    assert_column_block(cf.a_bar, net.weights, [1, 2])
    assert_column_block(cf.v_bar, mask.mask, [1, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10 ** 6))
def test_canonicalize_column_blocks_random(n, seed):
    # sensors anywhere and in any order: free is every other node, ascending
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    np.fill_diagonal(a, rng.uniform(0.1, 1.0, size=n))
    sensors = tuple(int(s) for s in rng.choice(n, size=rng.integers(1, n), replace=False))
    try:
        net, mask = net_of(a, sensors=sensors)
    except UnobservableSystemError:
        return
    cf = canonicalize(net, mask)
    free = [i for i in range(n) if i not in sensors]
    assert cf.free.tolist() == free and cf.net.sensors == sensors
    assert_column_block(cf.a_bar, a, free)
    assert_column_block(cf.v_bar, mask.mask, free)


def test_canonicalize_rejects_a_mask_of_another_size(line3):
    net, _ = line3
    with pytest.raises(NetworkFormatError, match="mask size"):
        canonicalize(net, ConstraintMask(np.ones((4, 4))))


# ---------------------------------------------------------------------------
# masks and perturbations


def test_mask_entries_binary():
    with pytest.raises(NetworkFormatError):
        ConstraintMask(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_mask_same_as_graph(line3):
    net, mask = line3
    np.testing.assert_array_equal(mask.mask, (net.weights != 0).astype(float))


def test_perturbation_rejects_off_mask_entries(line3):
    net, mask = line3
    delta = np.zeros((3, 3))
    delta[0, 2] = 1e-30  # not an edge, even tiny values are rejected
    with pytest.raises(MaskSupportError):
        Perturbation(delta, mask)


def test_perturbation_cost_is_squared_frobenius(line3):
    _, mask = line3
    delta = np.zeros((3, 3))
    delta[0, 1] = 0.3
    delta[1, 2] = -0.4
    p = Perturbation(delta, mask)
    assert p.frob_cost == pytest.approx(0.25, rel=1e-14)
    assert p.frob_norm == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(NetworkFormatError):
        Perturbation(delta, mask, frob_cost=0.7)


# ---------------------------------------------------------------------------
# unobservability certificates


def test_verify_edge_deletion_certificate(line3):
    net, mask = line3
    a = net.weights
    delta = np.zeros((3, 3))
    delta[1, 2] = -a[1, 2]  # cut the chain before node 3
    rep = verify_unobservability(net, Perturbation(delta, mask), a[2, 2])
    assert rep.verified
    assert rep.r_eig < 1e-12 and rep.r_out < 1e-12 and rep.smin < 1e-12


def test_verify_star_symmetry_certificate():
    a = star_matrix([0.5, 0.2, 0.8, 0.45], [0.6, 0.7, 0.9], [0.3, 0.4, 0.55])
    net, mask = net_of(a)
    mean = (a[1, 1] + a[2, 2]) / 2.0
    delta = np.zeros((4, 4))
    delta[1, 1] = mean - a[1, 1]
    delta[2, 2] = mean - a[2, 2]
    rep = verify_unobservability(net, Perturbation(delta, mask), mean)
    assert rep.verified and rep.r_eig <= 1e-12


def test_verify_rejects_null_perturbation_on_observable(line3):
    net, mask = line3
    zero = Perturbation(np.zeros((3, 3)), mask)
    for lam in np.linalg.eigvals(net.weights):
        rep = verify_unobservability(net, zero, lam)
        assert not rep.verified
        assert rep.smin > 1e-8


# ---------------------------------------------------------------------------
# serialization


def _doc3():
    return {
        "n": 3,
        "edges": [[1, 1, 0.7], [1, 2, 0.5], [2, 1, 0.6], [2, 2, 0.4],
                  [2, 3, 0.3], [3, 2, 0.8], [3, 3, 0.9]],
        "sensors": [1],
    }


def test_network_from_dict_one_based():
    net, mask = network_from_dict(_doc3())
    assert net.n == 3 and net.sensors == (0,)
    assert net.weights[0, 1] == 0.5
    assert mask.mask[0, 1] == 1.0 and mask.mask[0, 2] == 0.0


def test_network_from_dict_duplicate_edge():
    doc = _doc3()
    doc["edges"].append([1, 1, 0.2])
    with pytest.raises(NetworkFormatError):
        network_from_dict(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_network_from_dict_rejects_non_finite_weight(bad):
    doc = _doc3()
    doc["edges"][1][2] = bad
    with pytest.raises(NetworkFormatError, match="non-finite weight"):
        network_from_dict(doc)


@pytest.mark.parametrize("edit", [
    {"edges": [5]},                      # an edge entry that is a bare number
    {"edges": None},
    {"edges": [[1, 2, "heavy"]]},        # a non-numeric weight
    {"constraint": [[1, 2], 7]},         # a bare number as a constraint entry
    {"constraint": 5},
    {"sensors": None},
    {"n": 2.7},                          # a fractional n is not truncated
    {"n": True},
    {"n": -1},                           # rejected before any array is built
    {"n": 1},
    {"edges": [[1.5, 2, 0.5]]},          # a fractional edge index
    {"constraint": [[1, 2.9]]},          # would mask edge (1, 2) if truncated
    {"constraint": [[1, True]]},
    {"sensors": [1.5]},                  # would become node 1 if truncated
    {"sensors": [False]},
    {"edges": [[1, 4, 0.5]]},            # an edge out of range for n = 3
    {"edges": [[0, 1, 0.5]]},            # index 0 would wrap to node n if taken
    {"constraint": [[1, 2], [4, 1]]},    # a constraint pair out of range
    {"constraint": [[1, 2], [1, 2]]},    # a duplicate constraint pair
])
def test_network_from_dict_rejects_malformed_entries(edit):
    doc = dict(_doc3(), **edit)
    with pytest.raises(NetworkFormatError):
        network_from_dict(doc)


def test_load_network_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(NetworkFormatError):
        load_network(str(bad))
    with pytest.raises(NetworkFormatError):
        load_network(str(tmp_path / "missing.json"))


def test_perturbation_roundtrip_bitexact(line3):
    _, mask = line3
    delta = np.zeros((3, 3))
    delta[0, 1] = 0.123456789012345
    delta[2, 1] = -0.987654321098765
    p = Perturbation(delta, mask)
    doc = perturbation_to_dict(p, lam=0.25 + 0.5j)
    doc2 = json.loads(json.dumps(doc))
    p2, lam2 = perturbation_from_dict(doc2)
    np.testing.assert_array_equal(p2.delta, p.delta)
    assert p2.frob_cost == p.frob_cost
    assert lam2 == 0.25 + 0.5j


def test_perturbation_from_dict_checks_the_stated_cost(line3):
    _, mask = line3
    delta = np.zeros((3, 3))
    delta[0, 1] = 0.5
    doc = perturbation_to_dict(Perturbation(delta, mask))
    assert perturbation_from_dict(doc)[0].frob_cost == 0.25
    doc["frob_cost"] = 0.3
    with pytest.raises(NetworkFormatError, match="inconsistent"):
        perturbation_from_dict(doc)
