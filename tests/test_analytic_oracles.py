import math

import numpy as np
import pytest

from netobs import (ConstraintMask, OracleFailure, Perturbation, cut_bound,
                    cut_bound_asymptote, enumerate_cut_family, line3_optimal,
                    line_radius, min_deletion_cost, star_radius,
                    verify_unobservability)
from netobs.montecarlo import sample_network
from conftest import line_matrix, net_of, star_matrix


# ---------------------------------------------------------------------------
# 3-node root-system oracle


def test_root_residuals_and_structure():
    rng = np.random.default_rng(1)
    lam = 1j
    for _ in range(10):
        a = line_matrix(rng.uniform(0, 1, 3), rng.uniform(0, 1, 2),
                        rng.uniform(0, 1, 2))
        res = line3_optimal(a, lam)
        b = a + res.perturbation
        # fixed blocks stay untouched, the chain-breaking entry is zeroed
        assert b[0, 0] == a[0, 0] and b[1, 0] == a[1, 0]
        assert b[0, 1] == 0.0
        assert b[0, 2] == 0.0 and b[2, 0] == 0.0  # never off the mask
        # trace and determinant constraints of the trailing block
        tr = b[1, 1] + b[2, 2]
        det = b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1]
        assert tr == pytest.approx(2 * lam.real, abs=1e-10)
        assert det == pytest.approx(abs(lam) ** 2, abs=1e-10)
        # lam is an eigenvalue of the trailing block
        ev = np.linalg.eigvals(b[1:, 1:])
        assert min(abs(ev - lam)) < 1e-8
        assert res.n_roots >= 1
        assert res.delta == pytest.approx(np.linalg.norm(res.perturbation),
                                          rel=1e-12)


def test_root_certificate_verifies():
    lam = 0.2 + 0.8j
    for trial in range(10):
        net, mask, _ = sample_network("line", 3, 71, trial)
        res = line3_optimal(net.weights, lam)
        pert = Perturbation(res.perturbation, mask)
        rep = verify_unobservability(net, pert, lam)
        assert rep.verified, f"trial {trial}: r_eig={rep.r_eig:.2e}"


def test_root_oracle_with_zero_first_edge():
    a = line_matrix([0.3, 0.6, 0.9], [0.0, 0.5], [0.4, 0.7])
    res = line3_optimal(a, 1j)
    assert res.perturbation[0, 1] == 0.0  # constraint already satisfied


def test_root_oracle_rejects_real_lambda():
    a = line_matrix([0.3, 0.6, 0.9], [0.2, 0.5], [0.4, 0.7])
    with pytest.raises(ValueError):
        line3_optimal(a, 0.5)


def test_root_oracle_rejects_non_chain():
    a = np.ones((3, 3))
    with pytest.raises(ValueError):
        line3_optimal(a, 1j)


# ---------------------------------------------------------------------------
# line closed form


def test_line_min_superdiagonal():
    a = line_matrix([0.5, 0.6, 0.7], [0.3, 0.7], [0.2, 0.9])
    res = line_radius(a)
    assert res.delta == 0.3
    assert res.branch == "edge-deletion"
    assert res.perturbation[0, 1] == -0.3
    assert abs(np.linalg.norm(res.perturbation) - 0.3) < 1e-15


def test_line_tie_breaks_to_first_edge():
    a = line_matrix([0.5, 0.6, 0.7, 0.8], [0.4, 0.4, 0.4], [0.2, 0.9, 0.1])
    res = line_radius(a)
    assert res.delta == 0.4
    assert res.perturbation[0, 1] == -0.4
    assert res.perturbation[1, 2] == 0.0


def test_line_lambda_star_is_cut_submatrix_eigenvalue():
    a = line_matrix([0.5, 0.6, 0.7], [0.9, 0.1], [0.2, 0.3])
    res = line_radius(a)
    # cutting edge (2,3) leaves the trailing 1x1 block
    ev = np.linalg.eigvals(a[2:, 2:])
    assert min(abs(ev - res.lambda_star)) < 1e-12


def test_line_certificates_verify_on_random_instances():
    for trial in range(50):
        net, mask, _ = sample_network("line", 4 + trial % 4, 83, trial)
        res = line_radius(net.weights)
        pert = Perturbation(res.perturbation, mask)
        rep = verify_unobservability(net, pert, res.lambda_star)
        assert rep.verified


# ---------------------------------------------------------------------------
# star closed form


def test_star_symmetry_branch_hand_case():
    a = star_matrix([0.4, 0.2, 0.5, 0.9], [0.5, 0.6, 0.7], [0.3, 0.2, 0.1])
    res = star_radius(a)
    assert res.branch == "symmetry-creation"
    assert res.delta == pytest.approx(0.3 / np.sqrt(2.0), rel=1e-14)
    assert res.lambda_star == pytest.approx(0.35, rel=1e-14)
    # perturbation equalizes the two closest leaf self-loops
    assert res.perturbation[1, 1] == pytest.approx(0.15, rel=1e-12)
    assert res.perturbation[2, 2] == pytest.approx(-0.15, rel=1e-12)


def test_star_two_equal_diagonals_zero_radius():
    a = star_matrix([0.4, 0.3, 0.3, 0.9], [0.5, 0.6, 0.7], [0.3, 0.2, 0.1])
    res = star_radius(a)
    assert res.delta == 0.0
    assert res.branch == "symmetry-creation"


def test_star_edge_deletion_branch():
    a = star_matrix([0.4, 0.2, 0.5, 0.9], [0.05, 0.6, 0.7], [0.3, 0.2, 0.1])
    res = star_radius(a)
    assert res.branch == "edge-deletion"
    assert res.delta == 0.05
    assert res.perturbation[0, 1] == -0.05


def test_star_certificates_verify_on_random_instances():
    for trial in range(50):
        net, mask, _ = sample_network("star", 4 + trial % 4, 89, trial)
        res = star_radius(net.weights)
        pert = Perturbation(res.perturbation, mask)
        rep = verify_unobservability(net, pert, res.lambda_star)
        assert rep.verified


# ---------------------------------------------------------------------------
# cut bound


def test_cut_bound_exact_small_cases():
    for n in range(2, 60):
        assert cut_bound(1, n - 1) == 1.0 / n  # (n-1)!/n! collapses exactly
    assert cut_bound(1, 1) == 0.5


def test_cut_bound_matches_gamma_formula():
    # Gamma(1/k) Gamma(omega+1) / (sqrt(k) Gamma(omega+1+1/k)), evaluated
    # here in plain gamma arithmetic as an independent reference
    for k, om in [(2, 3), (3, 5), (2, 10)]:
        direct = (math.gamma(1.0 / k) * math.gamma(om + 1.0)
                  / (math.sqrt(k) * math.gamma(om + 1.0 + 1.0 / k)))
        assert cut_bound(k, om) == pytest.approx(direct, rel=1e-12)


def test_cut_bound_decreasing_in_omega():
    vals = [cut_bound(2, om) for om in range(1, 40)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_cut_bound_wendel_asymptote():
    k = 2
    for om in (10 ** 3, 10 ** 5):
        ratio = cut_bound(k, om) / cut_bound_asymptote(k, om)
        assert ratio == pytest.approx(1.0, abs=2e-3)


# ---------------------------------------------------------------------------
# cut families


def independent_disconnects(a, sensors, removed):
    """Reachability check written directly against the influence convention:
    entry (i, j) nonzero means j feeds i."""
    n = a.shape[0]
    reach = set(sensors)
    frontier = list(sensors)
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if a[i, j] != 0 and (i, j) not in removed and j not in reach:
                reach.add(j)
                frontier.append(j)
    return len(reach) < n


def test_line_cut_family_is_superdiagonal():
    net, mask, _ = sample_network("line", 5, 97, 0)
    fam = enumerate_cut_family(net, mask, k=1)
    assert fam.omega == 4
    cuts = {tuple(sorted(c)) for c in fam.cuts}
    assert cuts == {((i, i + 1),) for i in range(4)}


def test_star_cut_family_is_spokes():
    net, mask, _ = sample_network("star", 5, 97, 1)
    fam = enumerate_cut_family(net, mask, k=1)
    assert fam.omega == 4
    for cut in fam.cuts:
        ((i, j),) = tuple(cut)
        assert i == 0 and j >= 1  # hub row entry: leaf feeding the sensor


def test_complete_graph_has_no_single_edge_cut():
    a = np.full((3, 3), 0.5)
    np.fill_diagonal(a, (0.3, 0.6, 0.9))
    net, mask = net_of(a)
    fam = enumerate_cut_family(net, mask, k=1)
    assert fam.omega == 0


def test_cut_family_invariants_random():
    for trial in range(5):
        net, mask, _ = sample_network("line", 6, 101, trial)
        fam = enumerate_cut_family(net, mask, k=1)
        a = net.weights
        seen = set()
        for cut in fam.cuts:
            edges = frozenset(cut)
            assert not (edges & seen)  # pairwise disjoint
            seen |= edges
            assert independent_disconnects(a, net.sensors, set(cut))


def test_min_deletion_cost_line():
    a = line_matrix([0.5, 0.6, 0.7], [0.3, 0.7], [0.2, 0.9])
    net, mask = net_of(a)
    cost, edges = min_deletion_cost(net, mask, k=1)
    assert cost == 0.3
    assert edges == ((0, 1),)


def test_cut_oracles_delete_only_masked_edges():
    # the cheapest cut (0, 1) is outside the mask: the bound must come from
    # the next-cheapest superdiagonal edge inside it, (2, 3)
    a = line_matrix([0.5, 0.6, 0.7, 0.8], [0.3, 0.8, 0.5], [0.2, 0.9, 0.4])
    net, mask = net_of(a)
    v = mask.mask.copy()
    v[0, 1] = 0.0
    mask = ConstraintMask(v)
    cost, edges = min_deletion_cost(net, mask, k=1)
    assert edges == ((2, 3),)
    assert cost == 0.5
    fam = enumerate_cut_family(net, mask, k=1)
    assert {tuple(c) for c in fam.cuts} == {((1, 2),), ((2, 3),)}


def test_oracle_failure_is_raised_not_swallowed():
    # a chain with an exactly repeated trailing eigenvalue structure can
    # starve the root search; synthetic impossible target instead
    a = line_matrix([0.3, 0.6, 0.9], [0.2, 0.5], [0.4, 0.7])
    with pytest.raises((OracleFailure, ValueError)):
        line3_optimal(a, complex("inf"))
