"""Closed-form and small-system reference solutions.

These provide ground truth for the pencil solver: the exact stationarity
system of the 3-node chain, the edge-deletion radius of chains observed at
one end, the deletion-vs-symmetry radius of hub-observed stars, and the
Gamma-ratio bound on the expected radius from disjoint cut families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .network_model import ConstraintMask, NetworkSystem


# seeded random starts of line3_optimal after its 16 deterministic ones
_LINE3_EXTRA_STARTS = 48


class OracleFailure(RuntimeError):
    """Root finding exhausted its starts without a usable solution."""


@dataclass(frozen=True)
class OracleResult:
    delta: float                  # radius value
    lambda_star: complex
    perturbation: np.ndarray      # optimal Delta, dense n x n
    branch: str                   # edge-deletion | symmetry-creation | root-system
    n_roots: int = 0              # distinct stationary roots found (root-system only)


def _check_line(a, require_super=True):
    a = np.asarray(a, dtype=float)
    idx = np.arange(a.shape[0])
    if np.any(a[np.abs(idx[:, None] - idx) > 1] != 0):
        raise ValueError("matrix is not a chain: nonzeros off the three diagonals")
    if require_super and np.any(np.diag(a, 1) == 0):
        raise ValueError("chain needs nonzero superdiagonal weights")
    return a


def _check_star(a):
    a = np.asarray(a, dtype=float)
    leaves = a[1:, 1:]
    if np.any(leaves[~np.eye(len(leaves), dtype=bool)] != 0):
        raise ValueError("matrix is not a hub star: nonzeros between leaves")
    return a


def line3_optimal(a, lam) -> OracleResult:
    """Exact minimum-norm unobservability perturbation of a 3-node chain.

    Sensor sits on node 1 and lam must have a nonzero imaginary part, which
    forces b11 = a11, b21 = a21 and b12 = 0; the remaining trailing 2x2 block
    solves a four-equation stationarity system (two trace/determinant
    constraints pinning the eigenvalue pair, two first-order conditions).
    Solved by damped Newton from 16 deterministic starts built around the
    trace/determinant projection of A, plus seeded random starts; roots with
    b32 ~ 0 are outside the derivation's validity and get discarded. Returns
    the minimum-cost root.
    """
    a = _check_line(np.asarray(a, dtype=float), require_super=False)
    if a.shape != (3, 3):
        raise ValueError(f"need a 3x3 chain, got {a.shape}")
    lam = complex(lam)
    if lam.imag == 0:
        raise ValueError("the stationarity system assumes a complex eigenvalue")
    lr, li = lam.real, lam.imag
    a22, a23, a32, a33 = a[1, 1], a[1, 2], a[2, 1], a[2, 2]
    mod2 = lr * lr + li * li

    def g(b):
        b22, b23, b32, b33 = b
        d23 = b23 - a23
        return np.array([
            (b22 - a22) - (b33 - a33) + (b33 - b22) / b32 * d23,
            (b32 - a32) - b23 / b32 * d23,
            b22 + b33 - 2.0 * lr,
            b22 * b33 - b23 * b32 - mod2,
        ])

    def jac(b):
        b22, b23, b32, b33 = b
        d23 = b23 - a23
        return np.array([
            [1 - d23 / b32, (b33 - b22) / b32, -(b33 - b22) * d23 / b32**2, -1 + d23 / b32],
            [0, -(2 * b23 - a23) / b32, 1 + b23 * d23 / b32**2, 0],
            [1, 0, 0, 1],
            [b33, -b32, -b23, b22],
        ])

    # deterministic starts: project the trace onto the constraint, then scan
    # factorizations of the determinant constraint over b23 * b32
    starts = []
    t = (2.0 * lr - a22 - a33) / 2.0
    b220, b330 = a22 + t, a33 + t
    pprod = b220 * b330 - mod2
    base = np.sqrt(abs(pprod)) if pprod != 0 else 0.3
    for f in (1.0, 1.5, 0.75, 2.0, 0.5, 1.25, 3.0, 0.4):
        for sgn in (1.0, -1.0):
            b23_0 = sgn * f * base
            b32_0 = pprod / b23_0 if b23_0 != 0 else 0.3
            if abs(b32_0) < 1e-6:
                b32_0 = np.copysign(1e-3, b32_0 if b32_0 != 0 else 1.0)
            starts.append(np.array([b220, b23_0, b32_0, b330]))
    rng = np.random.default_rng(np.random.SeedSequence((0, 0x17E2)))
    scale = max(1.0, float(np.abs(a).max()), abs(lam))
    for _ in range(_LINE3_EXTRA_STARTS):
        b22_0 = lr + scale * rng.standard_normal()
        b33_0 = 2.0 * lr - b22_0
        b23_0 = scale * rng.standard_normal()
        pr = b22_0 * b33_0 - mod2
        b32_0 = pr / b23_0 if abs(b23_0) > 1e-6 else scale * rng.standard_normal()
        if abs(b32_0) < 1e-6:
            b32_0 = np.copysign(1e-3, b32_0 if b32_0 != 0 else 1.0)
        starts.append(np.array([b22_0, b23_0, b32_0, b33_0]))

    roots = []
    for b0 in starts:
        b = b0.copy()
        ok = False
        for _ in range(200):
            if abs(b[2]) < 1e-12:
                break
            gv = g(b)
            if np.max(np.abs(gv)) < 1e-13:
                ok = True
                break
            try:
                step = np.linalg.solve(jac(b), -gv)
            except np.linalg.LinAlgError:
                break
            base_norm = np.linalg.norm(gv)
            alpha = 1.0
            while alpha > 1e-9:
                bn = b + alpha * step
                if abs(bn[2]) > 1e-12 and np.linalg.norm(g(bn)) < base_norm:
                    b = bn
                    break
                alpha *= 0.5
            else:
                break
        if ok and abs(b[2]) > 1e-10:
            if not any(np.allclose(b, r, atol=1e-7) for r in roots):
                roots.append(b)
    if not roots:
        raise OracleFailure(f"no stationary root found at lambda {lam}")
    best, best_cost = None, np.inf
    for b in roots:
        cost = (a[0, 1]**2 + (b[0] - a22)**2 + (b[1] - a23)**2
                + (b[2] - a32)**2 + (b[3] - a33)**2)
        if cost < best_cost:
            best, best_cost = b, cost
    delta = np.zeros((3, 3))
    delta[0, 1] = -a[0, 1]
    delta[1, 1] = best[0] - a22
    delta[1, 2] = best[1] - a23
    delta[2, 1] = best[2] - a32
    delta[2, 2] = best[3] - a33
    return OracleResult(delta=float(np.sqrt(best_cost)), lambda_star=lam,
                        perturbation=delta, branch="root-system",
                        n_roots=len(roots))


def line_radius(a) -> OracleResult:
    """Radius of a chain observed at node 1: the weakest forward edge.

    Deleting the cheapest superdiagonal entry disconnects everything behind
    it from the sensor; every eigenvalue of the trailing submatrix becomes
    unobservable. The reported lambda is the first of those eigenvalues in
    lexicographic (re, im) order.
    """
    a = _check_line(a)
    sup = np.diag(a, 1)
    i_star = int(np.argmin(np.abs(sup)))  # ties go to the smallest index
    delta_val = float(np.abs(sup[i_star]))
    pert = np.zeros_like(a)
    pert[i_star, i_star + 1] = -sup[i_star]
    tail = a[i_star + 1:, i_star + 1:]
    eigs = np.linalg.eigvals(tail)
    order = np.lexsort((eigs.imag, eigs.real))
    lam = complex(eigs[order[0]])
    if abs(lam.imag) < 1e-12 * max(1.0, abs(lam.real)):
        lam = complex(lam.real, 0.0)
    return OracleResult(delta=delta_val, lambda_star=lam, perturbation=pert,
                        branch="edge-deletion")


def star_radius(a) -> OracleResult:
    """Radius of a star observed at the hub: cheapest spoke vs leaf symmetry.

    Either delete the cheapest leaf-to-hub spoke (the leaf's self-loop
    becomes unobservable) or pull two leaf self-loops to their mean, creating
    a symmetric pair invisible from the hub at cost |a_ii - a_jj|/sqrt(2).
    """
    a = _check_star(a)
    n = a.shape[0]
    if n < 3:
        raise ValueError("star needs at least two leaves")
    spokes = a[0, 1:]
    i_spoke = int(np.argmin(np.abs(spokes)))
    cost_spoke = float(np.abs(spokes[i_spoke]))
    diag = np.diag(a)[1:]
    order = np.argsort(diag, kind="stable")
    diffs = np.diff(diag[order])
    # the closest pair is adjacent once sorted: solver.candidate_lambdas relies on it
    j = int(np.argmin(diffs))
    gamma = float(diffs[j]) / np.sqrt(2.0)
    if cost_spoke <= gamma:
        pert = np.zeros_like(a)
        pert[0, 1 + i_spoke] = -spokes[i_spoke]
        lam = complex(a[1 + i_spoke, 1 + i_spoke], 0.0)
        return OracleResult(delta=cost_spoke, lambda_star=lam, perturbation=pert,
                            branch="edge-deletion")
    ii = 1 + int(order[j])
    jj = 1 + int(order[j + 1])
    lam_val = (a[ii, ii] + a[jj, jj]) / 2.0
    pert = np.zeros_like(a)
    pert[ii, ii] = lam_val - a[ii, ii]
    pert[jj, jj] = lam_val - a[jj, jj]
    return OracleResult(delta=gamma, lambda_star=complex(lam_val, 0.0),
                        perturbation=pert, branch="symmetry-creation")


# the closed-form radius of each topology observed at node 1
CLOSED_FORMS = {"line": line_radius, "star": star_radius}


def cut_bound(k, omega):
    """Expected-radius bound from a family of omega disjoint k-cuts.

    Gamma(1/k) Gamma(omega+1) / (sqrt(k) Gamma(omega+1+1/k)), evaluated in
    log space. k = 1 collapses algebraically to 1/(omega+1), returned exactly.
    scipy's gammaln is imported here, so that a solve never loads scipy;
    math.lgamma differs from it in the last bit on most arguments.
    """
    from scipy.special import gammaln

    if k < 1 or omega < 1:
        raise ValueError("need k >= 1 and omega >= 1")
    if k == 1:
        return 1.0 / (omega + 1.0)
    inv_k = 1.0 / k
    return float(np.exp(gammaln(inv_k) + gammaln(omega + 1.0)
                        - gammaln(omega + 1.0 + inv_k)) / np.sqrt(k))


def cut_bound_asymptote(k, omega):
    """Large-family equivalent of cut_bound via the Gamma-ratio inequalities."""
    from scipy.special import gammaln

    inv_k = 1.0 / k
    return float(np.exp(gammaln(inv_k)) / (np.sqrt(k) * (omega + 1.0) ** inv_k))


@dataclass(frozen=True)
class CutFamily:
    cuts: tuple      # tuple of frozensets of (i, j) edges, 0-based
    k: int

    @property
    def omega(self):
        return len(self.cuts)


def _reached(arcs_out, sensors, removed):
    """The nodes that still reach a sensor once the given edges are removed.

    Information flows j -> i along a matrix entry (i, j), so node v reaches a
    sensor if there is a directed path v -> ... -> sensor in that orientation.
    """
    seen = set(sensors)
    stack = list(sensors)
    while stack:
        i = stack.pop()
        for j in arcs_out.get(i, ()):  # entry (i, j): j feeds i
            if (i, j) in removed or j in seen:
                continue
            seen.add(j)
            stack.append(j)
    return seen


def _disconnects(n, arcs_out, sensors, removed):
    """True if removing the given edges cuts some node off from all sensors."""
    return len(_reached(arcs_out, sensors, removed)) < n


def _arcs(a):
    """Every support edge of a as i -> [j] arcs: the graph a cut must
    disconnect."""
    arcs_out = {}
    for i, j in zip(*np.nonzero(a)):
        arcs_out.setdefault(int(i), []).append(int(j))
    return arcs_out


def _cut_edges(net, mask, k):
    """Support edges the mask lets a cut delete, and every support edge as
    i -> [j] arcs (_arcs)."""
    if k > 3:
        raise ValueError("cut enumeration is only supported for k <= 3")
    a = net.weights
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(a)) if mask.mask[i, j] != 0]
    return edges, _arcs(a)


def enumerate_cut_family(net: NetworkSystem, mask: ConstraintMask,
                         k=1) -> CutFamily:
    """Greedy maximal family of pairwise-disjoint disconnecting k-cuts.

    Exhaustive scan over k-subsets of the deletable edges (in the support and
    in the mask) in lexicographic order, packing any disconnecting subset
    disjoint from the cuts taken so far. Maximal, not maximum: good enough to
    instantiate the bound.
    """
    edges, arcs_out = _cut_edges(net, mask, k)
    cuts = []
    used = set()
    for subset in itertools.combinations(edges, k):
        if any(e in used for e in subset):
            continue
        if _disconnects(net.n, arcs_out, net.sensors, set(subset)):
            cuts.append(frozenset(subset))
            used.update(subset)
    return CutFamily(cuts=tuple(cuts), k=k)


def min_deletion_cost(net: NetworkSystem, mask: ConstraintMask, k=1):
    """Cheapest disconnecting k-cut among the edges in the support and in the
    mask: a feasible deletion perturbation, hence an upper bound on the
    radius. Returns (cost, edges) or (inf, ()) if no such k-subset
    disconnects."""
    a = net.weights
    edges, arcs_out = _cut_edges(net, mask, k)
    best = (np.inf, ())
    for subset in itertools.combinations(edges, k):
        cost = float(np.sqrt(sum(a[i, j] ** 2 for i, j in subset)))
        if cost >= best[0]:
            continue
        if _disconnects(net.n, arcs_out, net.sensors, set(subset)):
            best = (cost, subset)
    return best


def cut_off(net: NetworkSystem, edges):
    """The nodes U, ascending, that reach no sensor once the given support
    edges ((i, j) pairs, 0-based) are deleted. With Delta the deleted
    entries, no entry of A + Delta leads from U to the other nodes, so every
    eigenvalue of A[U, U] is an unobservable eigenvalue of A + Delta."""
    reached = _reached(_arcs(net.weights), net.sensors, set(edges))
    return np.array([v for v in range(net.n) if v not in reached], dtype=int)
