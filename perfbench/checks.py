"""Output checks that share no code with the package's own verification.

Every check works from the input matrix, the sensor set and the constraint
mask the benchmark generated, and from the perturbation, eigenvalue and
radius the program returned. Only numpy is used: the certificate is an SVD
computed here, the cut bound comes from a graph search written here, and the
line and star radii are recomputed here from their closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative tolerance of the certificate and the lower bound, on the scale
# ||A||_F + |lambda| of the instance
CERT_RTOL = 1e-8
# ||Delta||_F against the reported radius; both are sums of the same squares
NORM_RTOL = 1e-12
# the acceptance gate's oracle tolerances (claim C7): |radius - oracle| <= 1e-4
# and radius - oracle >= -1e-6
ORACLE_ATOL = 1e-4
ORACLE_FLOOR = -1e-6
# slack of the cut upper bound, the same absolute 1e-4 as the oracle match
CUT_ATOL = 1e-4


@dataclass(frozen=True)
class Output:
    """One solve as the program reported it, plus the input it was given."""

    a: np.ndarray          # n x n input matrix
    sensors: tuple         # 0-based sensor nodes
    mask: np.ndarray       # n x n, 1 where the perturbation may be nonzero
    delta: np.ndarray      # n x n perturbation
    lam: complex           # the eigenvalue Delta makes unobservable
    radius: float          # the reported ||Delta||_F
    global_search: bool    # True for a search over lambda, False at fixed lambda
    reference: float | None = None  # an exact radius to compare with


def _c_matrix(n, sensors):
    c = np.zeros((len(sensors), n))
    c[np.arange(len(sensors)), list(sensors)] = 1.0
    return c


def _smin(lam, b, c):
    n = b.shape[0]
    stack = np.vstack([lam * np.eye(n) - b, c])
    return float(np.linalg.svd(stack, compute_uv=False)[-1])


def cheapest_single_edge_cut(a, mask, sensors):
    """Cheapest |a_ij| over off-diagonal edges inside the mask whose removal
    leaves some node unable to reach every sensor, or None.

    Entry (i, j) carries node j's state into node i, so a node reaches the
    sensors when a path j -> i -> ... ends at a sensor. Deleting such an edge
    hides every mode of the nodes cut off, so its weight bounds the radius.
    """
    n = a.shape[0]
    feeds = [[j for j in range(n) if j != i and a[i, j] != 0.0] for i in range(n)]
    best = None
    for i in range(n):
        for j in feeds[i]:
            if mask[i, j] == 0.0:
                continue
            cost = abs(float(a[i, j]))
            if best is not None and cost >= best:
                continue
            seen = set(sensors)
            stack = list(sensors)
            while stack:
                k = stack.pop()
                for src in feeds[k]:
                    if (k, src) == (i, j) or src in seen:
                        continue
                    seen.add(src)
                    stack.append(src)
            if len(seen) < n:
                best = cost
    return best


def line_reference(a):
    """Radius of a chain sensed at node 0: its smallest forward weight."""
    return float(np.min(np.abs(np.diag(a, 1))))


def star_reference(a):
    """Radius of a star sensed at its hub (node 0): the cheaper of the
    weakest spoke into the hub and the closest pair of leaf self-loops,
    pulled to their mean at cost gap / sqrt(2)."""
    spoke = float(np.min(np.abs(a[0, 1:])))
    leaves = np.sort(np.diag(a)[1:])
    gap = float(np.min(np.diff(leaves))) / math.sqrt(2.0)
    return min(spoke, gap)


def check(out: Output) -> list[str]:
    """Names of the checks the output fails; empty when it passes all."""
    a = np.asarray(out.a, dtype=float)
    d = np.asarray(out.delta, dtype=float)
    n = a.shape[0]
    c = _c_matrix(n, out.sensors)
    lam = complex(out.lam)
    r = float(out.radius)
    scale = float(np.linalg.norm(a)) + abs(lam)
    failed = []
    if d.shape != a.shape or np.any(d[np.asarray(out.mask) == 0.0] != 0.0):
        return ["mask"]
    if not (r > 0.0 and math.isfinite(r)):
        return ["radius_positive"]
    if abs(float(np.linalg.norm(d)) - r) > NORM_RTOL * r:
        failed.append("norm")
    if _smin(lam, a + d, c) > CERT_RTOL * scale:
        failed.append("certificate")
    if r < _smin(lam, a, c) - CERT_RTOL * scale:
        failed.append("lower_bound")
    if out.global_search:
        cut = cheapest_single_edge_cut(a, out.mask, out.sensors)
        if cut is not None and r > cut + CUT_ATOL:
            failed.append("cut_bound")
    if out.reference is not None:
        gap = r - out.reference
        if abs(gap) > ORACLE_ATOL or gap < ORACLE_FLOOR:
            failed.append("oracle")
    return failed
