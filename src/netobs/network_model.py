"""Weighted directed networks with sensor nodes and structured perturbations.

Conventions: weights[i, j] is the weight of edge (i, j), i.e. the influence of
node j on node i in x(t+1) = A x(t). Node indices are 0-based internally and
1-based in every external file format. The output matrix C_O selects the sensor
rows of the state.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class NetworkFormatError(ValueError):
    """Malformed network description (bad JSON, duplicate edges, bad indices)."""


class UnobservableSystemError(ValueError):
    """Input system fails the observability assumption."""


class MaskSupportError(ValueError):
    """Perturbation has a nonzero entry outside the constraint mask."""


def _as_readonly(arr):
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def pbh_margin(weights, sensors):
    """Smallest singular value of [lam*I - A; C_O] minimized over eigenvalues of A.

    Zero margin means some eigenvector of A is invisible from the sensors.
    """
    a = np.asarray(weights, dtype=float)
    n = a.shape[0]
    c = np.zeros((len(sensors), n))
    for k, s in enumerate(sensors):
        c[k, s] = 1.0
    margin = np.inf
    worst = None
    for lam in np.linalg.eigvals(a):
        smin = np.linalg.svd(np.vstack([lam * np.eye(n) - a, c]), compute_uv=False)[-1]
        if smin < margin:
            margin = float(smin)
            worst = complex(lam)
    return margin, worst


@dataclass(frozen=True)
class NetworkSystem:
    """Network matrix A plus an ordered sensor set O.

    Constructed observable by default (margin > obs_tol); pass
    check_observability=False to represent deliberately degenerate systems,
    e.g. when probing unobservable inputs.
    """

    weights: np.ndarray
    sensors: tuple
    obs_tol: float = 1e-10
    check_observability: bool = True

    def __post_init__(self):
        a = _as_readonly(self.weights)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NetworkFormatError(f"weights must be square, got {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise NetworkFormatError("need at least 2 nodes")
        sens = tuple(int(s) for s in self.sensors)
        if len(sens) != len(set(sens)):
            raise NetworkFormatError("duplicate sensor indices")
        if not sens or any(s < 0 or s >= n for s in sens):
            raise NetworkFormatError(f"sensor indices out of range for n={n}")
        if len(sens) >= n:
            raise NetworkFormatError("need at least one non-sensor node (p < n)")
        object.__setattr__(self, "weights", a)
        object.__setattr__(self, "sensors", sens)
        if self.check_observability:
            margin, worst = pbh_margin(a, sens)
            if margin <= self.obs_tol:
                raise UnobservableSystemError(
                    f"system unobservable from sensors {sens}: "
                    f"margin {margin:.3e} at eigenvalue {worst}"
                )

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def p(self):
        return len(self.sensors)

    @property
    def c_matrix(self):
        c = np.zeros((self.p, self.n))
        for k, s in enumerate(self.sensors):
            c[k, s] = 1.0
        return c


@dataclass(frozen=True)
class ConstraintMask:
    """Binary matrix marking which entries a perturbation may touch."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.array(self.mask, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NetworkFormatError(f"mask must be square, got {m.shape}")
        vals = np.unique(m)
        if not np.all(np.isin(vals, (0.0, 1.0))):
            raise NetworkFormatError("mask entries must be exactly 0 or 1")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def n(self):
        return self.mask.shape[0]

    @classmethod
    def same_as_graph(cls, net: NetworkSystem):
        return cls((net.weights != 0).astype(float))


@dataclass(frozen=True)
class Perturbation:
    """Structured perturbation Delta with its squared Frobenius cost."""

    delta: np.ndarray
    mask: ConstraintMask
    frob_cost: float = field(default=None)

    def __post_init__(self):
        d = _as_readonly(self.delta)
        if d.shape != self.mask.mask.shape:
            raise MaskSupportError(
                f"delta shape {d.shape} does not match mask {self.mask.mask.shape}"
            )
        off = d[self.mask.mask == 0]
        if off.size and np.any(off != 0.0):
            raise MaskSupportError("nonzero entry outside the constraint mask")
        cost = float(np.sum(d * d))
        if self.frob_cost is not None:
            if abs(cost - self.frob_cost) > 1e-12 * max(1.0, abs(cost)):
                raise NetworkFormatError(
                    f"stated frob_cost {self.frob_cost} inconsistent with delta ({cost})"
                )
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "frob_cost", cost)

    @property
    def frob_norm(self):
        return float(np.sqrt(self.frob_cost))


@dataclass(frozen=True)
class CanonicalForm:
    """Sensor-first relabeling of (A, V) with the four blocks of each."""

    permutation: tuple  # canonical index k holds original node permutation[k]
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v21: np.ndarray
    v22: np.ndarray

    @property
    def n(self):
        return self.a11.shape[0] + self.a22.shape[0]

    @property
    def p(self):
        return self.a11.shape[0]

    # built on first access and kept, read-only: every reconstruction reads them

    @cached_property
    def a_canonical(self):
        return _as_readonly(np.block([[self.a11, self.a12], [self.a21, self.a22]]))

    @cached_property
    def v_canonical(self):
        return _as_readonly(np.block([[self.v11, self.v12], [self.v21, self.v22]]))

    @cached_property
    def mask(self):
        """The constraint mask in original node order."""
        return ConstraintMask(self.to_original(self.v_canonical))

    @property
    def v_bar(self):
        """Mask columns that the reduced perturbation may touch: [V12; V22]."""
        return np.vstack([self.v12, self.v22])

    def to_original(self, mat_canonical):
        """Map a canonical-coordinates n x n matrix back to original node order."""
        perm = np.asarray(self.permutation)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        m = np.asarray(mat_canonical)
        return m[np.ix_(inv, inv)]


def canonicalize(net: NetworkSystem, mask: ConstraintMask) -> CanonicalForm:
    """Relabel nodes so sensors come first and C_O becomes [I_p 0].

    Sensors keep their given order; non-sensors keep ascending order. The
    permutation is stored explicitly so results map back exactly.
    """
    if mask.n != net.n:
        raise NetworkFormatError(f"mask size {mask.n} != network size {net.n}")
    perm = list(net.sensors) + [i for i in range(net.n) if i not in net.sensors]
    idx = np.asarray(perm)
    ac = net.weights[np.ix_(idx, idx)]
    vc = mask.mask[np.ix_(idx, idx)]
    p = net.p
    return CanonicalForm(
        permutation=tuple(perm),
        a11=_as_readonly(ac[:p, :p]), a12=_as_readonly(ac[:p, p:]),
        a21=_as_readonly(ac[p:, :p]), a22=_as_readonly(ac[p:, p:]),
        v11=_as_readonly(vc[:p, :p]), v12=_as_readonly(vc[:p, p:]),
        v21=_as_readonly(vc[p:, :p]), v22=_as_readonly(vc[p:, p:]),
    )


def is_observable(net: NetworkSystem):
    """Eigenvector test: no right eigenvector of A may lie in Ker(C_O).

    Returns (flag, margin) where margin is the PBH minimum over eigenvalues.
    """
    margin, _ = pbh_margin(net.weights, net.sensors)
    return margin > net.obs_tol, margin


@dataclass(frozen=True)
class UnobservabilityReport:
    r_eig: float            # ||(A+Delta) x - lam x||
    r_out: float            # ||C_O x||
    smin: float             # smallest singular value of [lam I - (A+Delta); C_O]
    verified: bool
    x: np.ndarray           # certificate eigenvector (complex, unit norm)


def verify_unobservability(net: NetworkSystem, pert: Perturbation, lam,
                           threshold=1e-8) -> UnobservabilityReport:
    """Check that lam is an unobservable eigenvalue of A + Delta.

    The certificate vector is the right singular vector of the stacked PBH
    matrix at its smallest singular value, which minimizes the combined
    residual. verified is smin <= threshold.
    """
    lam = complex(lam)
    b = net.weights + pert.delta
    n = net.n
    stack = np.vstack([lam * np.eye(n) - b, net.c_matrix])
    _, svals, vh = np.linalg.svd(stack)
    smin = float(svals[-1])
    x = vh[-1].conj()
    x = x / np.linalg.norm(x)
    r_eig = float(np.linalg.norm(b @ x - lam * x))
    r_out = float(np.linalg.norm(net.c_matrix @ x))
    return UnobservabilityReport(r_eig=r_eig, r_out=r_out, smin=smin,
                                 verified=smin <= threshold, x=x)


# ---------------------------------------------------------------------------
# file format


def _integer(v, what):
    """v as an int when it is an integral number; booleans, strings and
    fractions are rejected rather than truncated."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise NetworkFormatError(f"{what} {v!r} is not an integer")


def _entry(entry, kind, form):
    """(i, j) and, for an edge, the weight w of one [i, j(, w)] entry."""
    if not isinstance(entry, (list, tuple)) or len(entry) != form.count(",") + 1:
        raise NetworkFormatError(f"{kind} entry {entry!r} must be {form}")
    ij = tuple(_integer(v, f"{kind} entry {entry!r} index") for v in entry[:2])
    try:
        return ij + tuple(float(w) for w in entry[2:])
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{kind} entry {entry!r} is not numeric: {exc}") from exc


def network_from_dict(doc):
    """Build (NetworkSystem, ConstraintMask) from the JSON network schema.

    Schema: {"n": int, "edges": [[i, j, w], ...], "sensors": [i, ...],
    "constraint": "same_as_graph" | [[i, j], ...]}, 1-based indices.
    """
    try:
        n = _integer(doc["n"], "n")
        edges = list(doc["edges"])
        sens = tuple(_integer(s, "sensor") - 1 for s in doc["sensors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFormatError(f"missing or malformed field: {exc}") from exc
    if n < 2:
        raise NetworkFormatError(f"need at least 2 nodes, got n={n}")
    a = np.zeros((n, n))
    seen = set()
    for entry in edges:
        i, j, w = _entry(entry, "edge", "[i, j, w]")
        if not (1 <= i <= n and 1 <= j <= n):
            raise NetworkFormatError(f"edge ({i},{j}) out of range for n={n}")
        if not np.isfinite(w):
            raise NetworkFormatError(f"edge ({i},{j}) has non-finite weight {w}")
        if (i, j) in seen:
            raise NetworkFormatError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
        a[i - 1, j - 1] = w
    constraint = doc.get("constraint", "same_as_graph")
    if constraint == "same_as_graph":
        v = np.zeros((n, n))
        for (i, j) in seen:
            v[i - 1, j - 1] = 1.0
    elif not isinstance(constraint, (list, tuple)):
        raise NetworkFormatError(
            f'constraint must be "same_as_graph" or a list of [i, j], got {constraint!r}')
    else:
        v = np.zeros((n, n))
        cseen = set()
        for entry in constraint:
            i, j = _entry(entry, "constraint", "[i, j]")
            if not (1 <= i <= n and 1 <= j <= n):
                raise NetworkFormatError(f"constraint edge ({i},{j}) out of range")
            if (i, j) in cseen:
                raise NetworkFormatError(f"duplicate constraint edge ({i},{j})")
            cseen.add((i, j))
            v[i - 1, j - 1] = 1.0
    net = NetworkSystem(a, sens)
    return net, ConstraintMask(v)


def load_network(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkFormatError(f"cannot read network file {path}: {exc}") from exc
    return network_from_dict(doc)


def perturbation_to_dict(pert: Perturbation, lam=None, residuals=None):
    """Dense serialization with explicit zeros so the mask stays auditable."""
    doc = {
        "delta": [[float(v) for v in row] for row in pert.delta],
        "mask": [[int(v) for v in row] for row in pert.mask.mask],
        "frob_cost": pert.frob_cost,
        "frob_norm": pert.frob_norm,
    }
    if lam is not None:
        doc["lambda"] = [complex(lam).real, complex(lam).imag]
    if residuals is not None:
        doc["residuals"] = dict(residuals)
    return doc


def perturbation_from_dict(doc):
    mask = ConstraintMask(np.array(doc["mask"], dtype=float))
    pert = Perturbation(np.array(doc["delta"], dtype=float), mask)
    lam = None
    if "lambda" in doc:
        lam = complex(doc["lambda"][0], doc["lambda"][1])
    return pert, lam
