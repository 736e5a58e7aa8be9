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
    out = np.array(arr, dtype=float, copy=True, order="C")
    out.setflags(write=False)
    return out


# PBH margin at or below which a system counts as unobservable, and the one
# at or below which verify_unobservability accepts its certificate
_OBS_TOL = 1e-10
_VERIFY_TOL = 1e-8


def sensor_matrix(n, sensors):
    """C_O: the len(sensors) x n matrix that selects the sensor rows of the state."""
    c = np.zeros((len(sensors), n))
    c[np.arange(len(sensors)), np.asarray(sensors, dtype=int)] = 1.0
    return c


def pbh_stack(a, c, lams):
    """The PBH matrices [lam I - a; c], one per lam along the first axis, in
    the dtype of lams and a together (real for real lams)."""
    lams = np.asarray(lams)
    n = a.shape[0]
    stack = np.empty((len(lams), n + c.shape[0], n), dtype=np.result_type(lams, a))
    stack[:, :n] = lams[:, None, None] * np.eye(n) - a
    stack[:, n:] = c
    return stack


def pbh_margin(weights, sensors):
    """Smallest singular value of [lam*I - A; C_O] minimized over eigenvalues of A.

    Zero margin means some eigenvector of A is invisible from the sensors.
    Returns (margin, the first eigenvalue that attains it).
    """
    a = np.asarray(weights, dtype=float)
    lams = np.linalg.eigvals(a)
    smin = np.linalg.svd(pbh_stack(a, sensor_matrix(a.shape[0], sensors), lams),
                         compute_uv=False)[:, -1]
    k = int(np.argmin(smin))
    return float(smin[k]), complex(lams[k])


@dataclass(frozen=True)
class NetworkSystem:
    """Network matrix A plus an ordered sensor set O.

    Constructed observable by default (PBH margin above _OBS_TOL); pass
    check_observability=False to represent deliberately degenerate systems,
    e.g. when probing unobservable inputs.
    """

    weights: np.ndarray
    sensors: tuple
    check_observability: bool = True

    def __post_init__(self):
        a = _as_readonly(self.weights)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NetworkFormatError(f"weights must be square, got {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise NetworkFormatError("need at least 2 nodes")
        # the JSON path reports its bad edges here too, so they are 1-based
        bad = np.argwhere(~np.isfinite(a))
        if len(bad):
            i, j = bad[0]
            raise NetworkFormatError(
                f"edge ({i + 1},{j + 1}) has non-finite weight {a[i, j]}")
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
            if margin <= _OBS_TOL:
                raise UnobservableSystemError(
                    f"system unobservable from sensors {sens}: "
                    f"margin {margin:.3e} at eigenvalue {worst}"
                )

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def c_matrix(self):
        return sensor_matrix(self.n, self.sensors)

    @cached_property
    def free(self):
        """The non-sensor nodes in ascending order, read-only."""
        free = np.setdiff1d(np.arange(self.n), self.sensors)
        free.setflags(write=False)
        return free


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
    """The problem in the input's node order, with the columns of A and V at
    the non-sensor nodes: an unobservable eigenvector vanishes on the
    sensors, so the reduction reads no other columns."""

    net: NetworkSystem      # A and the sensors
    mask: ConstraintMask    # the caller's mask V
    free: np.ndarray        # net.free, the non-sensor nodes in ascending order
    a_bar: np.ndarray       # A[:, free], read-only and C-contiguous
    v_bar: np.ndarray       # V[:, free], likewise


def canonicalize(net: NetworkSystem, mask: ConstraintMask) -> CanonicalForm:
    """The CanonicalForm of (net, mask); its column blocks are built once."""
    if mask.n != net.n:
        raise NetworkFormatError(f"mask size {mask.n} != network size {net.n}")
    return CanonicalForm(net=net, mask=mask, free=net.free,
                         a_bar=_as_readonly(net.weights[:, net.free]),
                         v_bar=_as_readonly(mask.mask[:, net.free]))


def is_observable(net: NetworkSystem):
    """Eigenvector test: no right eigenvector of A may lie in Ker(C_O).

    Returns (flag, margin) where margin is the PBH minimum over eigenvalues.
    """
    margin, _ = pbh_margin(net.weights, net.sensors)
    return margin > _OBS_TOL, margin


@dataclass(frozen=True)
class UnobservabilityReport:
    r_eig: float            # ||(A+Delta) x - lam x||
    r_out: float            # ||C_O x||
    smin: float             # smallest singular value of [lam I - (A+Delta); C_O]
    verified: bool
    x: np.ndarray           # certificate eigenvector (complex, unit norm)


def verify_unobservability(net: NetworkSystem, pert: Perturbation,
                           lam) -> UnobservabilityReport:
    """Check that lam is an unobservable eigenvalue of A + Delta.

    The certificate vector is the right singular vector of the stacked PBH
    matrix at its smallest singular value, which minimizes the combined
    residual. verified is smin <= _VERIFY_TOL.
    """
    lam = complex(lam)
    b = net.weights + pert.delta
    _, svals, vh = np.linalg.svd(pbh_stack(b, net.c_matrix, [lam])[0])
    smin = float(svals[-1])
    x = vh[-1].conj()
    x = x / np.linalg.norm(x)
    r_eig = float(np.linalg.norm(b @ x - lam * x))
    r_out = float(np.linalg.norm(net.c_matrix @ x))
    return UnobservabilityReport(r_eig=r_eig, r_out=r_out, smin=smin,
                                 verified=smin <= _VERIFY_TOL, x=x)


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


def _entries(entries, n, kind, form):
    """{(i, j): w} of a list of 1-based [i, j(, w)] entries, as 0-based
    indices; w is 1.0 where the form has no weight. Each entry must have
    the form's length, integer indices in 1..n, no duplicate (i, j), and a
    numeric weight."""
    out = {}
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != form.count(",") + 1:
            raise NetworkFormatError(f"{kind} entry {entry!r} must be {form}")
        i, j = (_integer(v, f"{kind} entry {entry!r} index") for v in entry[:2])
        if not (1 <= i <= n and 1 <= j <= n):
            raise NetworkFormatError(f"{kind} ({i},{j}) out of range for n={n}")
        if (i - 1, j - 1) in out:
            raise NetworkFormatError(f"duplicate {kind} ({i},{j})")
        try:
            out[i - 1, j - 1] = float(entry[2]) if len(entry) > 2 else 1.0
        except (TypeError, ValueError) as exc:
            raise NetworkFormatError(f"{kind} entry {entry!r} is not numeric: {exc}") from exc
    return out


def _matrix(n, entries):
    """The n x n matrix with the values of entries, {(i, j): w}, at their
    indices and zeros elsewhere."""
    m = np.zeros((n, n))
    for ij, w in entries.items():
        m[ij] = w
    return m


def network_from_dict(doc):
    """Build (NetworkSystem, ConstraintMask) from the JSON network schema.

    Schema: {"n": int, "edges": [[i, j, w], ...], "sensors": [i, ...],
    "constraint": "same_as_graph" | [[i, j], ...]}, 1-based indices.
    "same_as_graph" lets every listed edge be perturbed, a zero weight too.
    """
    try:
        n = _integer(doc["n"], "n")
        edges = list(doc["edges"])
        sens = tuple(_integer(s, "sensor") - 1 for s in doc["sensors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFormatError(f"missing or malformed field: {exc}") from exc
    if n < 2:
        raise NetworkFormatError(f"need at least 2 nodes, got n={n}")
    weights = _entries(edges, n, "edge", "[i, j, w]")
    constraint = doc.get("constraint", "same_as_graph")
    if constraint == "same_as_graph":
        pairs = dict.fromkeys(weights, 1.0)
    elif not isinstance(constraint, (list, tuple)):
        raise NetworkFormatError(
            f'constraint must be "same_as_graph" or a list of [i, j], got {constraint!r}')
    else:
        pairs = _entries(constraint, n, "constraint", "[i, j]")
    return NetworkSystem(_matrix(n, weights), sens), ConstraintMask(_matrix(n, pairs))


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
    pert = Perturbation(np.array(doc["delta"], dtype=float), mask, doc.get("frob_cost"))
    lam = None
    if "lambda" in doc:
        lam = complex(doc["lambda"][0], doc["lambda"][1])
    return pert, lam
