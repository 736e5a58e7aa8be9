"""Reduced minimization, eigenvector-dependent weightings, and the pencil.

Everything here works in canonical (sensor-first) coordinates. The reduced
unknown is the block Delta_bar = [Delta12; Delta22]: only the columns of A
hitting non-sensor states can help hide an eigenvector from the sensors.
Complex quantities are split into stacked real parts throughout: the reduced
eigenvector is x = (x_re, x_im), length 2(n-p), and the multiplier is
y = (y1, y2), length 2n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network_model import CanonicalForm, Perturbation


class SpuriousTripleError(ValueError):
    """Candidate triple fails the eigen-constraint residual check."""


@dataclass(frozen=True)
class ReducedProblem:
    a_bar: np.ndarray       # n x (n-p), columns of A over non-sensor states
    m_bar: np.ndarray       # n x (n-p), [0; lam_im * I]
    n_bar: np.ndarray       # n x (n-p), [0; lam_re * I]
    v_bar: np.ndarray       # n x (n-p) mask block [V12; V22]
    lam: complex

    @property
    def n(self):
        return self.a_bar.shape[0]

    @property
    def m(self):
        """Number of non-sensor states, n - p."""
        return self.a_bar.shape[1]

    @property
    def p(self):
        return self.n - self.m

    @property
    def is_real(self):
        return self.lam.imag == 0.0


def build_reduced(cf: CanonicalForm, lam) -> ReducedProblem:
    """Assemble the reduced blocks for a fixed candidate eigenvalue."""
    lam = complex(lam)
    p, m = cf.p, cf.n - cf.p
    a_bar = np.vstack([cf.a12, cf.a22])
    m_bar = np.vstack([np.zeros((p, m)), lam.imag * np.eye(m)])
    n_bar = np.vstack([np.zeros((p, m)), lam.real * np.eye(m)])
    return ReducedProblem(a_bar=a_bar, m_bar=m_bar, n_bar=n_bar,
                          v_bar=cf.v_bar.copy(), lam=lam)


def a_tilde(rp: ReducedProblem):
    """Real-split constraint operator, 2n x 2(n-p).

    Maps stacked (x_re, x_im) to the residuals of the two real eigen-equations
    when Delta = 0; its kernel would be an unobservable eigenvector of A itself.
    """
    n, m = rp.n, rp.m
    an = rp.a_bar - rp.n_bar
    at = np.empty((2 * n, 2 * m))
    at[:n, :m] = an
    at[:n, m:] = rp.m_bar
    at[n:, :m] = -rp.m_bar
    at[n:, m:] = an
    return at


def _d_positions(v, nx, size, blocks):
    """Flat positions of the diagonals of D = blkdiag(D_y, D_x), in the order
    _weighting_diagonals gives them, in an array with rows of length size
    whose x block has length nx: D_y at (0, 0), D_x at (nx, nx).

    blocks=1 gives one diagonal per weighting; blocks=2 the four diagonals of
    its 2 x 2 array of diagonal blocks, in the order (0,0), (0,1), (1,0), (1,1).
    """
    n, m = v.shape
    out = []
    for k, offset in ((m, 0), (n, nx)):
        i = offset + np.arange(k)
        rows = [i + r * k for r in range(blocks) for _ in range(blocks)]
        cols = [i + c * k for _ in range(blocks) for c in range(blocks)]
        out.append(np.concatenate(rows) * size + np.concatenate(cols))
    return np.concatenate(out)


def _filled(size, positions, values):
    """A zero size x size array with the arrays in values written, one after
    another, at the flat positions; with values of shape (..., k) one such
    array for every leading index.

    Off the filled diagonals the entries are +0.0, as in a dense block
    assembly from np.diag blocks, so the result is the same bit for bit.
    """
    lead = values[0].shape[:-1]
    out = np.zeros(lead + (size, size))
    out.reshape(lead + (-1,))[..., positions] = np.concatenate(values, axis=-1)
    return out


def _mv(a, x):
    """a @ x for a vector x, or for every row of a stack x of shape (..., k);
    a may be a stack too.

    np.matmul on a trailing column runs the matrix-vector kernel that a @ x
    runs, so every row equals a @ x[i] bit for bit. x @ a.T does not: it goes
    through the matrix-matrix kernel. A single vector takes a @ x itself,
    which saves the polish the reshaping.
    """
    if x.ndim == 1:
        return a @ x
    return np.matmul(a, x[..., None])[..., 0]


def _rowdot(a, b):
    """a @ b for vectors, or row by row for stacks of shape (..., k), kept
    as a trailing axis of length 1.

    Each entry equals a[i] @ b[i] bit for bit, and its square root equals
    np.linalg.norm; einsum and (a * b).sum(-1) sum in another order.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def _weighting_diagonals(v, x, y):
    """Diagonals of D_y and of D_x, for float arrays x and y:
    ((s_y, t_y, t_y, q_y), (s_x, t_x, t_x, q_x)), each in the block order
    (0,0), (0,1), (1,0), (1,1). For stacks x and y of shape (..., k) every
    diagonal is a stack too.

    For the half-size pencil of a real lambda x and y have no imaginary
    halves, and only ((s_y,), (s_x,)) remain.
    """
    n, m = v.shape
    vt = v.T
    xr, y1 = x[..., :m], y[..., :n]
    sx = _mv(v, xr * xr)
    sy = _mv(vt, y1 * y1)
    if x.shape[-1] == m:
        return (sy,), (sx,)
    xi, y2 = x[..., m:], y[..., n:]
    tx = _mv(v, xr * xi)
    qx = _mv(v, xi * xi)
    ty = _mv(vt, y1 * y2)
    qy = _mv(vt, y2 * y2)
    return (sy, ty, ty, qy), (sx, tx, tx, qx)


def _weighted(d, z):
    """D z for one weighting D given by its diagonals d, as
    _weighting_diagonals returns them; row by row for stacks."""
    if len(d) == 1:
        return d[0] * z
    k = z.shape[-1] // 2
    zr, zi = z[..., :k], z[..., k:]
    return np.concatenate([d[0] * zr + d[1] * zi, d[2] * zr + d[3] * zi], axis=-1)


def build_weightings(rp: ReducedProblem, x, y):
    """Diagonal S/T/Q weightings assembled into (D_x, D_y).

    (S_x)_ii = sum_j vbar_ij x_re_j^2, (T_x)_ii mixes re*im, (Q_x)_ii the im
    part; S_y/T_y/Q_y sum over rows with y1, y2. D_x is 2n x 2n and weights y;
    D_y is 2(n-p) x 2(n-p) and weights x.
    """
    d = PencilAssembly(rp).pencil(x, y).d
    nx = 2 * rp.m
    return d[nx:, nx:], d[:nx, :nx]


@dataclass(frozen=True)
class PencilPair:
    """Generalized eigenproblem H z = sigma D z frozen at one (x, y).

    z stacks (x, y); H carries the constraint operator, D the weightings.
    D pairs D_y with the x block and D_x with the y block.
    """

    h: np.ndarray
    d: np.ndarray
    a_tilde: np.ndarray
    nx: int  # length of the x block of z

    @property
    def size(self):
        return self.h.shape[0]


class PencilAssembly:
    """The pencil (H, D) of one reduced problem, for many points (x, y).

    H = [[0, At'], [At, 0]] depends only on lambda and is assembled once; each
    call of pencil() fills only the diagonals of D = blkdiag(D_y, D_x) into a
    zeroed array, or, for stacks of points (the rows of x and y), one D per
    row into an array of shape (rows, size, size). With real=True this is
    the half-size pencil of a real candidate eigenvalue: At = A_bar - lam
    I_bar, and only the S weightings survive, one diagonal each. H is
    shared by every pencil built here and is read-only.
    """

    def __init__(self, rp: ReducedProblem, real=False):
        if real and not rp.is_real:
            raise ValueError("real pencil requires a real lambda")
        self.v = rp.v_bar
        at = rp.a_bar - rp.n_bar if real else a_tilde(rp)
        k, l = at.shape
        size = l + k
        h = np.zeros((size, size))
        h[:l, l:] = at.T
        h[l:, :l] = at
        h.setflags(write=False)
        self.a_tilde, self.h, self.nx, self.size, self.real = at, h, l, size, real
        self._positions = _d_positions(self.v, l, size, 1 if real else 2)

    def pencil(self, x, y) -> PencilPair:
        d_y, d_x = _weighting_diagonals(self.v, x, y)
        d = _filled(self.size, self._positions, d_y + d_x)
        return PencilPair(h=self.h, d=d, a_tilde=self.a_tilde, nx=self.nx)


def assemble_pencil(rp: ReducedProblem, x, y) -> PencilPair:
    return PencilAssembly(rp).pencil(x, y)


def assemble_real_pencil(rp: ReducedProblem, x_re, y1) -> PencilPair:
    """Half-size pencil for a real candidate eigenvalue.

    With lam_im = 0 the imaginary components decouple and can be taken zero;
    only the S weightings survive. Sizes drop from 4n-2p to 2n-p.
    """
    return PencilAssembly(rp, real=True).pencil(x_re, y1)


@dataclass(frozen=True)
class CandidateTriple:
    """Stationary candidate (sigma, x, y): unit vectors, sigma > 0."""

    sigma: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        y = np.array(self.y, dtype=float, copy=True)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if abs(np.linalg.norm(x) - 1.0) > 1e-10 or abs(np.linalg.norm(y) - 1.0) > 1e-10:
            raise ValueError("x and y must be unit vectors")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def normalize_triple(sigma, x, y) -> CandidateTriple:
    """Rescale an unnormalized stationary pair onto unit spheres.

    Scaling x by alpha and y by beta moves sigma to sigma/(alpha*beta), so any
    solution can be oriented to sigma > 0 with unit vectors: alpha carries the
    sign of sigma, beta the length of y.
    """
    nxr = np.linalg.norm(x)
    nyr = np.linalg.norm(y)
    if nxr == 0 or nyr == 0 or sigma == 0:
        raise ValueError("degenerate triple")
    alpha = np.sign(sigma) / nxr
    beta = 1.0 / nyr
    return CandidateTriple(sigma=float(abs(sigma) * nxr * nyr),
                           x=alpha * np.asarray(x, dtype=float),
                           y=beta * np.asarray(y, dtype=float))


def embed_real_triple(sigma, x_re, y1) -> CandidateTriple:
    m = len(x_re)
    n = len(y1)
    x = np.concatenate([x_re, np.zeros(m)])
    y = np.concatenate([y1, np.zeros(n)])
    return normalize_triple(sigma, x, y)


def system_residual(rp: ReducedProblem, t: CandidateTriple):
    """Residual of the two stationarity equations at (sigma, x, y)."""
    at = a_tilde(rp)
    d_y, d_x = _weighting_diagonals(rp.v_bar, t.x, t.y)
    r1 = at.T @ t.y - t.sigma * _weighted(d_y, t.x)
    r2 = at @ t.x - t.sigma * _weighted(d_x, t.y)
    return float(np.sqrt(np.dot(r1, r1) + np.dot(r2, r2)))


def balanced_embed(t: CandidateTriple):
    """Map a unit triple onto the pencil variable z = (x, y)/sqrt(2).

    The balanced z is an eigenvector of the pencil assembled at itself with
    eigenvalue 2*sigma (the weightings are quadratic, so halving the block
    norms doubles the generalized eigenvalue).
    """
    z = np.concatenate([t.x, t.y]) / np.sqrt(2.0)
    return z, 2.0 * t.sigma


def pencil_residual(rp: ReducedProblem, t: CandidateTriple):
    """||H z - sigma_bar D(z) z|| at the balanced embedding of the triple."""
    z, sigma_bar = balanced_embed(t)
    pp = assemble_pencil(rp, z[:2 * rp.m], z[2 * rp.m:])
    return float(np.linalg.norm(pp.h @ z - sigma_bar * (pp.d @ z)))


def orthogonality_diagnostic(rp: ReducedProblem, t: CandidateTriple):
    """Inner products (c_re, c_im) that give the exact lambda-gradient of the cost.

    At a stationary triple of the fixed-lambda problem, the derivatives of
    the optimal cost ||Delta||_F^2 with respect to the candidate eigenvalue
    are

        d||Delta||^2 / d Re(lambda) = -2 sigma c_re,
        d||Delta||^2 / d Im(lambda) = +2 sigma c_im.

    Both vanish when lambda is itself stationary for the radius; a nonzero
    value means the radius shrinks at a neighboring lambda.
    """
    m, n, p = rp.m, rp.n, rp.p
    xr, xi = t.x[:m], t.x[m:]
    y1, y2 = t.y[:n], t.y[n:]
    y1t, y2t = y1[p:], y2[p:]
    c_re = float(y1t @ xr + y2t @ xi)
    c_im = float(y1t @ xi - y2t @ xr)
    return c_re, c_im


@dataclass(frozen=True)
class Reconstruction:
    """Perturbation rebuilt from a stationary triple, with audit fields."""

    perturbation: Perturbation
    r_eig: float              # eigen-equation residual of the perturbation
    cost_identity_rel: float  # relative gap of ||Delta||_F^2 vs sigma * x' At' y
    cost_bound_slack: float   # sigma * ||At||_F - ||Delta||_F^2  (should be >= 0)


def _delta_bar(rp, t):
    """Delta_bar = -sigma (y1 x_re' + y2 x_im') o V_bar."""
    m, n = rp.m, rp.n
    xr, xi = t.x[:m], t.x[m:]
    y1, y2 = t.y[:n], t.y[n:]
    return -t.sigma * (np.outer(y1, xr) + np.outer(y2, xi)) * rp.v_bar


def _with_sensor_columns(rp, delta_bar):
    """Delta in canonical coordinates: zero sensor columns, then Delta_bar."""
    out = np.zeros((rp.n, rp.n))
    out[:, rp.p:] = delta_bar
    return out


def reconstruct_perturbation(rp: ReducedProblem, t: CandidateTriple,
                             cf: CanonicalForm, residual_tol=1e-8) -> Reconstruction:
    """Rebuild the minimum-norm perturbation from a stationary triple.

    Delta_bar = -sigma (y1 x_re' + y2 x_im') o V_bar: the coupling is plus
    because the weightings imply it, sigma^2 x' D_y x = ||Delta_bar||_F^2.
    Triples whose perturbation still violates the eigen constraint are
    rejected as spurious.
    """
    if system_residual(rp, t) > residual_tol:
        raise SpuriousTripleError("triple does not satisfy the stationarity system")
    m, p = rp.m, rp.p
    xr, xi = t.x[:m], t.x[m:]
    xc = np.concatenate([np.zeros(p), xr + 1j * xi])
    nxc = np.linalg.norm(xc)
    if nxc == 0:
        raise SpuriousTripleError("zero eigenvector")
    xc = xc / nxc
    dc = _with_sensor_columns(rp, _delta_bar(rp, t))
    r_eig = float(np.linalg.norm((cf.a_canonical + dc) @ xc - rp.lam * xc))
    if r_eig > residual_tol:
        raise SpuriousTripleError(
            f"reconstructed perturbation violates the eigen constraint "
            f"(residual {r_eig:.3e})"
        )
    pert = Perturbation(cf.to_original(dc), cf.mask)
    at = a_tilde(rp)
    identity = t.sigma * float(t.x @ (at.T @ t.y))
    cost = pert.frob_cost
    rel = abs(cost - identity) / max(abs(cost), 1e-300)
    slack = t.sigma * float(np.linalg.norm(at)) - cost
    return Reconstruction(perturbation=pert, r_eig=r_eig, cost_identity_rel=rel,
                          cost_bound_slack=slack)
