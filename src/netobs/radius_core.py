"""Reduced minimization, eigenvector-dependent weightings, and the pencil.

Everything here works in the input's node order. The reduced unknown is
Delta_bar, the columns of Delta at the non-sensor nodes (free): only those
columns of A can help hide an eigenvector from the sensors, since the
eigenvector vanishes on them. Complex quantities are split into stacked real
parts throughout: the reduced eigenvector is x = (x_re, x_im), length
2(n-p), and the multiplier is y = (y1, y2), length 2n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network_model import CanonicalForm, Perturbation


class SpuriousTripleError(ValueError):
    """Candidate triple fails the eigen-constraint residual check."""


# stationarity and eigen-constraint residual above which
# reconstruct_perturbation rejects a triple as spurious
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ReducedProblem:
    a_bar: np.ndarray       # n x (n-p), A[:, free]
    v_bar: np.ndarray       # n x (n-p), V[:, free]
    free: np.ndarray        # the non-sensor nodes: I_bar is the identity in these rows
    lam: complex

    @property
    def n(self):
        return self.a_bar.shape[0]

    @property
    def m(self):
        """Number of non-sensor states, n - p."""
        return self.a_bar.shape[1]

    @property
    def is_real(self):
        return self.lam.imag == 0.0

    @cached_property
    def a_tilde(self):
        """Real-split constraint operator, 2n x 2(n-p), built once, read-only:
        [[A_bar - lam_re I_bar, lam_im I_bar], [-lam_im I_bar, A_bar - lam_re I_bar]].
        Maps stacked (x_re, x_im) to the residuals of the two real eigen-
        equations when Delta = 0; its kernel would be an unobservable
        eigenvector of A itself. Its zeros carry the signs of that dense block
        product, -0.0 in the sensor rows of -lam_im I_bar among them."""
        n, m, free = self.n, self.m, self.free
        im = self.lam.imag * np.eye(m)
        an = self.a_bar.copy()
        an[free] -= self.lam.real * np.eye(m)
        at = np.zeros((2 * n, 2 * m))
        at[:n, :m] = at[n:, m:] = an
        at[n:, :m] = -0.0
        at[free, m:] = im
        at[n + free, :m] = -im
        at.setflags(write=False)
        return at


def build_reduced(cf: CanonicalForm, lam) -> ReducedProblem:
    """The reduced problem at a fixed candidate eigenvalue; it shares cf's
    read-only column blocks."""
    return ReducedProblem(a_bar=cf.a_bar, v_bar=cf.v_bar, free=cf.free, lam=complex(lam))


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

    Each entry equals a[i] @ b[i] bit for bit, and when b is a and the
    entries of each row are adjacent in memory, as in every stack the sweep
    forms, its square root equals _norm(a[i]); einsum and (a * b).sum(-1)
    sum in another order.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


# The norms below evaluate what numpy evaluates for a real array, bit for
# bit, without np.linalg.norm's argument checks and dispatch, which cost a
# vector of a dozen entries more than its arithmetic. The polish and the
# sweep take them per row and per step.


def _norm(x):
    """np.linalg.norm(x) of a real array x, as a float: the square root of
    x.ravel(order='K') dotted with itself, as numpy takes it. The ravel
    matters: a strided view dots in another BLAS kernel."""
    r = x.ravel(order="K")
    return math.sqrt(r.dot(r))


def _inf_norm(x):
    """np.linalg.norm(x, np.inf) of a real vector x: numpy's
    abs(x).max(initial=0), the largest |x_i|, NaN when one is NaN."""
    return np.maximum.reduce(np.abs(x), initial=0.0)


def _norms(x, axis):
    """np.linalg.norm(x, axis=axis) of a real stack x, over one axis or a
    pair of them (the Frobenius norm of every matrix): numpy's
    sqrt(add.reduce(x * x, axis))."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


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


def _residual(at, att, v_bar, u):
    """F(u) of the normalized stationarity system (_Form) with
    At = at and At' = att, for one u or row by row for a stack of them;
    with a stack of At, one per row. att is a transposed view of at
    (np.swapaxes), so _mv runs the kernel the one-row product At' @ y runs.
    Each block is written into F in place, elementwise as the blocks of a
    concatenation are."""
    ny, nx = at.shape[-2:]
    x, y, sig = u[..., :nx], u[..., nx:nx + ny], u[..., -1:]
    d_y, d_x = _weighting_diagonals(v_bar, x, y)
    f = np.empty(u.shape[:-1] + (nx + ny + 2,))
    np.subtract(_mv(att, y), sig * _weighted(d_y, x), out=f[..., :nx])
    np.subtract(_mv(at, x), sig * _weighted(d_x, y), out=f[..., nx:nx + ny])
    f[..., -2:-1] = (_rowdot(x, x) - 1.0) / 2.0
    f[..., -1:] = (_rowdot(y, y) - 1.0) / 2.0
    return f


def _shifted(h, t, d):
    """H - t D for a stack h of H, one shift t >= 0 per row, with D as
    PencilAssembly.weightings gives it: dense, or its diagonal on the
    half-size route, written into a copy of H's zero diagonal as 0.0 - t d.
    Off the diagonal the dense form subtracts t times an exact zero, so
    every entry equals the dense one bit for bit."""
    if d.ndim == h.ndim:
        return h - t[:, None, None] * d
    m = h.copy()
    i = np.arange(h.shape[-1])
    m[:, i, i] = 0.0 - t[:, None] * d
    return m


def _sandwich(f, m):
    """F M F for stacks of F and M, F dense or its diagonal. Each entry of
    the diagonal form, f_i (m_ij f_j), is the one nonzero product of the
    dense form's sums, rounded in the same order; + 0.0 gives a zero entry
    the sign those sums give it (+0.0), so every entry keeps its bits."""
    if f.ndim == m.ndim:
        return f @ (m @ f)
    return f[:, :, None] * (m * f[:, None, :]) + 0.0


def _times(d, z):
    """D z for every row of a stack z, D dense or its diagonal; the
    diagonal form gets the bits of _mv as _sandwich does."""
    if d.ndim > z.ndim:
        return _mv(d, z)
    return d * z + 0.0


class _Form:
    """The normalized stationarity system of one canonical form on one
    route, and what it keeps whatever lambda is: V_bar, the sizes of x and
    y, V_bar' tiled to the blocks of J, and the flat positions of D's
    diagonals in D and in J. One _Form serves every candidate of a solve on
    its route (_form).

    f and j give the residual F(u) and Jacobian J(u) for At = at: F stacks
    At' y - sigma D_y x, At x - sigma D_x y and the two norm rows. They take
    one u or a stack of them (rows), and one at or a stack of them, one per
    row: the polish of a block of candidates gathers each row's own
    A_tilde. Every row of a stack gets the bits its u alone gets with its
    at alone. At is A_tilde on the complex route, where D_y and D_x are
    2 x 2 arrays of diagonal blocks; on the half-size route of a real
    lambda it is A_bar - lam I_bar, the x_im = y2 = 0 slice, where one
    diagonal (S) is left of each. D's diagonals come from
    _weighting_diagonals and sit in J where PencilAssembly puts them in D.
    """

    def __init__(self, v_bar, real):
        n, m = v_bar.shape
        blocks = 1 if real else 2
        self.v, self.blocks = v_bar, blocks
        self.nx, self.ny = blocks * m, blocks * n
        size = self.nx + self.ny
        self.vtb = np.tile(v_bar.T, (blocks, blocks))
        self.d_positions = _d_positions(v_bar, self.nx, size, blocks)
        self.j_positions = _d_positions(v_bar, self.nx, size + 1, blocks)

    def f(self, at, u):
        return _residual(at, np.swapaxes(at, -1, -2), self.v, u)

    def j(self, at, u):
        # one preallocated Jacobian per u, rows (x-equations, y-equations,
        # the two norm rows) by columns (x, y, sigma). The derivative of the
        # y-equations in x is the transpose of that of the x-equations in y.
        # The zeros of the -sig * D_y and -sig * D_x blocks carry the sign
        # of -sig * 0.0, so each matrix equals the dense block product bit
        # for bit, signed zeros included. D's diagonals give every row of a
        # stack its own bits (_weighting_diagonals), and every other step is
        # elementwise over the leading axes, a stack of at included, so a
        # row of a stack gets the bits of its u alone.
        (n, m), nx, ny = self.v.shape, self.nx, self.ny
        lead = u.shape[:-1]
        x, y = u[..., :nx], u[..., nx:nx + ny]
        if u.ndim == 1:  # sigma as a scalar, numpy's fast path
            sig = sig3 = u[-1]
        else:  # sigma against the diagonals and against the matrices
            sig = u[:, -1:]
            sig3 = sig[:, :, None]
        d_y, d_x = _weighting_diagonals(self.v, x, y)
        o = x[..., :, None] * y[..., None, :]
        if self.blocks == 1:
            w = 2 * o
        else:
            w = np.empty(lead + (nx, ny))
            w[..., :m, :n] = 2 * o[..., :m, :n] + o[..., m:, n:]
            w[..., :m, n:] = o[..., m:, :n]
            w[..., m:, :n] = o[..., :m, n:]
            w[..., m:, n:] = o[..., :m, :n] + 2 * o[..., m:, n:]
        sw = sig3 * (self.vtb * w)
        zero = -sig3 * 0.0
        j = np.zeros(lead + (nx + ny + 2, nx + ny + 1))
        j[..., :nx, :nx] = zero
        j[..., nx:nx + ny, nx:nx + ny] = zero
        diagonals = np.concatenate(d_y + d_x, axis=-1)
        j.reshape(lead + (-1,))[..., self.j_positions] = -sig * diagonals
        j[..., :nx, nx:nx + ny] = np.swapaxes(at, -1, -2) - sw
        j[..., nx:nx + ny, :nx] = at - sw.swapaxes(-1, -2)
        np.negative(_weighted(d_y, x), out=j[..., :nx, -1])
        np.negative(_weighted(d_x, y), out=j[..., nx:nx + ny, -1])
        j[..., -2, :nx] = x
        j[..., -1, nx:nx + ny] = y
        return j


# the last _Form built on each route (False: complex, True: half-size)
_FORMS = {}


def _form(v_bar, real):
    """The _Form of v_bar on a route. A solve asks for the v_bar of its one
    CanonicalForm throughout, so the last _Form of each route is kept and
    built again only for another v_bar."""
    form = _FORMS.get(real)
    if form is None or form.v is not v_bar:
        form = _FORMS[real] = _Form(v_bar, real)
    return form


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

    @property
    def size(self):
        return self.h.shape[0]


class PencilAssembly:
    """The stationarity system of one reduced problem rp on one route: its
    operator At (a_tilde), the pencil (H, D) at many points (x, y), the
    route's _Form (form), whose residual F and Jacobian J the polish
    evaluates at At (solver._kernel), and the maps between the polish
    variable u = (x, y, sigma) and unit triples (triple, u_of).

    At is rp.a_tilde; with real=True this is the half-size system of a real
    lambda instead: At = A_bar - lam I_bar, the leading block of rp.a_tilde,
    x_im = y2 = 0, and only the S weightings survive, one diagonal each.

    H = [[0, At'], [At, 0]] is assembled once, read-only and shared by every
    pencil built here. pencil() writes only the diagonals of
    D = blkdiag(D_y, D_x) into a zeroed array (+0.0 elsewhere, as in a dense
    block assembly, bit for bit), or for stacks of points (the rows of x and
    y) one D per row into an array of shape (rows, size, size); weightings()
    gives the same D and its square root F, as diagonals on the half-size
    route. What does not depend on lambda (D's and J's positions, the tiled
    V_bar) comes from the route's _Form, shared by every candidate.
    """

    def __init__(self, rp: ReducedProblem, real=False):
        if real and not rp.is_real:
            raise ValueError("real pencil requires a real lambda")
        self.rp, self.v, self.real = rp, rp.v_bar, real
        at = np.ascontiguousarray(rp.a_tilde[:rp.n, :rp.m]) if real else rp.a_tilde
        k, l = at.shape
        size = l + k
        h = np.zeros((size, size))
        h[:l, l:] = at.T
        h[l:, :l] = at
        h.setflags(write=False)
        self.a_tilde, self.h, self.nx, self.size = at, h, l, size
        self.form = _form(self.v, real)

    def pencil(self, x, y) -> PencilPair:
        return PencilPair(h=self.h, d=self._fill(_weighting_diagonals(self.v, x, y)))

    def weightings(self, x, y):
        """(D, F) at the points (x, y), as the sweep takes them: the D of
        pencil(x, y) and its positive semidefinite square root F, D = F F.
        On the half-size route both are diagonal and come as their
        diagonals, of shape (rows, size); _shifted, _sandwich and _times
        apply them as the dense matrices, bit for bit. On the complex
        route both are dense, F on D's pattern: the square root of
        each 2 x 2 block [[s, t], [t, q]] in closed form,
        ([[s, t], [t, q]] + r I) / sqrt(s + q + 2 r) with r = sqrt(sq - t^2)
        (0 for a zero block)."""
        diagonals = _weighting_diagonals(self.v, x, y)
        if self.real:
            d = np.concatenate(diagonals[0] + diagonals[1], axis=-1)
            return d, np.sqrt(d)
        roots = []
        for s, t, _, q in diagonals:
            r = np.sqrt(np.fmax(s * q - t * t, 0.0))
            tau = np.sqrt(s + q + 2.0 * r)
            a, b, c = (np.divide(e, tau, out=np.zeros(e.shape), where=tau > 0)
                       for e in (s + r, t, q + r))
            roots.append((a, b, b, c))
        return self._fill(diagonals), self._fill(roots)

    def _fill(self, diagonals):
        d_y, d_x = diagonals
        values = np.concatenate(d_y + d_x, axis=-1)
        lead = values.shape[:-1]
        d = np.zeros(lead + (self.size, self.size))
        d.reshape(lead + (-1,))[..., self.form.d_positions] = values
        return d

    def triple(self, u):
        """Unit triple of a polish variable u = (x, y, sigma)."""
        lift = embed_real_triple if self.real else normalize_triple
        return lift(u[-1], u[:self.nx], u[self.nx:-1])

    def u_of(self, t):
        """Polish variable of a unit triple, the inverse of triple; None when
        the real halves of x or y vanish on the half-size route."""
        if not self.real:
            return np.concatenate([t.x, t.y, [t.sigma]])
        xr, y1 = t.x[:len(t.x) // 2], t.y[:len(t.y) // 2]
        nxr, ny1 = _norm(xr), _norm(y1)
        if nxr < 1e-8 or ny1 < 1e-8:
            return None
        return np.concatenate([xr / nxr, y1 / ny1, [t.sigma * nxr * ny1]])


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
        if abs(_norm(x) - 1.0) > 1e-10 or abs(_norm(y) - 1.0) > 1e-10:
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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nxr, nyr = _norm(x), _norm(y)
    if nxr == 0 or nyr == 0 or sigma == 0:
        raise ValueError("degenerate triple")
    alpha = np.sign(sigma) / nxr
    beta = 1.0 / nyr
    return CandidateTriple(sigma=float(abs(sigma) * nxr * nyr), x=alpha * x, y=beta * y)


def embed_real_triple(sigma, x_re, y1) -> CandidateTriple:
    m = len(x_re)
    n = len(y1)
    x = np.concatenate([x_re, np.zeros(m)])
    y = np.concatenate([y1, np.zeros(n)])
    return normalize_triple(sigma, x, y)


def system_residual(rp: ReducedProblem, t: CandidateTriple):
    """Residual of the two stationarity equations at (sigma, x, y)."""
    at = rp.a_tilde
    r = _residual(at, at.T, rp.v_bar, np.concatenate([t.x, t.y, [t.sigma]]))
    r1, r2 = r[:len(t.x)], r[len(t.x):-2]
    return float(np.sqrt(np.dot(r1, r1) + np.dot(r2, r2)))


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
    m, n, free = rp.m, rp.n, rp.free
    xr, xi = t.x[:m], t.x[m:]
    y1t, y2t = t.y[free], t.y[n + free]
    c_re = float(y1t @ xr + y2t @ xi)
    c_im = float(y1t @ xi - y2t @ xr)
    return c_re, c_im


@dataclass(frozen=True)
class Reconstruction:
    """Perturbation rebuilt from a stationary triple, with audit fields."""

    perturbation: Perturbation
    r_stat: float             # system_residual of the triple
    r_eig: float              # eigen-equation residual of the perturbation
    cost_identity_rel: float  # relative gap of ||Delta||_F^2 vs sigma * x' At' y
    cost_bound_slack: float   # sigma * ||At||_F - ||Delta||_F^2  (should be >= 0)


def _delta_bar(rp, t):
    """Delta_bar = -sigma (y1 x_re' + y2 x_im') o V_bar."""
    m, n = rp.m, rp.n
    xr, xi = t.x[:m], t.x[m:]
    y1, y2 = t.y[:n], t.y[n:]
    return -t.sigma * (np.outer(y1, xr) + np.outer(y2, xi)) * rp.v_bar


def _in_columns(rp, delta_bar):
    """Delta: Delta_bar in the columns free, zero sensor columns."""
    out = np.zeros((rp.n, rp.n))
    out[:, rp.free] = delta_bar
    return out


def reconstruct_perturbation(rp: ReducedProblem, t: CandidateTriple,
                             cf: CanonicalForm) -> Reconstruction:
    """Rebuild the minimum-norm perturbation from a stationary triple.

    Delta_bar = -sigma (y1 x_re' + y2 x_im') o V_bar: the coupling is plus
    because the weightings imply it, sigma^2 x' D_y x = ||Delta_bar||_F^2.
    Triples whose stationarity residual (system_residual, kept as r_stat)
    or whose perturbation's eigen-constraint residual exceeds _RESIDUAL_TOL
    are rejected as spurious.
    """
    r_stat = system_residual(rp, t)
    if r_stat > _RESIDUAL_TOL:
        raise SpuriousTripleError("triple does not satisfy the stationarity system")
    xc = np.zeros(rp.n, dtype=complex)
    xc[rp.free] = t.x[:rp.m] + 1j * t.x[rp.m:]
    nxc = np.linalg.norm(xc)
    if nxc == 0:
        raise SpuriousTripleError("zero eigenvector")
    xc = xc / nxc
    delta = _in_columns(rp, _delta_bar(rp, t))
    r_eig = float(np.linalg.norm((cf.net.weights + delta) @ xc - rp.lam * xc))
    if r_eig > _RESIDUAL_TOL:
        raise SpuriousTripleError(
            f"reconstructed perturbation violates the eigen constraint "
            f"(residual {r_eig:.3e})"
        )
    pert = Perturbation(delta, cf.mask)
    at = rp.a_tilde
    identity = t.sigma * float(t.x @ (at.T @ t.y))
    cost = pert.frob_cost
    rel = abs(cost - identity) / max(abs(cost), 1e-300)
    slack = t.sigma * _norm(at) - cost
    return Reconstruction(perturbation=pert, r_stat=r_stat, r_eig=r_eig,
                          cost_identity_rel=rel, cost_bound_slack=slack)
