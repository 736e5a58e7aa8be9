"""Fixed-eigenvalue radius solves and the search over candidate eigenvalues.

The fixed-lambda problem is attacked in two stages. A shifted inverse
iteration on the nonlinear pencil (the weightings are rebuilt from the
iterate every sweep step, shift mu = psi * smallest positive generalized
eigenvalue) explores the landscape; it is kept faithful to the update rule
but is not locally contractive at stationary points, so a
Levenberg-Marquardt polish on the normalized stationarity system finishes
the job. The polish works on unknowns (x, y, sigma) with explicit unit-norm
rows appended, which kills both the scale gauge and the spurious x = 0
solution branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .network_model import (CanonicalForm, ConstraintMask, NetworkSystem,
                            canonicalize, verify_unobservability)
from .radius_core import (CandidateTriple, PencilAssembly, PencilPair,
                          Reconstruction, ReducedProblem, SpuriousTripleError,
                          _d_positions, _delta_bar, _mv, _rowdot, _weighted,
                          _weighting_diagonals, _with_sensor_columns, a_tilde,
                          build_reduced, embed_real_triple, normalize_triple,
                          orthogonality_diagnostic, pencil_residual,
                          reconstruct_perturbation)


@dataclass(frozen=True)
class SolverConfig:
    psi: float = 0.9              # shift factor, open interval (0.5, 1)
    conv_tol: float = 1e-9
    restarts: int = 8
    seed: int = 0
    sweep_iters: int = 20         # inverse-iteration steps before the polish
    polish_max_iter: int = 60
    polish_tol: float = 1e-12
    zero_tol: float = 1e-8
    cond_limit: float = 1e14
    refine_steps: int = 20
    keep_delta_trace: bool = False
    force_full_pencil: bool = False

    def __post_init__(self):
        if not (0.5 < self.psi < 1.0):
            raise ValueError(f"psi must lie in (0.5, 1), got {self.psi}")
        if not 0.0 < self.conv_tol < np.inf:
            raise ValueError(f"conv_tol must be positive and finite, got {self.conv_tol}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SpectrumResult:
    values: np.ndarray   # finite generalized eigenvalues (complex dtype)
    regular: bool


# LAPACK ?ggev handle and its workspace size, per (dtype of H, dtype of D,
# order). An entry depends on nothing but its key, so every caller can share it.
_GGEV = {}


def _qz(h, d):
    """Homogeneous eigenvalues (alpha, beta) of the pencil (h, d) by QZ.

    LAPACK ?ggev gets the arguments scipy.linalg.eigvals(h, d,
    homogeneous_eigvals=True) gives it: no eigenvectors, inputs not
    overwritten, the workspace size from ?ggev's own query. The values come
    back in the same form (complex alpha and beta), bit for bit. Only the
    wrapper work is saved: the handle and the workspace size are looked up
    once per dtype and order, and the input is not validated again.
    """
    key = (h.dtype.char, d.dtype.char, h.shape[0])
    entry = _GGEV.get(key)
    if entry is None:
        ggev, = sla.get_lapack_funcs(("ggev",), (h, d))
        lwork = ggev(h, d, lwork=-1)[-2][0].real.astype(np.int_)
        entry = _GGEV[key] = (ggev, lwork)
    ggev, lwork = entry
    out = ggev(h, d, 0, 0, lwork, 0, 0)
    if out[-1] != 0:
        raise np.linalg.LinAlgError(f"QZ failed in ?ggev (info {out[-1]})")
    if ggev.typecode in "cz":
        alpha, beta = out[0], out[1]
    else:
        alpha, beta = out[0] + 1j * out[1], out[2]
    return alpha, beta.astype(complex)


def _classify(alpha, beta):
    """(finite, indeterminate) masks of QZ's homogeneous eigenvalues, for
    one pencil or row by row for stacks of shape (..., order).

    A second-order block at infinity splits under rounding into a huge
    conjugate pair with |beta| ~ sqrt(eps); anything past eps^-0.4 of the
    pencil scale is indistinguishable from infinity and classified as such.
    """
    abs_alpha, abs_beta = np.abs(alpha), np.abs(beta)
    scale = np.fmax(1.0, abs_alpha.max(axis=-1, keepdims=True))
    finite = abs_beta > 5e-7 * (1.0 + abs_alpha)
    indeterminate = (abs_alpha <= 1e-12 * scale) & (abs_beta <= 1e-12)
    return finite, indeterminate


def _regular(h, d):
    """Whether det(H - tD) is away from zero at one of a few fixed points."""
    hnorm = max(1.0, float(np.abs(h).max()), float(np.abs(d).max()))
    return any(np.linalg.svd(h - t * d, compute_uv=False)[-1] > 1e-12 * hnorm
               for t in (0.37281, -1.11803, 2.64575))


def generalized_spectrum(pp: PencilPair) -> SpectrumResult:
    """Finite part of spec(H, D) via QZ, with a regularity probe.

    QZ is LAPACK ?ggev called through a cached handle (_qz), which returns
    what scipy.linalg.eigvals(H, D, homogeneous_eigvals=True) would.
    Infinite eigenvalues (beta ~ 0 with alpha away from 0) come from Ker(D)
    and are dropped. If any alpha/beta pair is indeterminate (both ~ 0) the
    pencil may be singular; det(H - tD) is probed at a few fixed points and
    the pencil is flagged non-regular when all probes vanish.
    """
    alpha, beta = _qz(pp.h, pp.d)
    finite, indeterminate = _classify(alpha, beta)
    regular = not indeterminate.any() or _regular(pp.h, pp.d)
    values = alpha[finite] / beta[finite]
    order = np.lexsort((values.imag, values.real))
    return SpectrumResult(values=values[order], regular=regular)


def _min_positive(alpha, beta, finite, zero_tol):
    """Smallest positive real finite eigenvalue of each pencil of a stack,
    from QZ's (alpha, beta) of shape (rows, order); NaN where there is none.
    Real means an imaginary part within 1e-6 of the scale of the real parts.
    """
    values = np.divide(alpha, beta, out=np.zeros_like(alpha), where=finite)
    re = values.real
    scale = np.fmax(1.0, np.abs(re).max(axis=1, keepdims=True))
    ok = finite & (re > zero_tol * scale) & (np.abs(values.imag) <= 1e-6 * scale)
    return np.where(ok.any(axis=1), np.where(ok, re, np.inf).min(axis=1), np.nan)


def _u_of_pencil(h, d, z):
    """Polish variables of balanced pencil vectors, the rows of z (D stacked
    to match): unit blocks, and sigma at triple scale from the Rayleigh
    quotient |z'Hz / z'Dz| (1 when z'Dz = 0)."""
    den = _rowdot(z, _mv(d, z))
    sigma_bar = np.abs(np.divide(_rowdot(z, _mv(h, z)), den,
                                 out=np.ones_like(den), where=den != 0))
    return np.concatenate([np.sqrt(2.0) * z, sigma_bar / 2.0], axis=1)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt polish on the normalized stationarity system.
# Unknown u = (x, y, sigma); residual F(u) stacks the two stationarity
# equations plus (|x|^2 - 1)/2 and (|y|^2 - 1)/2.


def _gn_core(f_of, j_of, u0, max_iter, tol):
    """Levenberg-Marquardt on ||F(u)||_2 from u0.

    One SVD J = U diag(s) V' per Jacobian serves every trial at that point:
    the step with damping mu is -V diag(s / (s^2 + mu)) U'F, and a trial
    costs one residual. The first trial at each point is the undamped
    Gauss-Newton step (mu = 0), with singular values at or below lstsq's
    default cut-off (eps * max(J.shape) * s_max) dropped. A trial is
    accepted when the gain ratio rho, the actual over the predicted decrease
    of ||F||^2, exceeds 1e-4. After a rejection mu follows Nielsen's update:
    it starts at 1e-3 * s_max^2, or where the last accepted damped step left
    it (mu *= max(1/3, 1 - (2 rho - 1)^3)), and each further rejection
    takes mu *= nu, nu *= 2 with nu = 2 at first. An accepted undamped step
    clears the carried mu. The run fails when the predicted decrease drops
    to the rounding of ||F||^2, where no trial can be told apart from u.

    The run also fails, before any trial at a point, when that point is
    stationary for ||F|| at a nonzero residual: the relative gradient
    ||J'F|| / (||J||_2 ||F||) is at or below 1e-6 (Madsen, Nielsen &
    Tingleff, "Methods for Non-Linear Least Squares Problems", 2004, 3.2).
    Both norms come from the SVD: ||J'F|| = ||s * U'F|| and ||J||_2 = s[0].
    Along the runs that converge, the smallest relative gradient measured
    was 1.6e-4 on the benchmark pools, 4.6e-4 on C3's 100 chains and 1.5e-5
    on C7's 1,000 instances, where a few runs pass close to a saddle of
    ||F|| before they converge; the threshold sits 15 times below the
    lowest.

    The run fails as well, before the Jacobian at a point, when it makes no
    progress (the same reference, 3.2): ||F|| there is above (1 - 1e-4)
    times ||F|| where the Jacobian 10 steps back was taken. Such runs crawl
    far from any stationary point (||F|| ~ 0.19 on the 4-node line of the
    CLI benchmark pool) and would use up the budget. Along the runs that
    converge, the smallest relative fall of ||F|| over any 10 Jacobians was
    1.3e-3 on C7 (saddle passages), 1.8e-3 on the CLI pool, 2.1e-2 on C3
    and 8.9e-2 on the chain3 pool; the threshold sits 13 times below the
    lowest.

    A run that stops at either exit fails like any other, and
    heuristic_iterate reports it as "did not converge".

    Returns (u, Jacobians taken, converged, accepted iterates); ||F|| falls
    strictly along the accepted iterates.
    """
    eps = np.finfo(float).eps
    u = u0.copy()
    f = f_of(u)
    us = [u]
    norms = []  # ||F|| at every point the loop reaches
    mu = 0.0
    its = 0
    for its in range(1, max_iter + 1):
        if np.linalg.norm(f, np.inf) <= tol:
            return u, its - 1, True, us
        ff = f @ f
        norms.append(np.sqrt(ff))
        # no progress: ||F|| fell by less than 1e-4 relative over 10 Jacobians
        if its > 10 and norms[-1] > (1.0 - 1e-4) * norms[-11]:
            return u, its - 1, False, us
        jac = j_of(u)
        left, s, vt = np.linalg.svd(jac, full_matrices=False)
        g = left.T @ f
        # the relative gradient: stationary for ||F|| with F != 0
        if np.linalg.norm(s * g) <= 1e-6 * s[0] * norms[-1]:
            return u, its, False, us
        w = np.divide(1.0, s, out=np.zeros_like(s),
                      where=s > eps * max(jac.shape) * s[0])
        damp, nu = 0.0, 2.0
        while True:
            r = s * w
            pred = float(np.sum(g * g * r * (2.0 - r)))
            if not pred > eps * ff:  # NaN in F fails here too
                return u, its, False, us
            trial = u - vt.T @ (w * g)
            ft = f_of(trial)
            gain = ff - ft @ ft
            if gain > 1e-4 * pred:
                break
            if damp == 0.0:
                damp = mu or 1e-3 * s[0] ** 2
            else:
                damp, nu = damp * nu, 2.0 * nu
            w = s / (s * s + damp)
        mu = damp * max(1.0 / 3.0, 1.0 - (2.0 * gain / pred - 1.0) ** 3)
        u, f = trial, ft
        us.append(u)
    return u, its, bool(np.linalg.norm(f, np.inf) <= tol), us


def _residual(at, att, v_bar, u):
    """F(u) of the normalized stationarity system (_stationarity_fj) with
    At = at and At' = att, for one u or row by row for a stack of them;
    with a stack of At, one per row. att is a transposed view of at
    (np.swapaxes), so _mv runs the kernel the one-row product At' @ y runs."""
    ny, nx = at.shape[-2:]
    x, y, sig = u[..., :nx], u[..., nx:nx + ny], u[..., -1:]
    d_y, d_x = _weighting_diagonals(v_bar, x, y)
    return np.concatenate([_mv(att, y) - sig * _weighted(d_y, x),
                           _mv(at, x) - sig * _weighted(d_x, y),
                           (_rowdot(x, x) - 1.0) / 2.0,
                           (_rowdot(y, y) - 1.0) / 2.0], axis=-1)


def _stationarity_fj(at, v_bar):
    """Residual F(u) and Jacobian J(u) of the normalized stationarity system.

    F stacks At' y - sigma D_y x, At x - sigma D_x y and the two norm rows;
    f_of takes one u or a stack of them (rows).
    At is A_tilde on the complex route, where D_y and D_x are 2 x 2 arrays of
    diagonal blocks; on the half-size route of a real lambda it is
    A_bar - lam I_bar, the x_im = y2 = 0 slice, where one diagonal (S) is
    left of each. D's diagonals come from _weighting_diagonals and sit in J
    where PencilAssembly puts them in D.
    """
    n, m = v_bar.shape
    ny, nx = at.shape
    blocks = ny // n
    att = at.T
    vtb = np.tile(v_bar.T, (blocks, blocks))
    cols = nx + ny + 1
    positions = _d_positions(v_bar, nx, cols, blocks)

    def f_of(u):
        return _residual(at, att, v_bar, u)

    def j_of(u):
        # one preallocated Jacobian, rows (x-equations, y-equations, the two
        # norm rows) by columns (x, y, sigma). The derivative of the
        # y-equations in x is the transpose of that of the x-equations in y.
        # The zeros of the -sig * D_y and -sig * D_x blocks carry the sign
        # of -sig * 0.0, so the matrix equals the dense block product bit
        # for bit, signed zeros included.
        x, y, sig = u[:nx], u[nx:nx + ny], u[-1]
        d_y, d_x = _weighting_diagonals(v_bar, x, y)
        o = np.outer(x, y)
        if blocks == 1:
            w = 2 * o
        else:
            w = np.empty((nx, ny))
            w[:m, :n] = 2 * o[:m, :n] + o[m:, n:]
            w[:m, n:] = o[m:, :n]
            w[m:, :n] = o[:m, n:]
            w[m:, n:] = o[:m, :n] + 2 * o[m:, n:]
        sw = sig * (vtb * w)
        j = np.zeros((nx + ny + 2, cols))
        j[:nx, :nx] = -sig * 0.0
        j[nx:nx + ny, nx:nx + ny] = -sig * 0.0
        j.flat[positions] = -sig * np.concatenate(d_y + d_x)
        j[:nx, nx:nx + ny] = att - sw
        j[nx:nx + ny, :nx] = at - sw.T
        j[:nx, -1] = -_weighted(d_y, x)
        j[nx:nx + ny, -1] = -_weighted(d_x, y)
        j[-2, :nx] = x
        j[-1, nx:nx + ny] = y
        return j

    return f_of, j_of


def _triple_of(u, asm):
    """Unit triple of a polish variable u = (x, y, sigma) on the route of
    the pencil assembly asm."""
    lift = embed_real_triple if asm.real else normalize_triple
    return lift(u[-1], u[:asm.nx], u[asm.nx:-1])


def _u_of(t, asm):
    """Polish variable of a unit triple, the inverse of _triple_of; None when
    the real halves of x or y vanish on the half-size route."""
    if not asm.real:
        return np.concatenate([t.x, t.y, [t.sigma]])
    xr, y1 = t.x[:len(t.x) // 2], t.y[:len(t.y) // 2]
    nxr, ny1 = np.linalg.norm(xr), np.linalg.norm(y1)
    if nxr < 1e-8 or ny1 < 1e-8:
        return None
    return np.concatenate([xr / nxr, y1 / ny1, [t.sigma * nxr * ny1]])


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """The iterates of one fixed-lambda solve, kept raw.

    sweep holds the sweep passes and polish the winning Levenberg-Marquardt
    sequence, each as a polish variable u = (x, y, sigma). Their distances
    to the final perturbation are built on first access (distances), so a
    restart whose result is dropped never pays for them.
    """

    rp: ReducedProblem
    cf: CanonicalForm
    asm: PencilAssembly
    final: CandidateTriple
    sweep: tuple
    polish: tuple
    keep_deltas: bool

    @cached_property
    def distances(self):
        """(history, polish_start, delta_trace)."""
        return _distance_history(self)


def _distance_history(tr: IterateTrace):
    """||Delta_i - Delta_final||_F for every iterate that maps to a triple,
    the index where the polish iterates begin, and the Delta_i in original
    coordinates (None unless kept)."""
    rp = tr.rp
    d_final = _delta_bar(rp, tr.final)

    def snapshots(us):
        hist = []
        deltas = [] if tr.keep_deltas else None
        for u in us:
            try:
                ti = _triple_of(u, tr.asm)
            except ValueError:
                continue
            di = _delta_bar(rp, ti)
            hist.append(float(np.linalg.norm(di - d_final)))
            if deltas is not None:
                deltas.append(tr.cf.to_original(_with_sensor_columns(rp, di)))
        return hist, deltas

    h_sweep, d_sweep = snapshots(tr.sweep)
    h_gn, d_gn = snapshots(tr.polish)
    deltas = None if d_sweep is None else tuple(d_sweep + d_gn)
    return tuple(h_sweep + h_gn), len(h_sweep), deltas


@dataclass(frozen=True)
class FixedLambdaResult:
    lam: complex
    converged: bool
    triple: CandidateTriple | None = None
    reconstruction: Reconstruction | None = None
    iterations: int = 0
    residual: float = np.inf       # ||H z - sigma_bar D z|| at the final triple
    sigma: float | None = None
    phi_plus_mu: float | None = None
    verification: object = None
    failure: str | None = None
    iterates: IterateTrace | None = field(default=None, repr=False, compare=False)

    @property
    def history(self):
        """Per-iteration ||Delta_i - Delta_final||_F."""
        return () if self.iterates is None else self.iterates.distances[0]

    @property
    def polish_start(self):
        """Index in history where the polish phase begins."""
        return 0 if self.iterates is None else self.iterates.distances[1]

    @property
    def delta_trace(self):
        """Delta_i in original coordinates, when the config keeps them."""
        return None if self.iterates is None else self.iterates.distances[2]

    @property
    def perturbation(self):
        return None if self.reconstruction is None else self.reconstruction.perturbation

    @property
    def cost(self):
        """Radius value ||Delta||_F, inf when the run failed."""
        if self.perturbation is None:
            return np.inf
        return self.perturbation.frob_norm


def _rebalance(z, nx):
    """The rows of z scaled to blocks of norm 1/sqrt(2), and the mask of the
    rows that could be (neither block norm below 1e-300); only those rows
    come back."""
    zx, zy = z[:, :nx], z[:, nx:]
    nzx, nzy = np.sqrt(_rowdot(zx, zx)), np.sqrt(_rowdot(zy, zy))
    ok = ~((nzx < 1e-300) | (nzy < 1e-300))[:, 0]
    scale = np.sqrt(2.0)
    return np.concatenate([zx[ok] / (scale * nzx[ok]), zy[ok] / (scale * nzy[ok])],
                          axis=1), ok


@dataclass(eq=False)
class _Sweep:
    """One start's pass through the sweep: the polish variable of its
    balanced start (init, None when the start degenerates), that of every
    completed step (trace), the step of least merit ||F(u)|| (best, the
    first of equals) and the last step's mu + 1/phi."""

    init: np.ndarray | None = None
    trace: list = field(default_factory=list)
    best: np.ndarray | None = None
    merit: float = np.inf
    phi_plus_mu: float | None = None


def _sweep(asms, starts, cfg):
    """Shifted inverse iteration from every start vector, in lockstep.

    asms holds the pencil assemblies of one or more candidate lambdas, all
    on one route (so the pencils have one order), and starts[k] the start
    vectors of candidate k. The rows of one (rows, size) block advance
    together, and a row leaves the block where its own sweep ends: a pencil
    that is not regular or has no positive eigenvalue, a singular shifted
    solve, phi non-finite or below 1e-300, or an iterate that cannot be
    rebalanced. Each step fills D's diagonals for every row, takes QZ row by
    row (_qz), shifts by mu = psi times the smallest positive eigenvalue,
    backs psi off per row where the 2-norm condition number of H - mu D (its
    singular values, one stacked SVD) exceeds cond_limit, and solves
    (H - mu D) w = D z in one stacked solve. Returns one _Sweep per start,
    candidate by candidate.

    H and A_tilde depend on lambda, D only on V_bar and the route, so the
    first assembly fills D for every row. The H and A_tilde of each
    candidate are stacked once, and an index from row to candidate is
    filtered with the rows and gathers them per step; QZ and the regularity
    probe read the candidate's own H. A block of one candidate uses its H
    and A_tilde as they are, without a copy per row.

    Every row gets the bits a sweep of that start alone would. Stacked
    np.linalg.svd and np.linalg.solve run LAPACK slice by slice. Matrix
    times vector goes through _mv and dot products and norms through
    _rowdot, which equal a @ x and np.linalg.norm row by row, where x @ a.T,
    einsum and sums over an axis do not; the merit's At' is a transposed
    view of the gathered A_tilde, as it is of A_tilde for one row. The
    solve stays numpy's: scipy's ?gesv comes from another BLAS build and
    differs in the last bits.
    """
    asm, one = asms[0], len(asms) == 1
    nx, v = asm.nx, asm.v
    hs = asm.h[None] if one else np.stack([a.h for a in asms])
    ats = asm.a_tilde[None] if one else np.stack([a.a_tilde for a in asms])
    cand = np.repeat(np.arange(len(asms)), [len(s) for s in starts])

    def rows_of(stack):
        # the candidate's matrix for every live row; with one candidate its
        # matrix itself, which the arithmetic broadcasts over the rows
        return stack[0] if one else stack[cand]

    rows = [_Sweep() for s in starts for _ in s]
    z, ok = _rebalance(np.array([z0 for s in starts for z0 in s], dtype=float), nx)
    live, cand = np.flatnonzero(ok), cand[ok]
    d = asm.pencil(z[:, :nx], z[:, nx:]).d
    for row, u in zip([rows[i] for i in live], _u_of_pencil(rows_of(hs), d, z)):
        row.init = u
    psi = np.full(len(live), cfg.psi)
    for it in range(cfg.sweep_iters):
        if not len(live):
            break
        if it:
            d = asm.pencil(z[:, :nx], z[:, nx:]).d
        alpha, beta = (np.array(part)
                       for part in zip(*[_qz(hs[c], dk) for c, dk in zip(cand, d)]))
        finite, indeterminate = _classify(alpha, beta)
        mp = _min_positive(alpha, beta, finite, cfg.zero_tol)
        keep = ~np.isnan(mp)
        for k in np.flatnonzero(keep & indeterminate.any(axis=1)):
            keep[k] = _regular(hs[cand[k]], d[k])
        live, cand, z, d, psi, mp = (a[keep] for a in (live, cand, z, d, psi, mp))

        mu = psi * mp
        mmat = rows_of(hs) - mu[:, None, None] * d
        s = np.linalg.svd(mmat, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the 2-norm condition number (infinite when s_min = 0, as
            # np.linalg.cond has it) says the shift sits on an eigenvalue;
            # back psi off for that row and retry next pass
            back = (s[:, -1] == 0.0) | (s[:, 0] / s[:, -1] > cfg.cond_limit)
        for k in np.flatnonzero(back):
            psi[k] = max(0.5 + 0.45 * (psi[k] - 0.5), 0.500001)
            mu[k] = psi[k] * mp[k]
            mmat[k] = hs[cand[k]] - mu[k] * d[k]
        rhs = np.matmul(d, z[..., None])
        keep = np.ones(len(live), dtype=bool)
        try:
            w = np.linalg.solve(mmat, rhs)[..., 0]
        except np.linalg.LinAlgError:
            # one singular row fails the whole stack: solve row by row
            w = np.zeros_like(z)
            for k in range(len(live)):
                try:
                    w[k] = np.linalg.solve(mmat[k], rhs[k])[:, 0]
                except np.linalg.LinAlgError:
                    keep[k] = False
        phi = np.sqrt(_rowdot(w, w))[:, 0]
        keep &= np.isfinite(phi) & (phi >= 1e-300)
        live, cand, z, d, psi, mu, w, phi = (
            a[keep] for a in (live, cand, z, d, psi, mu, w, phi))

        zn = w / phi[:, None]
        zn = np.where(_rowdot(zn, z) < 0, -zn, zn)
        zn, keep = _rebalance(zn, nx)
        live, cand, d, psi, mu, phi = (a[keep] for a in (live, cand, d, psi, mu, phi))
        u = _u_of_pencil(rows_of(hs), d, zn)
        at = rows_of(ats)
        f = _residual(at, np.swapaxes(at, -1, -2), v, u)
        merit = np.sqrt(_rowdot(f, f))[:, 0]
        for k, row in enumerate([rows[i] for i in live]):
            row.trace.append(u[k])
            row.phi_plus_mu = mu[k] + 1.0 / phi[k]
            if merit[k] < row.merit:
                row.merit, row.best = merit[k], u[k]
        z = zn
    return rows


def heuristic_iterate(rp: ReducedProblem, cf, cfg: SolverConfig,
                      z0=None, *, sweep=None, pencil=None) -> FixedLambdaResult:
    """One solve of the fixed-lambda problem from one initial vector.

    Runs the shifted inverse-iteration sweep, then polishes the best sweep
    iterate (by stationarity residual) with Levenberg-Marquardt,
    reconstructs the perturbation, and reports the pencil residual. Real
    lambda is routed through the half-size pencil unless the config forces
    the full one.

    The sweep is the lockstep kernel _sweep on a block of one row; H is
    assembled once per call (PencilAssembly), and each step fills only D's
    diagonals (one on the real route, four per block on the complex one).
    _best_of_restarts sweeps all its restarts in one block and hands each
    restart its row as sweep; z0 is then not used, and the result is, bit
    for bit, the one that restart's z0 gives on its own. It also hands over
    pencil, the candidate's (PencilAssembly, f_of, j_of), which a call on
    its own builds from rp and cfg.

    The iterates are returned raw (iterates); history, polish_start and
    delta_trace are built from them on first access.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA5)))

    if pencil is None:
        asm = PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)
        pencil = (asm, *_stationarity_fj(asm.a_tilde, rp.v_bar))
    asm, f_of, j_of = pencil
    nx, ny = asm.nx, asm.size - asm.nx

    if sweep is None:
        if z0 is None:
            z0 = rng.standard_normal(nx + ny)
        sweep, = _sweep([asm], [[z0]], cfg)
    if sweep.init is None:
        return FixedLambdaResult(lam=rp.lam, converged=False,
                                 failure="degenerate initial vector")
    trace_u, best_seed = sweep.trace, sweep.best

    seeds = []
    if best_seed is not None:
        seeds.append(best_seed)
    if trace_u and (best_seed is None or not np.array_equal(trace_u[-1], best_seed)):
        seeds.append(trace_u[-1])
    if not trace_u:
        # the sweep died on the initial vector (singular pencil there, e.g.
        # a start with zero imaginary blocks at real lambda): that vector is
        # the only information available, so polish it before any random
        # fallback instead of dropping it on the floor
        seeds.append(sweep.init)
    xs = rng.standard_normal(nx)
    ys = rng.standard_normal(ny)
    seeds.append(np.concatenate([xs / np.linalg.norm(xs), ys / np.linalg.norm(ys), [0.5]]))
    if trace_u:
        seeds.append(sweep.init)

    sweep_used = len(trace_u)
    gn_used = 0
    failure = "did not converge"
    for u0 in seeds:
        u, its, ok, us = _gn_core(f_of, j_of, u0, cfg.polish_max_iter, cfg.polish_tol)
        gn_used += its
        if not ok:
            continue
        res, detail = _accept(rp, cf, u, asm, cfg)
        if res is not None:
            break
        failure = detail
    else:  # no seed was accepted
        return FixedLambdaResult(lam=rp.lam, converged=False,
                                 iterations=sweep_used + gn_used,
                                 phi_plus_mu=sweep.phi_plus_mu, failure=failure)

    # iterates are the sweep passes followed by the winning polish sequence;
    # the sweep passes are rows of the whole block's iterates, so they are
    # copied out, and a kept result holds its own rows only
    iterates = IterateTrace(
        rp=rp, cf=cf, asm=asm, final=res.triple, sweep=tuple(np.array(trace_u)),
        polish=tuple(us) + (detail,), keep_deltas=cfg.keep_delta_trace)
    return replace(res, iterations=sweep_used + gn_used,
                   phi_plus_mu=sweep.phi_plus_mu, iterates=iterates)


def _accept(rp, cf, u, asm, cfg):
    """The step after a converged polish, for restarts and continuation alike.

    Orients sigma > 0, rejects the collapsed (x or y ~ 0) and zero-sigma
    branches, maps u to a unit triple, reconstructs the perturbation and
    takes the pencil residual. Returns (result, oriented u), or (None, the
    reason u was rejected).
    """
    nx = asm.nx
    if np.linalg.norm(u[:nx]) < 1e-6 or np.linalg.norm(u[nx:-1]) < 1e-6:
        return None, "collapsed onto the trivial solution branch"
    if u[-1] < 0:
        u = np.concatenate([-u[:nx], u[nx:-1], [-u[-1]]])
    if abs(u[-1]) < 1e-14:
        return None, "stationary point with zero sigma"
    try:
        t = _triple_of(u, asm)
        rec = reconstruct_perturbation(rp, t, cf)
    except (SpuriousTripleError, ValueError) as exc:
        return None, f"spurious stationary point: {exc}"
    res = pencil_residual(rp, t)
    converged = res <= cfg.conv_tol
    return FixedLambdaResult(
        lam=rp.lam, converged=converged, triple=t, reconstruction=rec,
        residual=res, sigma=t.sigma,
        failure=None if converged else f"pencil residual {res:.3e} above tolerance"), u


def _pbh_warm_start(cf, lam, asm, rng):
    """Seed z with the PBH singular vector at lam: the unstructured optimum
    is usually in the right basin for the structured one. On the half-size
    route of a real lambda only its real part is kept."""
    n, p = cf.n, cf.p
    c = np.hstack([np.eye(p), np.zeros((p, n - p))])
    stack = np.vstack([complex(lam) * np.eye(n) - cf.a_canonical, c])
    _, _, vh = np.linalg.svd(stack)
    xc = vh[-1].conj()[p:]
    if np.linalg.norm(xc) < 1e-8:
        return None
    k = int(np.argmax(np.abs(xc)))
    xc = xc * np.exp(-1j * np.angle(xc[k]))
    xc = xc / np.linalg.norm(xc)
    x = np.concatenate([xc.real, xc.imag])[:asm.nx]
    if np.linalg.norm(x) < 1e-8:
        return None
    y = asm.a_tilde @ x
    ny = np.linalg.norm(y)
    if ny < 1e-12:
        y = rng.standard_normal(len(y))
        ny = np.linalg.norm(y)
    return np.concatenate([x / (np.sqrt(2.0) * np.linalg.norm(x)), y / (np.sqrt(2.0) * ny)])


@dataclass(eq=False)
class _Candidate:
    """What the restarts of one candidate lambda share: its reduced problem,
    its pencil (PencilAssembly, f_of, j_of) and every restart's start
    vector."""

    rp: ReducedProblem
    pencil: tuple
    starts: list

    @property
    def asm(self):
        return self.pencil[0]


def _candidate(cf, lam, cfg):
    """The _Candidate of lam. Every restart's start vector is drawn from the
    restart's own stream, in the order a restart on its own would draw it:
    restart 0 from the PBH singular vector when there is one."""
    rp = build_reduced(cf, lam)
    asm = PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        z0 = _pbh_warm_start(cf, lam, asm, rng) if r == 0 else None
        if z0 is None:
            z0 = rng.standard_normal(asm.size)
        starts.append(z0)
    return _Candidate(rp, (asm, *_stationarity_fj(asm.a_tilde, rp.v_bar)), starts)


def _sweep_candidates(cands, cfg):
    """The sweep rows of every restart of every candidate, one list per
    candidate. The candidates of each route go through _sweep as one block:
    half-size real pencils and full complex ones differ in order."""
    out = [None] * len(cands)
    for real in (False, True):
        group = [k for k, c in enumerate(cands) if c.asm.real == real]
        if not group:
            continue
        rows = iter(_sweep([cands[k].asm for k in group],
                           [cands[k].starts for k in group], cfg))
        for k in group:
            out[k] = [next(rows) for _ in cands[k].starts]
    return out


def _polish_restarts(cf, cand, sweeps, cfg) -> FixedLambdaResult:
    """The best converged restart of one candidate: each restart's polish
    runs in heuristic_iterate on its sweep row."""
    best = None
    failures = []
    for r, sweep in enumerate(sweeps):
        run_cfg = replace(cfg, seed=cfg.seed * 1009 + r)
        res = heuristic_iterate(cand.rp, cf, run_cfg, sweep=sweep, pencil=cand.pencil)
        if res.converged:
            if best is None or res.cost < best.cost - 1e-15:
                best = res
        else:
            failures.append(res.failure)
    if best is None:
        return FixedLambdaResult(lam=cand.rp.lam, converged=False,
                                 failure="all restarts failed: " +
                                         "; ".join(sorted(set(f or "?" for f in failures))))
    return best


def _best_of_restarts(cf, lam, cfg: SolverConfig) -> FixedLambdaResult:
    """solve_fixed_lambda on a canonical form, without the verification.

    Every restart's start vector is drawn first (_candidate). All starts
    then go through the sweep in lockstep (_sweep, one block), and each
    restart's polish runs in heuristic_iterate on its row of that block.
    The results are those of one restart at a time, bit for bit. This is
    the one-candidate case of solve_radius's sweep-ahead blocks.
    """
    cand = _candidate(cf, lam, cfg)
    sweeps, = _sweep_candidates([cand], cfg)
    return _polish_restarts(cf, cand, sweeps, cfg)


def solve_fixed_lambda(net: NetworkSystem, mask: ConstraintMask, lam,
                       cfg: SolverConfig = SolverConfig()) -> FixedLambdaResult:
    """Best fixed-lambda result over cfg.restarts initializations.

    Restart 0 is warm-started from the PBH singular vector at lam; the rest
    draw random unit vectors from per-restart seeded streams. Winner is the
    minimum-cost converged run, re-verified against the original system
    before return. If nothing converges an explicit failure result comes
    back rather than a silent wrong answer.
    """
    best = _best_of_restarts(canonicalize(net, mask), lam, cfg)
    if not best.converged:
        return best
    report = verify_unobservability(net, best.perturbation, lam)
    return replace(best, verification=report)


# ---------------------------------------------------------------------------
# search over candidate eigenvalues

# Most sweep rows (candidates times restarts) of one sweep-ahead block in
# solve_radius. The cap bounds the memory of a block, whose stacked pencils
# grow with the rows; it does not change any answer.
_BLOCK_ROWS = 64


def candidate_lambdas(net: NetworkSystem, mask: ConstraintMask, grid="default"):
    """Candidate unobservable eigenvalues for the outer search.

    "topo": eigenvalues of all trailing principal submatrices of the
    non-sensor block, plus pairwise means of its diagonal (covers
    symmetry-type optima on hub topologies).
    "default": the "topo" candidates plus a coarse 21x21 rectangle on
    [-2, 2]^2. The rectangle stays because "topo" alone misses optima at
    negative real lambda on some sparse random graphs, where it returns the
    cheapest single-edge cut instead.
    Or pass an explicit iterable of complex numbers.
    Conjugates are folded onto the closed upper half plane.
    """
    cf = canonicalize(net, mask)
    a22 = cf.a22
    m = a22.shape[0]
    if isinstance(grid, str):
        if grid not in ("default", "topo"):
            raise ValueError(f"unknown grid spec {grid!r}")
        diag = np.diag(a22)
        vals = [v for k in range(m) for v in np.linalg.eigvals(a22[k:, k:])]
        vals += [complex((diag[i] + diag[j]) / 2.0)
                 for i in range(m) for j in range(i + 1, m)]
        if grid == "default":
            vals += [complex(re, im) for re in np.linspace(-2, 2, 21)
                     for im in np.linspace(-2, 2, 21)]
    else:
        vals = [complex(v) for v in grid]
        if not vals:
            raise ValueError("explicit candidate grid is empty")
    folded = []
    for v in vals:
        v = complex(v)
        if v.imag < 0:
            v = v.conjugate()
        if abs(v.imag) < 1e-12:
            v = complex(v.real, 0.0)
        folded.append(v)
    folded.sort(key=lambda v: (v.real, v.imag))
    dedup = []
    for v in folded:
        if not dedup or abs(v - dedup[-1]) > 1e-9:
            dedup.append(v)
    return tuple(dedup)


def _pbh_lower_bounds(net, lams):
    """Unstructured distance at each lam: a valid lower bound on the
    structured radius since restricting the support can only cost more.
    One complex SVD over the stack of [lam I - A; C]."""
    n = net.n
    lams = np.array(lams, dtype=complex)
    stack = np.empty((len(lams), n + net.c_matrix.shape[0], n), dtype=complex)
    stack[:, :n] = lams[:, None, None] * np.eye(n) - net.weights
    stack[:, n:] = net.c_matrix
    return np.linalg.svd(stack, compute_uv=False)[:, -1].tolist()


@dataclass(frozen=True)
class RadiusResult:
    best: FixedLambdaResult
    lambda_star: complex | None
    search_trace: tuple          # ((lambda, cost) per evaluated candidate)
    pruned: int = 0
    refine_evals: int = 0

    @property
    def cost(self):
        return self.best.cost


def _continue_triple(rp, cf, t_prev, cfg):
    """Polish-only continuation of a triple to a neighboring lambda."""
    asm = PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)
    u0 = _u_of(t_prev, asm)
    if u0 is None:
        return None
    u, its, ok, _ = _gn_core(*_stationarity_fj(asm.a_tilde, rp.v_bar), u0,
                             cfg.polish_max_iter, cfg.polish_tol)
    res = _accept(rp, cf, u, asm, cfg)[0] if ok else None
    if res is None or not res.converged:
        return None
    return replace(res, iterations=its)


def _flat_in_lambda(cf, res, cfg):
    """Whether the lambda-gradient of ||Delta||^2 vanishes at a fixed-lambda
    optimum, on the scale of (A, lambda).

    sigma * |c| from orthogonality_diagnostic is half the gradient's length.
    It is compared with zero_tol times ||A_tilde||_F, which scales with
    (A, lambda) like the gradient does.
    """
    rp = build_reduced(cf, res.lam)
    c_re, c_im = orthogonality_diagnostic(rp, res.triple)
    slope = res.sigma * float(np.hypot(c_re, c_im))
    return slope <= cfg.zero_tol * float(np.linalg.norm(a_tilde(rp)))


def solve_radius(net: NetworkSystem, mask: ConstraintMask, grid="default",
                 cfg: SolverConfig = SolverConfig()) -> RadiusResult:
    """Minimize the fixed-lambda cost over a candidate grid, then refine.

    Candidates are ranked by the unstructured PBH lower bound and solved in
    that order; a candidate whose bound already exceeds the incumbent cost is
    pruned. Only the returned answer is verified against the original
    system, not every candidate.

    The sweep runs ahead of the polish. The bounds ascend and the incumbent
    cost never rises, so pruning only ever cuts a suffix of the bound
    order: a candidate whose bound lies below the incumbent cost now may be
    pruned later, but one above it is never solved. A candidate without a
    sweep is therefore swept together with the candidates after it whose
    bounds already lie below the incumbent cost (alone while there is no
    incumbent, and at most _BLOCK_ROWS restarts in all), one lockstep block
    per route (_sweep_candidates). The polish then takes the candidates one
    at a time in bound order, with the prune test before each, exactly as
    if each had been swept alone; a candidate swept ahead and then pruned
    is dropped unpolished and never enters search_trace. Every output is
    that of sweeping one candidate at a time, bit for bit.

    One coordinate-descent pass (step halving, refine_steps budget)
    then polishes lambda locally, warm-starting each probe from the
    incumbent triple. A compass step probes each distinct lambda once: at a
    real incumbent the moves (0, h) and (0, -h) both fold onto lambda + ih,
    and the continuation from one triple to one lambda is deterministic, so
    a second probe could only repeat the first. The pass runs only when the
    exact lambda-gradient of ||Delta||^2 at the grid winner is nonzero on
    the scale of (A, lambda); at a winner that is already stationary in
    lambda no probe can improve to first order, and refine_evals stays 0.
    """
    cands = candidate_lambdas(net, mask, grid)
    if not cands:
        raise ValueError("empty lambda grid")
    cf = canonicalize(net, mask)
    bounds = list(zip(cands, _pbh_lower_bounds(net, cands)))
    bounds.sort(key=lambda t: (t[1], t[0].real, t[0].imag))
    best = None
    best_lam = None
    trace = []
    pruned = 0
    ahead = max(1, _BLOCK_ROWS // cfg.restarts)
    swept = {}  # position in bounds -> (_Candidate, its sweep rows)
    for i, (lam, bound) in enumerate(bounds):
        if best is not None and bound >= best.cost - 1e-12:
            pruned += 1
            continue
        if i not in swept:
            # sweep ahead: the next candidates whose bounds already lie below
            # the incumbent cost join this one
            stop = i + 1
            while (best is not None and stop < min(len(bounds), i + ahead)
                   and bounds[stop][1] < best.cost - 1e-12):
                stop += 1
            block = range(i, stop)
            cands = [_candidate(cf, bounds[j][0], cfg) for j in block]
            swept.update(zip(block, zip(cands, _sweep_candidates(cands, cfg))))
        res = _polish_restarts(cf, *swept.pop(i), cfg)
        trace.append((lam, res.cost))
        if not res.converged:
            continue
        if best is None or res.cost < best.cost - 1e-15 or (
                abs(res.cost - best.cost) <= 1e-15 and
                (lam.real, lam.imag) < (best_lam.real, best_lam.imag)):
            best, best_lam = res, lam
    refine_evals = 0
    if best is not None and cfg.refine_steps > 0 and not _flat_in_lambda(cf, best, cfg):
        h = 0.05 * max(1.0, abs(best_lam))
        for _ in range(cfg.refine_steps):
            if h < 1e-7:
                break
            improved = False
            probed = set()
            for d_re, d_im in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
                lam_try = complex(best_lam.real + d_re, abs(best_lam.imag + d_im))
                if abs(lam_try.imag) < 1e-12:
                    lam_try = complex(lam_try.real, 0.0)
                if lam_try in probed:  # (0, h) and (0, -h) at a real incumbent
                    continue
                probed.add(lam_try)
                rp_try = build_reduced(cf, lam_try)
                res = _continue_triple(rp_try, cf, best.triple, cfg)
                refine_evals += 1
                if res is not None:
                    trace.append((lam_try, res.cost))
                if res is not None and res.cost < best.cost - 1e-12:
                    best, best_lam = res, lam_try
                    improved = True
                    break
            if not improved:
                h *= 0.5
    if best is None:
        return RadiusResult(
            best=FixedLambdaResult(lam=0j, converged=False,
                                   failure="no candidate converged"),
            lambda_star=None, search_trace=tuple(trace), pruned=pruned,
            refine_evals=refine_evals)
    best = replace(best, verification=verify_unobservability(net, best.perturbation,
                                                             best.lam))
    return RadiusResult(best=best, lambda_star=best_lam, search_trace=tuple(trace),
                        pruned=pruned, refine_evals=refine_evals)
