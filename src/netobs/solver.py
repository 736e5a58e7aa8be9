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

from .network_model import (ConstraintMask, NetworkSystem, canonicalize,
                            pbh_stack, verify_unobservability)
from .radius_core import (CandidateTriple, PencilAssembly, PencilPair,
                          Reconstruction, SpuriousTripleError, _delta_bar,
                          _in_columns, _mv, _residual, _rowdot, build_reduced,
                          orthogonality_diagnostic, reconstruct_perturbation)


@dataclass(frozen=True)
class SolverConfig:
    psi: float = 0.9              # shift factor, open interval (0.5, 1)
    conv_tol: float = 1e-9
    restarts: int = 8
    seed: int = 0
    sweep_iters: int = 20         # at most this many sweep steps before the polish
    keep_delta_trace: bool = False
    force_full_pencil: bool = False

    def __post_init__(self):
        if not (0.5 < self.psi < 1.0):
            raise ValueError(f"psi must lie in (0.5, 1), got {self.psi}")
        if not 0.0 < self.conv_tol < np.inf:
            raise ValueError(f"conv_tol must be positive and finite, got {self.conv_tol}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.sweep_iters < 0:
            raise ValueError(f"sweep_iters must be >= 0, got {self.sweep_iters}")


# Levenberg-Marquardt budget and convergence test (inf-norm of F) of every
# polish, restart or continuation
_POLISH_MAX_ITER = 60
_POLISH_TOL = 1e-12
# a sweep's shift eigenvalue must exceed this times the scale of the real parts
_POSITIVE_TOL = 1e-8
# 2-norm condition number of H - mu D above which a sweep row backs psi off
_COND_LIMIT = 1e14
# A shifted matrix M = H - mu D is cleared without its SVD when ||M||_F
# ||M^-1||_F, an upper bound on its condition number, is at most
# _COND_LIMIT / _COND_MARGIN (_ill_conditioned). The margin covers rounding:
# near 1e14 both that product and the SVD's ratio are off by about 1% (eps
# times 1e14). On random stacks of order 8 to 100 within 3% of the limit, 8
# of 1,920 rows had the product below the limit and the SVD's ratio above
# it; at half the limit none did
_COND_MARGIN = 4.0
# a sweep row stops once its step ||z_k - z_{k-1}|| (balanced unit iterates,
# sign aligned) falls below this. Over every candidate polished in the
# benchmark pools and 73 more random graphs, the seeds kept at this exit lay
# within 2.9e-6 of those of a full-length sweep, and every restart polished
# to the same stationary point from both; at 1e-6 one seed moved by 2.3 and
# one restart's convergence changed
_STILL_TOL = 1e-8
# a sweep row also stops, in the polish's basin, once its merit ||F(u)||
# falls below this times min(||A_tilde||_F, sigma): from there one
# Gauss-Newton step squares the residual down to _POLISH_TOL. Both scales
# go with (A, lambda) -> c (A, lambda) as F does. sigma is there because
# F's stationarity rows are differences of terms of size sigma: against
# ||A_tilde||_F alone, rows near the sigma = 0 branch of C7's line(8, 68)
# (radius 2.6e-4) left at sigma ~ 1e-6, and 24 of their polishes failed.
# With the minimum, C7's failed and out-of-budget polish runs are those of
# a sweep without this exit. No row of C3's 100 chains leaves here: their
# smallest merit is 2.8e-3 min(||A_tilde||_F, sigma)
_HANDOFF_TOL = np.sqrt(_POLISH_TOL)
# half the lambda-gradient of ||Delta||^2, over ||A_tilde||_F, at or below
# which an incumbent is stationary in lambda and the lambda descent stops
_FLAT_TOL = 1e-8
# Most rows of one lockstep block: sweep rows (candidates times restarts) of
# a sweep-ahead block in solve_radius, and restarts of one polish wave. The
# cap bounds the memory of a block, whose stacked pencils and Jacobians grow
# with the rows; it does not change any answer.
_BLOCK_ROWS = 64


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


def _min_positive(alpha, beta, finite):
    """Smallest positive real finite eigenvalue of each pencil of a stack,
    from QZ's (alpha, beta) of shape (rows, order); NaN where there is none.
    Positive means above _POSITIVE_TOL times the scale of the real parts,
    and real an imaginary part within 1e-6 of that scale.
    """
    values = np.divide(alpha, beta, out=np.zeros_like(alpha), where=finite)
    re = values.real
    scale = np.fmax(1.0, np.abs(re).max(axis=1, keepdims=True))
    ok = finite & (re > _POSITIVE_TOL * scale) & (np.abs(values.imag) <= 1e-6 * scale)
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


@dataclass(eq=False, slots=True)
class _LMRun:
    """One row of a _gn_core block: its point u, F there (f, ff = ||F||^2),
    the accepted iterates, ||F|| at every point reached, Jacobians taken
    (its) and the damping carried over (mu); while it tries steps from u,
    the SVD factors s, vt and g = U'F, the step weights w, the damping and
    its growth factor and the predicted decrease of the current trial; once
    it stops, what _gn_core returns for it (out)."""

    u: np.ndarray
    f: np.ndarray
    us: list
    norms: list = field(default_factory=list)
    mu: float = 0.0
    its: int = 0
    ff: float = 0.0
    s: np.ndarray | None = None
    vt: np.ndarray | None = None
    g: np.ndarray | None = None
    w: np.ndarray | None = None
    damp: float = 0.0
    nu: float = 2.0
    pred: float = 0.0
    out: tuple | None = None


def _gn_core(f_of, j_of, u0, max_iter, tol):
    """Levenberg-Marquardt on ||F(u)||_2 from every row of u0, in lockstep.

    The rows of u0 (shape (rows, k)) run in rounds. In each round every
    live row at a new point passes the exits below and takes its Jacobian,
    and then every live row runs one trial, so a row takes at most one
    Jacobian and one residual per round. A round makes one stacked call of
    f_of for all its trials, one of j_of for all its Jacobians and one
    stacked np.linalg.svd; f_of and j_of give every row of a stack the bits
    it gets alone, and a stacked SVD runs LAPACK matrix by matrix. The rest
    (U'F, the steps, the sums and norms, the exits and the damping) is done
    row by row with the one-vector numpy calls, so every row gets exactly
    what a block of that row alone gets: u, the count, the exit and the
    iterates, bit for bit. A row leaves the block at its own exit.

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

    A run that stops at either exit fails like any other, and the _Restart
    that polished the row goes on to its next seed, or fails with "did not
    converge" when it has none. So does a run out of budget: at the point
    after its max_iter-th Jacobian it converged or failed.

    Returns, row by row, (u, Jacobians taken, converged, accepted iterates);
    ||F|| falls strictly along the accepted iterates.
    """
    eps = np.finfo(float).eps
    u0 = np.array(u0, dtype=float)
    runs = [_LMRun(u=u, f=f, us=[u]) for u, f in zip(u0, _stacked(f_of, list(u0)))]
    live = runs
    while live:
        fresh = []  # rows at a new point that take a Jacobian this round
        for run in live:
            if run.s is not None:
                continue
            run.its += 1
            if np.linalg.norm(run.f, np.inf) <= tol:
                run.out = (run.u, run.its - 1, True, run.us)
            elif run.its > max_iter:
                run.out = (run.u, max_iter, False, run.us)
            else:
                run.ff = run.f @ run.f
                run.norms.append(np.sqrt(run.ff))
                # no progress: ||F|| fell by less than 1e-4 relative over 10
                # Jacobians
                if run.its > 10 and run.norms[-1] > (1.0 - 1e-4) * run.norms[-11]:
                    run.out = (run.u, run.its - 1, False, run.us)
                else:
                    fresh.append(run)
        if fresh:
            jac = _stacked(j_of, [run.u for run in fresh])
            left, s, vt = np.linalg.svd(jac, full_matrices=False)
            cut = eps * max(jac.shape[1:])
            for run, left_k, s_k, vt_k in zip(fresh, left, s, vt):
                g = left_k.T @ run.f
                # the relative gradient: stationary for ||F|| with F != 0
                if np.linalg.norm(s_k * g) <= 1e-6 * s_k[0] * run.norms[-1]:
                    run.out = (run.u, run.its, False, run.us)
                    continue
                run.s, run.vt, run.g, run.damp, run.nu = s_k, vt_k, g, 0.0, 2.0
                run.w = np.divide(1.0, s_k, out=np.zeros_like(s_k),
                                  where=s_k > cut * s_k[0])
        trying, steps = [], []
        for run in live:
            if run.out is not None:
                continue
            r = run.s * run.w
            run.pred = float(np.sum(run.g * run.g * r * (2.0 - r)))
            if not run.pred > eps * run.ff:  # NaN in F fails here too
                run.out = (run.u, run.its, False, run.us)
                continue
            trying.append(run)
            steps.append(run.u - run.vt.T @ (run.w * run.g))
        if trying:
            for run, trial, ft in zip(trying, steps, _stacked(f_of, steps)):
                gain = run.ff - ft @ ft
                if gain > 1e-4 * run.pred:
                    run.mu = run.damp * max(1.0 / 3.0,
                                            1.0 - (2.0 * gain / run.pred - 1.0) ** 3)
                    run.u, run.f, run.s = trial, ft, None
                    run.us.append(trial)
                    continue
                if run.damp == 0.0:
                    run.damp = run.mu or 1e-3 * run.s[0] ** 2
                else:
                    run.damp, run.nu = run.damp * run.nu, 2.0 * run.nu
                run.w = run.s / (run.s * run.s + run.damp)
        live = trying
    return [run.out for run in runs]


def _stacked(fn, vectors):
    """fn of a list of vectors as one stack, with a leading row axis. A
    single vector takes fn's one-vector path, which the polish kernel gives
    the same bits as a row of a stack, at less cost."""
    if len(vectors) == 1:
        return fn(vectors[0])[None]
    return fn(np.array(vectors))


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """The iterates of one fixed-lambda solve, kept raw.

    sweep holds the sweep passes and polish the winning Levenberg-Marquardt
    sequence, each as a polish variable u = (x, y, sigma). Their distances
    to the final perturbation are built on first access (distances), so a
    restart whose result is dropped never pays for them.
    """

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
    the index where the polish iterates begin, and the Delta_i (None unless
    kept)."""
    rp = tr.asm.rp
    d_final = _delta_bar(rp, tr.final)

    def snapshots(us):
        hist = []
        deltas = [] if tr.keep_deltas else None
        for u in us:
            try:
                ti = tr.asm.triple(u)
            except ValueError:
                continue
            di = _delta_bar(rp, ti)
            hist.append(float(np.linalg.norm(di - d_final)))
            if deltas is not None:
                deltas.append(_in_columns(rp, di))
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
    phi_plus_mu: float | None = None
    verification: object = None
    failure: str | None = None
    iterates: IterateTrace | None = field(default=None, repr=False, compare=False)

    @property
    def sigma(self):
        return None if self.triple is None else self.triple.sigma

    @property
    def residual(self):
        """||H z - sigma_bar D z|| at the balanced embedding z = (x, y)/sqrt(2),
        sigma_bar = 2 sigma, of the final triple: its stationarity residual
        (Reconstruction.r_stat) over sqrt(2); inf without a reconstruction."""
        rec = self.reconstruction
        return np.inf if rec is None else rec.r_stat / np.sqrt(2.0)

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
        """Delta_i, when the config keeps them."""
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
    first of equals) and the last step's mu + 1/phi. The pass takes at most
    cfg.sweep_iters steps; it ends early where the sweep breaks down, at the
    start's fixed point (the first step shorter than _STILL_TOL) or in the
    polish's basin (the first step of merit below the handoff threshold),
    and keeps the step it ends at."""

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
    together for at most cfg.sweep_iters steps, and a row leaves the block
    where its own sweep ends: a pencil that is not regular or has no
    positive eigenvalue, a singular shifted solve, phi non-finite or below
    1e-300, or an iterate that cannot be rebalanced. Each step fills D's
    diagonals for every row, takes QZ row by row (_qz), shifts by mu = psi
    times the smallest positive eigenvalue, backs psi off per row where the
    2-norm condition number of H - mu D exceeds _COND_LIMIT, and solves
    (H - mu D) w = D z in one stacked solve. Returns one _Sweep per start,
    candidate by candidate.

    The condition test is certified (_ill_conditioned): one stacked inverse
    gives ||M||_F ||M^-1||_F, an upper bound on the condition number of
    M = H - mu D, and only a row whose bound does not clear it by
    _COND_MARGIN takes the SVD test. Every row gets the decision of its
    singular values. Over C3's 100 chains, C7's 1,000 instances and 88
    graphs (the CLI pool's 15 and 73 random sparse ones), 87 of 387,736
    shifted matrices took the SVD, all of them on C3's chains.

    A row leaves the block early at whichever of two exits it meets first.
    Each is tested after the step, which still counts: it joins the trace,
    may become the best, and sets phi_plus_mu, so the polish seeds are the
    best and last iterates, as after a full-length pass, and the remaining
    steps, each a QZ, an inverse and a solve, are not taken.
    - Its fixed point, the stopping test of inverse iteration (Ipsen,
      "Computing an eigenvector with inverse iteration", SIAM Review 39,
      1997): a step ||z_k - z_{k-1}|| of the balanced, sign-aligned iterate
      below _STILL_TOL.
    - The polish's basin: a merit ||F(u)||, the stationarity residual the
      sweep computes to pick the best step, below _HANDOFF_TOL times
      min(||A_tilde||_F, sigma). From there one Gauss-Newton step squares
      the residual down to the polish's tolerance (Dennis & Schnabel,
      "Numerical Methods for Unconstrained Optimization and Nonlinear
      Equations", 1983, ch. 5), so the sweep stops where the polish can
      finish.

    H and A_tilde depend on lambda, D only on V_bar and the route, so the
    first assembly fills D for every row. The H and A_tilde of each
    candidate are stacked once, and an index from row to candidate is
    filtered with the rows and gathers them per step, one candidate or
    many; QZ and the regularity probe read the candidate's own H.

    Every row gets the bits a sweep of that start alone would. Stacked
    np.linalg.inv, np.linalg.svd and np.linalg.solve run LAPACK slice by
    slice. Matrix times vector goes through _mv and dot products and norms
    through _rowdot, which equal a @ x and np.linalg.norm row by row, where
    x @ a.T, einsum and sums over an axis do not; the merit's At' is a
    transposed view of the gathered A_tilde, as it is of A_tilde for one
    row. The solve stays numpy's: scipy's ?gesv comes from another BLAS
    build and differs in the last bits.
    """
    asm = asms[0]
    nx, v = asm.nx, asm.v
    hs = np.stack([a.h for a in asms])
    ats = np.stack([a.a_tilde for a in asms])
    at_norms = np.array([np.linalg.norm(a.rp.a_tilde) for a in asms])
    cand = np.repeat(np.arange(len(asms)), [len(s) for s in starts])
    rows = [_Sweep() for s in starts for _ in s]
    z, ok = _rebalance(np.array([z0 for s in starts for z0 in s], dtype=float), nx)
    live, cand = np.flatnonzero(ok), cand[ok]
    d = asm.pencil(z[:, :nx], z[:, nx:]).d
    for row, u in zip([rows[i] for i in live], _u_of_pencil(hs[cand], d, z)):
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
        mp = _min_positive(alpha, beta, finite)
        keep = ~np.isnan(mp)
        for k in np.flatnonzero(keep & indeterminate.any(axis=1)):
            keep[k] = _regular(hs[cand[k]], d[k])
        live, cand, z, d, psi, mp = (a[keep] for a in (live, cand, z, d, psi, mp))

        mu = psi * mp
        mmat = hs[cand] - mu[:, None, None] * d
        # a shift on an eigenvalue: back psi off for that row
        for k in np.flatnonzero(_ill_conditioned(mmat)):
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
        dz = zn - z[keep]
        step = np.sqrt(_rowdot(dz, dz))[:, 0]
        u = _u_of_pencil(hs[cand], d, zn)
        at = ats[cand]
        f = _residual(at, np.swapaxes(at, -1, -2), v, u)
        merit = np.sqrt(_rowdot(f, f))[:, 0]
        for k, row in enumerate([rows[i] for i in live]):
            row.trace.append(u[k])
            row.phi_plus_mu = mu[k] + 1.0 / phi[k]
            if merit[k] < row.merit:
                row.merit, row.best = merit[k], u[k]
        # a row whose iterate has stopped moving, or that lies in the
        # polish's basin, leaves the block
        basin = _HANDOFF_TOL * np.fmin(at_norms[cand], u[:, -1])
        going = (step >= _STILL_TOL) & (merit >= basin)
        live, cand, z, psi = (a[going] for a in (live, cand, zn, psi))
    return rows


def _ill_conditioned(mmat):
    """Rows of the stack mmat (rows, order, order) whose 2-norm condition
    number exceeds _COND_LIMIT, infinite when the smallest singular value
    is 0 (as np.linalg.cond has it): rows whose shift sits on an eigenvalue.

    ||M||_F ||M^-1||_F bounds the condition number from above, so one
    stacked inverse clears every row where that product is at most
    _COND_LIMIT / _COND_MARGIN. Only the other rows take the SVD test, in
    one stacked SVD, and every row does when the inverse finds a singular
    one. Each row gets the decision the SVD test alone gives it.
    """
    back = np.zeros(len(mmat), dtype=bool)
    try:
        inv = np.linalg.inv(mmat)
    except np.linalg.LinAlgError:
        unsure = np.ones(len(mmat), dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.linalg.norm(mmat, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
        unsure = ~(bound <= _COND_LIMIT / _COND_MARGIN)  # inf and NaN too
    if unsure.any():
        s = np.linalg.svd(mmat[unsure], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            back[unsure] = (s[:, -1] == 0.0) | (s[:, 0] / s[:, -1] > _COND_LIMIT)
    return back


def heuristic_iterate(restart, block=None) -> FixedLambdaResult:
    """The result of one grid restart once it stops searching
    (_Restart.search): its first triple that passes the cheap checks,
    unreconstructed (converged, its cost inf until _Restart.settle), or its
    failure.

    restart is the restart's _Restart (_Restart.start), and block, when
    given, the _Restart of every restart of its candidate, which polish in
    lockstep (_polish_restarts). It is called once per grid restart, never
    for a lambda-descent probe, and returns that restart's result: the
    benchmark tracer counts restarts and their iterations on these calls.
    """
    return restart.search(block)


@dataclass(eq=False)
class _Restart:
    """Everything after the sweep for one grid restart or one
    lambda-descent probe: its seeds (polished in turn), how many of them
    are polished, the Jacobians those polishes took, the reason the last
    triple was rejected and, once the restart stops searching, its result.

    The result is pending (converged, with a triple that passes
    _checked_triple, unreconstructed), or failed when the seeds ran out.
    settle reconstructs a pending triple. A grid restart (start) has its
    sweep row and up to four seeds; a probe (_continuation) has an empty
    sweep and one seed. The result's iterates are the sweep passes and the
    polish of the seed that gave the triple, Delta_i kept when keep_deltas
    is set.
    """

    sweep: _Sweep
    pencil: PencilAssembly
    seeds: list
    keep_deltas: bool
    polished: int = 0
    gn_used: int = 0
    failure: str = "did not converge"
    result: FixedLambdaResult | None = None

    @classmethod
    def start(cls, cf, sweep, pencil, seed, keep_deltas):
        """The restart of the sweep row sweep, before its first polish. Its
        seeds, in order: the best sweep iterate (by stationarity residual),
        the last one, a random draw from seed and the start (ahead of the
        draw when the sweep took no step)."""
        if sweep.init is None:
            return cls(sweep, pencil, [], keep_deltas, result=FixedLambdaResult(
                lam=pencil.rp.lam, converged=False, failure="degenerate initial vector"))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA5)))
        nx, ny = pencil.nx, pencil.size - pencil.nx
        trace_u, best_seed = sweep.trace, sweep.best
        seeds = []
        if best_seed is not None:
            seeds.append(best_seed)
        if trace_u and (best_seed is None or not np.array_equal(trace_u[-1], best_seed)):
            seeds.append(trace_u[-1])
        if not trace_u:
            # the sweep died on the initial vector (singular pencil there,
            # e.g. a start with zero imaginary blocks at real lambda): that
            # vector is the only information available, so polish it before
            # any random fallback instead of dropping it on the floor
            seeds.append(sweep.init)
        xs = rng.standard_normal(nx)
        ys = _sensors_drawn_first(cf, rng.standard_normal(ny))
        seeds.append(np.concatenate([xs / np.linalg.norm(xs), ys / np.linalg.norm(ys),
                                     [0.5]]))
        if trace_u:
            seeds.append(sweep.init)
        return cls(sweep, pencil, seeds, keep_deltas)

    def search(self, block=None):
        """The result once this restart stops searching.

        The seeds are polished in waves (_wave) of block, this restart alone
        by default: wave k polishes seed k of every restart of the block
        that is still searching, as one _gn_core block, and a restart whose
        polish fails or whose triple fails _checked_triple joins the next
        wave. The waves stop once this restart does; the others go on in
        their own calls. _gn_core gives every row the bits of a block of
        one, so the result is the same for any block, and that of polishing
        one seed at a time. A restart with no seed left fails at once.
        """
        if self.result is None and self.polished == len(self.seeds):
            self._fail()
        while self.result is None:
            _wave(block or [self])
        return self.result

    def take(self, polish):
        """Records the polish (u, Jacobians, converged, iterates) of the next
        seed."""
        u, its, ok, us = polish
        self.polished += 1
        self.gn_used += its
        if ok:
            t, detail = _checked_triple(self.pencil, u)
            if t is not None:
                # iterates are the sweep passes followed by this polish
                # sequence; the sweep passes are rows of the whole block's
                # iterates, so they are copied out, and a kept result holds
                # its own rows only
                iterates = IterateTrace(
                    asm=self.pencil, final=t, sweep=tuple(np.array(self.sweep.trace)),
                    polish=tuple(us) + (detail,), keep_deltas=self.keep_deltas)
                self.result = FixedLambdaResult(
                    lam=self.pencil.rp.lam, converged=True, triple=t,
                    iterations=len(self.sweep.trace) + self.gn_used,
                    phi_plus_mu=self.sweep.phi_plus_mu, iterates=iterates)
                return
            self.failure = detail
        if self.polished == len(self.seeds):
            self._fail()

    def settle(self, cf, conv_tol):
        """The result once its pending triple is reconstructed; a failed
        result comes back as it is.

        The result fails when the residual ||H z - sigma_bar D z|| at the
        balanced embedding z = (x, y)/sqrt(2), sigma_bar = 2 sigma, is above
        conv_tol: D is quadratic in z, so that is the stationarity residual
        the reconstruction already took (r_stat) over sqrt(2). A triple
        rejected as spurious sends the restart on to its next seed, polished
        alone, and the result is its next pending triple or its failure.
        """
        res = self.result
        if not res.converged:
            return res
        try:
            rec = reconstruct_perturbation(self.pencil.rp, res.triple, cf)
        except (SpuriousTripleError, ValueError) as exc:
            self.failure, self.result = f"spurious stationary point: {exc}", None
            return self.search()
        residual = rec.r_stat / np.sqrt(2.0)
        converged = residual <= conv_tol
        self.result = replace(
            res, converged=converged, reconstruction=rec,
            failure=None if converged else f"pencil residual {residual:.3e} above tolerance")
        return self.result

    def _fail(self):
        self.result = FixedLambdaResult(
            lam=self.pencil.rp.lam, converged=False,
            iterations=len(self.sweep.trace) + self.gn_used,
            phi_plus_mu=self.sweep.phi_plus_mu, failure=self.failure)


def _wave(block):
    """The next seed of every restart of block that is still searching,
    polished in _gn_core blocks of at most _BLOCK_ROWS rows."""
    searching = [r for r in block if r.result is None]
    for i in range(0, len(searching), _BLOCK_ROWS):
        part = searching[i:i + _BLOCK_ROWS]
        pencil = part[0].pencil
        polishes = _gn_core(pencil.f_of, pencil.j_of,
                            np.array([r.seeds[r.polished] for r in part]),
                            _POLISH_MAX_ITER, _POLISH_TOL)
        for restart, polish in zip(part, polishes):
            restart.take(polish)


def _checked_triple(asm, u):
    """The cheap half of the step after a converged polish on the assembly
    asm, for restarts and probes alike: orients sigma > 0, rejects the
    collapsed (x or y ~ 0) and zero-sigma branches and maps u to a unit
    triple. Returns (triple, oriented u), or (None, the reason u was
    rejected)."""
    nx = asm.nx
    if np.linalg.norm(u[:nx]) < 1e-6 or np.linalg.norm(u[nx:-1]) < 1e-6:
        return None, "collapsed onto the trivial solution branch"
    if u[-1] < 0:
        u = np.concatenate([-u[:nx], u[nx:-1], [-u[-1]]])
    if abs(u[-1]) < 1e-14:
        return None, "stationary point with zero sigma"
    try:
        return asm.triple(u), u
    except ValueError as exc:
        return None, f"spurious stationary point: {exc}"


def _triple_cost(rp, t):
    """||Delta||_F of the perturbation the triple t reconstructs to, summed
    as Perturbation sums it, so that it equals that reconstruction's cost
    bit for bit."""
    d = _in_columns(rp, _delta_bar(rp, t))
    return float(np.sqrt(float(np.sum(d * d))))


def _sensors_drawn_first(cf, draw):
    """The random multiplier y, in node order, of a draw that fills each half
    of y sensor rows first (in the order given), then the rows free: moving
    the sensors moves a random start's rows along with the nodes."""
    rows = np.concatenate([cf.net.sensors, cf.free])
    y = np.empty_like(draw)
    y.reshape(-1, len(rows))[:, rows] = draw.reshape(-1, len(rows))
    return y


def _pbh_warm_start(cf, lam, asm, rng):
    """Seed z with the PBH singular vector at lam: the unstructured optimum
    is usually in the right basin for the structured one. On the half-size
    route of a real lambda only its real part is kept."""
    stack = pbh_stack(cf.net.weights, cf.net.c_matrix, [complex(lam)])
    _, _, vh = np.linalg.svd(stack[0])
    xc = vh[-1].conj()[cf.free]
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
        y = _sensors_drawn_first(cf, rng.standard_normal(len(y)))
        ny = np.linalg.norm(y)
    return np.concatenate([x / (np.sqrt(2.0) * np.linalg.norm(x)), y / (np.sqrt(2.0) * ny)])


def _assembly(rp, cfg):
    """The PencilAssembly of rp on its route: the half-size system of a real
    lambda, unless cfg forces the full pencil."""
    return PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)


@dataclass(eq=False)
class _Candidate:
    """What the restarts of one candidate lambda share: its PencilAssembly
    (which holds its reduced problem) and every restart's start vector."""

    asm: PencilAssembly
    starts: list


def _candidate(cf, lam, cfg):
    """The _Candidate of lam. Every restart's start vector is drawn from the
    restart's own stream, in the order a restart on its own would draw it:
    restart 0 from the PBH singular vector when there is one."""
    asm = _assembly(build_reduced(cf, lam), cfg)
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        z0 = _pbh_warm_start(cf, lam, asm, rng) if r == 0 else None
        if z0 is None:
            z0 = rng.standard_normal(asm.size)
            z0[asm.nx:] = _sensors_drawn_first(cf, z0[asm.nx:])
        starts.append(z0)
    return _Candidate(asm, starts)


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
    """The best converged restart of one candidate: ranked first,
    reconstructed after.

    Restart r is a _Restart on its sweep row, its random seed drawn from
    cfg.seed * 1009 + r. Each polishes in heuristic_iterate, up to its
    first triple that passes the cheap checks, and the restarts polish in
    lockstep: their seeds go through _gn_core in waves, seed k of every
    restart still searching in wave k, a block of at most cfg.restarts and
    _BLOCK_ROWS rows. Every restart gets the bits it gets polished alone,
    one seed at a time. The restarts are ranked by the cost of their
    triples (_triple_cost, equal to the reconstruction's bit for bit) under
    the rule that picks the winner: in restart order, a cost below the
    incumbent's by more than 1e-15 takes its place. Only the top-ranked
    restart is settled (_Restart.settle). If it passes, it wins. If its
    triple is rejected as spurious, the restart goes on to its next seed,
    polished alone, and the new triple is ranked in its place; if it fails
    the residual test, its restart fails. Then the ranking is taken again.

    Every restart that the winner would have beaten is left unreconstructed.
    The winner is the one that reconstructing every restart would give,
    unless one of those triples would have been rejected: its restart would
    then have gone on to a later seed, which might have won.
    """
    rp = cand.asm.rp
    block = [_Restart.start(cf, sweep, cand.asm, cfg.seed * 1009 + r, cfg.keep_delta_trace)
             for r, sweep in enumerate(sweeps)]
    results = [heuristic_iterate(restart, block) for restart in block]
    costs = [_triple_cost(rp, res.triple) if res.converged else None for res in results]
    failures = [res.failure for res in results if not res.converged]
    while True:
        top = None
        for r, cost in enumerate(costs):
            if cost is not None and (top is None or cost < costs[top] - 1e-15):
                top = r
        if top is None:
            break
        res = block[top].settle(cf, cfg.conv_tol)
        if res.converged and res.reconstruction is not None:
            return res
        if res.converged:  # the restart's next triple
            costs[top] = _triple_cost(rp, res.triple)
        else:
            costs[top] = None
            failures.append(res.failure)
    return FixedLambdaResult(lam=rp.lam, converged=False,
                             failure="all restarts failed: " +
                                     "; ".join(sorted(set(f or "?" for f in failures))))


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
    back rather than a silent wrong answer. A lam that is not finite is an
    input error (ValueError).
    """
    _finite_lambda(lam)
    best = _best_of_restarts(canonicalize(net, mask), lam, cfg)
    if not best.converged:
        return best
    report = verify_unobservability(net, best.perturbation, lam)
    return replace(best, verification=report)


# ---------------------------------------------------------------------------
# search over candidate eigenvalues

# the named candidate grids of candidate_lambdas
GRIDS = ("default", "topo")

def _finite_lambda(lam):
    """lam as a complex number; ValueError when a part is NaN or infinite."""
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"candidate lambda must be finite, got {lam!r}")
    return lam


def _fold(lam):
    """lam mirrored onto the closed upper half plane, with an imaginary part
    below 1e-12 set to 0."""
    lam = complex(lam)
    return complex(lam.real, 0.0 if abs(lam.imag) < 1e-12 else abs(lam.imag))


def candidate_lambdas(net: NetworkSystem, mask: ConstraintMask, grid="default"):
    """Candidate unobservable eigenvalues for the outer search.

    "topo": eigenvalues of all trailing principal submatrices of the
    non-sensor block A[free][:, free] (net.free), plus the means of
    neighbouring entries of its sorted diagonal (symmetry-type optima on hub
    topologies: pulling two self-loops to their mean costs their distance
    over sqrt(2), so the cheapest pair is always a neighbouring one, as in
    analytic_oracles.star_radius).
    "default": the "topo" candidates plus 21 real points on [-2, 2], for
    optima at negative real lambda that "topo" alone misses on some sparse
    random graphs (it returns the cheapest single-edge cut there). Complex
    optima off the "topo" points are left to solve_radius's lambda descent.
    Or pass an explicit iterable of complex numbers, all finite (ValueError
    otherwise, before any work).
    Conjugates are folded onto the closed upper half plane. The grids come
    from A and the sensors alone; mask is not read.
    """
    block = net.weights[np.ix_(net.free, net.free)]
    m = block.shape[0]
    if isinstance(grid, str):
        if grid not in GRIDS:
            raise ValueError(f"unknown grid spec {grid!r}")
        diag = np.sort(np.diag(block))
        vals = [v for k in range(m) for v in np.linalg.eigvals(block[k:, k:])]
        vals += [complex(v) for v in (diag[:-1] + diag[1:]) / 2.0]
        if grid == "default":
            vals += [complex(re, 0.0) for re in np.linspace(-2, 2, 21)]
    else:
        vals = [_finite_lambda(v) for v in grid]
        if not vals:
            raise ValueError("explicit candidate grid is empty")
    folded = sorted(map(_fold, vals), key=lambda v: (v.real, v.imag))
    dedup = []
    for v in folded:
        if not dedup or abs(v - dedup[-1]) > 1e-9:
            dedup.append(v)
    return tuple(dedup)


def _pbh_lower_bounds(net, lams):
    """Unstructured distance at each lam: a valid lower bound on the
    structured radius since restricting the support can only cost more.
    One complex SVD over the stack of [lam I - A; C]."""
    stack = pbh_stack(net.weights, net.c_matrix, np.array(lams, dtype=complex))
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


def _continuation(asm, t_prev, cfg):
    """The continuation of the triple t_prev to the lambda of the assembly
    asm (a neighbouring one, or its own): a _Restart with an empty sweep
    whose only seed is t_prev's polish variable on asm, already polished.
    Its result is pending, or failed when the polish or the cheap checks
    fail or t_prev has no polish variable on asm's route; settle
    reconstructs it."""
    u0 = asm.u_of(t_prev)
    restart = _Restart(_Sweep(), asm, [] if u0 is None else [u0], cfg.keep_delta_trace)
    restart.search()
    return restart


def _descent_direction(rp, res):
    """Unit direction of steepest descent of ||Delta||^2 in lambda at the
    fixed-lambda optimum res on rp. The gradient is 2 sigma (-c_re + i c_im)
    (orthogonality_diagnostic). None where res is stationary in lambda:
    sigma |c|, half the gradient's length, at or below _FLAT_TOL times
    ||A_tilde||_F, which scales with (A, lambda) like the gradient does.
    """
    c_re, c_im = orthogonality_diagnostic(rp, res.triple)
    slope = float(np.hypot(c_re, c_im))
    if res.sigma * slope <= _FLAT_TOL * float(np.linalg.norm(rp.a_tilde)):
        return None
    return complex(c_re, -c_im) / slope


def _descend_lambda(cf, best, lam, cfg, trace):
    """Steepest descent on ||Delta(lambda)||^2 from the grid winner best at lam.

    A trial moves the incumbent by h along _descent_direction, folded onto
    the closed upper half plane, and continues the incumbent triple there
    (_continuation): a restart whose one seed is that triple. The trial's
    triple is ranked by its cost (_triple_cost, equal to the
    reconstruction's bit for bit) before anything is reconstructed: only a
    cost below the incumbent's by more than 1e-12 is settled
    (_Restart.settle), and if that passes, the trial is accepted and
    doubles h. Anything else halves h, which starts at 0.05 max(1, |lam|);
    a probe whose triple settle rejects as spurious has no seed left and
    fails without another polish. The descent stops at an incumbent
    stationary in lambda or when h falls below 1e-7. From a real incumbent
    on the half-size route (x_im = y2 = 0, so c_im = 0) it stays on the
    real axis. Trials join trace with their cost: those that lose to the
    incumbent with the rank cost, unreconstructed, and those that beat it
    once their reconstruction passes. An accepted trial carries its
    continuation's iterates, like a grid winner. Returns (incumbent, its
    lambda, trials).
    """
    step = _descent_direction(best.iterates.asm.rp, best)
    h = 0.05 * max(1.0, abs(lam))
    probes = 0
    while step is not None and h >= 1e-7:
        lam_try = _fold(lam + h * step)
        asm = _assembly(build_reduced(cf, lam_try), cfg)
        probe = _continuation(asm, best.triple, cfg)
        probes += 1
        won = False
        if probe.result.converged:
            cost = _triple_cost(asm.rp, probe.result.triple)
            if cost < best.cost - 1e-12:
                won = probe.settle(cf, cfg.conv_tol).converged
            else:
                trace.append((lam_try, cost))
        if won:
            best, lam, h = probe.result, lam_try, 2.0 * h
            trace.append((lam_try, best.cost))
            step = _descent_direction(asm.rp, best)
        else:
            h *= 0.5
    return best, lam, probes


def solve_radius(net: NetworkSystem, mask: ConstraintMask, grid="default",
                 cfg: SolverConfig = SolverConfig()) -> RadiusResult:
    """Minimize the fixed-lambda cost over a candidate grid, then descend in lambda.

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

    A steepest descent on ||Delta(lambda)||^2 then moves the grid winner
    along the exact lambda-gradient (_descend_lambda), each probe warm-started
    from the incumbent triple; refine_evals counts the probes. At a winner
    that is already stationary in lambda no probe is spent and refine_evals
    stays 0.
    """
    cands = candidate_lambdas(net, mask, grid)
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
    if best is None:
        return RadiusResult(
            best=FixedLambdaResult(lam=0j, converged=False,
                                   failure="no candidate converged"),
            lambda_star=None, search_trace=tuple(trace), pruned=pruned)
    best, best_lam, refine_evals = _descend_lambda(cf, best, best_lam, cfg, trace)
    best = replace(best, verification=verify_unobservability(net, best.perturbation,
                                                             best.lam))
    return RadiusResult(best=best, lambda_star=best_lam, search_trace=tuple(trace),
                        pruned=pruned, refine_evals=refine_evals)
