"""Fixed-eigenvalue radius solves and the search over candidate eigenvalues.

The fixed-lambda problem is attacked in two stages. A shifted inverse
iteration on the nonlinear pencil (the weightings are rebuilt from the
iterate every sweep step, shift mu = psi * smallest positive generalized
eigenvalue, read off one symmetric eigenproblem per step by a spectral
transformation) explores the landscape; it is kept faithful to the update
rule but is not locally contractive at stationary points, so a
Levenberg-Marquardt polish on the normalized stationarity system finishes
the job. The polish works on unknowns (x, y, sigma) with explicit unit-norm
rows appended, which kills both the scale gauge and the spurious x = 0
solution branch.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .network_model import (ConstraintMask, NetworkSystem, canonicalize,
                            pbh_stack, verify_unobservability)
from .radius_core import (CandidateTriple, PencilAssembly, PencilPair,
                          Reconstruction, SpuriousTripleError, _delta_bar,
                          _in_columns, _mv, _residual, _rowdot, build_reduced,
                          orthogonality_diagnostic, reconstruct_perturbation)


@dataclass(frozen=True)
class SolverConfig:
    psi: float = 0.9              # shift factor, open interval (0.5, 1)
    restarts: int = 8
    seed: int = 0
    sweep_iters: int = 20         # at most this many sweep steps before the polish
    keep_delta_trace: bool = False

    def __post_init__(self):
        if not (0.5 < self.psi < 1.0):
            raise ValueError(f"psi must lie in (0.5, 1), got {self.psi}")
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
# a polish run of the stationarity system has collapsed onto the x = 0 or
# y = 0 branch, and fails, once min(||x||^2, ||y||^2) falls below this
# (_collapsed). x and y are unit blocks, so the test is scale-free. Along
# every converging run the smallest min(||x||^2, ||y||^2) was 3.8e-3 on
# C3's 100 chains, 1.5e-2 on the chain3 pool, 0.43 on C7's 1,000 instances
# and 0.54 on the 88 graphs, and at least 0.998 on the 24-node line and the
# ensemble and CLI pools: 38 times above the threshold at the closest
_COLLAPSE_TOL = 1e-4
# a sweep's shift eigenvalue must exceed this times its pencil's scale and
# _RESOLVE times its estimated rounding error, and be at most the scale over
# _FINITE_TOL (_lambda_plus). Of about 17,850 sweep steps on C3's 100 chains,
# margins of 10, 100 and 1000 let 47, 4 and 0 zero eigenvalues through as a
# lambda_+ more than 1e-3 below QZ's; on the pools the margin changes no step
_POSITIVE_TOL = 1e-8
_RESOLVE = 1e3
_FINITE_TOL = 5e-7
# ||M||_F ||M^-1||_F of a shifted matrix M = H - t0 D above which
# _lambda_plus counts it singular
_COND_LIMIT = 1e14
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
# one _sweep call, and restarts of one polish wave. The cap bounds the
# memory of a block, whose stacked pencils and Jacobians grow with the rows;
# it does not change any answer.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SpectrumResult:
    values: np.ndarray   # finite generalized eigenvalues (complex dtype)
    regular: bool


def _regular(h, d):
    """Whether det(H - tD) is away from zero at one of a few fixed points."""
    hnorm = max(1.0, float(np.abs(h).max()), float(np.abs(d).max()))
    return any(np.linalg.svd(h - t * d, compute_uv=False)[-1] > 1e-12 * hnorm
               for t in (0.37281, -1.11803, 2.64575))


def generalized_spectrum(pp: PencilPair) -> SpectrumResult:
    """Finite part of spec(H, D) via QZ, with a regularity probe.

    No solve calls this: the sweep reads its shift off a symmetric
    eigenproblem (_lambda_plus). It is the QZ reference of `netobs
    validate` and the tests, and it imports scipy on its first call, so
    that neither `import netobs` nor a solve loads scipy.

    QZ is scipy.linalg.eigvals(H, D, homogeneous_eigvals=True). Infinite
    eigenvalues (beta ~ 0 with alpha away from 0) come from Ker(D) and are
    dropped: a second-order block at infinity splits under rounding into a
    huge conjugate pair with |beta| ~ sqrt(eps), so anything past eps^-0.4
    of the pencil scale counts as infinite. If any alpha/beta pair is
    indeterminate (both ~ 0) the pencil may be singular; det(H - tD) is
    probed at a few fixed points and the pencil is flagged non-regular when
    all probes vanish.
    """
    import scipy.linalg as sla

    alpha, beta = sla.eigvals(pp.h, pp.d, homogeneous_eigvals=True)
    abs_alpha, abs_beta = np.abs(alpha), np.abs(beta)
    finite = abs_beta > 5e-7 * (1.0 + abs_alpha)
    indeterminate = (abs_alpha <= 1e-12 * max(1.0, abs_alpha.max())) & (abs_beta <= 1e-12)
    regular = not indeterminate.any() or _regular(pp.h, pp.d)
    values = alpha[finite] / beta[finite]
    order = np.lexsort((values.imag, values.real))
    return SpectrumResult(values=values[order], regular=regular)


def _lambda_plus(h, d, f, t0):
    """Smallest positive finite eigenvalue lambda_+ of each pencil (H, D) of
    a stack, NaN where there is none or the pencil is singular; h, d and f
    (the roots of D, D = F F, PencilAssembly.weightings) have shape
    (rows, order, order), t0 one shift per row.

    S = F (H - t0 D)^-1 F is symmetric, with the eigenvalue 1 / (sigma - t0)
    for each finite eigenvalue sigma of (H, D) and 0 for each infinite one
    (Ericsson & Ruhe, Math. Comp. 35, 1980), so one stacked eigvalsh of S's
    symmetric part gives every spectrum. The finite spectrum is symmetric
    about 0: for t0 in [lambda_+ / 2, lambda_+) the nu of lambda_+ dominates
    and lambda_+ comes out to full relative accuracy. With the pencil's
    scale c = ||H||_F / ||D||_F, sigma is finite at or below c / _FINITE_TOL
    and positive above _POSITIVE_TOL c and above _RESOLVE e / nu^2, where
    e = ||S - S'||_F + eps ||S||_F estimates the error of the computed S:
    where H - t0 D is badly conditioned, the pencil's zero eigenvalues come
    out as small sigma of either sign. (H, t0) -> 2^k (H, t0) gives
    2^k lambda_+, bit for bit. A row whose H - t0 D is singular
    (||M||_F ||M^-1||_F above _COND_LIMIT) or whose S is not finite tries
    again at t0 / 2 (at c when t0 is 0), and is a singular pencil if that
    fails too.
    """
    out, t = np.full(len(t0), np.nan), np.array(t0, dtype=float)
    todo = np.arange(len(t0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.linalg.norm(h, axis=(1, 2)) / np.linalg.norm(d, axis=(1, 2))
        for _ in range(2):
            mmat = h[todo] - t[todo, None, None] * d[todo]
            inv = _stacked_lapack(np.linalg.inv, mmat)
            s = f[todo] @ (inv @ f[todo])
            ok = ((np.linalg.norm(mmat, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
                   <= _COND_LIMIT) & np.isfinite(s).all(axis=(1, 2)))
            done, s, todo = todo[ok], s[ok], todo[~ok]
            st = np.swapaxes(s, 1, 2)
            nu = np.linalg.eigvalsh((s + st) / 2)
            sigma = t[done, None] + 1.0 / nu
            c = scale[done, None]
            err = (np.linalg.norm(s - st, axis=(1, 2)) + np.finfo(float).eps
                   * np.linalg.norm(s, axis=(1, 2)))[:, None] / nu**2
            good = ((sigma > _POSITIVE_TOL * c) & (sigma > _RESOLVE * err)
                    & (_FINITE_TOL * sigma <= c))
            out[done] = np.where(good.any(axis=1), np.where(good, sigma, np.inf).min(axis=1),
                                 np.nan)
            if not len(todo):
                break
            t[todo] = np.where(t[todo] > 0, t[todo] / 2, scale[todo])
    return out


def _stacked_lapack(fn, a, *b):
    """fn (np.linalg.inv or np.linalg.solve) of the stack a (rows, order,
    order), and of b stacked to match, in one call. One singular row fails
    the whole stack; fn then runs row by row, and the rows that still fail
    come back as NaN."""
    try:
        return fn(a, *b)
    except np.linalg.LinAlgError:
        out = np.full_like(b[-1] if b else a, np.nan)
        for k in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[k] = fn(a[k], *(x[k] for x in b))
        return out


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


def _gn_core(f_of, j_of, u0, max_iter, tol, collapsed=None):
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

    When collapsed is given, a predicate of F at one point, the run also
    fails where it holds, before the Jacobian at that point. The restarts
    pass _collapsed: the point lies on the x = 0 or y = 0 branch that the
    unit-norm rows of the stationarity system are there to rule out. Runs
    that slide onto it shrink min(||x||^2, ||y||^2) 4 to 7 times per
    Jacobian while ||F|| settles at 1/2, and the no-progress exit took
    about 10 more Jacobians to end them: on the chain3 pool 109 of the 124
    failed runs of a round do this. Along the runs that converge min(||x||^2, ||y||^2) stays 38 times
    above the exit's threshold at the closest (_COLLAPSE_TOL).

    A run that stops at any exit fails like any other, and the _Restart
    that polished the row goes on to its next seed, or fails when it has
    none. So does a run out of budget: at the point after its max_iter-th
    Jacobian it converged or failed.

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
                # Jacobians; or the point has collapsed
                if (run.its > 10 and run.norms[-1] > (1.0 - 1e-4) * run.norms[-11]
                        or collapsed is not None and collapsed(run.f)):
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
        if not self.converged or self.perturbation is None:
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
    where its own sweep ends: a pencil that is singular or has no positive
    eigenvalue, a singular shifted solve, phi non-finite or below 1e-300, or
    an iterate that cannot be rebalanced. Each step fills D and its root F
    for every row, takes the smallest positive eigenvalue lambda_+ of every
    row's pencil from one stacked symmetric eigensolve at the row's previous
    shift (_lambda_plus; at first half the start's Rayleigh quotient),
    shifts by mu = psi lambda_+ and solves (H - mu D) w = D z in one stacked
    solve (_stacked_lapack). Returns one _Sweep per start, candidate by
    candidate.

    The shift needs no guard: mu lies (1 - psi) lambda_+ below the smallest
    eigenvalue that _lambda_plus accepts, and inverse iteration tolerates an
    ill-conditioned H - mu D (Peters & Wilkinson, SIAM Review 21, 1979).

    A row leaves the block early at whichever of two exits it meets first.
    Each is tested after the step, which still counts: it joins the trace,
    may become the best, and sets phi_plus_mu, so the polish seeds are the
    best and last iterates, as after a full-length pass, and the remaining
    steps, each an inverse, an eigensolve and a solve, are not taken.
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
    many.

    Every row gets the bits a sweep of that start alone would. Stacked
    np.linalg.inv, np.linalg.eigvalsh and np.linalg.solve run LAPACK slice
    by slice. Matrix times vector goes through _mv and dot products and
    norms through _rowdot, which equal a @ x and np.linalg.norm row by row,
    where x @ a.T, einsum and sums over an axis do not; the merit's At' is
    a transposed view of the gathered A_tilde, as it is of A_tilde for one
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
    d, f = asm.weightings(z[:, :nx], z[:, nx:])
    u = _u_of_pencil(hs[cand], d, z)
    for row, u0 in zip([rows[i] for i in live], u):
        row.init = u0
    # _lambda_plus's first t0: half the start's Rayleigh quotient |z'Hz / z'Dz|
    mu = u[:, -1]
    for it in range(cfg.sweep_iters):
        if not len(live):
            break
        if it:
            d, f = asm.weightings(z[:, :nx], z[:, nx:])
        mp = _lambda_plus(hs[cand], d, f, mu)
        keep = ~np.isnan(mp)
        live, cand, z, d, mp = (a[keep] for a in (live, cand, z, d, mp))

        mu = cfg.psi * mp
        w = _stacked_lapack(np.linalg.solve, hs[cand] - mu[:, None, None] * d,
                            np.matmul(d, z[..., None]))[..., 0]
        phi = np.sqrt(_rowdot(w, w))[:, 0]
        keep = np.isfinite(phi) & (phi >= 1e-300)
        live, cand, z, d, mu, w, phi = (a[keep] for a in (live, cand, z, d, mu, w, phi))

        zn = w / phi[:, None]
        zn = np.where(_rowdot(zn, z) < 0, -zn, zn)
        zn, keep = _rebalance(zn, nx)
        live, cand, d, mu, phi = (a[keep] for a in (live, cand, d, mu, phi))
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
        live, cand, z, mu = (a[going] for a in (live, cand, zn, mu))
    return rows


def heuristic_iterate(restart, block=None) -> FixedLambdaResult:
    """The result of one grid restart once it stops searching
    (_Restart.search): its first converged polish whose triple passes
    _checked_triple, unreconstructed (converged, its cost inf until
    _reconstructed), or its failure.

    restart is the restart's _Restart (_Restart.start), and block, when
    given, the _Restart of every restart of its candidate, which polish in
    lockstep (_polish_restarts). It is called once per grid restart, never
    for a lambda-descent probe, and returns that restart's result: the
    benchmark tracer counts restarts and their iterations on these calls.
    """
    return restart.search(block)


@dataclass(eq=False)
class _Restart:
    """The polish of one grid restart or one lambda-descent probe: its
    seeds (polished in turn until one converges), how many of them are
    polished, the Jacobians those polishes took, the reason the last seed
    failed and, once the restart stops searching, its result.

    The result is converged, with the triple of the first seed whose polish
    converges and passes _checked_triple, unreconstructed; or failed when
    the seeds ran out. A grid restart (start) has its sweep row and up to
    four seeds; a probe (_continuation) has an empty sweep and one seed.
    The result's iterates are the sweep passes and the polish of the seed
    that gave the triple, Delta_i kept when keep_deltas is set.
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
        xs, ys = _random_draws((seed, 0xA5), nx, ny)
        ys = _sensors_drawn_first(cf, ys)
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
        one seed at a time. A probe with no seed (_continuation) fails at
        once.
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
            if not ok:
                self.failure = ("polish collapsed onto x = 0 or y = 0"
                                if _collapsed(self.pencil.f_of(u)) else "did not converge")
            self._fail()

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
                            _POLISH_MAX_ITER, _POLISH_TOL, _collapsed)
        for restart, polish in zip(part, polishes):
            restart.take(polish)


def _collapsed(f):
    """Whether F of the stationarity system at a point (_stationarity_fj)
    puts it on the collapsed branch: one of its norm rows, the last two
    entries (||x||^2 - 1)/2 and (||y||^2 - 1)/2, lies below
    -(1 - _COLLAPSE_TOL)/2."""
    return min(f[-2], f[-1]) < -(1.0 - _COLLAPSE_TOL) / 2.0


def _checked_triple(asm, u):
    """The triple of a converged polish on the assembly asm, for restarts
    and probes alike: orients sigma > 0, rejects the zero-sigma branch and
    maps u to a unit triple. The polish's unit-norm rows keep x and y off
    the collapsed branch: at convergence | ||x||^2 - 1 | <= 2 _POLISH_TOL.
    Returns (triple, oriented u), or (None, the reason u was rejected)."""
    nx = asm.nx
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


@lru_cache(maxsize=1024)
def _random_draws(entropy, *sizes):
    """Standard normal vectors of the given sizes, drawn in turn from the
    stream SeedSequence(entropy), read-only. A restart's random draws do not
    depend on lambda, so every candidate shares them instead of re-seeding a
    generator and redrawing the same numbers; a caller copies before any
    write."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    out = tuple(rng.standard_normal(size) for size in sizes)
    for v in out:
        v.setflags(write=False)
    return out


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


def _assembly(rp, full_pencil=False):
    """The PencilAssembly of rp on its route: the half-size system of a real
    lambda, unless full_pencil asks for the full one (the route check of
    properties.real_route_gap)."""
    return PencilAssembly(rp, real=rp.is_real and not full_pencil)


@dataclass(eq=False)
class _Candidate:
    """What the restarts of one candidate lambda share: its PencilAssembly
    (which holds its reduced problem) and every restart's start vector."""

    asm: PencilAssembly
    starts: list


def _candidate(cf, lam, cfg, full_pencil=False):
    """The _Candidate of lam, on the route _assembly gives it. Every
    restart's start vector is drawn from the restart's own stream, in the
    order a restart on its own would draw it: restart 0 from the PBH
    singular vector when there is one. The PBH start depends on lam; a
    random start does not, and comes from _random_draws."""
    asm = _assembly(build_reduced(cf, lam), full_pencil)
    starts = []
    for r in range(cfg.restarts):
        z0 = None
        if r == 0:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
            z0 = _pbh_warm_start(cf, lam, asm, rng)
        if z0 is None:
            # a PBH start that fails draws nothing, so restart 0's stream
            # is still fresh here
            draw, = _random_draws((cfg.seed, r), asm.size)
            z0 = np.concatenate([draw[:asm.nx], _sensors_drawn_first(cf, draw[asm.nx:])])
        starts.append(z0)
    return _Candidate(asm, starts)


def _sweep_candidates(cands, cfg):
    """The sweep rows of every restart of every candidate, one list per
    candidate. The rows of each route go through _sweep in blocks of at
    most _BLOCK_ROWS, in candidate order: half-size real pencils and full
    complex ones differ in order."""
    out = [[] for _ in cands]
    for real in (False, True):
        rows = [(k, z0) for k, c in enumerate(cands) if c.asm.real == real
                for z0 in c.starts]
        for i in range(0, len(rows), _BLOCK_ROWS):
            part = rows[i:i + _BLOCK_ROWS]
            ks = list(dict.fromkeys(k for k, _ in part))
            swept = _sweep([cands[k].asm for k in ks],
                           [[z0 for j, z0 in part if j == k] for k in ks], cfg)
            for (k, _), row in zip(part, swept):
                out[k].append(row)
    return out


def _polish_restarts(cf, cand, sweeps, cfg) -> FixedLambdaResult:
    """The best converged restart of one candidate: ranked first,
    reconstructed after.

    Restart r is a _Restart on its sweep row, its random seed drawn from
    cfg.seed * 1009 + r. Each polishes in heuristic_iterate, up to its
    first converged polish, and the restarts polish in lockstep: their
    seeds go through _gn_core in waves, seed k of every restart still
    searching in wave k, a block of at most cfg.restarts and _BLOCK_ROWS
    rows. Every restart gets the bits it gets polished alone, one seed at a
    time. The restarts are ranked by the cost of their triples
    (_triple_cost, equal to the reconstruction's bit for bit) under the
    rule that picks the winner: in restart order, a cost below the
    incumbent's by more than 1e-15 takes its place. Only the top-ranked
    restart is reconstructed (_reconstructed), so the winner is the one
    that reconstructing every restart would give. If its reconstruction is
    rejected, the candidate fails with that reason.
    """
    rp = cand.asm.rp
    block = [_Restart.start(cf, sweep, cand.asm, cfg.seed * 1009 + r, cfg.keep_delta_trace)
             for r, sweep in enumerate(sweeps)]
    results = [heuristic_iterate(restart, block) for restart in block]
    top, top_cost = None, None
    for res in results:
        if res.converged:
            cost = _triple_cost(rp, res.triple)
            if top is None or cost < top_cost - 1e-15:
                top, top_cost = res, cost
    if top is None:
        return FixedLambdaResult(lam=rp.lam, converged=False,
                                 failure="all restarts failed: " +
                                         "; ".join(sorted(set(res.failure for res in results))))
    return _reconstructed(cf, top)


def _reconstructed(cf, res):
    """The converged result res with its triple's perturbation
    (reconstruct_perturbation), or failed with the reason when the
    reconstruction rejects the triple; a failed res comes back as it is.

    This is the solver's one call of reconstruct_perturbation: a
    candidate's top-ranked restart and a lambda-descent probe that beats
    its incumbent take one each, and no seed is polished again.
    """
    if not res.converged:
        return res
    try:
        rec = reconstruct_perturbation(res.iterates.asm.rp, res.triple, cf)
    except SpuriousTripleError as exc:
        return replace(res, converged=False, failure=f"spurious stationary point: {exc}")
    return replace(res, reconstruction=rec)


def _best_of_restarts(cf, lam, cfg: SolverConfig, full_pencil=False) -> FixedLambdaResult:
    """solve_fixed_lambda on a canonical form, without the certificate, on
    the route _assembly gives lam and full_pencil.

    Every restart's start vector is drawn first (_candidate). The starts
    then go through the sweep in lockstep (_sweep_candidates, blocks of at
    most _BLOCK_ROWS rows), and each restart's polish runs in
    heuristic_iterate on its sweep row. The results are those of one
    restart at a time, bit for bit. This is the one-candidate case of
    solve_radius's sweep-ahead blocks.
    """
    cand = _candidate(cf, lam, cfg, full_pencil)
    sweeps, = _sweep_candidates([cand], cfg)
    return _polish_restarts(cf, cand, sweeps, cfg)


def solve_fixed_lambda(net: NetworkSystem, mask: ConstraintMask, lam,
                       cfg: SolverConfig = SolverConfig()) -> FixedLambdaResult:
    """Best fixed-lambda result over cfg.restarts initializations.

    Restart 0 is warm-started from the PBH singular vector at lam; the rest
    draw random unit vectors from per-restart seeded streams. Winner is the
    minimum-cost converged run, certified against the original system
    before return (_certified). If nothing converges, or the certificate
    does not verify, an explicit failure result comes back rather than a
    silent wrong answer. A lam that is not finite is an input error
    (ValueError).
    """
    _finite_lambda(lam)
    best = _best_of_restarts(canonicalize(net, mask), lam, cfg)
    return _certified(net, best) if best.converged else best


def _certified(net, res):
    """The reconstructed result res with its certificate
    (verify_unobservability) on the original system; failed, naming the
    certificate, when it does not verify."""
    report = verify_unobservability(net, res.perturbation, res.lam)
    if report.verified:
        return replace(res, verification=report)
    return replace(res, converged=False, verification=report,
                   failure=f"certificate not verified: smin {report.smin:.3e}")


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
    search_trace: tuple          # ((lambda, cost) per grid candidate and descent probe)
    pruned: int = 0
    refine_evals: int = 0

    @property
    def cost(self):
        return self.best.cost


def _continuation(asm, t_prev, cfg):
    """The continuation of the triple t_prev to the lambda of the assembly
    asm (a neighbouring one, or its own): the result of a _Restart with an
    empty sweep whose only seed is t_prev's polish variable on asm.
    It is converged and unreconstructed, or failed when the polish or
    _checked_triple fails or t_prev has no polish variable on asm's
    route."""
    u0 = asm.u_of(t_prev)
    restart = _Restart(_Sweep(), asm, [] if u0 is None else [u0], cfg.keep_delta_trace)
    return restart.search()


def _descent_direction(rp, res):
    """The steepest-descent vector -g of ||Delta|| in lambda at the
    fixed-lambda optimum res on rp, as a complex number. The gradient g in
    (Re lambda, Im lambda) is sigma (-c_re, c_im) / ||Delta||
    (orthogonality_diagnostic), so |g| is the slope of the cost along -g.
    None where res is stationary in lambda: sigma |c|, half the gradient of
    ||Delta||^2, at or below _FLAT_TOL times ||A_tilde||_F, which scales
    with (A, lambda) like that gradient does.
    """
    c_re, c_im = orthogonality_diagnostic(rp, res.triple)
    if res.sigma * float(np.hypot(c_re, c_im)) <= _FLAT_TOL * float(np.linalg.norm(rp.a_tilde)):
        return None
    return res.sigma * complex(c_re, -c_im) / res.cost


def _descend_lambda(cf, best, lam, cfg, trace):
    """Gradient descent on ||Delta(lambda)|| from the grid winner best at lam.

    A probe moves the incumbent by h along _descent_direction, folded onto
    the closed upper half plane, and continues the incumbent triple there
    (_continuation): a restart whose one seed is that triple. The probe's
    triple is ranked by its cost (_triple_cost, equal to the
    reconstruction's bit for bit) before anything is reconstructed: only a
    cost below the incumbent's by more than 1e-12 is reconstructed
    (_reconstructed), and if that passes, the probe wins and becomes the
    incumbent. h starts at 0.05 max(1, |lam|) and then takes its length
    from the gradient the descent already has:
    - after a win, the two-point (Barzilai-Borwein) length
      (s.s / s.y) |g| of the new gradient g, with s the folded move and y
      the change in g, capped at 2 |s|; 2 |s| when s.y <= 0;
    - after a converged probe that loses, the minimizer of the quadratic
      through the incumbent's cost, its slope -|g| and the probe's cost,
      clamped to [0.1 h, 0.5 h];
    - after a failed probe (its polish or its reconstruction), h / 2.
    The descent stops at an incumbent stationary in lambda or when h falls
    below 1e-7. From a real incumbent on the half-size route (x_im = y2 =
    0, so c_im = 0) it stays on the real axis. Every probe joins trace, in
    order: one that loses with its rank cost, unreconstructed, one that
    wins with its reconstruction's cost, and one that fails with inf. A
    winner carries its continuation's iterates, like a grid winner.
    Returns (incumbent, its lambda, probes).
    """
    d = _descent_direction(best.iterates.asm.rp, best)
    h = 0.05 * max(1.0, abs(lam))
    probes = 0
    while d is not None and h >= 1e-7:
        lam_try = _fold(lam + h * d / abs(d))
        asm = _assembly(build_reduced(cf, lam_try))
        probe = _continuation(asm, best.triple, cfg)
        probes += 1
        cost = _triple_cost(asm.rp, probe.triple) if probe.converged else np.inf
        if cost < best.cost - 1e-12:
            probe = _reconstructed(cf, probe)
            cost = probe.cost
        trace.append((lam_try, cost))
        if cost < best.cost - 1e-12:
            s, d_prev = lam_try - lam, d
            best, lam = probe, lam_try
            d = _descent_direction(asm.rp, best)
            if d is not None:
                # s.y with y = g - g_prev = d_prev - d
                sy = (s * (d_prev - d).conjugate()).real
                h = 2.0 * abs(s)
                if sy > 0:
                    h = min(abs(s) ** 2 / sy * abs(d), h)
        elif np.isfinite(cost):
            # the quadratic's curvature times h^2: the probe's cost above
            # the incumbent's linear model
            rise = cost - best.cost + abs(d) * h
            t = abs(d) * h * h / (2.0 * rise) if rise > 0 else h
            h = min(max(t, 0.1 * h), 0.5 * h)
        else:
            h *= 0.5
    return best, lam, probes


def solve_radius(net: NetworkSystem, mask: ConstraintMask, grid="default",
                 cfg: SolverConfig = SolverConfig()) -> RadiusResult:
    """Minimize the fixed-lambda cost over a candidate grid, then descend in lambda.

    Candidates are ranked by the unstructured PBH lower bound and solved in
    that order; a candidate whose bound already exceeds the incumbent cost is
    pruned. Only the returned answer is certified against the original
    system (_certified), not every candidate: one that does not verify
    fails the solve.

    The sweep runs ahead of the polish. The bounds ascend and the incumbent
    cost never rises, so pruning only ever cuts a suffix of the bound
    order: a candidate whose bound lies below the incumbent cost now may be
    pruned later, but one above it is never solved. A candidate without a
    sweep is therefore swept together with the candidates after it whose
    bounds already lie below the incumbent cost (alone while there is no
    incumbent, and at most _BLOCK_ROWS restarts in all), in lockstep blocks
    of at most _BLOCK_ROWS rows per route (_sweep_candidates). The polish
    then takes the candidates one at a time in bound order, with the prune
    test before each, exactly as if each had been swept alone; a candidate
    swept ahead and then pruned is dropped unpolished and never enters
    search_trace. Every output is that of sweeping one candidate at a time,
    bit for bit.

    A gradient descent on ||Delta(lambda)|| then moves the grid winner
    along the exact lambda-gradient (_descend_lambda), each probe warm-started
    from the incumbent triple and its step length taken from that gradient:
    two-point steps after a win, an interpolating backtrack after a loss.
    refine_evals counts the probes, and every probe joins search_trace
    after the grid candidates, a failed one with cost inf. At a winner that
    is already stationary in lambda no probe is spent and refine_evals
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
    return RadiusResult(best=_certified(net, best), lambda_star=best_lam,
                        search_trace=tuple(trace), pruned=pruned, refine_evals=refine_evals)
