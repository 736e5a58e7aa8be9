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
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .analytic_oracles import cut_off, min_deletion_cost
from .network_model import (ConstraintMask, NetworkSystem, Perturbation,
                            canonicalize, pbh_stack, verify_unobservability)
from .radius_core import (CandidateTriple, PencilAssembly, PencilPair,
                          Reconstruction, SpuriousTripleError, _delta_bar,
                          _in_columns, _inf_norm, _mv, _norm, _norms, _rowdot,
                          _sandwich, _shifted, _times, build_reduced,
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
# the search's answer replaces the cheapest single-edge cut, whose cost is
# exact, only when it is cheaper by more than this, relative: a search that
# converges onto the cut ends a few ulps above or below it. On C7's 1,000
# instances and the 88 graphs, such searches ended at most 1.5e-12 below
# their cut, and every other search answer below its cut was at least
# 2.5e-3 below it
_CUT_RTOL = 1e-10
# Most rows of one lockstep block: sweep rows (candidates times restarts) of
# one _sweep call, and rows of one polish stream (_polish). The cap bounds
# the memory of a block, whose stacked pencils and Jacobians grow with the
# rows; it does not change any answer.
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


def _lambda_plus(h, d, f, t0, h_norm):
    """Smallest positive finite eigenvalue lambda_+ of each pencil (H, D) of
    a stack, NaN where there is none or the pencil is singular; h has shape
    (rows, order, order), t0 one shift per row >= 0, and d and f (the roots
    of D, D = F F) are as PencilAssembly.weightings gives them: dense
    stacks, or on the half-size route their diagonals, applied by _shifted
    and _sandwich with the bits of the dense matrices. h_norm is ||H||_F per
    row (np.linalg.norm over the last two axes, as _norms takes it), which
    the sweep takes once per candidate; ||D||_F is the norm of d's entries,
    whichever form it comes in.

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
    out = np.full(len(t0), np.nan)
    # the rows of a pass, with their stacks, shifts and scales: the first
    # pass takes every row as given, the second only the rows it failed
    rows, t = np.arange(len(t0)), t0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = h_norm / _norms(d.reshape(len(d), -1), 1)
        for _ in range(2):
            mmat = _shifted(h, t, d)
            inv = _stacked_lapack(np.linalg.inv, mmat)
            s = _sandwich(f, inv)
            ok = ((_norms(mmat, (1, 2)) * _norms(inv, (1, 2)) <= _COND_LIMIT)
                  & np.isfinite(s).all(axis=(1, 2)))
            done, s, t_done, c = _kept(ok, rows, s, t, scale)
            st = np.swapaxes(s, 1, 2)
            nu = np.linalg.eigvalsh((s + st) / 2)
            sigma = t_done[:, None] + 1.0 / nu
            c = c[:, None]
            err = (_norms(s - st, (1, 2)) + np.finfo(float).eps
                   * _norms(s, (1, 2)))[:, None] / nu**2
            good = ((sigma > _POSITIVE_TOL * c) & (sigma > _RESOLVE * err)
                    & (_FINITE_TOL * sigma <= c))
            out[done] = np.where(good.any(axis=1), np.where(good, sigma, np.inf).min(axis=1),
                                 np.nan)
            if len(done) == len(rows):
                break
            rows, h, d, f, scale, t = _kept(~ok, rows, h, d, f, scale, t)
            t = np.where(t > 0, t / 2, scale)
    return out


def _kept(keep, *arrays):
    """The rows of each array where the mask keep holds; the arrays
    themselves, untouched, when it holds on every row, so that a filter
    compacts only when a row leaves."""
    if keep.all():
        return arrays
    return tuple(a[keep] for a in arrays)


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
    to match, dense or its diagonal): unit blocks, and sigma at triple scale
    from the Rayleigh quotient |z'Hz / z'Dz| (1 when z'Dz = 0)."""
    den = _rowdot(z, _times(d, z))
    sigma_bar = np.abs(np.divide(_rowdot(z, _mv(h, z)), den,
                                 out=np.ones(den.shape), where=den != 0))
    return np.concatenate([np.sqrt(2.0) * z, sigma_bar / 2.0], axis=1)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt polish on the normalized stationarity system.
# Unknown u = (x, y, sigma); residual F(u) stacks the two stationarity
# equations plus (|x|^2 - 1)/2 and (|y|^2 - 1)/2.


@dataclass(eq=False, slots=True)
class _LMRun:
    """One start of a row of a _gn_core stream: its point u and its key, F
    there (f, None until it is evaluated; ff = ||F||^2), the accepted
    iterates, ||F|| at every point reached, Jacobians taken (its) and the
    damping carried over (mu: that of the last accepted step, 0 after an
    undamped one or none). While it tries steps from u: the SVD factors s,
    vt and g = U'F, and the step weights w and damping damp of its next
    trial (damp 0 for the undamped one), with the growth factor nu."""

    u: np.ndarray
    key: object
    us: list
    f: np.ndarray | None = None
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


def _gn_core(f_of, j_of, u0, keys, collapsed, refill):
    """Levenberg-Marquardt on ||F(u)||_2 from every row of u0, in lockstep,
    as one stream whose rows refill at once.

    Every parameter is required. The rows of u0 start the stream, one key
    each in keys; a row's key picks its system, so one stream polishes rows
    of many candidates. f_of and j_of are called as f_of(u, keys), with a
    stack of points and the keys of its rows or one u and its key.
    collapsed is a predicate of F at one point (the restarts pass
    _collapsed). A row that stops hands its polish to refill(i, polish), i
    its index in u0; refill gives the row's next start (u0, key), or None
    to end the row. A new start is a new run in that row, as if alone: its
    residual joins the round's stacked call of f_of, and from the next
    round on it takes its Jacobians with the others, so no row waits for
    the others to stop. Every polish goes to refill; nothing is returned.

    The rows run in rounds. In each round every live row at a new point
    passes the exits below and takes its Jacobian, and then every live row
    runs its next trial; a row that carries damping also runs its first
    damped trial there, ahead (below). So a row takes at most one Jacobian
    per round and one residual, or two at a new point of a run that
    carries damping. A round makes one stacked call of f_of for all its
    trial points and new starts, one of j_of for all its Jacobians and one
    stacked np.linalg.svd; f_of and j_of give every row of a stack the bits
    it gets alone, and a stacked SVD runs LAPACK matrix by matrix. The rest
    (U'F, the steps, the sums and norms, the exits and the damping) is done
    row by row with the one-vector numpy calls, so every row gets exactly
    what a stream of that row alone gets: u, the count, the exit and the
    iterates, bit for bit.

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
    clears the carried mu.

    A run that carries damping (mu > 0) evaluates its first damped point
    ahead: at a new point its undamped point and its point damped by the
    carried mu go into the same call of f_of, unless the damped trial's
    predicted decrease is already at the rounding of ||F||^2 (the "no
    decrease" exit below then ends the run on the next round, as without
    the lookahead). The two are read in the one-trial order: the damped
    one only where the undamped one is rejected; otherwise it is dropped.
    Every trial point and F is the one a trial per round computes, so the
    lookahead saves rounds and changes no bit. On the chain3 benchmark pool
    Nielsen's update rejects the undamped step at 2,248 of the 2,531 points
    where a run carries damping, and the lookahead cuts a round's j_of
    calls from 1,302 to 900. Where mu = 0 the undamped step is mostly
    accepted (at 952 of the ensemble pool's 961 such points), so nothing
    is evaluated ahead there.

    A run stops at the first of these exits, each named in its polish. At a
    new point, before its Jacobian, in this order:
    - "converged": ||F||_inf at or below _POLISH_TOL;
    - "collapsed": collapsed(F) holds. The point lies on the x = 0 or
      y = 0 branch that the unit-norm rows of the stationarity system are
      there to rule out. Runs that slide onto it shrink
      min(||x||^2, ||y||^2) 4 to 7 times per Jacobian while ||F|| settles
      at 1/2, and the no-progress exit took about 10 more Jacobians to end
      them: on the chain3 pool 109 of the 124 failed runs of a round do
      this. Along the runs that converge min(||x||^2, ||y||^2) stays 38
      times above the exit's threshold at the closest (_COLLAPSE_TOL);
    - "budget": the point after the _POLISH_MAX_ITER-th Jacobian;
    - "no progress" (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
      Least Squares Problems", 2004, 3.2): ||F|| is above (1 - 1e-4) times
      ||F|| where the Jacobian 10 steps back was taken. Such runs crawl
      far from any stationary point (||F|| ~ 0.19 on the 4-node line of
      the CLI benchmark pool) and would use up the budget. Along the runs
      that converge, the smallest relative fall of ||F|| over any 10
      Jacobians was 1.3e-3 on C7 (saddle passages), 1.8e-3 on the CLI
      pool, 2.1e-2 on C3 and 8.9e-2 on the chain3 pool; the threshold sits
      13 times below the lowest.
    After its Jacobian, before any trial:
    - "stationary" (the same reference, 3.2): the point is stationary for
      ||F|| at a nonzero residual, the relative gradient
      ||J'F|| / (||J||_2 ||F||) at or below 1e-6. Both norms come from the
      SVD: ||J'F|| = ||s * U'F|| and ||J||_2 = s[0]. Along the runs that
      converge, the smallest relative gradient measured was 1.6e-4 on the
      benchmark pools, 4.6e-4 on C3's 100 chains and 1.5e-5 on C7's 1,000
      instances, where a few runs pass close to a saddle of ||F|| before
      they converge; the threshold sits 15 times below the lowest.
    Before a trial:
    - "no decrease": the predicted decrease drops to the rounding of
      ||F||^2, where no trial can be told apart from u.
    Every exit but "converged" fails the run, and the _Restart that
    polished the row goes on to its next seed, or fails when it has none.

    A polish is (u, Jacobians taken, exit, accepted iterates); ||F|| falls
    strictly along the accepted iterates.
    """
    eps = np.finfo(float).eps
    rows = [_LMRun(u=u, key=key, us=[u]) for u, key in zip(u0, keys)]

    def stop(i, its, exit_name):
        run = rows[i]
        start = refill(i, (run.u, its, exit_name, run.us))
        rows[i] = None if start is None else _LMRun(u=start[0], key=start[1], us=[start[0]])

    while any(rows):
        fresh = []  # rows at a new point that take a Jacobian this round
        for i, run in enumerate(rows):
            if run is None or run.f is None or run.s is not None:
                continue
            run.its += 1
            if _inf_norm(run.f) <= _POLISH_TOL:
                stop(i, run.its - 1, "converged")
            elif collapsed(run.f):
                stop(i, run.its - 1, "collapsed")
            elif run.its > _POLISH_MAX_ITER:
                stop(i, _POLISH_MAX_ITER, "budget")
            else:
                run.ff = run.f @ run.f
                run.norms.append(math.sqrt(run.ff))
                # ||F|| fell by less than 1e-4 relative over 10 Jacobians
                if run.its > 10 and run.norms[-1] > (1.0 - 1e-4) * run.norms[-11]:
                    stop(i, run.its - 1, "no progress")
                else:
                    fresh.append(i)
        if fresh:
            jac = _stacked(j_of, [rows[i] for i in fresh], [rows[i].u for i in fresh])
            left, s, vt = np.linalg.svd(jac, full_matrices=False)
            cut = eps * max(jac.shape[1:])
            for i, left_k, s_k, vt_k in zip(fresh, left, s, vt):
                run = rows[i]
                g = left_k.T @ run.f
                # the relative gradient: stationary for ||F|| with F != 0
                if _norm(s_k * g) <= 1e-6 * s_k[0] * run.norms[-1]:
                    stop(i, run.its, "stationary")
                    continue
                run.s, run.vt, run.g, run.damp, run.nu = s_k, vt_k, g, 0.0, 2.0
                run.w = np.divide(1.0, s_k, out=np.zeros(len(s_k)),
                                  where=s_k > cut * s_k[0])
        # the points where F is evaluated this round: every trial, every new
        # start, and the first damped trial of a run that carries damping,
        # ahead; pred is each point's predicted decrease, None at a start
        evaluated, preds, points = [], [], []
        for i, run in enumerate(rows):
            if run is not None and run.s is not None:
                pred = _predicted(run, run.w)
                if pred > eps * run.ff:  # NaN in F fails here too
                    evaluated.append(run)
                    preds.append(pred)
                    points.append(run.u - run.vt.T @ (run.w * run.g))
                    if run.damp == 0.0 and run.mu > 0.0:
                        w = run.s / (run.s * run.s + run.mu)
                        pred = _predicted(run, w)
                        if pred > eps * run.ff:
                            evaluated.append(run)
                            preds.append(pred)
                            points.append(run.u - run.vt.T @ (w * run.g))
                    continue
                stop(i, run.its, "no decrease")
                run = rows[i]
            if run is not None and run.f is None:
                evaluated.append(run)
                preds.append(None)
                points.append(run.u)
        if not evaluated:
            continue
        for run, pred, trial, ft in zip(evaluated, preds, points,
                                        _stacked(f_of, evaluated, points)):
            if run.f is None:
                run.f = ft
                continue
            if run.s is None:  # the undamped trial was accepted: drop this one
                continue
            gain = run.ff - ft @ ft
            if gain > 1e-4 * pred:
                run.mu = run.damp * max(1.0 / 3.0,
                                        1.0 - (2.0 * gain / pred - 1.0) ** 3)
                run.u, run.f, run.s = trial, ft, None
                run.us.append(trial)
                continue
            if run.damp == 0.0:
                run.damp = run.mu or 1e-3 * run.s[0] ** 2
            else:
                run.damp, run.nu = run.damp * run.nu, 2.0 * run.nu
            run.w = run.s / (run.s * run.s + run.damp)


def _predicted(run, w):
    """The decrease of ||F||^2 that the linear model predicts for the step
    with weights w from the run's point."""
    r = run.s * w
    return float((run.g * run.g * r * (2.0 - r)).sum())


def _stacked(fn, runs, points):
    """fn at the points of runs, one each, as one stack with a leading row
    axis: fn(u, keys) with the runs' keys. A single point takes fn's
    one-vector path, fn(u, key), which the polish kernel gives the same
    bits as a row of a stack, at less cost."""
    if len(points) == 1:
        return fn(points[0], runs[0].key)[None]
    return fn(np.array(points), np.array([run.key for run in runs]))


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
            hist.append(_norm(di - d_final))
            if deltas is not None:
                deltas.append(_in_columns(rp, di))
        return hist, deltas

    h_sweep, d_sweep = snapshots(tr.sweep)
    h_gn, d_gn = snapshots(tr.polish)
    deltas = None if d_sweep is None else tuple(d_sweep + d_gn)
    return tuple(h_sweep + h_gn), len(h_sweep), deltas


@dataclass(frozen=True)
class FixedLambdaResult:
    """A fixed-lambda solve's result, or solve_radius's edge-deletion answer:
    deletion holds that answer's Delta, and it has no triple, reconstruction,
    iterates or sigma."""

    lam: complex
    converged: bool
    triple: CandidateTriple | None = None
    reconstruction: Reconstruction | None = None
    iterations: int = 0
    phi_plus_mu: float | None = None
    verification: object = None
    failure: str | None = None
    iterates: IterateTrace | None = field(default=None, repr=False, compare=False)
    deletion: Perturbation | None = None

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
        """Delta: the deletion's, or the reconstruction's of the triple."""
        if self.deletion is not None:
            return self.deletion
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
    zx, zy, nzx, nzy = _kept(ok, zx, zy, nzx, nzy)
    scale = np.sqrt(2.0)
    return np.concatenate([zx / (scale * nzx), zy / (scale * nzy)], axis=1), ok


def _sweep(restarts, cfg):
    """Shifted inverse iteration from the start vector of every restart, in
    lockstep.

    The restarts (_Restart) may belong to many candidate lambdas, all on one
    route, so the pencils have one order. Each restart is a row of one
    (rows, size) block; the rows advance together for at most
    cfg.sweep_iters steps, and a row leaves the block where its own sweep
    ends: a pencil that is singular or has no positive eigenvalue, a
    singular shifted solve, phi non-finite or below 1e-300, or an iterate
    that cannot be rebalanced. A start that cannot be rebalanced fails its
    restart at once. Each step takes D and its root F for every row
    (PencilAssembly.weightings), the smallest positive eigenvalue lambda_+
    of every row's pencil from one stacked symmetric eigensolve at the
    row's previous shift (_lambda_plus; at first half the start's Rayleigh
    quotient), shifts by mu = psi lambda_+ and solves (H - mu D) w = D z in
    one stacked solve (_stacked_lapack). Each restart keeps its pass: init,
    trace, best and its merit, phi_plus_mu.

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
    first assembly gives D for every row. The H, ||H||_F and A_tilde of each
    candidate are stacked once, and the index from row to candidate
    (_keyed) is filtered with the rows and gathers them per step, one
    candidate or many. On the half-size route D and F are diagonal and stay
    diagonals: H - t D writes 0.0 - t d into a copy of H's zero diagonal,
    and F M F and D z are formed elementwise (_shifted, _sandwich, _times),
    each entry equal to the dense one bit for bit; the complex route keeps
    its 2 x 2-block F dense, through the matmuls.

    Every row gets the bits a sweep of that start alone would. Stacked
    np.linalg.inv, np.linalg.eigvalsh and np.linalg.solve run LAPACK slice
    by slice. Matrix times vector goes through _mv and dot products and
    row norms through _rowdot, which equal a @ x and _norm (numpy's
    np.linalg.norm) row by row, where x @ a.T, einsum and sums over an
    axis do not; the merit's At' is a transposed view of the gathered
    A_tilde, as it is of A_tilde for one row. The solve stays numpy's:
    scipy's ?gesv comes from another BLAS build and differs in the last
    bits. The row arrays are filtered through _kept, which compacts them
    only when a row leaves.
    """
    asms, cand = _keyed(restarts)
    asm = asms[0]
    nx, form = asm.nx, asm.form
    hs = np.stack([a.h for a in asms])
    h_norms = _norms(hs, (1, 2))
    ats = np.stack([a.a_tilde for a in asms])
    at_norms = np.array([_norm(a.rp.a_tilde) for a in asms])
    z, ok = _rebalance(np.array([r.z0 for r in restarts], dtype=float), nx)
    for restart in itertools.compress(restarts, ~ok):
        restart.finish(failure="degenerate initial vector")
    live, cand = np.flatnonzero(ok), cand[ok]
    d, f = asm.weightings(z[:, :nx], z[:, nx:])
    u = _u_of_pencil(hs[cand], d, z)
    for restart, u0 in zip([restarts[i] for i in live], u):
        restart.init = u0
    # _lambda_plus's first t0: half the start's Rayleigh quotient |z'Hz / z'Dz|
    mu = u[:, -1]
    for it in range(cfg.sweep_iters):
        if not len(live):
            break
        if it:
            d, f = asm.weightings(z[:, :nx], z[:, nx:])
        h = hs[cand]
        mp = _lambda_plus(h, d, f, mu, h_norms[cand])
        live, cand, z, d, mp, h = _kept(~np.isnan(mp), live, cand, z, d, mp, h)

        mu = cfg.psi * mp
        w = _stacked_lapack(np.linalg.solve, _shifted(h, mu, d),
                            _times(d, z)[..., None])[..., 0]
        phi = np.sqrt(_rowdot(w, w))[:, 0]
        live, cand, z, d, mu, w, phi, h = _kept(np.isfinite(phi) & (phi >= 1e-300),
                                                live, cand, z, d, mu, w, phi, h)

        zn = w / phi[:, None]
        zn = np.where(_rowdot(zn, z) < 0, -zn, zn)
        zn, keep = _rebalance(zn, nx)
        live, cand, z, d, mu, phi, h = _kept(keep, live, cand, z, d, mu, phi, h)
        dz = zn - z
        step = np.sqrt(_rowdot(dz, dz))[:, 0]
        u = _u_of_pencil(h, d, zn)
        f = form.f(ats[cand], u)
        merit = np.sqrt(_rowdot(f, f))[:, 0]
        phi_plus_mu = mu + 1.0 / phi
        for k, restart in enumerate([restarts[i] for i in live]):
            restart.trace.append(u[k])
            restart.phi_plus_mu = phi_plus_mu[k]
            if merit[k] < restart.merit:
                restart.merit, restart.best = merit[k], u[k]
        # a row whose iterate has stopped moving, or that lies in the
        # polish's basin, leaves the block
        basin = _HANDOFF_TOL * np.fmin(at_norms[cand], u[:, -1])
        going = (step >= _STILL_TOL) & (merit >= basin)
        live, cand, z, mu = _kept(going, live, cand, zn, mu)


def heuristic_iterate(restart) -> FixedLambdaResult:
    """The result of one grid restart (_Restart), polished already: its
    first converged polish whose triple passes _checked_triple,
    unreconstructed (converged, its cost inf until _reconstructed), or its
    failure.

    Every restart of a sweep-ahead block is swept and polished in lockstep
    (_solved) before any result is read, so this only reads one. It is
    called once per restart of every candidate that is not pruned, never
    for a lambda-descent probe: the benchmark tracer counts restarts and
    their iterations on these calls.
    """
    return restart.result


@dataclass(eq=False)
class _Restart:
    """One grid restart or one lambda-descent probe on the assembly pencil,
    from its start vector to its result.

    A grid restart (_restarts) holds its start vector z0 and the function
    that builds its random seed (draw). Its sweep pass (_sweep) leaves the
    polish variable of its balanced start (init), that of every completed
    step (trace), the step of least merit ||F(u)|| (best, the first of
    equals, and its merit) and the last step's mu + 1/phi. The pass takes
    at most cfg.sweep_iters steps; it ends early where the sweep breaks
    down, at the start's fixed point (the first step shorter than
    _STILL_TOL) or in the polish's basin (the first step of merit below the
    handoff threshold), and keeps the step it ends at. Its seeds, built on
    the first seed(), are in order: the best sweep iterate, the last one,
    the random draw and the start (ahead of the draw when the sweep took no
    step). A probe (_continuation) has no sweep and one seed.

    The polish (_polish) takes the seeds in turn until one converges,
    counting the seeds polished and the Jacobians they took. The result
    (finish) is converged, with the triple of the first seed whose polish
    converges and passes _checked_triple, unreconstructed; or failed when
    the seeds run out, for the reason the last seed failed, or at once when
    the start degenerates. Its iterates are the sweep passes and the polish
    of the seed that gave the triple, Delta_i kept when keep_deltas is set.
    """

    pencil: PencilAssembly
    keep_deltas: bool
    z0: np.ndarray | None = None
    draw: partial | None = None
    init: np.ndarray | None = None
    trace: list = field(default_factory=list)
    best: np.ndarray | None = None
    merit: float = np.inf
    phi_plus_mu: float | None = None
    seeds: list | None = None
    polished: int = 0
    gn_used: int = 0
    result: FixedLambdaResult | None = None

    def seed(self):
        """The next seed to polish. The random draw is built only when the
        restart reaches it: most restarts converge first."""
        if self.seeds is None:
            trace, best = self.trace, self.best
            self.seeds = [] if best is None else [best]
            if trace and (best is None or not np.array_equal(trace[-1], best)):
                self.seeds.append(trace[-1])
            # a sweep that died on the start (a singular pencil there, e.g. a
            # start with zero imaginary blocks at real lambda) leaves the start
            # as the only information available: it is polished before the
            # random draw instead of being dropped on the floor
            self.seeds += [self.draw, self.init] if trace else [self.init, self.draw]
        u = self.seeds[self.polished]
        if callable(u):
            u = self.seeds[self.polished] = u()
        return u

    def take(self, polish):
        """Records the polish (u, Jacobians, exit, iterates) of the next
        seed. A seed that fails is named by its polish's exit, or by
        _checked_triple when it converged; the restart fails with the last
        seed's reason."""
        u, its, exit_name, us = polish
        self.polished += 1
        self.gn_used += its
        if exit_name == "converged":
            t, detail = _checked_triple(self.pencil, u)
        else:
            t, detail = None, ("polish collapsed onto x = 0 or y = 0"
                               if exit_name == "collapsed" else "did not converge")
        if t is not None:
            self.finish(t, tuple(us) + (detail,))
        elif self.polished == len(self.seeds):
            self.finish(failure=detail)

    def finish(self, triple=None, polish=(), failure=None):
        """Sets the result: converged with the triple and the polish's
        iterates (the seed's accepted iterates, then the oriented u), or
        failed for the reason failure."""
        iterates = None
        if triple is not None:
            # iterates are the sweep passes followed by this polish
            # sequence; the sweep passes are rows of the whole block's
            # iterates, so they are copied out, and a kept result holds its
            # own rows only
            iterates = IterateTrace(
                asm=self.pencil, final=triple, sweep=tuple(np.array(self.trace)),
                polish=polish, keep_deltas=self.keep_deltas)
        self.result = FixedLambdaResult(
            lam=self.pencil.rp.lam, converged=triple is not None, triple=triple,
            iterations=len(self.trace) + self.gn_used,
            phi_plus_mu=self.phi_plus_mu, failure=failure, iterates=iterates)


def _random_seed(cf, seed, nx, ny):
    """A restart's random seed: unit x and y blocks from the stream
    (seed, 0xA5) (_random_draws), y's sensor rows drawn first, and sigma
    0.5."""
    xs, ys = _random_draws((seed, 0xA5), nx, ny)
    ys = _sensors_drawn_first(cf, ys)
    return np.concatenate([xs / _norm(xs), ys / _norm(ys), [0.5]])


def _polish(restarts):
    """Polishes every restart of restarts still searching, all on one route,
    in one _gn_core stream of at most _BLOCK_ROWS rows.

    The restarts may belong to many candidates: the stream's kernel
    (_kernel) gives each row its own candidate's A_tilde (_keyed). Each row
    polishes one seed of one restart. Where the polish fails, or its triple
    fails _checked_triple, the restart's next seed takes the row at once;
    where the restart stops searching, the next restart waiting takes it.
    Every restart gets the bits it gets polished alone, one seed at a time.
    """
    searching = [r for r in restarts if r.result is None]
    if not searching:
        return
    asms, keys = _keyed(searching)
    waiting = zip(searching, keys)
    rows = list(itertools.islice(waiting, _BLOCK_ROWS))

    def refill(i, polish):
        restart, key = rows[i]
        restart.take(polish)
        if restart.result is not None:
            rows[i] = next(waiting, None)
            if rows[i] is None:
                return None
            restart, key = rows[i]
        return restart.seed(), key

    _gn_core(*_kernel(asms), [r.seed() for r, _ in rows], [k for _, k in rows],
             _collapsed, refill)


def _keyed(restarts):
    """The assemblies of restarts, each once and in order, and each
    restart's index among them: the candidate of every row of a sweep block
    or polish stream."""
    asms = list(dict.fromkeys(r.pencil for r in restarts))
    index = {asm: k for k, asm in enumerate(asms)}
    return asms, np.array([index[r.pencil] for r in restarts])


def _kernel(asms):
    """f_of(u, keys) and j_of(u, keys) of the polish of assemblies asms, all
    on one route: a row with key k is polished on asms[k]. One u takes its
    assembly's A_tilde itself, a stack gathers one A_tilde per row."""
    form = asms[0].form
    ats = np.stack([a.a_tilde for a in asms])

    def f_of(u, keys):
        return form.f(ats[keys] if u.ndim > 1 else asms[keys].a_tilde, u)

    def j_of(u, keys):
        return form.j(ats[keys] if u.ndim > 1 else asms[keys].a_tilde, u)

    return f_of, j_of


def _collapsed(f):
    """Whether F of the stationarity system at a point (radius_core._Form)
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
    if u[-1] < 0:  # (-x, y, -sigma)
        flipped = -u
        flipped[asm.nx:-1] = u[asm.nx:-1]
        u = flipped
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
    return math.sqrt((d * d).sum())


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


def _pbh_warm_start(cf, v_min, asm, seed):
    """Seed z with the PBH singular vector at the assembly's lambda, v_min
    (the right singular vector of [lam I - A; C] of its smallest singular
    value, as np.linalg.svd's last row of vh gives it): the unstructured
    optimum is usually in the right basin for the structured one. On the
    half-size route of a real lambda only its real part is kept. Where
    A_tilde x vanishes, y is the first draw of the stream (seed, 0)
    (_random_draws), sensor rows first."""
    xc = v_min.conj()[cf.free]
    if np.linalg.norm(xc) < 1e-8:
        return None
    k = int(np.argmax(np.abs(xc)))
    xc = xc * np.exp(-1j * np.angle(xc[k]))
    xc = xc / np.linalg.norm(xc)
    x = np.concatenate([xc.real, xc.imag])[:asm.nx]
    x_norm = _norm(x)
    if x_norm < 1e-8:
        return None
    y = asm.a_tilde @ x
    y_norm = _norm(y)
    if y_norm < 1e-12:
        y = _sensors_drawn_first(cf, _random_draws((seed, 0), len(y))[0])
        y_norm = _norm(y)
    return np.concatenate([x / (np.sqrt(2.0) * x_norm), y / (np.sqrt(2.0) * y_norm)])


def _assembly(rp):
    """The PencilAssembly of rp on its route: the half-size system of a real
    lambda, the full one otherwise."""
    return PencilAssembly(rp, real=rp.is_real)


def _restarts(cf, asms, cfg):
    """The restarts of every assembly of asms, one list per assembly in
    restart order, each with its start vector. Every start is drawn from
    the restart's own stream, in the order a restart on its own would draw
    it: restart 0 from the PBH singular vector when there is one. The PBH
    start depends on lambda, and every lambda's singular vectors come from
    one stacked SVD (a stacked np.linalg.svd runs LAPACK matrix by matrix,
    so each equals its own); a random start does not, and comes from
    _random_draws. Restart r draws its random seed from cfg.seed * 1009 + r
    (_random_seed)."""
    lams = np.array([asm.rp.lam for asm in asms], dtype=complex)
    vh = np.linalg.svd(pbh_stack(cf.net.weights, cf.net.c_matrix, lams))[2]
    out = []
    for asm, vh_lam in zip(asms, vh):
        block = []
        for r in range(cfg.restarts):
            z0 = _pbh_warm_start(cf, vh_lam[-1], asm, cfg.seed) if r == 0 else None
            if z0 is None:
                draw, = _random_draws((cfg.seed, r), asm.size)
                z0 = np.concatenate([draw[:asm.nx], _sensors_drawn_first(cf, draw[asm.nx:])])
            block.append(_Restart(asm, cfg.keep_delta_trace, z0, partial(
                _random_seed, cf, cfg.seed * 1009 + r, asm.nx, asm.size - asm.nx)))
        out.append(block)
    return out


def _solved(cf, asms, cfg):
    """The restarts of every assembly of asms (_restarts), swept and
    polished; one list per assembly, in restart order. The restarts of each
    route are swept in lockstep blocks of at most _BLOCK_ROWS rows, in
    candidate order (half-size real pencils and full complex ones differ in
    order), then polished in one stream (_polish)."""
    blocks = _restarts(cf, asms, cfg)
    for real in (False, True):
        restarts = [r for block in blocks for r in block if r.pencil.real == real]
        for i in range(0, len(restarts), _BLOCK_ROWS):
            _sweep(restarts[i:i + _BLOCK_ROWS], cfg)
        _polish(restarts)
    return blocks


def _ranked(cf, restarts) -> FixedLambdaResult:
    """The best converged restart of one candidate's restarts, polished
    already (_solved): ranked first, reconstructed after.

    Each restart's result is read through heuristic_iterate. The restarts
    are ranked by the cost of their triples (_triple_cost, equal to the
    reconstruction's bit for bit) under the rule that picks the winner: in
    restart order, a cost below the incumbent's by more than 1e-15 takes
    its place. Only the top-ranked restart is reconstructed
    (_reconstructed), so the winner is the one that reconstructing every
    restart would give. If its reconstruction is rejected, the candidate
    fails with that reason.
    """
    rp = restarts[0].pencil.rp
    results = [heuristic_iterate(restart) for restart in restarts]
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


def _best_of_restarts(cf, asm, cfg: SolverConfig) -> FixedLambdaResult:
    """solve_fixed_lambda on a canonical form and the assembly asm of one
    lambda, on its route, without the certificate.

    The restarts are drawn, swept in lockstep and polished in one stream
    (_solved), then ranked (_ranked). The results are those of one restart
    at a time, bit for bit. This is the one-candidate case of
    solve_radius's sweep-ahead blocks.
    """
    restarts, = _solved(cf, [asm], cfg)
    return _ranked(cf, restarts)


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
    cf = canonicalize(net, mask)
    best = _best_of_restarts(cf, _assembly(build_reduced(cf, lam)), cfg)
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

    "topo": one eigenvalue per trailing principal submatrix block[k:, k:] of
    the non-sensor block A[free][:, free] (net.free), the one with the
    smallest PBH lower bound (_pbh_lower_bounds), the first in (bound, Re,
    Im) order, plus the means of neighbouring entries of its sorted diagonal
    (symmetry-type optima on hub topologies: pulling two self-loops to their
    mean costs their distance over sqrt(2), so the cheapest pair is always a
    neighbouring one, as in analytic_oracles.star_radius). A trailing
    block's eigenvalues are those a deletion that cuts its nodes off makes
    unobservable, all at that deletion's cost; solve_radius takes the
    cheapest single-edge cut as an exact answer, so the grid keeps only the
    block's most promising point.
    "default": the "topo" candidates plus 21 real points on [-2, 2], for
    optima at negative real lambda that "topo" alone misses on some sparse
    random graphs (it returns the cheapest single-edge cut there). Complex
    optima off the "topo" points are left to solve_radius's lambda descent.
    Or pass an explicit iterable of complex numbers, all finite (ValueError
    otherwise, before any work).
    Conjugates are folded onto the closed upper half plane. The grids come
    from A and the sensors alone; mask is not read.
    """
    return tuple(_bounded_candidates(net, grid))


def _bounded_candidates(net, grid):
    """candidate_lambdas's candidates, in its order, each with its PBH lower
    bound: {lambda: bound}. The bounds come from one stacked SVD: for a
    named grid, over every trailing block's distinct eigenvalues and the
    grid's other points, before one eigenvalue per block is kept."""
    if isinstance(grid, str):
        if grid not in GRIDS:
            raise ValueError(f"unknown grid spec {grid!r}")
        block = net.weights[np.ix_(net.free, net.free)]
        eigs = [[_fold(v) for v in np.linalg.eigvals(block[k:, k:])]
                for k in range(len(block))]
        diag = np.sort(np.diag(block))
        points = [_fold(v) for v in (diag[:-1] + diag[1:]) / 2.0]
        if grid == "default":
            points += [_fold(re) for re in np.linspace(-2, 2, 21)]
        distinct = list(dict.fromkeys([v for vals in eigs for v in vals] + points))
        bound = dict(zip(distinct, _pbh_lower_bounds(net, distinct)))
        vals = [min(vals, key=lambda v: (bound[v], v.real, v.imag)) for vals in eigs]
        vals += points
    else:
        vals = [_fold(_finite_lambda(v)) for v in grid]
        if not vals:
            raise ValueError("explicit candidate grid is empty")
        bound = None
    dedup = []
    for v in sorted(vals, key=lambda v: (v.real, v.imag)):
        if not dedup or abs(v - dedup[-1]) > 1e-9:
            dedup.append(v)
    if bound is None:
        bound = dict(zip(dedup, _pbh_lower_bounds(net, dedup)))
    return {v: bound[v] for v in dedup}


def _pbh_lower_bounds(net, lams):
    """Unstructured distance at each lam: a valid lower bound on the
    structured radius since restricting the support can only cost more.
    One complex SVD over the stack of [lam I - A; C]."""
    stack = pbh_stack(net.weights, net.c_matrix, np.array(lams, dtype=complex))
    return np.linalg.svd(stack, compute_uv=False)[:, -1].tolist()


@dataclass(frozen=True)
class RadiusResult:
    """solve_radius's answer (best, certified) and its search: the search's
    own answer (search, the grid winner after the lambda descent,
    reconstructed but not certified; None when no candidate converged),
    every grid candidate and descent probe solved, with its cost
    (search_trace), the candidates pruned and the descent probes."""

    best: FixedLambdaResult
    search_trace: tuple          # ((lambda, cost) per grid candidate and descent probe)
    pruned: int = 0
    refine_evals: int = 0
    search: FixedLambdaResult | None = None

    @property
    def cost(self):
        return self.best.cost

    @property
    def branch(self):
        """Where the answer comes from: "edge-deletion" for the cheapest
        masked single-edge cut, "search" otherwise."""
        return "search" if self.best.deletion is None else "edge-deletion"

    @property
    def lambda_star(self):
        """The answer's lambda, kept when its certificate fails; None when
        there is no answer: no candidate converged and no cut exists."""
        return None if self.best.perturbation is None else self.best.lam


def _cut_answer(net, mask):
    """The deletion of the cheapest masked single-edge cut
    (analytic_oracles.min_deletion_cost(net, mask, 1)) as an answer, or None
    when no single masked edge cuts a node off from the sensors.

    Delta is minus the cut entry, and its cost, that entry's magnitude, is
    exact. The cut leaves a node set U that reaches no sensor
    (analytic_oracles.cut_off); every eigenvalue of A[U, U] is then an
    unobservable eigenvalue of A + Delta, and lambda* is the first of them,
    folded onto the closed upper half plane (_fold), in (Re, Im) order."""
    _, edges = min_deletion_cost(net, mask, 1)
    if not edges:
        return None
    (i, j), = edges
    delta = np.zeros_like(net.weights)
    delta[i, j] = -net.weights[i, j]
    u = cut_off(net, edges)
    lam = min(map(_fold, np.linalg.eigvals(net.weights[np.ix_(u, u)])),
              key=lambda v: (v.real, v.imag))
    return FixedLambdaResult(lam=lam, converged=True, deletion=Perturbation(delta, mask))


def _continuation(asm, t_prev, cfg):
    """The continuation of the triple t_prev to the lambda of the assembly
    asm (a neighbouring one, or its own): the result of a _Restart without
    a sweep whose only seed is t_prev's polish variable on asm, polished
    (_polish). It is converged and unreconstructed, or failed when the
    polish or _checked_triple fails or t_prev has no polish variable on
    asm's route."""
    u0 = asm.u_of(t_prev)
    restart = _Restart(asm, cfg.keep_delta_trace, seeds=[u0])
    if u0 is None:
        restart.finish(failure="did not converge")
    _polish([restart])
    return restart.result


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
    if res.sigma * float(np.hypot(c_re, c_im)) <= _FLAT_TOL * _norm(rp.a_tilde):
        return None
    return res.sigma * complex(c_re, -c_im) / res.cost


def _descend_lambda(cf, best, cfg, trace):
    """Gradient descent on ||Delta(lambda)|| from the grid winner best.

    A probe moves the incumbent by h along _descent_direction, folded onto
    the closed upper half plane, and continues the incumbent triple there
    (_continuation): a restart whose one seed is that triple. The probe's
    triple is ranked by its cost (_triple_cost, equal to the
    reconstruction's bit for bit) before anything is reconstructed: only a
    cost below the incumbent's by more than 1e-12 is reconstructed
    (_reconstructed), and if that passes, the probe wins and becomes the
    incumbent. h starts at 0.05 max(1, |best.lam|) and then takes its length
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
    Returns (incumbent, probes); the incumbent's lambda is best.lam.
    """
    d = _descent_direction(best.iterates.asm.rp, best)
    h = 0.05 * max(1.0, abs(best.lam))
    probes = 0
    while d is not None and h >= 1e-7:
        lam_try = _fold(best.lam + h * d / abs(d))
        asm = _assembly(build_reduced(cf, lam_try))
        probe = _continuation(asm, best.triple, cfg)
        probes += 1
        cost = _triple_cost(asm.rp, probe.triple) if probe.converged else np.inf
        if cost < best.cost - 1e-12:
            probe = _reconstructed(cf, probe)
            cost = probe.cost
        trace.append((lam_try, cost))
        if cost < best.cost - 1e-12:
            s, d_prev = lam_try - best.lam, d
            best = probe
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
    return best, probes


def solve_radius(net: NetworkSystem, mask: ConstraintMask, grid="default",
                 cfg: SolverConfig = SolverConfig()) -> RadiusResult:
    """Minimize the fixed-lambda cost over a candidate grid, descend in
    lambda, and compare the result with the cheapest single-edge cut.

    Candidates are ranked by the unstructured PBH lower bound and solved in
    that order; a candidate whose bound already exceeds the incumbent cost is
    pruned. Only the returned answer is certified against the original
    system (_certified), not every candidate: one that does not verify
    fails the solve.

    The sweep runs ahead of the polish. The bounds ascend and the incumbent
    cost never rises, so pruning only ever cuts a suffix of the bound
    order: a candidate whose bound lies below the incumbent cost now may be
    pruned later, but one above it is never solved, and neither is any
    candidate after the first one pruned. A candidate without a sweep is
    therefore solved together with the candidates after it whose bounds
    already lie below the incumbent cost, or, while there is no incumbent,
    with the next candidate: a sweep costs mostly per lockstep step, not
    per row, and the second least bound is solved in most searches anyway.
    A block holds at most _BLOCK_ROWS restarts. Its restarts are swept in
    lockstep blocks of at most _BLOCK_ROWS rows and polished right
    after, in one stream per route (_solved). The candidates are then taken
    one at a time in bound order, with the prune test before each, exactly
    as if each had been swept and polished alone: a candidate's restarts
    are read (heuristic_iterate) and ranked (_ranked), and a candidate
    swept ahead and then pruned drops its restarts unread and never enters
    search_trace. Every output is that of solving one candidate at a time,
    bit for bit.

    A gradient descent on ||Delta(lambda)|| then moves the grid winner
    along the exact lambda-gradient (_descend_lambda), each probe warm-started
    from the incumbent triple and its step length taken from that gradient:
    two-point steps after a win, an interpolating backtrack after a loss.
    refine_evals counts the probes, and every probe joins search_trace
    after the grid candidates, a failed one with cost inf. At a winner that
    is already stationary in lambda no probe is spent and refine_evals
    stays 0.

    The search's answer (RadiusResult.search) is then compared with the
    deletion of the cheapest masked single-edge cut (_cut_answer), whose
    cost is exact: the cut is the answer unless the search is cheaper by
    more than _CUT_RTOL relative (a search that converges onto the cut ends
    within rounding of it), and also when no candidate converged. The cut
    enters neither the pruning nor the sweep-ahead blocks, nor search_trace,
    so the search runs as it would without it. RadiusResult.branch names the answer's
    origin, "edge-deletion" or "search". The answer fails only when no
    candidate converged and no single edge cuts, or when its certificate
    does not verify.
    """
    bounds = sorted(_bounded_candidates(net, grid).items(),
                    key=lambda t: (t[1], t[0].real, t[0].imag))
    cf = canonicalize(net, mask)
    best = None
    trace = []
    pruned = refine_evals = 0
    ahead = max(1, _BLOCK_ROWS // cfg.restarts)
    solved = {}  # position in bounds -> its candidate's polished restarts
    for i, (lam, bound) in enumerate(bounds):
        if best is not None and bound >= best.cost - 1e-12:
            # the bounds ascend, so every candidate from here on is pruned
            pruned = len(bounds) - i
            break
        if i not in solved:
            # sweep ahead: with no incumbent the next candidate joins this
            # one, else the next candidates whose bounds already lie below
            # the incumbent cost
            if best is None:
                stop = min(len(bounds), i + min(2, ahead))
            else:
                stop = i + 1
                while (stop < min(len(bounds), i + ahead)
                       and bounds[stop][1] < best.cost - 1e-12):
                    stop += 1
            block = range(i, stop)
            asms = [_assembly(build_reduced(cf, bounds[j][0])) for j in block]
            solved.update(zip(block, _solved(cf, asms, cfg)))
        res = _ranked(cf, solved.pop(i))
        trace.append((lam, res.cost))
        if not res.converged:
            continue
        if best is None or res.cost < best.cost - 1e-15 or (
                abs(res.cost - best.cost) <= 1e-15 and
                (lam.real, lam.imag) < (best.lam.real, best.lam.imag)):
            best = res
    if best is not None:
        best, refine_evals = _descend_lambda(cf, best, cfg, trace)
    answer, cut = best, _cut_answer(net, mask)
    if cut is not None and (best is None or best.cost >= cut.cost * (1.0 - _CUT_RTOL)):
        answer = cut
    if answer is None:
        answer = FixedLambdaResult(lam=0j, converged=False, failure="no candidate converged")
    else:
        answer = _certified(net, answer)
    return RadiusResult(best=answer, search_trace=tuple(trace), pruned=pruned,
                        refine_evals=refine_evals, search=best)
