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
                          _d_positions, _delta_bar, _weighted,
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
    scale = max(1.0, float(np.abs(alpha).max()))
    # a second-order block at infinity splits under rounding into a huge
    # conjugate pair with |beta| ~ sqrt(eps); anything past eps^-0.4 of the
    # pencil scale is indistinguishable from infinity and classified as such
    finite = np.abs(beta) > 5e-7 * (1.0 + np.abs(alpha))
    indeterminate = (np.abs(alpha) <= 1e-12 * scale) & (np.abs(beta) <= 1e-12)
    regular = True
    if indeterminate.any():
        hnorm = max(1.0, float(np.abs(pp.h).max()), float(np.abs(pp.d).max()))
        regular = any(
            np.linalg.svd(pp.h - t * pp.d, compute_uv=False)[-1] > 1e-12 * hnorm
            for t in (0.37281, -1.11803, 2.64575))
    values = alpha[finite] / beta[finite]
    order = np.lexsort((values.imag, values.real))
    return SpectrumResult(values=values[order], regular=regular)


def _min_positive(values, zero_tol):
    if len(values) == 0:
        return None
    re = values.real
    scale = max(1.0, float(np.abs(re).max()))
    ok = (re > zero_tol * scale) & (np.abs(values.imag) <= 1e-6 * scale)
    if not ok.any():
        return None
    return float(re[ok].min())


def _u_of_pencil(pp, z):
    """Polish variable of a balanced pencil vector z: unit blocks, and sigma
    at triple scale from the Rayleigh quotient |z'Hz / z'Dz| (1 when
    z'Dz = 0)."""
    den = z @ (pp.d @ z)
    sigma_bar = abs(z @ (pp.h @ z) / den) if den != 0 else 1.0
    return np.append(np.sqrt(2.0) * z, sigma_bar / 2.0)


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
    lowest. A run that stops here fails like any other, and
    heuristic_iterate reports it as "did not converge".

    Returns (u, Jacobians taken, converged, accepted iterates); ||F|| falls
    strictly along the accepted iterates.
    """
    eps = np.finfo(float).eps
    u = u0.copy()
    f = f_of(u)
    us = [u]
    mu = 0.0
    its = 0
    for its in range(1, max_iter + 1):
        if np.linalg.norm(f, np.inf) <= tol:
            return u, its - 1, True, us
        jac = j_of(u)
        left, s, vt = np.linalg.svd(jac, full_matrices=False)
        g = left.T @ f
        ff = f @ f
        # the relative gradient: stationary for ||F|| with F != 0
        if np.linalg.norm(s * g) <= 1e-6 * s[0] * np.sqrt(ff):
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


def _stationarity_fj(at, v_bar):
    """Residual F(u) and Jacobian J(u) of the normalized stationarity system.

    F stacks At' y - sigma D_y x, At x - sigma D_x y and the two norm rows.
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
        x, y, sig = u[:nx], u[nx:nx + ny], u[-1]
        d_y, d_x = _weighting_diagonals(v_bar, x, y)
        return np.concatenate([att @ y - sig * _weighted(d_y, x),
                               at @ x - sig * _weighted(d_x, y),
                               [(x @ x - 1.0) / 2.0, (y @ y - 1.0) / 2.0]])

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
    zx, zy = z[:nx], z[nx:]
    nzx, nzy = np.linalg.norm(zx), np.linalg.norm(zy)
    if nzx < 1e-300 or nzy < 1e-300:
        return None
    return np.concatenate([zx / (np.sqrt(2.0) * nzx), zy / (np.sqrt(2.0) * nzy)])


def heuristic_iterate(rp: ReducedProblem, cf, cfg: SolverConfig,
                      z0=None) -> FixedLambdaResult:
    """One solve of the fixed-lambda problem from one initial vector.

    Runs the shifted inverse-iteration sweep, then polishes the best sweep
    iterate (by stationarity residual) with Levenberg-Marquardt,
    reconstructs the perturbation, and reports the pencil residual. Real
    lambda is routed through the half-size pencil unless the config forces
    the full one.

    A sweep step does only the work that changes from step to step. H is
    assembled once per call (PencilAssembly); each step fills D's diagonals
    at the current iterate (one on the real route, four per block on the
    complex one), takes the smallest positive eigenvalue of (H, D) from QZ,
    shifts by mu = psi times that eigenvalue, backs psi off when the 2-norm
    condition number of H - mu D (from its singular values) exceeds
    cond_limit, and solves (H - mu D) w = D z.

    The iterates are returned raw (iterates); history, polish_start and
    delta_trace are built from them on first access.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA5)))

    asm = PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)
    nx, ny = asm.nx, asm.size - asm.nx
    f_of, j_of = _stationarity_fj(asm.a_tilde, rp.v_bar)

    if z0 is None:
        z = rng.standard_normal(nx + ny)
    else:
        z = np.array(z0, dtype=float, copy=True)
    z = _rebalance(z, nx)
    if z is None:
        return FixedLambdaResult(lam=rp.lam, converged=False,
                                 failure="degenerate initial vector")
    z_init = z.copy()

    trace_u = []
    best_seed = None
    best_merit = np.inf
    psi_cur = cfg.psi
    phi_plus_mu = None
    sweep_used = 0
    for it in range(cfg.sweep_iters):
        pp = asm.pencil(z[:nx], z[nx:])
        spec = generalized_spectrum(pp)
        if not spec.regular:
            break
        mp = _min_positive(spec.values, cfg.zero_tol)
        if mp is None:
            break
        mu = psi_cur * mp
        mmat = pp.h - mu * pp.d
        s = np.linalg.svd(mmat, compute_uv=False)
        if s[-1] == 0.0 or s[0] / s[-1] > cfg.cond_limit:
            # the 2-norm condition number (infinite when s_min = 0, as
            # np.linalg.cond has it) says the shift sits on an eigenvalue;
            # back psi off and retry next pass
            psi_cur = max(0.5 + 0.45 * (psi_cur - 0.5), 0.500001)
            mu = psi_cur * mp
            mmat = pp.h - mu * pp.d
        try:
            w = np.linalg.solve(mmat, pp.d @ z)
        except np.linalg.LinAlgError:
            break
        phi = np.linalg.norm(w)
        if not np.isfinite(phi) or phi < 1e-300:
            break
        zn = w / phi
        if zn @ z < 0:
            zn = -zn
        zn = _rebalance(zn, nx)
        if zn is None:
            break
        sweep_used = it + 1
        phi_plus_mu = mu + 1.0 / phi
        u = _u_of_pencil(pp, zn)
        merit = np.linalg.norm(f_of(u))
        trace_u.append(u)
        if merit < best_merit:
            best_merit = merit
            best_seed = u
        z = zn

    init_seed = _u_of_pencil(asm.pencil(z_init[:nx], z_init[nx:]), z_init)

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
        seeds.append(init_seed)
    xs = rng.standard_normal(nx)
    ys = rng.standard_normal(ny)
    seeds.append(np.concatenate([xs / np.linalg.norm(xs), ys / np.linalg.norm(ys), [0.5]]))
    if trace_u:
        seeds.append(init_seed)

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
                                 phi_plus_mu=phi_plus_mu, failure=failure)

    # iterates are the sweep passes followed by the winning polish sequence
    iterates = IterateTrace(
        rp=rp, cf=cf, asm=asm, final=res.triple, sweep=tuple(trace_u),
        polish=tuple(us) + (detail,), keep_deltas=cfg.keep_delta_trace)
    return replace(res, iterations=sweep_used + gn_used, phi_plus_mu=phi_plus_mu,
                   iterates=iterates)


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


def _best_of_restarts(cf, lam, cfg: SolverConfig) -> FixedLambdaResult:
    """solve_fixed_lambda on a canonical form, without the verification.

    solve_radius solves its candidates through this and verifies only the
    answer it returns.
    """
    rp = build_reduced(cf, lam)
    asm = PencilAssembly(rp, real=rp.is_real and not cfg.force_full_pencil)
    best = None
    failures = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        z0 = _pbh_warm_start(cf, lam, asm, rng) if r == 0 else None
        if z0 is None:
            z0 = rng.standard_normal(asm.size)
        run_cfg = replace(cfg, seed=cfg.seed * 1009 + r)
        res = heuristic_iterate(rp, cf, run_cfg, z0=z0)
        if res.converged:
            if best is None or res.cost < best.cost - 1e-15:
                best = res
        else:
            failures.append(res.failure)
    if best is None:
        return FixedLambdaResult(lam=complex(lam), converged=False,
                                 failure="all restarts failed: " +
                                         "; ".join(sorted(set(f or "?" for f in failures))))
    return best


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


def _pbh_lower_bound(net, lam):
    """Unstructured distance at lam: a valid lower bound on the structured
    radius since restricting the support can only cost more."""
    n = net.n
    stack = np.vstack([complex(lam) * np.eye(n) - net.weights, net.c_matrix])
    return float(np.linalg.svd(stack, compute_uv=False)[-1])


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
    pruned. One coordinate-descent pass (step halving, refine_steps budget)
    then polishes lambda locally, warm-starting each probe from the
    incumbent triple. The pass runs only when the exact lambda-gradient of
    ||Delta||^2 at the grid winner is nonzero on the scale of (A, lambda);
    at a winner that is already stationary in lambda no probe can improve
    to first order, and refine_evals stays 0. Only the returned answer is
    verified against the original system, not every candidate.
    """
    cands = candidate_lambdas(net, mask, grid)
    if not cands:
        raise ValueError("empty lambda grid")
    cf = canonicalize(net, mask)
    bounds = [(lam, _pbh_lower_bound(net, lam)) for lam in cands]
    bounds.sort(key=lambda t: (t[1], t[0].real, t[0].imag))
    best = None
    best_lam = None
    trace = []
    pruned = 0
    for lam, bound in bounds:
        if best is not None and bound >= best.cost - 1e-12:
            pruned += 1
            continue
        res = _best_of_restarts(cf, lam, cfg)
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
            for d_re, d_im in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
                lam_try = complex(best_lam.real + d_re, abs(best_lam.imag + d_im))
                if abs(lam_try.imag) < 1e-12:
                    lam_try = complex(lam_try.real, 0.0)
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
