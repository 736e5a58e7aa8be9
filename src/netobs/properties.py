"""Per-instance checks of the paper's properties, shared by `netobs validate`
and the tests, which run them on their own instances.

Each returns a residual that is zero in exact arithmetic (None where the
instance does not apply); the caller compares the worst one with its own
threshold. The ones that solve also return the result.
"""

from __future__ import annotations

import numpy as np

from . import analytic_oracles as oracles
from .network_model import canonicalize
from .radius_core import PencilAssembly, build_reduced, build_weightings
from .solver import (_best_of_restarts, _continuation, _reconstructed,
                     generalized_spectrum, solve_fixed_lambda, solve_radius)


def spectrum_residuals(pp):
    """(zero, imag, pair) of the finite spectrum of (H, D), which holds 0, is
    real and is symmetric about 0: min|sigma|, max|Im sigma| and
    max|sigma_k + sigma_(N+1-k)| over the sorted real parts, each over
    max(1, max|sigma|). None for a singular or all-infinite pencil."""
    spec = generalized_spectrum(pp)
    if not spec.regular or len(spec.values) == 0:
        return None
    vals = spec.values
    scale = max(1.0, float(np.abs(vals).max()))
    re = np.sort(vals.real)
    return (float(np.min(np.abs(vals))) / scale,
            float(np.abs(vals.imag).max()) / scale,
            float(np.abs(re + re[::-1]).max()) / scale)


def shift_residual(pp, factor, count):
    """sigma in spec(H, D) iff sigma - mu in spec(H - mu D, D), with mu =
    factor * the smallest positive real sigma: the worst distance from
    sigma - mu to the shifted spectrum (scipy's QZ, not the solver's) over
    max(1, sigma), for the count smallest positive real sigma. None when
    there is no such sigma."""
    import scipy.linalg as sla

    spec = generalized_spectrum(pp)
    if not spec.regular or len(spec.values) == 0:
        return None
    real = spec.values.real[np.abs(spec.values.imag) < 1e-8]
    pos = real[real > 1e-8 * max(1.0, np.abs(real).max())]
    if len(pos) == 0:
        return None
    mu = factor * float(pos.min())
    alpha, beta = sla.eigvals(pp.h - mu * pp.d, pp.d, homogeneous_eigvals=True)
    fin = np.abs(beta) > 1e-10 * (1 + np.abs(alpha))
    shifted = alpha[fin] / beta[fin]
    return max(float(np.min(np.abs(shifted - (s - mu)))) / max(1.0, abs(s))
               for s in pos[:count])


def weighting_scaling_residual(rp, x, y, alpha):
    """D_x is quadratic in x: max |D_x(alpha x, y) - alpha^2 D_x(x, y)| over
    1 + |alpha^2 D_x(x, y)|, entrywise (allclose with rtol = atol)."""
    d_x, _ = build_weightings(rp, x, y)
    d_x2, _ = build_weightings(rp, alpha * x, y)
    ref = alpha ** 2 * d_x
    return float(np.max(np.abs(d_x2 - ref) / (1.0 + np.abs(ref))))


def cost_identity_residuals(rec):
    """(identity, bound) of a Reconstruction: the relative gap between
    ||Delta||_F^2 and sigma x' At' y, and ||Delta||_F^2 - sigma ||At||_F."""
    return rec.cost_identity_rel, -rec.cost_bound_slack


def line3_oracle_gap(net, mask, lam, cfg):
    """(result, ||Delta - Delta_oracle||_F) for a 3-node chain solved at a
    complex lam, against line3_optimal (which may raise OracleFailure); the
    gap is inf when the solve did not converge."""
    ora = oracles.line3_optimal(net.weights, lam)
    res = solve_fixed_lambda(net, mask, lam, cfg)
    if not res.converged:
        return res, np.inf
    return res, float(np.linalg.norm(res.perturbation.delta - ora.perturbation))


def real_route_gap(net, mask, lam, cfg):
    """|cost_half - min cost_full| at a real lam; None when the half-size
    solve fails, inf when no full solve converges.

    Formulation agreement, not restart luck: the full system's polish starts
    warm from the half-size triple (agreement means that point is stationary
    for it at the same cost); a cold full solve guards against the full
    route finding something cheaper.
    """
    half = solve_fixed_lambda(net, mask, lam, cfg)
    if not half.converged:
        return None
    cf = canonicalize(net, mask)
    full = PencilAssembly(build_reduced(cf, lam))
    warm = _reconstructed(cf, _continuation(full, half.triple, cfg))
    cold = _best_of_restarts(cf, full, cfg)
    costs = [r.cost for r in (warm, cold) if r.converged]
    if not costs:
        return np.inf
    return abs(half.cost - min(costs))


def oracle_radius_gap(net, mask, topology, cfg):
    """(result, |radius - oracle|) for solve_radius on the "topo" grid against
    the closed form of a line or star; the gap is inf when it fails."""
    rr = solve_radius(net, mask, "topo", cfg)
    if not rr.best.converged:
        return rr, np.inf
    return rr, abs(rr.cost - oracles.CLOSED_FORMS[topology](net.weights).delta)
