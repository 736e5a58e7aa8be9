"""Command line surface: radius solves, perturbation export, ensemble runs,
closed-form oracles, and a built-in validation suite.

Exit codes: 0 success, 1 input/parse problem, 2 unobservable input system,
3 solver failure, 4 validation failure. stdout carries machine-readable
payload only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analytic_oracles as oracles
from . import montecarlo as mc
from .network_model import (NetworkFormatError, UnobservableSystemError,
                            canonicalize, load_network,
                            perturbation_from_dict, perturbation_to_dict,
                            verify_unobservability)
from .radius_core import (_delta_bar, a_tilde, assemble_pencil, build_reduced,
                          build_weightings)
from .solver import (SolverConfig, generalized_spectrum, heuristic_iterate,
                     solve_fixed_lambda, solve_radius)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNOBSERVABLE = 2
EXIT_SOLVER = 3
EXIT_VALIDATE = 4


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route usage errors through the documented exit code instead of argparse's 2
    def error(self, message):
        raise CliInputError(message)


def _parse_lambda(text):
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise CliInputError(f"--lambda expects 're,im', got {text!r}") from exc


def _default_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("NETOBS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliInputError(f"NETOBS_SEED must be an integer, got {env!r}") from exc
    return 0


def _cfg(args):
    return SolverConfig(
        psi=args.psi, max_iter=args.max_iter, conv_tol=args.tol,
        restarts=args.restarts, seed=_default_seed(args))


def _emit(payload, output):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output in (None, "-"):
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _result_payload(res, include_history=False):
    rec = res.reconstruction
    ver = res.verification
    payload = {
        "delta_frobenius": res.cost,
        "frob_cost": res.perturbation.frob_cost if res.perturbation else None,
        "lambda_star": [res.lam.real, res.lam.imag],
        "perturbation": [[float(v) for v in row] for row in res.perturbation.delta]
        if res.perturbation else None,
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "sigma": res.sigma,
        "phi_plus_mu": res.phi_plus_mu,
        "residual": res.residual if np.isfinite(res.residual) else None,
        "cost_identity_rel": rec.cost_identity_rel if rec else None,
        "certificate": {
            "r_eig": ver.r_eig, "r_out": ver.r_out, "smin": ver.smin,
            "verified": bool(ver.verified),
        } if ver else None,
    }
    if include_history:
        payload["history"] = [float(h) for h in res.history]
    return payload


def cmd_radius(args):
    net, mask = load_network(args.network)
    cfg = _cfg(args)
    if args.lam is not None:
        res = solve_fixed_lambda(net, mask, _parse_lambda(args.lam), cfg)
        if not res.converged:
            print(f"solver failed: {res.failure}", file=sys.stderr)
            return EXIT_SOLVER
        _emit(_result_payload(res), args.output)
        return EXIT_OK
    rr = solve_radius(net, mask, args.grid, cfg)
    if not rr.best.converged:
        print(f"solver failed: {rr.best.failure}", file=sys.stderr)
        return EXIT_SOLVER
    payload = _result_payload(rr.best)
    payload["search"] = {
        "grid": args.grid,
        "evaluated": [[lam.real, lam.imag, cost if np.isfinite(cost) else None]
                      for lam, cost in rr.search_trace],
        "pruned": rr.pruned,
        "refine_evals": rr.refine_evals,
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_perturb(args):
    net, mask = load_network(args.network)
    cfg = _cfg(args)
    if args.lam is not None:
        res = solve_fixed_lambda(net, mask, _parse_lambda(args.lam), cfg)
    else:
        res = solve_radius(net, mask, args.grid, cfg).best
    if not res.converged:
        print(f"solver failed: {res.failure}", file=sys.stderr)
        return EXIT_SOLVER
    ver = res.verification
    doc = perturbation_to_dict(res.perturbation, lam=res.lam, residuals={
        "r_eig": ver.r_eig, "r_out": ver.r_out, "smin": ver.smin})
    _emit(doc, args.output)
    # round-trip audit: re-load and re-verify what was just written
    pert2, lam2 = perturbation_from_dict(json.loads(json.dumps(doc)))
    rep2 = verify_unobservability(net, pert2, lam2)
    drift = max(abs(rep2.r_eig - ver.r_eig), abs(rep2.r_out - ver.r_out),
                abs(rep2.smin - ver.smin))
    if drift > 1e-12:
        print(f"round-trip drift {drift:.3e} exceeds 1e-12", file=sys.stderr)
        return EXIT_SOLVER
    print(f"round-trip drift {drift:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args):
    net, _ = load_network(args.network)
    if net.sensors != (0,):
        raise CliInputError("closed-form oracles assume the sensor is node 1")
    a = net.weights
    kind = args.kind
    if kind == "auto":
        try:
            oracles._check_line(a, require_super=False)
            kind = "line3" if (a.shape[0] == 3 and args.lam is not None) else "line"
        except ValueError:
            kind = "star"
    if kind == "line3":
        if args.lam is None:
            raise CliInputError("line3 oracle needs --lambda re,im")
        res = oracles.line3_optimal(a, _parse_lambda(args.lam))
    elif kind == "line":
        res = oracles.line_radius(a)
    elif kind == "star":
        res = oracles.star_radius(a)
    else:
        raise CliInputError(f"unknown oracle kind {kind!r}")
    _emit({
        "delta": res.delta,
        "lambda_star": [res.lambda_star.real, res.lambda_star.imag],
        "branch": res.branch,
        "perturbation": [[float(v) for v in row] for row in res.perturbation],
        "n_roots": res.n_roots,
    }, args.output)
    return EXIT_OK


def cmd_montecarlo(args):
    sizes = tuple(int(s) for s in args.sizes.split(","))
    spec = mc.EnsembleSpec(topology=args.topology, sizes=sizes,
                           trials=args.trials, seed=_default_seed(args))
    result = mc.estimate_expected_radius(spec, method=args.method, grid=args.grid)
    if args.out_prefix:
        rec_path = args.out_prefix + "_records.csv"
        sum_path = args.out_prefix + "_summary.csv"
        mc.write_records_csv(result, rec_path)
        mc.write_summary_csv(result, sum_path)
        _emit({"records": rec_path, "summary": sum_path,
               "valid": result.valid}, None)
    else:
        cols = mc.SUMMARY_COLUMNS
        print(",".join(cols))
        for s in result.summaries:
            print(",".join(mc._fmt(getattr(s, c)) for c in cols))
    if not result.valid:
        print("exclusion rate above 10%", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation suite


def _mixed_instances(seed, count):
    """Random observable instances with line, star, or dense random masks."""
    from .network_model import ConstraintMask, NetworkSystem
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC8EC)))
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 9))
        kind = ("line", "star", "random")[int(rng.integers(3))]
        if kind == "line":
            a = mc._draw_line(n, rng)
        elif kind == "star":
            a = mc._draw_star(n, rng)
        else:
            a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        try:
            net = NetworkSystem(a, (0,))
        except (UnobservableSystemError, NetworkFormatError):
            continue
        mask = ConstraintMask.same_as_graph(net)
        out.append((net, mask, rng.uniform(-1, 1) + 1j * rng.uniform(0.1, 1)))
    return out


def _spectrum_checks(seed, count=40):
    worst_zero = 0.0
    worst_imag = 0.0
    worst_pair = 0.0
    for net, mask, lam in _mixed_instances(seed, count):
        cf = canonicalize(net, mask)
        rp = build_reduced(cf, lam)
        rng = np.random.default_rng(np.random.SeedSequence((seed, net.n, 0x5EC)))
        x = rng.standard_normal(2 * rp.m)
        y = rng.standard_normal(2 * rp.n)
        pp = assemble_pencil(rp, x / np.linalg.norm(x), y / np.linalg.norm(y))
        spec = generalized_spectrum(pp)
        if not spec.regular or len(spec.values) == 0:
            continue
        vals = spec.values
        scale = max(1.0, float(np.abs(vals.real).max()))
        worst_zero = max(worst_zero, float(np.min(np.abs(vals))) / scale)
        worst_imag = max(worst_imag, float(np.abs(vals.imag).max()) / scale)
        re = np.sort(vals.real)
        worst_pair = max(worst_pair, float(np.abs(re + re[::-1]).max()) / scale)
    return worst_zero, worst_imag, worst_pair


def _shift_check(seed, count=10):
    worst = 0.0
    for net, mask, lam in _mixed_instances(seed, count):
        cf = canonicalize(net, mask)
        rp = build_reduced(cf, lam)
        rng = np.random.default_rng(np.random.SeedSequence((seed, net.n, 0x51F7)))
        x = rng.standard_normal(2 * rp.m)
        y = rng.standard_normal(2 * rp.n)
        pp = assemble_pencil(rp, x / np.linalg.norm(x), y / np.linalg.norm(y))
        spec = generalized_spectrum(pp)
        if not spec.regular or len(spec.values) == 0:
            continue
        real = spec.values.real[np.abs(spec.values.imag) < 1e-8]
        pos = real[real > 1e-8 * max(1.0, np.abs(real).max())]
        if len(pos) == 0:
            continue
        mu = 0.9 * float(pos.min())
        import scipy.linalg as sla
        shifted = sla.eigvals(pp.h - mu * pp.d, pp.d, homogeneous_eigvals=True)
        fin = np.abs(shifted[1]) > 1e-10 * (1 + np.abs(shifted[0]))
        sh = shifted[0][fin] / shifted[1][fin]
        for s in pos[:3]:
            worst = max(worst, float(np.min(np.abs(sh - (s - mu)))) /
                        max(1.0, abs(s)))
    return worst


def _scaling_check(seed):
    worst = 0.0
    for net, mask, lam in _mixed_instances(seed, 8):
        cf = canonicalize(net, mask)
        rp = build_reduced(cf, lam)
        rng = np.random.default_rng(np.random.SeedSequence((seed, net.n, 0x5CA1)))
        x = rng.standard_normal(2 * rp.m)
        y = rng.standard_normal(2 * rp.n)
        alpha = 1.7
        dx1, dy1 = build_weightings(rp, x, y)
        dx2, dy2 = build_weightings(rp, alpha * x, y)
        worst = max(worst, float(np.abs(dx2 - alpha**2 * dx1).max()))
        del dy1, dy2
    return worst


def _solve_checks(seed, inject_sign_flip=False, count=6):
    """Identity, bound, and oracle agreement on solved 3-node instances."""
    worst_identity = 0.0
    worst_bound = 0.0
    worst_oracle = 0.0
    lam = 1j
    cfg = SolverConfig(restarts=6, sweep_iters=15, seed=seed)
    solved = 0
    for trial in range(count):
        net, mask, _ = mc.sample_network("line", 3, seed, trial)
        try:
            ora = oracles.line3_optimal(net.weights, lam)
        except oracles.OracleFailure:
            continue
        res = solve_fixed_lambda(net, mask, lam, cfg)
        if not res.converged:
            continue
        solved += 1
        cf = canonicalize(net, mask)
        rp = build_reduced(cf, lam)
        t = res.triple
        db = _delta_bar(rp, t, -1.0 if inject_sign_flip else 1.0)
        cost_sq = float(np.sum(db * db))
        identity = t.sigma * float(t.x @ (a_tilde(rp).T @ t.y))
        worst_identity = max(worst_identity,
                             abs(cost_sq - identity) / max(cost_sq, 1e-300))
        worst_bound = max(worst_bound,
                          cost_sq - t.sigma * float(np.linalg.norm(a_tilde(rp))))
        worst_oracle = max(worst_oracle,
                           float(np.linalg.norm(res.perturbation.delta
                                                - ora.perturbation)))
    if solved == 0:
        return np.inf, np.inf, np.inf
    return worst_identity, worst_bound, worst_oracle


def _real_route_check(seed, count=4):
    from dataclasses import replace as _rep
    worst = 0.0
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    full_cfg = _rep(cfg, force_full_pencil=True)
    for trial in range(count):
        net, mask, _ = mc.sample_network("line", 4, seed, trial)
        lam = complex(np.diag(net.weights)[-1], 0.0)
        res_half = solve_fixed_lambda(net, mask, lam, cfg)
        if not res_half.converged:
            continue
        # formulation agreement, not restart luck: warm-start the full
        # system from the half-route solution (agreement means that point is
        # stationary for the full system at the same cost); the cold full
        # solve only guards against the full route finding something cheaper
        cf = canonicalize(net, mask)
        rp = build_reduced(cf, lam)
        t = res_half.triple
        warm = heuristic_iterate(rp, cf, full_cfg,
                                 z0=np.concatenate([t.x, t.y]))
        cold = solve_fixed_lambda(net, mask, lam, full_cfg)
        costs = [r.cost for r in (warm, cold) if r.converged]
        if not costs:
            return np.inf
        worst = max(worst, abs(res_half.cost - min(costs)))
    return worst


def _topology_check(seed):
    worst = 0.0
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    for topology in ("line", "star"):
        net, mask, _ = mc.sample_network(topology, 5, seed, 0)
        ora = (oracles.line_radius(net.weights) if topology == "line"
               else oracles.star_radius(net.weights))
        rr = solve_radius(net, mask, "topo", cfg)
        if not rr.best.converged:
            return np.inf
        worst = max(worst, abs(rr.cost - ora.delta))
    return worst


def cmd_validate(args):
    seed = _default_seed(args)
    z, im, pair = _spectrum_checks(seed)
    identity, bound, oracle_gap = _solve_checks(seed, args.inject_sign_flip)
    checks = [
        ("pencil_zero_eigenvalue", z, 1e-8),
        ("pencil_spectrum_real", im, 1e-8),
        ("pencil_spectrum_pairing", pair, 1e-8),
        ("shift_relation", _shift_check(seed), 1e-8),
        ("weighting_quadratic_scaling", _scaling_check(seed), 1e-12),
        ("reconstruction_cost_identity", identity, 1e-6),
        ("reconstruction_cost_bound", bound, 1e-9),
        ("oracle_agreement_3node", oracle_gap, 1e-5),
        ("real_lambda_route_equivalence", _real_route_check(seed), 1e-8),
        ("topology_radius_agreement", _topology_check(seed), 1e-4),
    ]
    print("check,status,residual,threshold")
    failed = False
    for name, residual, threshold in checks:
        ok = residual <= threshold
        failed = failed or not ok
        print(f"{name},{'pass' if ok else 'FAIL'},{residual:.3e},{threshold:.1e}")
    if failed:
        print("validation failed", file=sys.stderr)
        return EXIT_VALIDATE
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = _Parser(prog="netobs",
                description="observability radius of linear network systems")
    sub = p.add_subparsers(dest="command", required=True)

    def add_solver_opts(sp):
        sp.add_argument("--psi", type=float, default=0.9)
        sp.add_argument("--max-iter", type=int, default=500)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--restarts", type=int, default=8)
        sp.add_argument("--seed", type=int, default=None,
                        help="defaults to NETOBS_SEED or 0")
        sp.add_argument("--output", "-o", default=None, help="payload file, default stdout")

    sp = sub.add_parser("radius", help="smallest unobservability perturbation")
    sp.add_argument("network")
    sp.add_argument("--lambda", dest="lam", default=None, help="fixed eigenvalue 're,im'")
    sp.add_argument("--grid", default="default",
                    help="lambda search grid: default|submatrix|topo|rect:...")
    add_solver_opts(sp)
    sp.set_defaults(fn=cmd_radius)

    sp = sub.add_parser("perturb", help="export the optimal perturbation")
    sp.add_argument("network")
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--grid", default="default")
    add_solver_opts(sp)
    sp.set_defaults(fn=cmd_perturb)

    sp = sub.add_parser("oracle", help="closed-form reference radius")
    sp.add_argument("network")
    sp.add_argument("--kind", choices=("auto", "line", "line3", "star"), default="auto")
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("montecarlo", help="random ensemble radius statistics")
    sp.add_argument("--topology", choices=mc.TOPOLOGIES, required=True)
    sp.add_argument("--sizes", required=True, help="comma list, e.g. 5,10,20")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--method", choices=("oracle", "solver"), default="oracle")
    sp.add_argument("--grid", default="topo")
    sp.add_argument("--out-prefix", default=None,
                    help="write PREFIX_records.csv and PREFIX_summary.csv")
    sp.set_defaults(fn=cmd_montecarlo)

    sp = sub.add_parser("validate", help="run the built-in property suite")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--inject-sign-flip", action="store_true",
                    help=argparse.SUPPRESS)  # test harness hook
    sp.set_defaults(fn=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NetworkFormatError as exc:
        print(f"bad network input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnobservableSystemError as exc:
        print(f"unobservable input: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE
    except (oracles.OracleFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
