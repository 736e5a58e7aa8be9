"""Command line surface: radius solves, perturbation export, ensemble runs,
closed-form oracles, and a built-in validation suite.

Exit codes: 0 success, 1 input/parse problem or an output file that cannot
be written, 2 unobservable input system, 3 solver failure (an answer whose
certificate does not verify among them), 4 validation failure. stdout
carries machine-readable payload only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analytic_oracles as oracles
from . import montecarlo as mc
from . import properties
from .network_model import (ConstraintMask, NetworkFormatError, NetworkSystem,
                            UnobservableSystemError, canonicalize,
                            load_network, perturbation_from_dict,
                            perturbation_to_dict, verify_unobservability)
from .radius_core import assemble_pencil, build_reduced
from .solver import GRIDS, SolverConfig, solve_fixed_lambda, solve_radius

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
        lam = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise CliInputError(f"--lambda expects 're,im', got {text!r}") from exc
    if not np.isfinite(lam):
        raise CliInputError(f"--lambda must be finite, got {text!r}")
    return lam


def _default_seed(args):
    """--seed, else NETOBS_SEED, else 0; a negative seed is an input error."""
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("NETOBS_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise CliInputError(f"NETOBS_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise CliInputError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _cfg(args):
    return SolverConfig(psi=args.psi, restarts=args.restarts, seed=_default_seed(args))


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(text, output):
    """Writes JSON text to stdout, or to the file output when one is named."""
    if output in (None, "-"):
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _result_payload(res):
    rec = res.reconstruction
    ver = res.verification
    return {
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


def _solve(args):
    """(network, result, RadiusResult) of the solve that radius and perturb
    ask for: at --lambda (no RadiusResult, None), else over --grid."""
    cfg = _cfg(args)
    net, mask = load_network(args.network)
    if args.lam is not None:
        return net, solve_fixed_lambda(net, mask, _parse_lambda(args.lam), cfg), None
    rr = solve_radius(net, mask, args.grid, cfg)
    return net, rr.best, rr


def cmd_radius(args):
    _, res, rr = _solve(args)
    if not res.converged:
        print(f"solver failed: {res.failure}", file=sys.stderr)
        return EXIT_SOLVER
    payload = _result_payload(res)
    # a fixed-lambda solve is a pencil search at one lambda
    payload["branch"] = "search" if rr is None else rr.branch
    if rr is not None:
        payload["search"] = {
            "grid": args.grid,
            "evaluated": [[lam.real, lam.imag, cost if np.isfinite(cost) else None]
                          for lam, cost in rr.search_trace],
            "pruned": rr.pruned,
            "refine_evals": rr.refine_evals,
        }
    _emit(_dumps(payload), args.output)
    return EXIT_OK


def cmd_perturb(args):
    net, res, _ = _solve(args)
    if not res.converged:
        print(f"solver failed: {res.failure}", file=sys.stderr)
        return EXIT_SOLVER
    ver = res.verification
    text = _dumps(perturbation_to_dict(res.perturbation, lam=res.lam, residuals={
        "r_eig": ver.r_eig, "r_out": ver.r_out, "smin": ver.smin}))
    # round-trip audit before anything is written: re-load and re-verify the
    # exact text that goes out, so a failed audit leaves no payload behind
    pert2, lam2 = perturbation_from_dict(json.loads(text))
    rep2 = verify_unobservability(net, pert2, lam2)
    drift = max(abs(rep2.r_eig - ver.r_eig), abs(rep2.r_out - ver.r_out),
                abs(rep2.smin - ver.smin))
    if drift > 1e-12:
        print(f"round-trip drift {drift:.3e} exceeds 1e-12", file=sys.stderr)
        return EXIT_SOLVER
    _emit(text, args.output)
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
    else:
        res = oracles.CLOSED_FORMS[kind](a)
    _emit(_dumps({
        "delta": res.delta,
        "lambda_star": [res.lambda_star.real, res.lambda_star.imag],
        "branch": res.branch,
        "perturbation": [[float(v) for v in row] for row in res.perturbation],
        "n_roots": res.n_roots,
    }), args.output)
    return EXIT_OK


def cmd_montecarlo(args):
    sizes = tuple(int(s) for s in args.sizes.split(","))
    spec = mc.EnsembleSpec(topology=args.topology, sizes=sizes,
                           trials=args.trials, seed=_default_seed(args))
    if args.out_prefix:
        paths = (args.out_prefix + "_records.csv", args.out_prefix + "_summary.csv")
        for path in paths:  # an unwritable prefix fails here, before the run
            open(path, "w").close()
    result = mc.estimate_expected_radius(spec, method=args.method, grid=args.grid)
    if args.out_prefix:
        mc.write_records_csv(result, paths[0])
        mc.write_summary_csv(result, paths[1])
        _emit(_dumps({"records": paths[0], "summary": paths[1], "valid": result.valid}), None)
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
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC8EC)))
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 9))
        kind = ("line", "star", "random")[int(rng.integers(3))]
        if kind == "random":
            a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        else:
            a = mc._DRAW[kind](n, rng)
        try:
            net = NetworkSystem(a, (0,))
        except (UnobservableSystemError, NetworkFormatError):
            continue
        mask = ConstraintMask.same_as_graph(net)
        out.append((net, mask, rng.uniform(-1, 1) + 1j * rng.uniform(0.1, 1)))
    return out


def _pencil_points(seed, count, tag):
    """Validate's instances as (reduced problem, x, y), with x and y drawn
    from a stream keyed by (seed, n, tag)."""
    for net, mask, lam in _mixed_instances(seed, count):
        rp = build_reduced(canonicalize(net, mask), lam)
        rng = np.random.default_rng(np.random.SeedSequence((seed, net.n, tag)))
        yield rp, rng.standard_normal(2 * rp.m), rng.standard_normal(2 * rp.n)


def _unit_pencils(seed, count, tag):
    for rp, x, y in _pencil_points(seed, count, tag):
        yield assemble_pencil(rp, x / np.linalg.norm(x), y / np.linalg.norm(y))


def _worst(residuals):
    """The largest residual and 0; None marks an instance that does not apply."""
    return max([0.0] + [r for r in residuals if r is not None])


def _line3_checks(seed, count=6):
    """Cost identity, cost bound and oracle agreement on 3-node chains solved
    at lambda = i; all inf when no solve converges."""
    cfg = SolverConfig(restarts=6, sweep_iters=15, seed=seed)
    rows = []
    for trial in range(count):
        net, mask, _ = mc.sample_network("line", 3, seed, trial)
        try:
            res, gap = properties.line3_oracle_gap(net, mask, 1j, cfg)
        except oracles.OracleFailure:
            continue
        if res.converged:
            rows.append((*properties.cost_identity_residuals(res.reconstruction), gap))
    if not rows:
        return np.inf, np.inf, np.inf
    return tuple(map(_worst, zip(*rows)))


def cmd_validate(args):
    seed = _default_seed(args)
    spectra = [r for r in map(properties.spectrum_residuals,
                              _unit_pencils(seed, 40, 0x5EC)) if r is not None]
    zero, imag, pair = map(_worst, zip((0.0, 0.0, 0.0), *spectra))
    shift = _worst(properties.shift_residual(pp, 0.9, 3)
                   for pp in _unit_pencils(seed, 10, 0x51F7))
    scaling = _worst(properties.weighting_scaling_residual(rp, x, y, 1.7)
                     for rp, x, y in _pencil_points(seed, 8, 0x5CA1))
    identity, bound, oracle_gap = _line3_checks(seed)
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=seed)
    real_route, topology = [], []
    for trial in range(4):
        net, mask, _ = mc.sample_network("line", 4, seed, trial)
        lam = complex(net.weights[-1, -1], 0.0)
        real_route.append(properties.real_route_gap(net, mask, lam, cfg))
    for kind in ("line", "star"):
        net, mask, _ = mc.sample_network(kind, 5, seed, 0)
        topology.append(properties.oracle_radius_gap(net, mask, kind, cfg)[1])
    checks = [
        ("pencil_zero_eigenvalue", zero, 1e-8),
        ("pencil_spectrum_real", imag, 1e-8),
        ("pencil_spectrum_pairing", pair, 1e-8),
        ("shift_relation", shift, 1e-8),
        ("weighting_quadratic_scaling", scaling, 1e-12),
        ("reconstruction_cost_identity", identity, 1e-6),
        ("reconstruction_cost_bound", bound, 1e-9),
        ("oracle_agreement_3node", oracle_gap, 1e-5),
        ("real_lambda_route_equivalence", _worst(real_route), 1e-8),
        ("topology_radius_agreement", _worst(topology), 1e-4),
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

    # radius and perturb take the same arguments
    for name, fn, about in (("radius", cmd_radius, "smallest unobservability perturbation"),
                            ("perturb", cmd_perturb, "export the optimal perturbation")):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("network")
        sp.add_argument("--lambda", dest="lam", default=None,
                        help="fixed eigenvalue 're,im'")
        sp.add_argument("--grid", choices=GRIDS, default="default",
                        help="lambda search grid")
        sp.add_argument("--psi", type=float, default=0.9)
        sp.add_argument("--restarts", type=int, default=8)
        sp.add_argument("--seed", type=int, default=None,
                        help="defaults to NETOBS_SEED or 0")
        sp.add_argument("--output", "-o", default=None, help="payload file, default stdout")
        sp.set_defaults(fn=fn)

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
    sp.add_argument("--grid", choices=GRIDS, default="topo")
    sp.add_argument("--out-prefix", default=None,
                    help="write PREFIX_records.csv and PREFIX_summary.csv")
    sp.set_defaults(fn=cmd_montecarlo)

    sp = sub.add_parser("validate", help="run the built-in property suite")
    sp.add_argument("--seed", type=int, default=None)
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
    except (oracles.OracleFailure, ValueError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
