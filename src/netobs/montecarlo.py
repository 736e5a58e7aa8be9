"""Random-weight ensemble experiments: expected radius curves and the
convergence study of the pencil solver against the 3-node oracle.

All weights are i.i.d. uniform on [0, 1]. Each trial owns an independent
seeded stream derived from (master_seed, size, trial, attempt), so runs are
reproducible and trials can execute in any order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import analytic_oracles as oracles
from .network_model import (ConstraintMask, NetworkSystem,
                            UnobservableSystemError)
from .solver import SolverConfig, solve_fixed_lambda, solve_radius

TOPOLOGIES = ("line", "star")
# draws of one trial before its seed stream is declared broken
_MAX_ATTEMPTS = 16


@dataclass(frozen=True)
class EnsembleSpec:
    topology: str
    sizes: tuple
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        sizes = tuple(int(s) for s in self.sizes)
        if any(s < 3 for s in sizes):
            raise ValueError("sizes must all be >= 3")
        object.__setattr__(self, "sizes", sizes)


def _draws(topology, n, master_seed, trial):
    """(attempt, A) for each of a trial's _MAX_ATTEMPTS draws, each from its
    own stream."""
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, n, trial, attempt)))
        yield attempt, _DRAW[topology](n, rng)


def _draw_line(n, rng):
    """Chain entries in a fixed order: diagonal, superdiagonal, subdiagonal."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = rng.uniform(size=n)
    a[idx[:-1], idx[:-1] + 1] = rng.uniform(size=n - 1)
    a[idx[:-1] + 1, idx[:-1]] = rng.uniform(size=n - 1)
    return a


def _draw_star(n, rng):
    """Star entries in a fixed order: diagonal, hub row spokes, hub column spokes."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = rng.uniform(size=n)
    a[0, 1:] = rng.uniform(size=n - 1)
    a[1:, 0] = rng.uniform(size=n - 1)
    return a


_DRAW = {"line": _draw_line, "star": _draw_star}


def _degenerate(topology, a):
    """Cheap structural degeneracy test used by the oracle fast path.

    Exact zeros or exact leaf self-loop ties have probability zero under the
    continuous distribution; they are resampled so the closed-form radius
    hypotheses hold, mirroring the observability rejection of the full path.
    """
    n = a.shape[0]
    # both topologies draw 3n - 2 entries: n self-loops and n - 1 links each way
    if np.count_nonzero(a) < 3 * n - 2:
        return True
    return topology == "star" and bool(np.any(np.diff(np.sort(np.diag(a)[1:])) == 0.0))


def sample_network(topology, n, master_seed=0, trial=0):
    """Draw one random instance, resampling on observability rejection.

    Returns (net, mask, attempts); attempts counts draws including the
    accepted one. The mask equals the graph itself (every existing edge may
    be perturbed).
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"topology must be one of {TOPOLOGIES}")
    for attempt, a in _draws(topology, n, master_seed, trial):
        try:
            net = NetworkSystem(a, (0,))
        except UnobservableSystemError:
            continue
        return net, ConstraintMask.same_as_graph(net), attempt + 1
    raise RuntimeError(f"{_MAX_ATTEMPTS} degenerate draws in a row; seed stream broken?")


@dataclass(frozen=True)
class TrialRecord:
    topology: str
    n: int
    trial: int
    delta: float
    method: str
    lambda_re: float
    lambda_im: float
    branch: str
    converged: bool
    oracle_delta: float | None = None  # solver runs carry the reference value
    failure: str | None = None         # a failed solver run's reason


@dataclass(frozen=True)
class SizeSummary:
    topology: str
    n: int
    trials: int
    included: int
    mean: float
    se: float
    bound_low: float
    bound_high: float
    exclusion_rate: float
    resamples: int
    mean_gap: float | None = None
    max_gap: float | None = None


@dataclass(frozen=True)
class EnsembleResult:
    spec: EnsembleSpec
    method: str
    records: tuple
    summaries: tuple
    samples: dict = field(repr=False)  # size -> ndarray of included delta values
    results: tuple = ()                # per converged solver trial when requested

    @property
    def valid(self):
        return all(s.exclusion_rate < 0.10 for s in self.summaries)


def _bounds_for(topology, n):
    if topology == "line":
        ref = 1.0 / n
        return ref, ref
    low = 1.0 / (np.sqrt(2.0) * n * (n - 1))
    high = 1.0 / (np.sqrt(2.0) * n * (n - 2))
    return low, high


def _oracle_trial(topology, n, master_seed, trial, grid):
    """Fast path: the closed-form radius straight from the drawn entries
    (grid is not read). (record, draws rejected, None)."""
    for attempt, a in _draws(topology, n, master_seed, trial):
        if not _degenerate(topology, a):
            break
    else:
        raise RuntimeError("persistent degenerate draws")
    res = oracles.CLOSED_FORMS[topology](a)
    record = TrialRecord(
        topology=topology, n=n, trial=trial, delta=res.delta, method="oracle",
        lambda_re=res.lambda_star.real, lambda_im=res.lambda_star.imag,
        branch=res.branch, converged=True)
    return record, attempt, None


def _solver_trial(topology, n, master_seed, trial, grid):
    """The full pencil search on a sampled instance, with the closed form as
    its reference: (record, draws rejected, RadiusResult). The record names
    the answer's branch (RadiusResult.branch). A failed solve keeps its
    record, with a NaN delta and lambda and the solve's failure."""
    net, mask, attempts = sample_network(topology, n, master_seed, trial)
    oracle = oracles.CLOSED_FORMS[topology](net.weights)
    cfg = SolverConfig(restarts=4, sweep_iters=12, seed=master_seed)
    rr = solve_radius(net, mask, grid, cfg)
    ok = rr.best.converged
    lam = rr.lambda_star if ok else complex(np.nan)
    record = TrialRecord(
        topology=topology, n=n, trial=trial, delta=rr.cost if ok else np.nan,
        method="solver", lambda_re=lam.real, lambda_im=lam.imag,
        branch=rr.branch, converged=ok, oracle_delta=oracle.delta,
        failure=rr.best.failure)
    return record, attempts - 1, rr


_TRIALS = {"oracle": _oracle_trial, "solver": _solver_trial}


def estimate_expected_radius(spec: EnsembleSpec, method="oracle", grid="topo",
                             keep_results=False) -> EnsembleResult:
    """Per-size mean radius with standard errors and the analytic bounds.

    method="oracle" evaluates the closed-form radius directly on the drawn
    entries (_oracle_trial). method="solver" runs the full pencil search on
    each instance, with SolverConfig(restarts=4, sweep_iters=12,
    seed=spec.seed), and records the per-trial gap to the oracle
    (_solver_trial); failed solves are excluded and the exclusion rate must
    stay below 10% for the result to count as valid.

    Every trial gives one TrialRecord, failed ones included, and each size's
    summary and samples are read from its records and rejected-draw counts
    alone. keep_results keeps the RadiusResult of each converged solver
    trial; the oracle method has none.
    """
    if method not in _TRIALS:
        raise ValueError("method must be 'oracle' or 'solver'")
    records = []
    summaries = []
    samples = {}
    kept = []
    for n in spec.sizes:
        trials = [_TRIALS[method](spec.topology, n, spec.seed, trial, grid)
                  for trial in range(spec.trials)]
        records += [rec for rec, _, _ in trials]
        included = [rec for rec, _, _ in trials if rec.converged]
        arr = np.asarray([rec.delta for rec in included], dtype=float)
        gaps = [r.delta - r.oracle_delta for r in included if r.oracle_delta is not None]
        if keep_results:
            kept += [rr for rec, _, rr in trials if rec.converged and rr is not None]
        low, high = _bounds_for(spec.topology, n)
        summaries.append(SizeSummary(
            topology=spec.topology, n=n, trials=spec.trials, included=int(arr.size),
            mean=float(arr.mean()) if arr.size else np.nan,
            se=float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else np.nan,
            bound_low=low, bound_high=high,
            exclusion_rate=(spec.trials - arr.size) / spec.trials,
            resamples=sum(rejected for _, rejected, _ in trials),
            mean_gap=float(np.mean(np.abs(gaps))) if gaps else None,
            max_gap=float(np.max(np.abs(gaps))) if gaps else None))
        samples[n] = arr
    return EnsembleResult(spec=spec, method=method, records=tuple(records),
                          summaries=tuple(summaries), samples=samples,
                          results=tuple(kept))


def dkw_epsilon(n_samples, alpha):
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz confidence band."""
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n_samples)))


def survival_deviation(samples, survival):
    """Sup distance between the empirical CDF and 1 - survival(x).

    Evaluated at the sample points from both sides, where the sup of the
    difference against a continuous reference is attained.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    cdf = 1.0 - survival(x)
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    return float(max(hi, lo))


@dataclass(frozen=True)
class ConvergenceResult:
    iterations: int
    mean_gap: np.ndarray       # mean ||Delta_i - Delta_star||_F per iteration
    std_gap: np.ndarray
    final_gaps: np.ndarray     # per converged trial
    n_trials: int
    n_used: int
    oracle_failures: int
    solver_failures: int
    results: tuple = ()        # per-trial FixedLambdaResult when requested
    trials: tuple = ()         # the trial index of each of results

    @property
    def convergence_rate(self):
        return self.n_used / self.n_trials


def convergence_experiment(n_trials=100, lam=1j, master_seed=7,
                           cfg: SolverConfig | None = None,
                           keep_results=False) -> ConvergenceResult:
    """Gap between the solver iterates and the exact 3-node chain solution.

    Random 3-node chains, fixed complex eigenvalue. Traces are padded with
    each trial's final perturbation so every iteration index averages over
    the same number of runs. Trials where the oracle or the solver fails are
    excluded and counted.
    """
    lam = complex(lam)
    if cfg is None:
        # 12 restarts: the 3-node complex-eigenvalue problem has local minima
        # that trap roughly 1 run in 12 at lower restart counts
        cfg = SolverConfig(restarts=12, sweep_iters=15, seed=master_seed,
                           keep_delta_trace=True)
    elif not cfg.keep_delta_trace:
        raise ValueError("convergence experiment needs keep_delta_trace=True")
    traces = []
    final_gaps = []
    kept = []
    oracle_failures = 0
    solver_failures = 0
    for trial in range(n_trials):
        net, mask, _ = sample_network("line", 3, master_seed, trial)
        try:
            ora = oracles.line3_optimal(net.weights, lam)
        except (oracles.OracleFailure, ValueError):
            oracle_failures += 1
            continue
        res = solve_fixed_lambda(net, mask, lam, cfg)
        if not res.converged or not res.delta_trace:
            solver_failures += 1
            continue
        # gap statistics cover the convergent (polish) phase; the sweep that
        # precedes it is basin exploration and does not contract
        trace = res.delta_trace[res.polish_start:]
        gaps = [float(np.linalg.norm(d - ora.perturbation)) for d in trace]
        traces.append(gaps)
        final_gaps.append(gaps[-1])
        if keep_results:
            kept.append((trial, res))
    if not traces:
        raise RuntimeError("no trial produced a usable trace")
    length = max(len(t) for t in traces)
    padded = np.array([t + [t[-1]] * (length - len(t)) for t in traces])
    return ConvergenceResult(
        iterations=length,
        mean_gap=padded.mean(axis=0),
        std_gap=padded.std(axis=0),
        final_gaps=np.asarray(final_gaps),
        n_trials=n_trials,
        n_used=len(traces),
        oracle_failures=oracle_failures,
        solver_failures=solver_failures,
        results=tuple(res for _, res in kept),
        trials=tuple(trial for trial, _ in kept))


# ---------------------------------------------------------------------------
# CSV emission


RECORD_COLUMNS = ("topology", "n", "trial", "delta", "method",
                  "lambda_re", "lambda_im", "branch", "converged")

SUMMARY_COLUMNS = ("topology", "n", "trials", "included", "mean", "se",
                   "bound_low", "bound_high", "exclusion_rate", "resamples",
                   "mean_gap", "max_gap")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_records_csv(result: EnsembleResult, path):
    _write_csv(path, RECORD_COLUMNS,
               ([_fmt(getattr(r, c)) for c in RECORD_COLUMNS] for r in result.records))


def write_summary_csv(result: EnsembleResult, path):
    _write_csv(path, SUMMARY_COLUMNS,
               ([_fmt(getattr(s, c)) for c in SUMMARY_COLUMNS] for s in result.summaries))


def write_convergence_csv(result: ConvergenceResult, path):
    _write_csv(path, ("iteration", "mean_gap", "std_gap"),
               ((i + 1, _fmt(float(result.mean_gap[i])), _fmt(float(result.std_gap[i])))
                for i in range(result.iterations)))
