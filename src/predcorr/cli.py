"""Configuration-driven experiment runner.

Three commands, each taking ``--config`` (a file path or a bundled preset
name):

run     execute every configured solver on the first grid entry and write
        one trace CSV per solver
sweep   execute every solver over the whole (h, steps) grid, write tail
        statistics and fitted log-log order slopes
check   run the configured empirical bound checks and report pass/fail

Exit codes: 0 success, 1 usage or configuration error, 2 divergence without
--allow-divergence, 3 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from . import analysis
from .config import (
    ConfigError,
    ExperimentConfig,
    available_presets,
    build_problem,
    build_x0,
    check_seed,
    load_dataset,
    resolve_configs,
    resolve_steps,
)
from .core import MissingOracleError, ProblemOracle, TimeGrid, finite_difference_check, require
from .problems import make_linreg, make_mf, make_robust, make_toy
from .ratings import RatingsDataset, synth_ratings
from .solvers import ALGORITHMS, CP, FOA_MIN, TVGD, SolverConfig, Trace, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3

GRAD_TOL = 1e-6
HESS_TOL = 1e-4

TRACE_HEADER = "k,t,f_pred,grad_norm,gap,pred_seconds,corr_seconds,diverged"
SWEEP_HEADER = "h,solver,max_grad,mean_grad,max_gap,mean_gap"
SLOPES_HEADER = "solver,stat,slope,intercept,max_abs_residual"
CHECKS_HEADER = "check,target,status,value,detail"


def _fmt(v: Optional[float]) -> str:
    """Render a float with 17 significant digits (binary round-trip exact)."""
    if v is None:
        return "nan"
    return format(float(v), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file and a rename; an OS error becomes a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def trace_csv(trace: Trace, live_timing: bool) -> str:
    """Serialize a trace row-per-step.  With deterministic timing (the
    default) the timing columns are written as zero so identical configs
    produce byte-identical files; measured times stay on the Trace."""
    lines = [TRACE_HEADER]
    n = len(trace)
    gaps = trace.gap
    for k in range(n):
        div = 1 if (trace.diverged and k == n - 1) else 0
        pred_s = trace.pred_seconds[k] if live_timing else 0.0
        corr_s = trace.corr_seconds[k] if live_timing else 0.0
        gap = gaps[k] if gaps is not None else None
        lines.append(
            f"{k},{_fmt(trace.t[k])},{_fmt(trace.f_pred[k])},{_fmt(trace.grad_norm[k])},"
            f"{_fmt(gap)},{_fmt(pred_s)},{_fmt(corr_s)},{div}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Per-command set-up and run jobs (top-level so a process pool can pickle them)
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    """What every command needs before its first solver step."""

    dataset: Optional[RatingsDataset]
    problem: ProblemOracle                 # built at the first period
    grid: list[tuple[float, int]]          # step counts resolved
    x0: np.ndarray
    n_jobs: int                            # processes for the solver runs


def _setup(config: ExperimentConfig, args, solvers: list[SolverConfig], oracles=()) -> Setup:
    """Load the dataset once, build the first-period problem and x0.  A
    missing oracle, one of ``oracles`` or one that a solver in ``solvers``
    calls, is refused here, before x0 and before any run."""
    dataset = load_dataset(config, args.ratings)
    problem = build_problem(config, dataset, h=config.grid[0][0])
    require(problem, *oracles)
    for solver in solvers:
        require(problem, *ALGORITHMS[solver.algorithm][1])
    x0 = build_x0(config, problem)
    return Setup(dataset, problem, resolve_steps(config, dataset), x0, args.jobs)


@dataclass
class RunJob:
    config: ExperimentConfig
    dataset: Optional[RatingsDataset]
    solver: SolverConfig
    h: float
    steps: int
    x0: np.ndarray
    gap: Optional[bool]                    # compute_gap of the run
    f_corr: bool = False                   # record_f_corr of the run


def _execute(job: RunJob) -> Trace:
    problem = build_problem(job.config, job.dataset, h=job.h)
    # An overflow ends in a non-finite value or iterate: a reported divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        return run(
            problem, job.solver, TimeGrid(job.h, job.steps), job.x0,
            compute_gap=job.gap, record_f_corr=job.f_corr,
        )


def _execute_all(jobs: list[RunJob], n_jobs: int, fn=_execute) -> Iterator:
    """Yield ``fn(job)`` for each job, in job order, as it finishes.  ``fn``
    is a module-level function, so a process pool can pickle it, and what it
    returns is all that travels back from a worker."""
    if n_jobs <= 1 or len(jobs) <= 1:
        yield from map(fn, jobs)
    else:
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs))) as pool:
            yield from pool.map(fn, jobs)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _out_dir(config: ExperimentConfig, args, multi: bool) -> Path:
    base = Path(args.out) if args.out else Path(config.out)
    return base / config.source if (multi and config.source) else base


def cmd_run(config: ExperimentConfig, args, multi: bool) -> int:
    setup = _setup(config, args, config.solvers)
    h, steps = setup.grid[0]
    jobs = [
        RunJob(config, setup.dataset, s, h, steps, setup.x0, config.gap_flag())
        for s in config.solvers
    ]
    out = _out_dir(config, args, multi)
    any_diverged = False
    for trace in _execute_all(jobs, setup.n_jobs):
        path = out / f"{trace.label}.csv"
        _write_atomic(path, trace_csv(trace, live_timing=config.timing == "live"))
        status = f"diverged at step {trace.diverged_step}" if trace.diverged else "ok"
        any_diverged |= trace.diverged
        print(
            f"[run] {trace.label:<14} h={h:<8g} steps={steps:<8d} {status:<22} "
            f"mean corr {np.mean(trace.corr_seconds):.2e}s  "
            f"mean pred {np.mean(trace.pred_seconds):.2e}s -> {path}"
        )
    if any_diverged and not args.allow_divergence:
        print("[run] divergence detected (use --allow-divergence to accept)", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _tail(trace: Trace) -> tuple[bool, Optional[analysis.TailStats]]:
    """Whether a run diverged, and its tail statistics when it has them."""
    usable = not trace.diverged and len(trace) >= 2
    return trace.diverged, analysis.tail_stats(trace) if usable else None


def _execute_tail(job: RunJob) -> tuple[bool, Optional[analysis.TailStats]]:
    return _tail(_execute(job))


def cmd_sweep(config: ExperimentConfig, args, multi: bool) -> int:
    if len(config.grid) < 3:
        print("[sweep] warning: fewer than 3 grid points; slopes are not fitted", file=sys.stderr)
    setup = _setup(config, args, config.solvers)
    jobs = [
        RunJob(config, setup.dataset, s, h, steps, setup.x0, config.gap_flag())
        for s in config.solvers
        for (h, steps) in setup.grid
    ]
    out = _out_dir(config, args, multi)
    lines = [SWEEP_HEADER]
    table: dict[str, dict[float, Optional[analysis.TailStats]]] = {}
    any_diverged = False
    for (diverged, t), job in zip(_execute_all(jobs, setup.n_jobs, _execute_tail), jobs):
        any_diverged |= diverged
        table.setdefault(job.solver.label, {})[job.h] = t
        lines.append(
            f"{_fmt(job.h)},{job.solver.label},"
            f"{_fmt(t.max_grad) if t else 'nan'},{_fmt(t.mean_grad) if t else 'nan'},"
            f"{_fmt(t.max_gap if t else None)},{_fmt(t.mean_gap if t else None)}"
        )
    _write_atomic(out / "sweep.csv", "\n".join(lines) + "\n")

    slope_lines = [SLOPES_HEADER]
    print(f"[sweep] {config.problem}: fitted log-log orders")
    for label, stat, fit in analysis.summarize_sweep(table):
        slope_lines.append(
            f"{label},{stat},{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.max_abs_residual)}"
        )
        print(f"  {label:<14} {stat:<10} slope {fit.slope:+.3f}  (residual {fit.max_abs_residual:.2e})")
    _write_atomic(out / "slopes.csv", "\n".join(slope_lines) + "\n")
    print(f"[sweep] wrote {out / 'sweep.csv'} and {out / 'slopes.csv'}")

    if any_diverged and not args.allow_divergence:
        print("[sweep] divergence detected (use --allow-divergence to accept)", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _fd_problem_suite():
    small = synth_ratings(n_users=12, n_items=9, n_ratings=300, latent_dim=3, noise_sd=0.2, seed=1)
    return [
        make_toy(),
        make_linreg("linreg_static"),
        make_linreg("linreg_drift"),
        make_robust("robust_gm"),
        make_robust("robust_welsch"),
        make_mf(small, latent_dim=3, reg=0.01, reveal_per_step=5, initial_revealed=50),
    ]


def check_gradients(config: ExperimentConfig, setup) -> list[tuple]:
    outcomes = []
    for problem in _fd_problem_suite():
        rep = finite_difference_check(problem, samples=8, seed=config.seed)
        ok = rep.grad_x_max_rel < GRAD_TOL
        detail = f"grad {rep.grad_x_max_rel:.2e}"
        if rep.hess_xx_max_rel is None:
            detail += " (absent: hess_xx)"
        else:
            ok &= rep.hess_xx_max_rel < HESS_TOL
            detail += f" hess {rep.hess_xx_max_rel:.2e}"
        outcomes.append((problem.name, ok, rep.grad_x_max_rel, detail))
    return outcomes


def check_pl_envelope(config: ExperimentConfig, solver: SolverConfig, runs) -> tuple:
    ((h, steps, trace),) = runs
    g2 = config.g2(trace.f_pred)
    cst = dataclasses.replace(config.constants, G2=g2)
    viol = analysis.check_tvgd_pl_envelope(trace, cst, TimeGrid(h, steps))
    scale = abs(trace.gap[0]) + analysis.envelope_limit(cst, h)
    return viol <= analysis.bound_tol(scale), viol, f"G2={g2:.3g}"


def check_post_convergence(config: ExperimentConfig, solver: SolverConfig, runs) -> tuple:
    ((h, _, trace),) = runs
    cst = dataclasses.replace(config.constants, G2=config.g2(trace.f_pred))
    thr = analysis.stationarity_threshold(
        solver.algorithm, cst, h, zeta=solver.zeta, delta=solver.delta
    )
    rep = analysis.check_post_convergence(
        trace, thr, cst, h, solver.algorithm, zeta=solver.zeta, delta=solver.delta
    )
    detail = (
        f"threshold {thr:.4g}, first crossing {rep.first_crossing}, "
        f"{len(rep.violations)} violations / {rep.checked} checked"
    )
    if not rep.converged:
        detail = f"threshold {thr:.4g} never crossed"
    return rep.ok, float(len(rep.violations)), detail


# Expected prediction-gap ratio under period halving: first order for the
# gradient-only solver, second order for the normalized-step predictors.
_RATIO_WINDOWS = {TVGD: (1.6, 2.4), FOA_MIN: (3.0, 5.0), CP: (3.0, 5.0)}


def check_prediction_gap(config: ExperimentConfig, solver: SolverConfig, runs) -> tuple:
    """Compare the largest prediction increases of the runs at h and h/2."""
    (h, _, coarse), (h_fine, _, fine) = runs
    rep = analysis.check_prediction_gap(coarse, fine)
    lo, hi = _RATIO_WINDOWS[solver.algorithm]
    detail = (
        f"max increase {rep.increase_coarse:.3e} (h={h:g}) vs "
        f"{rep.increase_fine:.3e} (h={h_fine:g}), window [{lo}, {hi}]"
    )
    return lo <= rep.ratio <= hi, rep.ratio, detail


def check_lipschitz_optimum(config: ExperimentConfig, setup: Setup) -> list[tuple]:
    g2 = config.constants.G2
    h, steps = setup.grid[0]
    viol = analysis.check_lipschitz_optimum(setup.problem, TimeGrid(h, steps), g2)
    ok = viol <= analysis.bound_tol(g2 * h)
    return [(config.problem, ok, viol, f"G2={g2:g}")]


def check_ratio_bound(config: ExperimentConfig, setup) -> list[tuple]:
    worst = analysis.ratio_bound_selftest(trials=config.trials, seed=config.seed)
    return [(f"{config.trials} trials", worst <= analysis.ABS_TOL, worst, "")]


@dataclass(frozen=True)
class Check:
    """One row of the check table.  A check runs every configured solver of
    an algorithm in ``solvers`` and needs one; ``cmd_check`` refuses a
    config that lacks anything a planned row needs before any run."""

    # With solvers: (config, solver, [(h, steps, trace), ...]) -> (passed, value,
    # detail), per solver and ``periods`` group.  Without: (config, setup) ->
    # [(target, passed, value, detail), ...].
    measure: Callable
    solvers: dict = field(default_factory=dict)  # algorithm -> constants its bound reads
    constants: tuple = ()        # read as set in the config: a G2 rule does not count
    beta_rule: bool = False      # the bound holds for beta = 1/L1 only, so L1 is read
    oracles: tuple = ()          # problem oracles read besides the solvers' own
    min_steps: int = 1           # the fewest steps of the first period
    periods: str = ""            # each measure reads one run at every grid period,
                                 # at the first, or at the first and its half
    stream: bool = True          # False: refused on a ratings stream, which
                                 # reveals the same ratings per step whatever h is


CHECKS = {
    "gradients": Check(check_gradients),
    "lipschitz_optimum": Check(check_lipschitz_optimum, constants=("G2",), oracles=("optimum",)),
    "pl_envelope": Check(
        check_pl_envelope, {TVGD: ("mu", "L1", "G2")}, beta_rule=True, oracles=("optimum",),
        periods="every",
    ),
    "post_convergence": Check(
        check_post_convergence, {TVGD: ("L1", "G2"), FOA_MIN: ("L1", "L2", "L3")},
        beta_rule=True, oracles=("optimum",), periods="first",
    ),
    "prediction_gap": Check(
        check_prediction_gap, dict.fromkeys(_RATIO_WINDOWS, ()), min_steps=2,
        periods="halved", stream=False,
    ),
    "ratio_bound": Check(check_ratio_bound),
}


def _require_constants(config: ExperimentConfig, who: str, keys, g2_rule=True) -> None:
    """Refuse the config unless it sets every constant in ``keys``; with
    ``g2_rule`` the problem's rule for G2 stands in for a set G2."""
    constants = config.constants
    missing = [
        key for key in keys
        if (not config.has_g2() if key == "G2" and g2_rule else getattr(constants, key) is None)
    ]
    if missing:
        keys = "=, ".join(missing)
        raise ConfigError(f"{who} needs constants {', '.join(missing)} (set {keys}=)")


def _select(name: str, row: Check, config: ExperimentConfig) -> list[SolverConfig]:
    """The solvers check ``name`` runs; a config it cannot run on is refused."""
    _require_constants(config, name, row.constants, g2_rule=False)
    solvers = [s for s in config.solvers if s.algorithm in row.solvers]
    if row.solvers and not solvers:
        raise ConfigError(
            f"{name} needs a [solver ...] section with algorithm = {' or '.join(row.solvers)}"
        )
    L1 = config.constants.L1
    for solver in solvers:
        _require_constants(config, f"{name} on {solver.label}", row.solvers[solver.algorithm])
        if row.beta_rule and abs(solver.beta * L1 - 1.0) > 1e-9:
            raise ConfigError(
                f"{name}: {solver.label} has beta = {solver.beta}, but the bound holds "
                f"for beta = 1/L1 = {1.0 / L1}"
            )
    return solvers


def _groups(row: Check, grid) -> list[list[tuple[float, int]]]:
    """The (h, steps) of the runs of one solver that each measure reads."""
    first, (h, steps) = grid[:1], grid[0]
    return {"every": [[period] for period in grid], "first": [first],
            "halved": [first + [(h / 2, steps)]]}.get(row.periods, [])


def cmd_check(config: ExperimentConfig, args, multi: bool) -> int:
    if not config.checks:
        raise ConfigError("check command needs a 'checks = ...' key in [experiment]")
    # Every configuration a check refuses is refused before any solver runs.
    rows = [(name, CHECKS[name]) for name in config.checks]
    plan = [_select(name, row, config) for name, row in rows]
    setup = None
    if any(row.solvers or row.oracles for _, row in rows):
        planned = [solver for solvers in plan for solver in solvers]
        oracles = sorted({oracle for _, row in rows for oracle in row.oracles})
        setup = _setup(config, args, planned, oracles)
        h, steps = setup.grid[0]
        for name, row in rows:
            if steps < row.min_steps:
                raise ConfigError(
                    f"{name} needs at least {row.min_steps} steps at h = {h:g}, got {steps}"
                )
            if not row.stream and setup.dataset is not None:
                raise ConfigError(
                    f"{name} is not defined on {config.problem}: the ratings stream "
                    "reveals the same ratings per step at h and h/2"
                )
            for period in (p for group in _groups(row, setup.grid) for p, _ in group):
                if not period > 0:   # h/2 of the least subnormal h
                    raise ConfigError(f"{name} would run at h = {period:g}, which is not > 0")

    outcomes = []    # (check, target, passed, value, detail)
    for (name, row), solvers in zip(rows, plan):
        if not row.solvers:
            outcomes += [(name, *outcome) for outcome in row.measure(config, setup)]
            continue
        # A row that reads the optimum records gaps; a halved period, f_corr.
        measured = [(solver, group) for group in _groups(row, setup.grid) for solver in solvers]
        traces = _execute_all([
            RunJob(config, setup.dataset, solver, h, steps, setup.x0,
                   gap="optimum" in row.oracles, f_corr=row.periods == "halved")
            for solver, group in measured for h, steps in group
        ], setup.n_jobs)
        for solver, group in measured:
            runs = [(h, steps, next(traces)) for h, steps in group]
            target = solver.label + (f"@h={group[0][0]:g}" if row.periods == "every" else "")
            diverged = [(h, trace) for h, _, trace in runs if trace.diverged]
            if diverged:
                h, trace = diverged[0]
                detail = f"run diverged at step {trace.diverged_step} (h={h:g})"
                outcomes.append((name, target, False, math.nan, detail))
            else:
                outcomes.append((name, target, *row.measure(config, solver, runs)))

    out = _out_dir(config, args, multi)
    lines = [CHECKS_HEADER]
    all_ok = True
    for check, target, passed, value, detail in outcomes:
        all_ok &= passed
        status = "pass" if passed else "FAIL"
        lines.append(f"{check},{target},{status},{_fmt(value)},{detail}")
        print(f"[check] {status:<4} {check:<18} {target:<22} value={value:.3e}  {detail}")
    _write_atomic(out / "checks.csv", "\n".join(lines) + "\n")
    print(f"[check] wrote {out / 'checks.csv'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError (exit 1, one line)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="predcorr",
        description="Prediction-correction solvers for time-varying smooth optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run each configured solver once and write trace CSVs"),
        ("sweep", "run solvers over the h-grid and fit order slopes"),
        ("check", "run the configured empirical bound checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="config file path or preset name "
                            f"({', '.join(available_presets())})")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs (processes)")
        p.add_argument("--allow-divergence", action="store_true",
                       help="exit 0 even when a run diverges")
        p.add_argument("--ratings", default=None, help="ratings file (mf_file problems)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        configs = resolve_configs(args.config)
        for config in configs:
            for name in config.checks:
                if name not in CHECKS:
                    raise ConfigError(f"unknown check {name!r}; expected one of {tuple(CHECKS)}")
        if args.seed is not None:
            check_seed("--seed", args.seed)
            for c in configs:
                c.seed = args.seed
        command = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check}[args.command]
        multi = len(configs) > 1
        worst = EXIT_OK
        for config in configs:
            if config.source and multi:
                print(f"=== {config.source} ===")
            worst = max(worst, command(config, args, multi))
        return worst
    except (ConfigError, MissingOracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
