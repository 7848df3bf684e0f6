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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
from .core import MissingOracleError, ProblemOracle, TimeGrid, finite_difference_check
from .problems import make_linreg, make_mf, make_robust, make_toy
from .ratings import RatingsDataset, synth_ratings
from .solvers import CP, FOA_MIN, TVGD, SolverConfig, Trace, run

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


def _setup(config: ExperimentConfig, args) -> Setup:
    """Load the dataset once, build the first-period problem and x0."""
    dataset = load_dataset(config, args.ratings)
    problem = build_problem(config, dataset, h=config.grid[0][0])
    return Setup(dataset, problem, resolve_steps(config, dataset), build_x0(config, problem))


@dataclass
class RunJob:
    config: ExperimentConfig
    dataset: Optional[RatingsDataset]
    solver: SolverConfig
    h: float
    steps: int
    x0: np.ndarray
    keep_rows: bool


@dataclass
class RunResult:
    label: str
    h: float
    steps: int
    diverged: bool
    diverged_step: Optional[int]
    mean_pred_seconds: float
    mean_corr_seconds: float
    tail: Optional[analysis.TailStats]
    trace: Optional[Trace]


def _execute(job: RunJob) -> RunResult:
    problem = build_problem(job.config, job.dataset, h=job.h)
    grid = TimeGrid(job.h, job.steps)
    gap = job.config.gap_flag()
    trace = run(problem, job.solver, grid, job.x0, compute_gap=gap, store_iterates=False)
    tail = analysis.tail_stats(trace) if not trace.diverged and len(trace) >= 2 else None
    return RunResult(
        label=job.solver.label,
        h=job.h,
        steps=job.steps,
        diverged=trace.diverged,
        diverged_step=trace.diverged_step,
        mean_pred_seconds=float(np.mean(trace.pred_seconds)),
        mean_corr_seconds=float(np.mean(trace.corr_seconds)),
        tail=tail,
        trace=trace if job.keep_rows else None,
    )


def _execute_all(jobs: list[RunJob], n_jobs: int) -> list[RunResult]:
    if n_jobs <= 1 or len(jobs) <= 1:
        return [_execute(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(_execute, jobs))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _out_dir(config: ExperimentConfig, args, multi: bool) -> Path:
    base = Path(args.out) if args.out else Path(config.out)
    return base / config.source if (multi and config.source) else base


def cmd_run(config: ExperimentConfig, args, multi: bool) -> int:
    setup = _setup(config, args)
    h, steps = setup.grid[0]
    jobs = [
        RunJob(config, setup.dataset, s, h, steps, setup.x0, keep_rows=True)
        for s in config.solvers
    ]
    results = _execute_all(jobs, args.jobs)

    out = _out_dir(config, args, multi)
    any_diverged = False
    for res in results:
        path = out / f"{res.label}.csv"
        _write_atomic(path, trace_csv(res.trace, live_timing=config.timing == "live"))
        status = f"diverged at step {res.diverged_step}" if res.diverged else "ok"
        any_diverged |= res.diverged
        print(
            f"[run] {res.label:<14} h={res.h:<8g} steps={res.steps:<8d} {status:<22} "
            f"mean corr {res.mean_corr_seconds:.2e}s  mean pred {res.mean_pred_seconds:.2e}s "
            f"-> {path}"
        )
    if any_diverged and not args.allow_divergence:
        print("[run] divergence detected (use --allow-divergence to accept)", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(config: ExperimentConfig, args, multi: bool) -> int:
    if len(config.grid) < 3:
        print("[sweep] warning: fewer than 3 grid points; slopes are not fitted", file=sys.stderr)
    setup = _setup(config, args)
    jobs = [
        RunJob(config, setup.dataset, s, h, steps, setup.x0, keep_rows=False)
        for s in config.solvers
        for (h, steps) in setup.grid
    ]
    results = _execute_all(jobs, args.jobs)

    out = _out_dir(config, args, multi)
    lines = [SWEEP_HEADER]
    any_diverged = False
    for res in results:
        any_diverged |= res.diverged
        t = res.tail
        lines.append(
            f"{_fmt(res.h)},{res.label},"
            f"{_fmt(t.max_grad) if t else 'nan'},{_fmt(t.mean_grad) if t else 'nan'},"
            f"{_fmt(t.max_gap if t else None)},{_fmt(t.mean_gap if t else None)}"
        )
    _write_atomic(out / "sweep.csv", "\n".join(lines) + "\n")

    table: dict[str, dict[float, analysis.TailStats]] = {}
    for res in results:
        table.setdefault(res.label, {})[res.h] = res.tail
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

@dataclass
class CheckOutcome:
    check: str
    target: str
    passed: bool
    value: float
    detail: str = ""


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


def check_gradients(config: ExperimentConfig, setup: Optional[Setup]) -> list[CheckOutcome]:
    outcomes = []
    for problem in _fd_problem_suite():
        rep = finite_difference_check(problem, samples=8, seed=config.seed)
        worst = rep.grad_x_max_rel
        ok = rep.grad_x_max_rel < GRAD_TOL
        detail = f"grad {rep.grad_x_max_rel:.2e}"
        if rep.grad_t_max_rel is not None:
            ok &= rep.grad_t_max_rel < GRAD_TOL
            worst = max(worst, rep.grad_t_max_rel)
            detail += f" grad_t {rep.grad_t_max_rel:.2e}"
        if rep.hess_xx_max_rel is not None:
            ok &= rep.hess_xx_max_rel < HESS_TOL
            detail += f" hess {rep.hess_xx_max_rel:.2e}"
        if rep.absent:
            detail += f" (absent: {','.join(rep.absent)})"
        outcomes.append(CheckOutcome("gradients", problem.name, ok, worst, detail))
    return outcomes


def _trace_for_check(problem, solver, h, steps, x0, gap, store=False) -> Trace:
    return run(problem, solver, TimeGrid(h, steps), x0, compute_gap=gap, store_iterates=store)


def _diverged(check: str, target: str, trace: Trace, h: float) -> CheckOutcome:
    """A failed check whose own solver run diverged: nothing to measure."""
    detail = f"run diverged at step {trace.diverged_step} (h={h:g})"
    return CheckOutcome(check, target, False, math.nan, detail)


def _require_beta_one_over_l1(check: str, solver: SolverConfig, L1: float) -> None:
    """Refuse a solver whose correction step is not 1/L1: the bound the
    check certifies is stated for that step, the one with the most descent."""
    if abs(solver.beta * L1 - 1.0) > 1e-9:
        raise ConfigError(
            f"{check}: {solver.label} has beta = {solver.beta}, but the bound holds "
            f"for beta = 1/L1 = {1.0 / L1}"
        )


def check_pl_envelope(config: ExperimentConfig, setup: Setup) -> list[CheckOutcome]:
    solvers = [s for s in config.solvers if s.algorithm == TVGD]
    if not solvers:
        raise ConfigError("pl_envelope needs a [solver ...] section with algorithm = tvgd")
    constants = config.constants
    if not constants.mu or constants.L1 is None:
        raise ConfigError("pl_envelope needs constants mu > 0 and L1 (set keys mu=, L1=)")
    outcomes = []
    for h, steps in setup.grid:
        problem = (
            setup.problem if h == config.grid[0][0]
            else build_problem(config, setup.dataset, h=h)
        )
        for solver in solvers:
            trace = _trace_for_check(problem, solver, h, steps, setup.x0, gap=True)
            target = f"{solver.label}@h={h:g}"
            if trace.diverged:
                outcomes.append(_diverged("pl_envelope", target, trace, h))
                continue
            g2 = config.g2(trace.f_pred)
            if g2 is None:
                raise ConfigError("pl_envelope needs constants G2 (set key G2=)")
            _require_beta_one_over_l1("pl_envelope", solver, constants.L1)
            cst = analysis.ProblemConstants(L1=constants.L1, mu=constants.mu, G2=g2)
            viol = analysis.check_tvgd_pl_envelope(trace, cst, TimeGrid(h, steps))
            scale = abs(trace.gap[0]) + analysis.envelope_limit(cst, h)
            ok = viol <= analysis.bound_tol(scale)
            outcomes.append(CheckOutcome("pl_envelope", target, ok, viol, f"G2={g2:.3g}"))
    return outcomes


def check_post_convergence_cmd(config: ExperimentConfig, setup: Setup) -> list[CheckOutcome]:
    solvers = [s for s in config.solvers if s.algorithm in (TVGD, FOA_MIN)]
    if not solvers:
        raise ConfigError("post_convergence needs a tvgd or foa_min solver section")
    h, steps = setup.grid[0]
    outcomes = []
    for solver in solvers:
        trace = _trace_for_check(setup.problem, solver, h, steps, setup.x0, gap=True)
        if trace.diverged:
            outcomes.append(_diverged("post_convergence", solver.label, trace, h))
            continue
        cst = dataclasses.replace(config.constants, G2=config.g2(trace.f_pred))
        needed = ("L1", "G2") if solver.algorithm == TVGD else ("L1", "L2", "L3")
        missing = [key for key in needed if getattr(cst, key) is None]
        if missing:
            raise ConfigError(
                f"post_convergence on {solver.label} needs constants {', '.join(missing)} "
                f"(set keys {'=, '.join(missing)}=)"
            )
        _require_beta_one_over_l1("post_convergence", solver, cst.L1)
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
        outcomes.append(
            CheckOutcome(
                "post_convergence", solver.label, rep.ok, float(len(rep.violations)), detail
            )
        )
    return outcomes


# Expected prediction-gap ratio under period halving: first order for the
# gradient-only solver, second order for the normalized-step predictors.
_RATIO_WINDOWS = {TVGD: (1.6, 2.4), FOA_MIN: (3.0, 5.0), CP: (3.0, 5.0)}


def check_prediction_gap_cmd(config: ExperimentConfig, setup: Setup) -> list[CheckOutcome]:
    solvers = [s for s in config.solvers if s.algorithm in _RATIO_WINDOWS]
    if not solvers:
        raise ConfigError("prediction_gap needs a tvgd, foa_min or cp solver section")
    problem_h = setup.problem
    h, steps = setup.grid[0]
    problem_f = build_problem(config, setup.dataset, h=h / 2)
    outcomes = []
    for solver in solvers:
        # the ratio reads predictions only, so no gap is recorded
        tr_c = _trace_for_check(problem_h, solver, h, steps, setup.x0, gap=False, store=True)
        tr_f = _trace_for_check(
            problem_f, solver, h / 2, steps, setup.x0, gap=False, store=True
        )
        if tr_c.diverged or tr_f.diverged:
            tr, h_run = (tr_c, h) if tr_c.diverged else (tr_f, h / 2)
            outcomes.append(_diverged("prediction_gap", solver.label, tr, h_run))
            continue
        rep = analysis.check_prediction_gap(problem_h, tr_c, problem_f, tr_f)
        lo, hi = _RATIO_WINDOWS[solver.algorithm]
        ok = lo <= rep.ratio <= hi
        outcomes.append(
            CheckOutcome(
                "prediction_gap",
                solver.label,
                ok,
                rep.ratio,
                f"max increase {rep.increase_coarse:.3e} (h={h:g}) vs "
                f"{rep.increase_fine:.3e} (h={h/2:g}), window [{lo}, {hi}]",
            )
        )
    return outcomes


def check_lipschitz_optimum_cmd(config: ExperimentConfig, setup: Setup) -> list[CheckOutcome]:
    constants = config.constants
    if constants.G2 is None:
        raise ConfigError("lipschitz_optimum needs constant G2 (set key G2=)")
    h, steps = setup.grid[0]
    viol = analysis.check_lipschitz_optimum(setup.problem, TimeGrid(h, steps), constants.G2)
    ok = viol <= analysis.bound_tol(constants.G2 * h)
    return [CheckOutcome("lipschitz_optimum", config.problem, ok, viol, f"G2={constants.G2:g}")]


def check_ratio_bound_cmd(config: ExperimentConfig, setup: Optional[Setup]) -> list[CheckOutcome]:
    worst = analysis.ratio_bound_selftest(trials=config.trials, seed=config.seed)
    ok = worst <= analysis.ABS_TOL
    return [CheckOutcome("ratio_bound", f"{config.trials} trials", ok, worst)]


_CHECKS = {
    "gradients": check_gradients,
    "ratio_bound": check_ratio_bound_cmd,
    "lipschitz_optimum": check_lipschitz_optimum_cmd,
    "pl_envelope": check_pl_envelope,
    "post_convergence": check_post_convergence_cmd,
    "prediction_gap": check_prediction_gap_cmd,
}


def cmd_check(config: ExperimentConfig, args, multi: bool) -> int:
    if not config.checks:
        raise ConfigError("check command needs a 'checks = ...' key in [experiment]")
    # The gradients and ratio_bound checks run on their own fixed inputs.
    needs_setup = set(config.checks) - {"gradients", "ratio_bound"}
    setup = _setup(config, args) if needs_setup else None
    outcomes: list[CheckOutcome] = []
    for name in config.checks:
        outcomes += _CHECKS[name](config, setup)

    out = _out_dir(config, args, multi)
    lines = [CHECKS_HEADER]
    all_ok = True
    for oc in outcomes:
        all_ok &= oc.passed
        status = "pass" if oc.passed else "FAIL"
        lines.append(f"{oc.check},{oc.target},{status},{_fmt(oc.value)},{oc.detail}")
        print(f"[check] {status:<4} {oc.check:<18} {oc.target:<22} value={oc.value:.3e}  {oc.detail}")
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
