"""Asymptotic statistics and empirical verification of convergence bounds.

Everything here is a pure function of traces, oracles, and constants: no
checker re-runs a solver.  Inequalities are tested with the shared tolerance
``bound_tol`` (absolute 1e-9 plus relative 1e-9) to absorb rounding in long
floating-point sums; the underlying bounds are exact in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import ProblemConstants, ProblemOracle, TimeGrid, require, rng_from_seed
from .solvers import FOA_MIN, TVGD, Trace

ABS_TOL = 1e-9
REL_TOL = 1e-9


def bound_tol(reference: float) -> float:
    """Slack allowed when testing an inequality against ``reference``."""
    return ABS_TOL + REL_TOL * abs(reference)


class DivergedTraceError(ValueError):
    """Statistic requested on a diverged trace; carries the divergence step."""

    def __init__(self, step: Optional[int]):
        super().__init__(f"trace diverged at step {step}")
        self.step = step


# ---------------------------------------------------------------------------
# Tail statistics and order fitting
# ---------------------------------------------------------------------------

@dataclass
class TailStats:
    """Max/mean of gradient norm and optimality gap over the trailing window.

    The window is the last ``floor(len/2)`` records.  Gap fields are None
    when the trace carries no gaps.
    """

    max_grad: float
    mean_grad: float
    max_gap: Optional[float] = None
    mean_gap: Optional[float] = None
    window: int = 0


def tail_window(n: int) -> int:
    return n // 2


def tail_stats(trace: Trace) -> TailStats:
    if trace.diverged:
        raise DivergedTraceError(trace.diverged_step)
    n = len(trace)
    if n < 2:
        raise ValueError("tail statistics need a trace of length >= 2")
    w = tail_window(n)
    grads = trace.grad_norm[n - w:]
    out = TailStats(
        max_grad=float(np.max(grads)),
        mean_grad=float(np.mean(grads)),
        window=w,
    )
    if trace.gap is not None:
        gaps = trace.gap[n - w:]
        out.max_gap = float(np.max(gaps))
        out.mean_gap = float(np.mean(gaps))
    return out


@dataclass
class OrderFit:
    """Least-squares line through (log h, log stat): slope is the order."""

    slope: float
    intercept: float
    max_abs_residual: float


def summarize_sweep(table: dict) -> list[tuple[str, str, OrderFit]]:
    """Fit empirical orders for every solver in a {solver: {h: TailStats}}
    table and return one ``(solver, stat, fit)`` row per fitted statistic,
    solvers in sorted order.  A statistic is fitted only when it is present
    and positive at every period and there are at least three periods."""
    rows = []
    for label, by_h in sorted(table.items()):
        for stat in ("max_grad", "mean_grad", "max_gap", "mean_gap"):
            pts = []
            for h, tail in sorted(by_h.items()):
                if tail is None:
                    continue
                v = getattr(tail, stat)
                if v is not None and v > 0:
                    pts.append((h, v))
            if len(pts) >= 3 and len(pts) == len(by_h):
                rows.append((label, stat, fit_order(pts)))
    return rows


def fit_order(points: Sequence[tuple[float, float]]) -> OrderFit:
    """Fit the empirical order of a statistic against the sampling period.

    Requires at least three (h, stat) points, all strictly positive; a
    nonpositive statistic usually means the quantity converged exactly and a
    log-log fit is meaningless (clamp explicitly at the call site if that is
    really wanted).
    """
    if len(points) < 3:
        raise ValueError("order fitting needs at least 3 (h, stat) points")
    hs = np.array([p[0] for p in points], dtype=float)
    stats = np.array([p[1] for p in points], dtype=float)
    if np.any(hs <= 0):
        raise ValueError("all h values must be positive")
    if np.any(stats <= 0):
        raise ValueError("all statistics must be positive for a log-log fit")
    lx, ly = np.log(hs), np.log(stats)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return OrderFit(float(slope), float(intercept), float(np.max(np.abs(resid))))


# ---------------------------------------------------------------------------
# Optimal-value drift and the linear-convergence envelope
# ---------------------------------------------------------------------------

def check_lipschitz_optimum(problem: ProblemOracle, grid: TimeGrid, G2: float) -> float:
    """Worst violation of the optimal-value drift bound over the grid.

    Walks the grid, tracking the optimal value, and returns
    ``max_k |delta f*| - G2 * h``; a nonpositive result means the optimal
    value is empirically G2-Lipschitz in time.  Each optimum query is
    hinted with the previous grid point's optimum; only the toy reads the
    hint, to choose the ripple basin whose minimum it reports.
    """
    require(problem, "optimum")
    worst = -math.inf
    prev_val = None
    x_hint = None
    for k in range(grid.steps):
        t = grid.t(k)
        x_hint, val = problem.optimum(t, x_hint)
        if prev_val is not None:
            worst = max(worst, abs(val - prev_val) - G2 * grid.h)
        prev_val = val
    return worst


def check_tvgd_pl_envelope(trace: Trace, constants: ProblemConstants, grid: TimeGrid) -> float:
    """Worst violation of the geometric-decay-plus-drift gap envelope.

    For a gradient-descent-only run on a PL objective with step 1/L1, the
    gap at step k must stay below

        rho^k * gap_0 + 2 (1 - rho^k) / (1 - rho) * G2 * h,   rho = 1 - mu/L1.

    Returns ``max_k (gap_k - envelope_k)``; values at or below ``bound_tol``
    of the envelope certify the bound.  Extra correction steps per time step
    only descend further, so traces with C > 1 satisfy the same envelope.
    """
    if trace.gap is None:
        raise ValueError("envelope check needs a trace with gaps")
    if trace.diverged:
        raise DivergedTraceError(trace.diverged_step)
    for name in ("mu", "L1", "G2"):
        if getattr(constants, name) is None:
            raise ValueError(f"envelope check needs constants.{name}")
    if not constants.mu > 0:
        raise ValueError(f"envelope check needs constants.mu > 0, got {constants.mu}")
    rho = constants.rho
    k = np.arange(len(trace), dtype=float)
    rho_k = rho**k
    envelope = rho_k * trace.gap[0] + 2.0 * (1.0 - rho_k) / (1.0 - rho) * constants.G2 * grid.h
    return float(np.max(trace.gap - envelope))


def envelope_limit(constants: ProblemConstants, h: float) -> float:
    """Asymptotic value of the envelope: ``2 G2 h / (1 - rho)``."""
    if constants.mu is None or not constants.mu > 0:
        raise ValueError(f"envelope limit needs constants.mu > 0, got {constants.mu}")
    return 2.0 * constants.G2 * h / (1.0 - constants.rho)


# ---------------------------------------------------------------------------
# Stationarity thresholds and post-convergence certification
# ---------------------------------------------------------------------------

def g2_bar(constants: ProblemConstants, zeta: float, delta: float, h: float) -> float:
    """Per-step drift constant of the normalized-step predictors.

    ``zeta^2 L1 / 2 + zeta L2 + L3 / 2 + zeta delta / h`` bounds the
    one-step value increase of FOA_MIN/CP divided by h^2.
    """
    for name in ("L1", "L2", "L3"):
        if getattr(constants, name) is None:
            raise ValueError(f"g2_bar needs constants.{name}")
    return (
        zeta**2 * constants.L1 / 2.0
        + zeta * constants.L2
        + constants.L3 / 2.0
        + zeta * delta / h
    )


def _solver_terms(
    mode: str,
    constants: ProblemConstants,
    h: float,
    zeta: Optional[float],
    delta: Optional[float],
) -> tuple[float, float, float]:
    """``(stationarity threshold, drift slack, horizon unit)`` of one step of
    ``mode``; the three public functions that read it give the formulas."""
    if mode == TVGD:
        if constants.L1 is None or constants.G2 is None:
            raise ValueError("TVGD threshold needs constants.L1 and constants.G2")
        threshold = 2.0 * math.sqrt(constants.L1 * (1.0 + constants.G2) * h)
        return threshold, 2.0 * constants.G2 * h, 2.0 * h
    if mode == FOA_MIN:
        if zeta is None or delta is None:
            raise ValueError("FOA_MIN threshold needs zeta and delta")
        gb = g2_bar(constants, zeta, delta, h)
        return math.sqrt(2.0 * constants.L1 * (1.0 + gb)) * h, gb * h * h, h * h
    raise ValueError(f"unknown mode {mode!r}; expected {TVGD!r} or {FOA_MIN!r}")


def stationarity_threshold(
    mode: str,
    constants: ProblemConstants,
    h: float,
    zeta: Optional[float] = None,
    delta: Optional[float] = None,
) -> float:
    """Gradient-norm level after which the post-convergence guarantee binds.

    TVGD:     2 sqrt(L1 (1 + G2) h)
    FOA_MIN:  sqrt(2 L1 (1 + g2_bar)) h
    """
    return _solver_terms(mode, constants, h, zeta, delta)[0]


@dataclass
class PostConvergenceReport:
    """Outcome of the after-first-crossing certification.

    Once the gradient norm first dips below the threshold, every later step
    must either (a) be below the threshold again, or (b) carry a gap less
    than the last below-threshold step's gap plus the drift slack.  Steps
    failing both land in ``violations``.
    """

    converged: bool
    threshold: float
    first_crossing: Optional[int]
    checked: int = 0
    violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_post_convergence(
    trace: Trace,
    threshold: float,
    constants: ProblemConstants,
    h: float,
    mode: str,
    zeta: Optional[float] = None,
    delta: Optional[float] = None,
) -> PostConvergenceReport:
    """Certify that iterates stay well-behaved after first reaching the
    threshold.

    The slack in condition (b) is ``2 G2 h`` for TVGD and ``g2_bar * h^2``
    for FOA_MIN, each minus ``||grad_l||^2 / (2 L1)`` at the reference step
    l (the most recent below-threshold step).  A trace that never crosses
    the threshold is reported as not converged, not as an error.
    """
    if trace.gap is None:
        raise ValueError("post-convergence check needs a trace with gaps")
    if trace.diverged:
        raise DivergedTraceError(trace.diverged_step)
    drift = _solver_terms(mode, constants, h, zeta, delta)[1]

    grads = trace.grad_norm
    gaps = trace.gap
    below = np.nonzero(grads <= threshold)[0]
    if len(below) == 0:
        return PostConvergenceReport(False, threshold, None)

    report = PostConvergenceReport(True, threshold, int(below[0]))
    last = int(below[0])
    for k in range(int(below[0]) + 1, len(trace)):
        report.checked += 1
        if grads[k] <= threshold:
            last = k
            continue
        bound = gaps[last] + drift - grads[last] ** 2 / (2.0 * constants.L1)
        if not gaps[k] < bound + bound_tol(bound):
            report.violations.append(k)
    return report


# ---------------------------------------------------------------------------
# Average gradient norm over the theory's horizon
# ---------------------------------------------------------------------------

@dataclass
class AverageGradientReport:
    """Average gradient norm over the analysis horizon versus its bound.

    The horizon is ``gap_{k0} / (2h)`` steps for the gradient-only solver
    and ``gap_{k0} / h^2`` steps for the normalized-step predictor, rounded
    up to a whole number of steps (and at least one).
    """

    average: float
    bound: float
    horizon: int
    start: int

    @property
    def ok(self) -> bool:
        return self.average <= self.bound + bound_tol(self.bound)


def average_gradient_bound(
    trace: Trace,
    constants: ProblemConstants,
    h: float,
    mode: str,
    k0: int = 0,
    zeta: Optional[float] = None,
    delta: Optional[float] = None,
) -> AverageGradientReport:
    """Check the average-stationarity guarantee from step k0 onward.

    TVGD:     mean of ||grad|| over ceil(gap_{k0} / (2h)) steps
              is at most 2 sqrt(L1 (1 + G2) h)
    FOA_MIN:  mean over ceil(gap_{k0} / h^2) steps is at most
              sqrt(2 L1 (1 + g2_bar)) h

    Raises if the trace is shorter than the required horizon.
    """
    if trace.gap is None:
        raise ValueError("average-gradient check needs a trace with gaps")
    if trace.diverged:
        raise DivergedTraceError(trace.diverged_step)
    bound, _, unit = _solver_terms(mode, constants, h, zeta, delta)
    gap0 = float(trace.gap[k0])
    horizon = max(int(math.ceil(gap0 / unit)), 1)
    if k0 + horizon > len(trace):
        raise ValueError(
            f"trace has {len(trace)} steps but the horizon needs {k0 + horizon}"
        )
    avg = float(np.mean(trace.grad_norm[k0:k0 + horizon]))
    return AverageGradientReport(average=avg, bound=bound, horizon=horizon, start=k0)


# ---------------------------------------------------------------------------
# Prediction-gap order
# ---------------------------------------------------------------------------

def max_prediction_increase(trace: Trace) -> float:
    """Largest one-step value increase ``f(entering_{k+1}; t_{k+1}) -
    f(corrected_k; t_k)`` along a run that recorded ``f_corr``."""
    if trace.f_corr is None:
        raise ValueError("prediction-increase needs a trace with f_corr recorded")
    if trace.diverged:
        raise DivergedTraceError(trace.diverged_step)
    if len(trace) < 2:
        raise ValueError("need at least 2 steps")
    return float(np.max(trace.f_pred[1:] - trace.f_corr[:-1]))


@dataclass
class PredictionGapReport:
    """One-step value increase at two sampling periods and their ratio.

    A ratio near 4 under period halving indicates a second-order increase;
    near 2, first-order.  The ratio is NaN unless each maximum exceeds
    ``bound_tol`` of the largest |f| its own run entered with: a run whose
    predictions never raised f beyond rounding has no increase to compare.
    """

    increase_coarse: float
    increase_fine: float
    ratio: float


def check_prediction_gap(trace_coarse: Trace, trace_fine: Trace) -> PredictionGapReport:
    """Largest prediction increases of a coarse and a fine run."""
    inc_c = max_prediction_increase(trace_coarse)
    inc_f = max_prediction_increase(trace_fine)
    measurable = all(
        inc > bound_tol(float(np.max(np.abs(tr.f_pred))))
        for inc, tr in ((inc_c, trace_coarse), (inc_f, trace_fine))
    )
    ratio = inc_c / inc_f if measurable else math.nan
    return PredictionGapReport(inc_c, inc_f, ratio)


# ---------------------------------------------------------------------------
# Inner-product ratio bound self-test
# ---------------------------------------------------------------------------

def ratio_bound_selftest(trials: int = 200, seed: int = 0) -> float:
    """Probe the ratio bound ``|<a, x>| / ||M^T x|| <= ||a|| / sigma_min(M)``.

    Samples random full-row-rank matrices M (rows <= columns) and vectors
    a, x in the row-index space, and returns the worst observed violation of
    the bound; anything above ``bound_tol`` falsifies it.  The bound is the
    engine behind derivative-ratio estimates for objectives composed with a
    full-rank linear map.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng_from_seed(seed)
    worst = -math.inf
    for _ in range(trials):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 9))
        M = rng.standard_normal((m, n))
        sigma_min = float(np.linalg.svd(M, compute_uv=False)[-1])
        if sigma_min < 1e-8:
            continue  # effectively rank deficient; hypothesis excludes it
        a = rng.standard_normal(m)
        x = rng.standard_normal(m)
        lhs = abs(float(a @ x)) / float(np.linalg.norm(M.T @ x))
        rhs = float(np.linalg.norm(a)) / sigma_min
        worst = max(worst, lhs - rhs)
    return worst
