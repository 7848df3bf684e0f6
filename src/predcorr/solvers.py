"""Correction loop, prediction rules, and the solver driver.

Every algorithm here follows the same per-step template: incur the loss at
the entering point, correct it with plain gradient steps on the freshly
revealed objective, then predict a starting point for the not-yet-revealed
next objective.  The four named algorithms differ only in the prediction:

TVGD      no prediction (the corrected point carries over)
UFOPC     inner gradient loop on a quadratic model of the next objective
FOA_MIN   normalized gradient step of fixed length zeta*h
CP        closed-form minimizer of the quadratic model along the
          (possibly extrapolated) gradient direction within radius zeta*h
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, ProblemOracle, TimeGrid, require

TVGD = "tvgd"
UFOPC = "ufopc"
FOA_MIN = "foa_min"
CP = "cp"

G_PLAIN = "plain"
G_EXTRAPOLATED = "extrapolated"
G_CHOICES = (G_PLAIN, G_EXTRAPOLATED)


def _norm(v: Array) -> float:
    """Euclidean norm of a 1-D float vector, bit-identical to
    ``np.linalg.norm(v)`` (which computes ``sqrt(v.dot(v))``) but cheaper."""
    return math.sqrt(v.dot(v))


def x0_norm(x0: Array) -> float:
    """``||x0||``, or ``ValueError`` when x0 has a NaN or an infinite
    coordinate or its norm overflows: no domain guard can hold such a point."""
    with np.errstate(over="ignore"):   # an overflow is the refusal below
        norm = _norm(x0)
    if not math.isfinite(norm):
        raise ValueError("x0 must be finite, with a finite norm")
    return norm


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm selector plus every tunable the four algorithms use.

    Fields irrelevant to the selected algorithm are validated but ignored.

    algorithm  one of {tvgd, ufopc, foa_min, cp}
    C          correction steps per time step (>= 0)
    beta       correction step size (finite, > 0)
    P          prediction inner steps, UFOPC only (>= 0)
    alpha      prediction step size, UFOPC only (finite, > 0)
    gamma      UFOPC mixing weight on the current gradient, in [0, 1]
    zeta       prediction radius coefficient (finite, > 0); step length is zeta*h
    delta      small-gradient guard (finite, > 0): no prediction below this norm
    g_choice   "plain" uses the current gradient; "extrapolated" uses
               2*grad(x, t) - grad(x, t - h)
    """

    algorithm: str
    C: int = 1
    beta: float = 1.0
    P: int = 0
    alpha: float = 1.0
    gamma: float = 0.0
    zeta: float = 1.0
    delta: float = 1e-10
    g_choice: str = G_PLAIN
    name: str = ""

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {tuple(ALGORITHMS)}"
            )
        if self.C < 0:
            raise ValueError("C must be >= 0")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be a finite number > 0")
        if self.P < 0:
            raise ValueError("P must be >= 0")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be a finite number > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0 < self.zeta < math.inf:
            raise ValueError("zeta must be a finite number > 0")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be a finite number > 0")
        if self.g_choice not in G_CHOICES:
            raise ValueError(f"unknown g_choice {self.g_choice!r}; expected one of {G_CHOICES}")

    @property
    def label(self) -> str:
        return self.name or self.algorithm


@dataclass
class Trace:
    """Per-step record of one solver run.

    Row k describes time ``t_k``: the loss and gradient norm incurred at
    the entering (predicted) iterate, and the wall clock spent correcting at
    ``t_k`` and predicting for ``t_{k+1}``.  No iterate is kept.
    ``gap`` is ``f(entering; t_k) - f*(t_k)`` when an optimum oracle was
    consulted, else None.  ``f_corr`` is ``f(corrected; t_k)`` when the run
    was asked to record it, else None.  A diverged run is truncated at
    ``diverged_step``, the step where the divergence was detected; there
    ``f_corr`` is NaN.
    """

    t: Array
    f_pred: Array
    grad_norm: Array
    gap: Optional[Array]
    pred_seconds: Array
    corr_seconds: Array
    f_corr: Optional[Array]
    diverged_step: Optional[int] = None
    algorithm: str = ""
    label: str = ""

    def __len__(self) -> int:
        return len(self.t)

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None


def correct(
    problem: ProblemOracle,
    x: Array,
    t: float,
    C: int,
    beta: float,
    grad: Optional[Array] = None,
) -> Array:
    """Apply C plain gradient-descent steps on ``f(.; t)`` starting at x.

    C = 0 returns x unchanged.  The gradient is re-evaluated at every inner
    iterate, except that ``grad``, when given, must be ``grad_x(x, t)`` at
    the starting point and is used for the first step instead of evaluating
    it again (the solver loop has already computed it for the trace).
    An iterate with a non-finite coordinate is returned before any oracle
    sees it.  The returned point is not scanned: ``run``'s guard test is.
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    if C == 0:
        return x
    x = x - beta * (problem.grad_x(x, t) if grad is None else grad)
    for _ in range(C - 1):
        if not np.isfinite(x).all():
            break
        x = x - beta * problem.grad_x(x, t)
    return x


def predict_foa_min(g: Array, x: Array, zeta: float, h: float, delta: float) -> Array:
    """Normalized gradient step of length exactly zeta*h.

    Returns x unchanged when ||g|| <= delta (no reliable direction).
    """
    gn = _norm(g)
    if gn <= delta:
        return x
    return x - (zeta * h / gn) * g


def predict_cauchy_point(
    g: Array, H: Callable[[Array], Array], x: Array, zeta: float, h: float, delta: float
) -> Array:
    """Minimize the quadratic model along -g within the radius zeta*h.

    ``H`` is the Hessian as a linear map ``v -> H v`` (see
    :class:`ProblemOracle`).  With curvature q = g'Hg along the direction,
    the unconstrained minimizer sits at arc length ||g||^3 / q; nonpositive
    q (including exactly zero) means the model decreases all the way to the
    boundary, so the full step is taken.  Returns x unchanged when
    ||g|| <= delta.
    """
    gn = _norm(g)
    if gn <= delta:
        return x
    q = float(g @ H(g))
    try:
        s = zeta * h if q <= 0.0 else min(gn**3 / q, zeta * h)
    except OverflowError:   # ||g||^3 / q >= ||g|| / ||H||: far beyond the radius
        s = zeta * h
    return x - (s / gn) * g


def predict_ufopc(
    problem: ProblemOracle,
    x: Array,
    t: float,
    h: float,
    P: int,
    alpha: float,
    gamma: float,
) -> Array:
    """Inner gradient loop on a quadratic model of the next objective.

    Runs P steps of

        z <- z - alpha * (H (z - x) + h * dtg + gamma * g)

    with H and g frozen at (x, t) and the mixed time-space derivative dtg
    approximated by the backward gradient difference
    ``(grad(x, t) - grad(x, t - h)) / h``.  The objectives in this suite are
    defined for all real times, so the first step (t = 0) evaluates at -h
    like every other step.

    There is deliberately no divergence guard inside the loop: on indefinite
    H the iteration can run away, and reproducing that instability is part
    of the algorithm's observable behavior.  Nor is there a scan for
    non-finite coordinates.  A coordinate that overflows stays non-finite
    for the rest of the loop, because ``z_i - alpha * y`` is inf or NaN
    whenever ``z_i`` is (inf - inf and 0 * inf give NaN, and NaN
    propagates), whatever ``y`` is.  So the loop returns a non-finite point
    exactly when a scan would have stopped it early, and the caller's guard
    test rejects that point.  numpy's overflow and invalid-value warnings
    are silenced for the same reason.  ``problem`` must provide ``hess_xx``
    when P >= 1; ``run`` refuses one without it before the first step.
    """
    if P == 0:
        return x
    g = problem.grad_x(x, t)
    dtg = (g - problem.grad_x(x, t - h)) / h
    H = problem.hess_xx(x, t)
    forcing = h * dtg + gamma * g
    z = x
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(P):
            z = z - alpha * (H(z - x) + forcing)
    return z


def g_select(
    problem: ProblemOracle,
    x: Array,
    t: float,
    h: float,
    choice: str,
    first_step: bool = False,
) -> Array:
    """Return the prediction direction vector for FOA_MIN / CP.

    "plain" is the current gradient.  "extrapolated" is
    ``2*grad(x, t) - grad(x, t - h)``, a one-step linear extrapolation of
    the gradient to the next time.  On the first step there is no previous
    time, so "extrapolated" falls back to "plain".
    """
    g = problem.grad_x(x, t)
    if choice == G_PLAIN or first_step:
        return g
    if choice != G_EXTRAPOLATED:
        raise ValueError(f"unknown g_choice {choice!r}")
    return 2.0 * g - problem.grad_x(x, t - h)


def _predict_foa_min(problem, config, x_c, t, h, k):
    g = g_select(problem, x_c, t, h, config.g_choice, first_step=k == 0)
    return predict_foa_min(g, x_c, config.zeta, h, config.delta)


def _predict_cp(problem, config, x_c, t, h, k):
    g = g_select(problem, x_c, t, h, config.g_choice, first_step=k == 0)
    return predict_cauchy_point(g, problem.hess_xx(x_c, t), x_c, config.zeta, h, config.delta)


# algorithm -> (rule, optional oracles it reads).  rule(problem, config, x, t,
# h, k) maps x, corrected at t = k h, to the point entering step k + 1.
ALGORITHMS = {
    TVGD: (lambda p, c, x, t, h, k: x, ()),
    UFOPC: (lambda p, c, x, t, h, k: predict_ufopc(p, x, t, h, c.P, c.alpha, c.gamma),
            ("hess_xx",)),
    FOA_MIN: (_predict_foa_min, ()),
    CP: (_predict_cp, ("hess_xx",)),
}


def run(
    problem: ProblemOracle,
    config: SolverConfig,
    grid: TimeGrid,
    x0: Array,
    compute_gap: Optional[bool] = None,
    record_f_corr: bool = False,
) -> Trace:
    """Execute the incur-correct-predict loop over the whole time grid.

    compute_gap:
        None   record gaps when the problem has an optimum oracle
        True   record gaps; a missing optimum oracle raises
               :class:`MissingOracleError`
        False  never record gaps
    record_f_corr:
        record ``f(corrected; t_k)`` per step, one extra value call each.

    The run stops early, with the diverged flag set, at one of two checks
    per step.  At entry: the entering iterate is outside the domain guard,
    or its value or gradient norm is non-finite.  After the correction: the
    corrected point is outside the guard.  The guard is finite, so any NaN
    or infinite coordinate fails it.  Before the first step, a missing oracle
    that the ``ALGORITHMS`` row names raises :class:`MissingOracleError`, and
    an x0 of the wrong shape or without a finite norm raises ``ValueError``.
    """
    predict, oracles = ALGORITHMS[config.algorithm]
    require(problem, *oracles)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dim},)")
    norm0 = x0_norm(x0)

    if compute_gap is None:
        want_gap = problem.optimum is not None
    elif compute_gap:
        require(problem, "optimum")
        want_gap = True
    else:
        want_gap = False

    n = grid.steps
    f_arr = np.empty(n)
    gn_arr = np.empty(n)
    gap_arr = np.full(n, np.nan) if want_gap else None
    pred_s = np.zeros(n)
    corr_s = np.zeros(n)
    fc_arr = np.full(n, np.nan) if record_f_corr else None

    h = grid.h
    guard = problem.domain_guard
    if guard is None:
        guard = 1e8 * (1.0 + norm0)
    perf = time.perf_counter

    x_in = x0.copy()
    diverged_at: Optional[int] = None
    for k in range(n):
        t = grid.t(k)
        if not _norm(x_in) <= guard:
            if np.isfinite(x_in).all():
                with np.errstate(all="ignore"):
                    f_arr[k] = problem.value(x_in, t)
                    gn_arr[k] = _norm(problem.grad_x(x_in, t))
            else:
                f_arr[k] = gn_arr[k] = np.nan
            diverged_at = k
            break
        f = f_arr[k] = problem.value(x_in, t)
        g_in = problem.grad_x(x_in, t)
        gn = gn_arr[k] = _norm(g_in)
        if not (math.isfinite(f) and math.isfinite(gn)):
            diverged_at = k
            break
        if gap_arr is not None:
            _, f_star = problem.optimum(t, x_in)
            gap_arr[k] = f_arr[k] - f_star

        t0 = perf()
        x_c = correct(problem, x_in, t, config.C, config.beta, grad=g_in)
        corr_s[k] = perf() - t0
        if not _norm(x_c) <= guard:
            diverged_at = k
            break
        if fc_arr is not None:
            fc_arr[k] = problem.value(x_c, t)

        t0 = perf()
        x_in = predict(problem, config, x_c, t, h, k)
        pred_s[k] = perf() - t0

    end = n if diverged_at is None else diverged_at + 1

    def cut(a):
        return a[:end] if a is not None else None

    return Trace(
        t=grid.times()[:end],
        f_pred=f_arr[:end],
        grad_norm=gn_arr[:end],
        gap=cut(gap_arr),
        pred_seconds=pred_s[:end],
        corr_seconds=corr_s[:end],
        f_corr=cut(fc_arr),
        diverged_step=diverged_at,
        algorithm=config.algorithm,
        label=config.label,
    )
