"""Time grid, problem oracles, and oracle-validation utilities.

A time-varying problem is a family of smooth objectives ``f(x; t)`` revealed
one sampling period at a time.  Everything downstream (solvers, benchmarks,
bound checkers) talks to a :class:`ProblemOracle`, which bundles the value,
gradient, and optional higher-order oracles behind plain callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


def rng_from_seed(seed: int) -> np.random.Generator:
    """Return the package-wide seeded generator.

    Uses the Philox4x64-10 counter-based bit generator: the algorithm is
    published, has no hidden state beyond (key, counter), and produces the
    same stream on every platform, so seeded experiments reproduce exactly.
    """
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: step k happens at time ``k * h``.

    ``t(k)`` is always computed as the single product ``k * h`` rather than
    by repeated addition, so grid times carry no accumulated rounding drift
    and are bit-identical across runs and platforms.
    """

    h: float
    steps: int

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"sampling period must be positive, got {self.h}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps}")

    def t(self, k: int) -> float:
        return k * self.h

    def times(self) -> Array:
        """All step times ``0, h, 2h, ..., (steps-1)h``."""
        return np.arange(self.steps) * self.h

    @property
    def horizon(self) -> float:
        return self.steps * self.h


@dataclass(frozen=True)
class ProblemOracle:
    """Callable bundle describing one time-varying objective.

    Required pieces are the dimension, ``value`` and ``grad_x``.  The rest
    are optional and simply absent (``None``) for problems that cannot
    supply them; solvers that need a missing oracle refuse to run.

    value(x, t)    -> float                objective f(x; t)
    grad_x(x, t)   -> (d,) array           spatial gradient
    hess_xx(x, t)  -> callable v -> H v    the symmetric Hessian at (x, t)
        as a linear map on (d,) vectors (optional).  The caller builds it
        once and applies it as often as it needs; no d x d matrix has to
        exist (a diagonal Hessian is an elementwise product).
    optimum(t, x_hint=None) -> (x*, f*)    reference optimum (optional);
        a problem with several local minima may use the hint to choose
        the one it reports.

    Iterates whose norm exceeds ``domain_guard`` (a finite number > 0) are
    declared diverged by the solver loop; problems that leave it unset get
    the run-time default ``1e8 * (1 + ||x0||)``.  Oracles are pure functions
    of (x, t); instances are immutable and safe to share between concurrent
    runs.  An instance may memoize its pieces that do not depend on x for
    its most recent keys; that never changes a result, and returned arrays
    stay the caller's to modify.
    """

    dim: int
    value: Callable[[Array, float], float]
    grad_x: Callable[[Array, float], Array]
    hess_xx: Optional[Callable[[Array, float], Callable[[Array], Array]]] = None
    optimum: Optional[Callable[..., tuple[Array, float]]] = None
    domain_guard: Optional[float] = None
    name: str = ""

    # Not a field: bench/tracing.py still wraps oracles by name and reads
    # this one; delete it once that tracer reads ``dataclasses.fields``.
    grad_t = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.domain_guard is not None and not 0 < self.domain_guard < math.inf:
            raise ValueError("domain_guard must be a finite number > 0")


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness/curvature constants used by the empirical bound checkers.

    L1     bound on the spatial Hessian norm
    L2     bound on the mixed time-space derivative norm
    L3     bound on the second time derivative of f
    G2     time-Lipschitz constant of f
    mu     PL / strong-convexity constant
    """

    L1: Optional[float] = None
    L2: Optional[float] = None
    L3: Optional[float] = None
    G2: Optional[float] = None
    mu: Optional[float] = None

    def __post_init__(self):
        for name in ("L1", "L2", "L3", "G2", "mu"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.mu is not None and self.L1 is not None and self.mu > self.L1:
            raise ValueError(f"mu={self.mu} cannot exceed L1={self.L1}")

    @property
    def rho(self) -> float:
        """Per-step contraction factor 1 - mu/L1 of gradient descent."""
        if self.mu is None or self.L1 is None:
            raise ValueError("rho requires both mu and L1")
        return 1.0 - self.mu / self.L1


def require(problem: ProblemOracle, *oracles: str) -> None:
    """Raise ``MissingOracleError`` unless all named optional oracles exist."""
    missing = [name for name in oracles if getattr(problem, name) is None]
    if missing:
        raise MissingOracleError(
            f"problem '{problem.name or 'unnamed'}' does not provide: {', '.join(missing)}"
        )


class MissingOracleError(ValueError):
    """A solver or checker asked for an oracle the problem does not provide."""


# ---------------------------------------------------------------------------
# Finite-difference validation
# ---------------------------------------------------------------------------

@dataclass
class FDReport:
    """Worst-case relative errors of analytic oracles vs central differences.

    Errors are scaled: ``||analytic - fd|| / (1 + ||analytic||)``.  The
    Hessian error is None for a problem without a Hessian.
    """

    grad_x_max_rel: float
    hess_xx_max_rel: Optional[float]


def _fd_grad(problem: ProblemOracle, x: Array, t: float, step: float) -> Array:
    g = np.empty(problem.dim)
    e = np.zeros(problem.dim)
    for j in range(problem.dim):
        e[j] = step
        g[j] = (problem.value(x + e, t) - problem.value(x - e, t)) / (2 * step)
        e[j] = 0.0
    return g


def _fd_hess(problem: ProblemOracle, x: Array, t: float, step: float) -> Array:
    H = np.empty((problem.dim, problem.dim))
    e = np.zeros(problem.dim)
    for j in range(problem.dim):
        e[j] = step
        H[:, j] = (problem.grad_x(x + e, t) - problem.grad_x(x - e, t)) / (2 * step)
        e[j] = 0.0
    return H


def finite_difference_check(
    problem: ProblemOracle,
    samples: int = 20,
    seed: int = 0,
    x_scale: float = 1.0,
    t_max: float = 10.0,
) -> FDReport:
    """Validate ``grad_x`` and, where present, ``hess_xx`` against central
    finite differences.

    Draws ``samples`` points with ``x ~ x_scale * N(0, I)`` and
    ``t ~ U[0, t_max]`` and differentiates with step ``1e-5 * (1 + ||x||)``.
    The Hessian operator's columns ``H e_j`` are compared with the
    finite-difference Hessian, which differentiates ``grad_x``, so an
    asymmetric analytic Hessian fails the comparison.  Deterministic for a
    fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = rng_from_seed(seed)
    has_h = problem.hess_xx is not None
    g_max = h_max = 0.0

    for _ in range(samples):
        x = x_scale * rng.standard_normal(problem.dim)
        t = t_max * rng.random()
        sx = 1e-5 * (1.0 + float(np.linalg.norm(x)))

        g = np.asarray(problem.grad_x(x, t), dtype=float)
        gfd = _fd_grad(problem, x, t, sx)
        g_max = max(g_max, float(np.linalg.norm(g - gfd) / (1.0 + np.linalg.norm(g))))

        if has_h:
            hess = problem.hess_xx(x, t)
            H = np.column_stack([hess(e) for e in np.eye(problem.dim)])
            Hfd = _fd_hess(problem, x, t, sx)
            h_max = max(h_max, float(np.linalg.norm(H - Hfd) / (1.0 + np.linalg.norm(H))))

    return FDReport(g_max, h_max if has_h else None)
