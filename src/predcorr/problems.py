"""Benchmark problem suite.

Four analytic families plus streaming matrix factorization:

* a one-dimensional non-convex objective whose landscape rides along a
  uniformly drifting frame (``make_toy``),
* diagonal least squares with a sinusoidally moving target, with either a
  fixed or a slowly breathing diagonal (``make_linreg``),
* robust regression through a saturating loss, Geman-McClure or Welsch
  (``make_robust``),
* matrix factorization over a ratings stream in which a fixed number of new
  ratings is revealed per step (``make_mf``).

All analytic oracles accept any finite time, including negative times, so
backward differences are well defined from the very first step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, MissingOracleError, ProblemConstants, ProblemOracle, rng_from_seed
from .ratings import RatingsDataset

TOY = "toy"
LINREG_STATIC = "linreg_static"
LINREG_DRIFT = "linreg_drift"
ROBUST_GM = "robust_gm"
ROBUST_WELSCH = "robust_welsch"

_IDX = np.arange(1, 11)          # benchmark coordinates are indexed 1..10
_PHASE = 2.0 * np.pi * _IDX / 10.0
_COSP = np.cos(_PHASE)
_SINP = np.sin(_PHASE)


def _time_frame(diag, b):
    """Memoized ``t -> (diag(t), b(t))`` for one problem instance.

    The two most recent times are kept: cp with the extrapolated gradient
    and ufopc alternate between t and t - h within a step.  The arrays are
    read-only because every caller at the same time shares them.
    """

    @functools.lru_cache(maxsize=2)
    def frame(t):
        pieces = diag(t), b(t)
        for a in pieces:
            a.flags.writeable = False
        return pieces

    return frame


def _numeric_optimum(value, grad_x, dim, lipschitz, tol=1e-10, max_iters=100_000):
    """Inner solver realizing a reference optimum for problems without one.

    Time-invariant gradient descent with step 1/lipschitz from the caller's
    hint (the current iterate, typically) until the gradient norm crosses
    ``tol``.  Finds the stationary point of the basin the hint sits in, which
    is the meaningful reference for tracking plots on non-convex problems.
    """

    def optimum(t: float, x_hint: Optional[Array] = None):
        x = np.zeros(dim) if x_hint is None else np.array(x_hint, dtype=float)
        step = 1.0 / lipschitz
        for _ in range(max_iters):
            g = grad_x(x, t)
            if np.linalg.norm(g) < tol:
                break
            x = x - step * g
        return x, value(x, t)

    return optimum


# ---------------------------------------------------------------------------
# 1-D drifting non-convex objective
# ---------------------------------------------------------------------------

def make_toy() -> ProblemOracle:
    """Scalar objective ``(x - 10t)^2 / 20 + sin(x - 10t)``.

    The landscape is a shallow parabola with superimposed ripples, translated
    rigidly at speed 10, so every stationary point drifts at exactly that
    speed and the time derivative is always -10 times the spatial one.
    Curvature alternates sign along the axis; the classic starting point 8
    sits in a concave stretch.
    """

    def value(x, t):
        u = x[0] - 10.0 * t
        return u * u / 20.0 + np.sin(u)

    def grad_x(x, t):
        u = x[0] - 10.0 * t
        return np.array([u / 10.0 + np.cos(u)])

    def grad_t(x, t):
        u = x[0] - 10.0 * t
        return -u - 10.0 * np.cos(u)

    def hess_xx(x, t):
        u = x[0] - 10.0 * t
        return np.array([[0.1 - np.sin(u)]])

    return ProblemOracle(
        dim=1,
        value=value,
        grad_x=grad_x,
        grad_t=grad_t,
        hess_xx=hess_xx,
        optimum=_numeric_optimum(value, grad_x, 1, lipschitz=1.1),
        optimum_kind="numeric",
        domain_guard=1e8,
        name=TOY,
    )


def toy_constants() -> ProblemConstants:
    """Curvature/drift constants of the 1-D benchmark.

    Second spatial derivative lies in [0.1 - 1, 0.1 + 1]; mixed and double
    time derivatives scale it by 10 and 100.  The derivative ratio is
    identically 10.
    """
    return ProblemConstants(L1=1.1, L2=11.0, L3=110.0, Z=10.0)


# ---------------------------------------------------------------------------
# Diagonal least squares with a moving target
# ---------------------------------------------------------------------------

def _b_linreg(t):
    s, c = np.sin(t / 100.0), np.cos(t / 100.0)
    return 10.0 * (s * _COSP + c * _SINP)


def _bdot_linreg(t):
    s, c = np.sin(t / 100.0), np.cos(t / 100.0)
    return 0.1 * (c * _COSP - s * _SINP)


def make_linreg(variant: str = LINREG_STATIC) -> ProblemOracle:
    """Least squares ``0.5 * ||A(t) x - b(t)||^2`` in dimension 10.

    The diagonal of A is 0.1 for the first five coordinates and 10 for the
    rest; the target entries are ``10 sin(t/100 + 2 pi i / 10)``.  The
    "drift" variant additionally modulates the diagonal by
    ``1 + 0.05 cos(t/200 + 2 pi i / 10)``.  A is square and invertible, so
    the optimum ``x*(t) = A(t)^{-1} b(t)`` is closed form and the optimal
    value is identically zero.
    """
    if variant not in (LINREG_STATIC, LINREG_DRIFT):
        raise ValueError(f"unknown linreg variant {variant!r}")
    base = np.where(_IDX <= 5, 0.1, 10.0)
    drifting = variant == LINREG_DRIFT

    if drifting:
        def diag(t):
            s, c = np.sin(t / 200.0), np.cos(t / 200.0)
            return base * (1.0 + 0.05 * (c * _COSP - s * _SINP))

        def diag_dot(t):
            s, c = np.sin(t / 200.0), np.cos(t / 200.0)
            return base * (-0.05 / 200.0) * (s * _COSP + c * _SINP)
    else:
        def diag(t):
            return base

        def diag_dot(t):
            return np.zeros(10)

    frame = _time_frame(diag, _b_linreg)

    def value(x, t):
        a, b = frame(t)
        r = a * x - b
        return 0.5 * float(r @ r)

    def grad_x(x, t):
        a, b = frame(t)
        return a * (a * x - b)

    def grad_t(x, t):
        a, b = frame(t)
        r = a * x - b
        return float(r @ (diag_dot(t) * x - _bdot_linreg(t)))

    def hess_xx(x, t):
        a, _ = frame(t)
        return np.diag(a * a)

    def optimum(t, x_hint=None):
        a, b = frame(t)
        return b / a, 0.0

    return ProblemOracle(
        dim=10,
        value=value,
        grad_x=grad_x,
        grad_t=grad_t,
        hess_xx=hess_xx,
        optimum=optimum,
        optimum_kind="closed_form",
        name=variant,
    )


def linreg_static_constants() -> ProblemConstants:
    """Spectral constants of the fixed-diagonal least-squares benchmark.

    The Hessian is constant with eigenvalues {0.01, 100} (squared extreme
    diagonal entries).  The mixed derivative has constant norm
    ``0.1 * sqrt(2.5 * (100 + 0.01))`` because the ten phases are equally
    spaced, and the derivative ratio is bounded by ``||b'|| / sigma_min =
    sqrt(5) / 1 / ...`` evaluated below 2.5.
    """
    return ProblemConstants(
        L1=100.0,
        mu=0.01,
        L2=0.1 * float(np.sqrt(2.5 * (100.0 + 0.01))),
        Z=float(np.sqrt(5.0)),
    )


def linreg_g2_bound(max_ax_norm: float) -> float:
    """Valid time-Lipschitz constant on any region with ``||A x||`` bounded.

    The time derivative is ``-(Ax - b) . b'`` with ``||b(t)|| = 10 sqrt(5)``
    and ``||b'(t)|| = 0.1 sqrt(5)`` exactly (equally spaced phases), so it is
    bounded by ``0.1 sqrt(5) * (max ||Ax|| + 10 sqrt(5))`` for all t.
    """
    s5 = float(np.sqrt(5.0))
    return 0.1 * s5 * (max_ax_norm + 10.0 * s5)


def linreg_g2_from_values(f_values) -> float:
    """Time-Lipschitz constant valid wherever a run actually went.

    Residual norms satisfy ``||Ax - b|| = sqrt(2 f)``, so the largest value
    along a trajectory bounds ``||Ax||`` on it (corrected points only ever
    have smaller values than the entering points recorded in a trace).
    """
    f_values = np.asarray(f_values, dtype=float)
    fmax = float(np.max(f_values[np.isfinite(f_values)]))
    s5 = float(np.sqrt(5.0))
    return linreg_g2_bound(np.sqrt(2.0 * max(fmax, 0.0)) + 10.0 * s5)


# ---------------------------------------------------------------------------
# Robust regression
# ---------------------------------------------------------------------------

def geman_mcclure(y):
    return 2.0 * y * y / (y * y + 4.0)


def geman_mcclure_d1(y):
    return 16.0 * y / (y * y + 4.0) ** 2


def geman_mcclure_d2(y):
    return 16.0 * (4.0 - 3.0 * y * y) / (y * y + 4.0) ** 3


def welsch(y):
    return 1.0 - np.exp(-0.5 * y * y)


def welsch_d1(y):
    return y * np.exp(-0.5 * y * y)


def welsch_d2(y):
    yy = y * y
    return (1.0 - yy) * np.exp(-0.5 * yy)


_ROBUST_LOSSES = {
    ROBUST_GM: (geman_mcclure, geman_mcclure_d1, geman_mcclure_d2),
    ROBUST_WELSCH: (welsch, welsch_d1, welsch_d2),
}


def make_robust(loss: str = ROBUST_GM) -> ProblemOracle:
    """Robust regression ``sum_i loss((A(t) x - b(t))_i)`` in dimension 10.

    A(t) is diagonal with entries ``1 + 0.05 cos(t/200 + 2 pi i/10)`` for
    i <= 5 and ten times that for i > 5; the target entries are
    ``50 sin(t/100 + 2 pi i/10)``.  Both losses saturate, so residuals far
    from zero contribute almost no gradient and the objective is non-convex.
    The reference optimum is numeric (inner descent from the query hint).
    """
    if loss not in _ROBUST_LOSSES:
        raise ValueError(f"unknown robust loss {loss!r}; expected robust_gm or robust_welsch")
    ell, ell_d1, ell_d2 = _ROBUST_LOSSES[loss]
    base = np.where(_IDX <= 5, 1.0, 10.0)
    lipschitz = (10.0 * 1.05) ** 2   # max |loss''| = 1 for both losses

    def diag(t):
        s, c = np.sin(t / 200.0), np.cos(t / 200.0)
        return base * (1.0 + 0.05 * (c * _COSP - s * _SINP))

    def diag_dot(t):
        s, c = np.sin(t / 200.0), np.cos(t / 200.0)
        return base * (-0.05 / 200.0) * (s * _COSP + c * _SINP)

    def b(t):
        s, c = np.sin(t / 100.0), np.cos(t / 100.0)
        return 50.0 * (s * _COSP + c * _SINP)

    def bdot(t):
        s, c = np.sin(t / 100.0), np.cos(t / 100.0)
        return 0.5 * (c * _COSP - s * _SINP)

    frame = _time_frame(diag, b)

    def value(x, t):
        a, bt = frame(t)
        return float(ell(a * x - bt).sum())

    def grad_x(x, t):
        a, bt = frame(t)
        return ell_d1(a * x - bt) * a

    def grad_t(x, t):
        a, bt = frame(t)
        r = a * x - bt
        return float(ell_d1(r) @ (diag_dot(t) * x - bdot(t)))

    def hess_xx(x, t):
        a, bt = frame(t)
        return np.diag(ell_d2(a * x - bt) * a * a)

    return ProblemOracle(
        dim=10,
        value=value,
        grad_x=grad_x,
        grad_t=grad_t,
        hess_xx=hess_xx,
        optimum=_numeric_optimum(value, grad_x, 10, lipschitz=lipschitz),
        optimum_kind="numeric",
        domain_guard=1e4,
        name=loss,
    )


def robust_constants() -> ProblemConstants:
    """Smoothness constant of the robust benchmarks: |loss''| <= 1 and the
    diagonal never exceeds 10.5, so the Hessian norm is at most 10.5^2."""
    return ProblemConstants(L1=(10.0 * 1.05) ** 2)


# ---------------------------------------------------------------------------
# Streaming matrix factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MFOracle(ProblemOracle):
    """Matrix-factorization oracle with its layout metadata attached.

    The decision vector concatenates the user-factor matrix (latent_dim x
    n_users) and the item-factor matrix (latent_dim x n_items), both
    column-major, so ``x[u*F:(u+1)*F]`` is user u's factor column.
    """

    n_users: int = 0
    n_items: int = 0
    latent_dim: int = 0
    reg: float = 0.0
    reveal_per_step: int = 0
    initial_revealed: int = 0
    step_period: float = 0.01
    n_ratings: int = 0


@dataclass
class MFState:
    """Factor matrices unpacked from a solver iterate at a given time."""

    P: Array                 # latent_dim x n_users
    Q: Array                 # latent_dim x n_items
    latent_dim: int
    reg: float
    revealed: int
    reveal_per_step: int


def mf_state(problem: MFOracle, x: Array, t: float) -> MFState:
    F, U, I = problem.latent_dim, problem.n_users, problem.n_items
    n = problem.initial_revealed + max(int(round(t / problem.step_period)), 0) * problem.reveal_per_step
    return MFState(
        P=x[: F * U].reshape(U, F).T.copy(),
        Q=x[F * U:].reshape(I, F).T.copy(),
        latent_dim=F,
        reg=problem.reg,
        revealed=min(n, problem.n_ratings),
        reveal_per_step=problem.reveal_per_step,
    )


def _next_same_pair(users: Array, items: Array, n_items: int) -> Array:
    """For each rating, index of the next later rating of the same (u, i).

    Ratings with no later duplicate get an index past the end.  Used to keep
    only the latest revealed rating per pair: entry j is live under prefix
    length n iff ``next_same[j] >= n``.
    """
    n = len(users)
    key = users.astype(np.int64) * n_items + items
    order = np.lexsort((np.arange(n), key))
    nxt = np.full(n, n + 1, dtype=np.int64)
    same = key[order[:-1]] == key[order[1:]]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


def make_mf(
    ds: RatingsDataset,
    latent_dim: int,
    reg: float,
    reveal_per_step: int,
    initial_revealed: int,
    step_period: float = 0.01,
    normalize_reg: bool = True,
) -> MFOracle:
    """Streaming matrix-factorization objective over a ratings dataset.

    At step k (time ``k * step_period``) the revealed set holds the first
    ``initial_revealed + k * reveal_per_step`` ratings, capped at the full
    dataset; when the same pair is revealed twice the later rating wins.
    The objective averages squared error plus ``reg * (||P_u||^2 +
    ||Q_i||^2)`` over revealed pairs; ``normalize_reg=False`` keeps the
    per-pair regularizer outside the averaging instead.  Only value and
    spatial gradient are available: the time axis is a discrete reveal
    schedule, so there is no time derivative, and the Hessian is not
    offered at this scale.  Requesting it raises through the solver's
    oracle check.
    """
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    if reg < 0:
        raise ValueError("reg must be >= 0")
    if reveal_per_step < 1:
        raise ValueError("reveal_per_step must be >= 1")
    if not 1 <= initial_revealed <= len(ds):
        raise ValueError(
            f"initial_revealed must lie in [1, {len(ds)}], got {initial_revealed}"
        )
    users = ds.users.copy()
    items = ds.items.copy()
    vals = ds.values.copy()
    U, I, F = ds.n_users, ds.n_items, latent_dim
    total = len(vals)
    nxt = _next_same_pair(users, items, I)
    dim = F * (U + I)

    # Per-prefix live set, cached: every oracle call at the same time reuses
    # the same index arrays.  Single-cell tuple swap keeps readers safe.
    cache = (-1, None, None, None, None, None)

    def live(t: float):
        nonlocal cache
        k = int(round(t / step_period))
        n = min(initial_revealed + max(k, 0) * reveal_per_step, total)
        c = cache
        if c[0] == n:
            return c[1:]
        m = nxt[:n] >= n
        u, i, r = users[:n][m], items[:n][m], vals[:n][m]
        cu = np.bincount(u, minlength=U).astype(float)
        ci = np.bincount(i, minlength=I).astype(float)
        cache = (n, u, i, r, cu, ci)
        return u, i, r, cu, ci

    def value(x, t):
        u, i, r, cu, ci = live(t)
        Pt = x[: F * U].reshape(U, F)
        Qt = x[F * U:].reshape(I, F)
        err = r - np.einsum("jf,jf->j", Pt[u], Qt[i])
        reg_term = cu @ np.einsum("uf,uf->u", Pt, Pt) + ci @ np.einsum("if,if->i", Qt, Qt)
        reg_scale = reg / len(u) if normalize_reg else reg
        return float(err @ err) / len(u) + reg_scale * float(reg_term)

    def grad_x(x, t):
        u, i, r, cu, ci = live(t)
        Pt = x[: F * U].reshape(U, F)
        Qt = x[F * U:].reshape(I, F)
        Pu, Qi = Pt[u], Qt[i]
        w = (-2.0 / len(u)) * (r - np.einsum("jf,jf->j", Pu, Qi))
        reg_scale = 2.0 * reg / len(u) if normalize_reg else 2.0 * reg
        dP = reg_scale * Pt * cu[:, None]
        dQ = reg_scale * Qt * ci[:, None]
        for f in range(F):
            dP[:, f] += np.bincount(u, weights=w * Qi[:, f], minlength=U)
            dQ[:, f] += np.bincount(i, weights=w * Pu[:, f], minlength=I)
        return np.concatenate([dP.ravel(), dQ.ravel()])

    return MFOracle(
        dim=dim,
        value=value,
        grad_x=grad_x,
        name="mf",
        n_users=U,
        n_items=I,
        latent_dim=F,
        reg=reg,
        reveal_per_step=reveal_per_step,
        initial_revealed=initial_revealed,
        step_period=step_period,
        n_ratings=total,
    )


def mf_warm_start(
    problem: MFOracle,
    target_grad_norm: float,
    seed: int,
    beta: float = 10.0,
    max_iters: int = 200_000,
) -> tuple[Array, int]:
    """Descend the initial (fully frozen) objective to a target gradient norm.

    Plain gradient descent from seeded standard-normal factors on the
    problem at t = 0; returns the first iterate whose gradient norm is at or
    below the target, together with the number of iterations taken.
    """
    if problem.grad_x is None:
        raise MissingOracleError("warm start needs grad_x")
    x = rng_from_seed(seed).standard_normal(problem.dim)
    for it in range(max_iters):
        g = problem.grad_x(x, 0.0)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn):
            raise RuntimeError(
                f"warm start diverged at iteration {it}; the step size {beta} is too "
                "large for this instance"
            )
        if gn <= target_grad_norm:
            return x, it
        x = x - beta * g
    raise RuntimeError(
        f"warm start did not reach gradient norm {target_grad_norm} in {max_iters} iterations"
    )
