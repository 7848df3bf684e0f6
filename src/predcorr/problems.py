"""Benchmark problem suite.

A one-dimensional toy, one diagonal-regression family and streaming
matrix factorization:

* a one-dimensional non-convex objective whose landscape rides along a
  uniformly drifting frame (``make_toy``),
* ``sum_i loss((A(t) x - b(t))_i)`` with a diagonal A(t) and a sinusoidally
  moving target, in four presets: least squares with a fixed or a slowly
  breathing diagonal (``make_linreg``), and robust regression through a
  saturating loss, Geman-McClure or Welsch (``make_robust``),
* matrix factorization over a ratings stream in which a fixed number of new
  ratings is revealed per step (``make_mf``).

All analytic oracles accept any finite time, including negative times, so
backward differences are well defined from the very first step.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import Array, ProblemConstants, ProblemOracle, rng_from_seed
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

# Live ratings per chunk of the matrix-factorization residual: the chunk's
# two factor-row gathers (2 x 4096 x F doubles) stay in cache.
_CHUNK = 4096

# The toy's profile g(u) = u^2/20 + sin(u) is stationary where
# u/10 + cos(u) = 0, at seven points in |u| <= 10, correctly rounded here.
# The three local maxima split the axis into four basins; basin j holds
# the local minimizer _TOY_MINIMA[j] with value _TOY_MIN_VALUES[j].
_TOY_MAXIMA = np.array([-5.267116434076329, 1.7463292822528529, 8.966016478798073])
_TOY_MINIMA = (-7.06889123734267, -1.4275517787645942, 4.271095337633188, 9.678884018488255)
_TOY_MIN_VALUES = (
    1.7911367946075947, -0.8878628265737075, 0.00791287634158964, 4.4326595193404685
)


def _memo(compute, size=2, read_only=True):
    """Memoized ``key -> tuple of arrays`` for one problem instance.

    The ``size`` most recent keys are kept.  Two suit a time frame: cp with
    the extrapolated gradient and ufopc alternate between t and t - h
    within a step.  The arrays are read-only because every caller with the
    same key shares them, unless ``read_only`` is false: ``np.bincount``
    copies a read-only input on every call.
    """

    @functools.lru_cache(maxsize=size)
    def memo(key):
        pieces = compute(key)
        if read_only:
            for a in pieces:
                a.flags.writeable = False
        return pieces

    return memo


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

    The reference optimum is the local minimizer of the ripple basin that
    holds the hint (x = 0 without one), the point that gradient descent
    with step 1/1.1 reaches from it: such descent never crosses a
    stationary point in one dimension.  Its value is a constant per basin.
    """

    def value(x, t):
        u = x[0] - 10.0 * t
        return u * u / 20.0 + np.sin(u)

    def grad_x(x, t):
        u = x[0] - 10.0 * t
        return np.array([u / 10.0 + np.cos(u)])

    def hess_xx(x, t):
        u = x[0] - 10.0 * t
        return np.array([0.1 - np.sin(u)]).__mul__

    def optimum(t, x_hint=None):
        u = (0.0 if x_hint is None else x_hint[0]) - 10.0 * t
        j = int(np.searchsorted(_TOY_MAXIMA, u))
        return np.array([_TOY_MINIMA[j] + 10.0 * t]), _TOY_MIN_VALUES[j]

    return ProblemOracle(
        dim=1,
        value=value,
        grad_x=grad_x,
        hess_xx=hess_xx,
        optimum=optimum,
        domain_guard=1e8,
        name=TOY,
    )


def toy_constants() -> ProblemConstants:
    """Curvature/drift constants of the 1-D benchmark.

    Second spatial derivative lies in [0.1 - 1, 0.1 + 1]; mixed and double
    time derivatives scale it by 10 and 100.
    """
    return ProblemConstants(L1=1.1, L2=11.0, L3=110.0)


# ---------------------------------------------------------------------------
# Diagonal regression: least squares and robust losses
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


_SQUARED = "squared"

# loss name -> (total over residuals, elementwise first and second
# derivative); the squared loss has unit curvature, so its Hessian A(t)^2
# needs no residual.  A(t) is diagonal, so every Hessian is the elementwise
# product by its curvature vector.
_LOSSES = {
    _SQUARED: (lambda r: 0.5 * float(r @ r), lambda r: r, None),
    ROBUST_GM: (lambda r: float(geman_mcclure(r).sum()), geman_mcclure_d1, geman_mcclure_d2),
    ROBUST_WELSCH: (lambda r: float(welsch(r).sum()), welsch_d1, welsch_d2),
}


def _diag_regression(
    name: str,
    loss: str,
    small_diag: float,
    amplitude: float,
    drifting: bool,
) -> ProblemOracle:
    """``sum_i loss((A(t) x - b(t))_i)`` in dimension 10 with a diagonal A(t).

    The diagonal of A is ``small_diag`` for the first five coordinates and
    10 for the rest; a drifting diagonal is modulated by
    ``1 + 0.05 cos(t/200 + 2 pi i/10)``.  The target entries are
    ``amplitude * sin(t/100 + 2 pi i/10)``.  Every loss is nonnegative and
    vanishes only at a zero residual, so the optimum is the closed form
    ``A(t)^{-1} b(t)`` with value 0 whatever the hint.  A robust loss also
    gets a domain guard.
    """
    total, d1, d2 = _LOSSES[loss]
    squared = loss == _SQUARED
    base = np.where(_IDX <= 5, small_diag, 10.0)

    if drifting:
        def diag(t):
            s, c = np.sin(t / 200.0), np.cos(t / 200.0)
            return base * (1.0 + 0.05 * (c * _COSP - s * _SINP))
    else:
        def diag(t):
            return base

    def b(t):
        s, c = np.sin(t / 100.0), np.cos(t / 100.0)
        return amplitude * (s * _COSP + c * _SINP)

    frame = _memo(lambda t: (diag(t), b(t)))

    def value(x, t):
        a, bt = frame(t)
        return total(a * x - bt)

    def grad_x(x, t):
        a, bt = frame(t)
        return d1(a * x - bt) * a

    def hess_xx(x, t):
        a, bt = frame(t)
        return (a * a if squared else d2(a * x - bt) * a * a).__mul__

    def optimum(t, x_hint=None):
        a, bt = frame(t)
        return bt / a, 0.0

    return ProblemOracle(
        dim=10,
        value=value,
        grad_x=grad_x,
        hess_xx=hess_xx,
        optimum=optimum,
        domain_guard=None if squared else 1e4,
        name=name,
    )


def make_linreg(variant: str = LINREG_STATIC) -> ProblemOracle:
    """Least squares ``0.5 * ||A(t) x - b(t)||^2`` in dimension 10.

    The diagonal of A is 0.1 on the first five coordinates, the target
    amplitude 10, and the "drift" variant breathes the diagonal.  A is
    square and invertible, so the optimum ``x*(t) = A(t)^{-1} b(t)`` is
    closed form and the optimal value is identically zero.
    """
    if variant not in (LINREG_STATIC, LINREG_DRIFT):
        raise ValueError(f"unknown linreg variant {variant!r}")
    return _diag_regression(
        variant, _SQUARED, small_diag=0.1, amplitude=10.0, drifting=variant == LINREG_DRIFT
    )


def linreg_static_constants() -> ProblemConstants:
    """Spectral constants of the fixed-diagonal least-squares benchmark.

    The Hessian is constant with eigenvalues {0.01, 100} (squared extreme
    diagonal entries).  The mixed derivative has constant norm
    ``0.1 * sqrt(2.5 * (100 + 0.01))`` because the ten phases are equally
    spaced.
    """
    return ProblemConstants(
        L1=100.0,
        mu=0.01,
        L2=0.1 * float(np.sqrt(2.5 * (100.0 + 0.01))),
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


def make_robust(loss: str = ROBUST_GM) -> ProblemOracle:
    """Robust regression ``sum_i loss((A(t) x - b(t))_i)`` in dimension 10.

    The diagonal of A is 1 on the first five coordinates and breathes, and
    the target amplitude is 50.  Both losses saturate, so residuals far
    from zero contribute almost no gradient and the objective is
    non-convex.  Both losses are nonnegative and vanish only at a zero
    residual, so the reference optimum is the closed form
    ``A(t)^{-1} b(t)`` with value 0, as for least squares.
    """
    if loss not in (ROBUST_GM, ROBUST_WELSCH):
        raise ValueError(f"unknown robust loss {loss!r}; expected robust_gm or robust_welsch")
    return _diag_regression(loss, loss, small_diag=1.0, amplitude=50.0, drifting=True)


def robust_constants() -> ProblemConstants:
    """Smoothness constant of the robust benchmarks: |loss''| <= 1 and the
    diagonal never exceeds 10.5, so the Hessian norm is at most 10.5^2."""
    return ProblemConstants(L1=(10.0 * 1.05) ** 2)


# ---------------------------------------------------------------------------
# Streaming matrix factorization
# ---------------------------------------------------------------------------

def _revealed(t, step_period, initial_revealed, reveal_per_step, total) -> int:
    """Length of the revealed prefix at time t: the reveal schedule."""
    k = max(int(round(t / step_period)), 0)
    return min(initial_revealed + k * reveal_per_step, total)


def steps_to_reveal(total, initial_revealed, reveal_per_step) -> int:
    """Fewest steps whose last one, step ``steps - 1``, has revealed all
    ``total`` ratings: the inverse of ``_revealed``."""
    remaining = max(total - initial_revealed, 0)
    return -(-remaining // reveal_per_step) + 1


def make_mf(
    ds: RatingsDataset,
    latent_dim: int,
    reg: float,
    reveal_per_step: int,
    initial_revealed: int,
    step_period: float = 0.01,
) -> ProblemOracle:
    """Streaming matrix-factorization objective over a ratings dataset.

    At step k (time ``k * step_period``) the revealed set holds the first
    ``initial_revealed + k * reveal_per_step`` ratings, capped at the full
    dataset (``_revealed``; ``steps_to_reveal`` is its inverse); when the
    same pair is revealed twice the later rating wins.  The live set of the
    most recent prefix length is memoized.
    The objective averages squared error plus ``reg * (||P_u||^2 +
    ||Q_i||^2)`` over revealed pairs.  Only value and spatial gradient are
    available: no Hessian operator is offered.  Requesting it raises
    through the solver's oracle check.

    The decision vector concatenates the user-factor matrix (latent_dim x
    n_users) and the item-factor matrix (latent_dim x n_items), both
    column-major, so ``x[u*F:(u+1)*F]`` is user u's factor column.
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
    # read-only and shared; the duplicate-pair index is computed once per dataset
    users, items, vals, nxt = ds.users, ds.items, ds.values, ds.next_same
    U, I, F = ds.n_users, ds.n_items, latent_dim
    total = len(vals)
    dim = F * (U + I)

    def live_set(n):
        """Ratings live under prefix length n, with per-user/item counts."""
        m = nxt[:n] >= n
        u, i, r = users[:n][m], items[:n][m], vals[:n][m]
        cu = np.bincount(u, minlength=U).astype(float)
        ci = np.bincount(i, minlength=I).astype(float)
        return u, i, r, cu, ci

    # One slot: a live set takes ~24 bytes per revealed rating, and a
    # second slot raised the benchmark stream's median peak RSS by ~1.7 MB.
    # Writeable, because grad_x passes u and i to np.bincount 2F times.
    live_at = _memo(live_set, size=1, read_only=False)

    def live(t: float):
        return live_at(_revealed(t, step_period, initial_revealed, reveal_per_step, total))

    # No n x F array is formed.  The residual gathers factor rows one chunk
    # at a time, and the gradient scatters from transposed factor copies,
    # whose rows are contiguous, through one reused n-buffer.  Every row sum
    # and every bincount adds in the same order as over whole gathers.
    # mode="clip" lets take write into ``out`` without an intermediate copy;
    # it clamps nothing, because RatingsDataset validates its id ranges.
    def residual(Pt, Qt, u, i, r):
        """``r_j - <P_u, Q_i>`` for every live rating j."""
        err = np.empty(len(r))
        for s in range(0, len(r), _CHUNK):
            e = s + _CHUNK
            err[s:e] = r[s:e] - np.einsum(
                "jf,jf->j",
                Pt.take(u[s:e], axis=0, mode="clip"),
                Qt.take(i[s:e], axis=0, mode="clip"),
            )
        return err

    def value(x, t):
        u, i, r, cu, ci = live(t)
        Pt = x[: F * U].reshape(U, F)
        Qt = x[F * U:].reshape(I, F)
        err = residual(Pt, Qt, u, i, r)
        reg_term = cu @ np.einsum("uf,uf->u", Pt, Pt) + ci @ np.einsum("if,if->i", Qt, Qt)
        reg_scale = reg / len(u)
        return float(err @ err) / len(u) + reg_scale * float(reg_term)

    def grad_x(x, t):
        u, i, r, cu, ci = live(t)
        Pt = x[: F * U].reshape(U, F)
        Qt = x[F * U:].reshape(I, F)
        w = (-2.0 / len(u)) * residual(Pt, Qt, u, i, r)
        reg_scale = 2.0 * reg / len(u)
        dP = reg_scale * Pt * cu[:, None]
        dQ = reg_scale * Qt * ci[:, None]
        PT, QT = Pt.T.copy(), Qt.T.copy()
        buf = np.empty(len(u))
        for f in range(F):
            np.multiply(w, QT[f].take(i, out=buf, mode="clip"), out=buf)
            dP[:, f] += np.bincount(u, weights=buf, minlength=U)
            np.multiply(w, PT[f].take(u, out=buf, mode="clip"), out=buf)
            dQ[:, f] += np.bincount(i, weights=buf, minlength=I)
        return np.concatenate([dP.ravel(), dQ.ravel()])

    return ProblemOracle(dim=dim, value=value, grad_x=grad_x, name="mf")


def mf_warm_start(
    problem: ProblemOracle,
    target_grad_norm: float,
    seed: int,
    beta: float,
    max_iters: int = 200_000,
) -> tuple[Array, int]:
    """Descend the initial (fully frozen) objective to a target gradient norm.

    Plain gradient descent with step ``beta`` from seeded standard-normal
    factors on the problem at t = 0; returns the first iterate whose
    gradient norm is at or below the target, together with the number of
    iterations taken.
    """
    x = rng_from_seed(seed).standard_normal(problem.dim)
    # An overflow makes the gradient norm non-finite, which is the error
    # reported below, so numpy's warnings about it are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
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
