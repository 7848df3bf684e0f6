import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predcorr import (
    finite_difference_check,
    linreg_g2_bound,
    linreg_static_constants,
    make_linreg,
    make_mf,
    make_robust,
    make_toy,
    mf_warm_start,
    robust_constants,
    synth_ratings,
    toy_constants,
)
from predcorr.config import PROBLEMS
from predcorr.problems import (
    LINREG_DRIFT,
    LINREG_STATIC,
    ROBUST_GM,
    ROBUST_WELSCH,
    _CHUNK,
    _TOY_MAXIMA,
    _TOY_MINIMA,
    _revealed,
    geman_mcclure,
    geman_mcclure_d1,
    steps_to_reveal,
    welsch,
    welsch_d1,
)
from predcorr.ratings import RatingsDataset


MEMO_MF_DATA = synth_ratings(8, 7, 150, 3, 0.4, seed=11)

MEMO_PROBLEMS = {
    "toy": make_toy,
    "linreg_static": lambda: make_linreg("linreg_static"),
    "linreg_drift": lambda: make_linreg("linreg_drift"),
    "robust_gm": lambda: make_robust("robust_gm"),
    "robust_welsch": lambda: make_robust("robust_welsch"),
    # one reveal per 0.05 time units: the memo test's times span prefixes
    # 20 and 53..56, with evictions
    "mf": lambda: make_mf(
        MEMO_MF_DATA, 3, 0.05, reveal_per_step=1, initial_revealed=20, step_period=0.05
    ),
}


def oracle_outputs(p, x, t):
    """Every present oracle's result at (x, t), the optimum included."""
    out = [f(x, t) for f in (p.value, p.grad_x, p.hess_xx) if f is not None]
    if p.optimum is not None:
        out += list(p.optimum(t, x))
    return out


class TestTimeFrameMemo:
    """One instance reused along interleaved times (cache hits, misses and
    evictions) agrees bit for bit with a fresh instance at every call."""

    @pytest.mark.parametrize("name", sorted(MEMO_PROBLEMS))
    def test_interleaved_times_match_fresh_instances(self, name):
        make = MEMO_PROBLEMS[name]
        shared = make()
        rng = np.random.default_rng(5)
        t, h = 1.7, 0.05
        for s in (t, t - h, t, t + h, t - h, t + 2 * h, t + h, t, 0.0, -h, 0.0, t + h):
            x = 3.0 * rng.standard_normal(shared.dim)
            got = oracle_outputs(shared, x, s)
            want = oracle_outputs(make(), x, s)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("name", sorted(MEMO_PROBLEMS))
    def test_writing_into_results_leaves_next_call_unchanged(self, name):
        p = MEMO_PROBLEMS[name]()
        x, t = np.full(p.dim, 0.5), 0.3
        for oracle in (p.grad_x, p.hess_xx):
            if oracle is None:
                continue
            first = oracle(x, t)
            want = first.copy()
            first[...] = 1e9
            assert np.array_equal(oracle(x, t), want)
        if p.optimum is not None:
            xs, _ = p.optimum(t)
            want = xs.copy()
            xs[...] = 1e9
            assert np.array_equal(p.optimum(t)[0], want)


def toy_descent(toy, x, t):
    """Reference toy optimum: gradient descent with step 1/L1 from x, which
    never crosses a stationary point in one dimension."""
    for _ in range(100_000):
        g = toy.grad_x(x, t)
        if abs(g[0]) < 1e-10:
            break
        x = x - g / 1.1
    return x, toy.value(x, t)


class TestToy:
    def test_value_at_start(self):
        toy = make_toy()
        assert toy.value(np.array([8.0]), 0.0) == pytest.approx(
            64.0 / 20.0 + math.sin(8.0), rel=1e-15
        )

    def test_parallel_shift_identity(self):
        toy = make_toy()
        # binary-friendly values keep the shifted arguments bit-exact
        x, t, delta = np.array([0.5]), 0.75, 0.25
        assert toy.value(x + 10.0 * delta, t + delta) == toy.value(x, t)
        assert toy.grad_x(x + 10.0 * delta, t + delta)[0] == toy.grad_x(x, t)[0]

    def test_negative_curvature_at_start(self):
        toy = make_toy()
        h = toy.hess_xx(np.array([8.0]), 0.0)[0, 0]
        assert h == pytest.approx(0.1 - math.sin(8.0), rel=1e-15)
        assert h < 0

    def test_time_derivative_is_minus_ten_gradients(self):
        # central difference of the value in t
        toy = make_toy()
        for x, t in ((np.array([3.2]), 0.7), (np.array([-11.0]), 2.5)):
            s = 1e-5 * (1.0 + t)
            ft = (toy.value(x, t + s) - toy.value(x, t - s)) / (2 * s)
            g = toy.grad_x(x, t)[0]
            assert abs(ft + 10.0 * g) <= 1e-6 * (1.0 + abs(g))

    def test_finite_differences(self):
        rep = finite_difference_check(make_toy(), samples=15, seed=2, x_scale=5.0)
        assert rep.grad_x_max_rel < 1e-6
        assert rep.hess_xx_max_rel < 1e-4

    def test_basin_table_holds_every_stationary_point(self):
        # the roots of g'(u) = u/10 + cos(u) lie in |u| <= 10, where g'
        # changes sign exactly seven times; the table holds them to full
        # precision, minima and maxima alternating
        points = np.sort(np.concatenate([_TOY_MINIMA, _TOY_MAXIMA]))
        assert np.max(np.abs(points / 10.0 + np.cos(points))) <= 1e-15
        assert list(np.sign(0.1 - np.sin(points))) == [1, -1, 1, -1, 1, -1, 1]
        u = np.linspace(-10.0, 10.0, 200_001)
        assert np.count_nonzero(np.diff(np.sign(u / 10.0 + np.cos(u)))) == 7

    def test_optimum_is_where_descent_from_the_hint_ends(self):
        toy = make_toy()
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            t, u = rng.uniform(-5.0, 50.0), rng.uniform(-15.0, 15.0)
            if np.min(np.abs(u - _TOY_MAXIMA)) < 1e-3:
                continue
            hint = np.array([u + 10.0 * t])
            x_star, f_star = toy.optimum(t, hint)
            x_ref, f_ref = toy_descent(toy, hint, t)
            assert abs(x_star[0] - x_ref[0]) <= 1e-9
            assert abs(f_star - f_ref) <= 1e-15
            checked += 1

    def test_optimum_without_hint_descends_from_zero(self):
        # -10t falls in each of the four basins
        toy = make_toy()
        for t in (0.62, 7.5, 0.0, 0.3, -0.45, -0.93):
            x_star, f_star = toy.optimum(t)
            x_ref, f_ref = toy_descent(toy, np.zeros(1), t)
            assert abs(x_star[0] - x_ref[0]) <= 1e-9
            assert abs(f_star - f_ref) <= 1e-15
            assert toy.optimum(t, np.zeros(1))[0].tobytes() == x_star.tobytes()

    def test_constants(self):
        c = toy_constants()
        assert (c.L1, c.L2, c.L3) == (1.1, 11.0, 110.0)


class TestLinreg:
    def test_optimal_value_is_zero(self):
        p = make_linreg("linreg_static")
        for t in (0.0, 5.0, 123.0):
            x_star, f_star = p.optimum(t)
            assert f_star == 0.0
            assert np.linalg.norm(p.grad_x(x_star, t)) < 1e-12

    def test_value_at_origin(self):
        # sum of squared sines over ten equally spaced phases is exactly 5
        p = make_linreg("linreg_static")
        assert p.value(np.zeros(10), 0.0) == pytest.approx(250.0, rel=1e-12)

    def test_gradient_form(self):
        p = make_linreg("linreg_static")
        a = np.where(np.arange(1, 11) <= 5, 0.1, 10.0)
        x = np.linspace(-2, 2, 10)
        t = 7.0
        b = 10.0 * np.sin(t / 100.0 + 2 * np.pi * np.arange(1, 11) / 10.0)
        assert p.grad_x(x, t) == pytest.approx(a * (a * x - b), rel=1e-12)

    @pytest.mark.parametrize("variant", ["linreg_static", "linreg_drift"])
    def test_finite_differences(self, variant):
        rep = finite_difference_check(make_linreg(variant), samples=10, seed=5)
        assert rep.grad_x_max_rel < 1e-6
        assert rep.hess_xx_max_rel < 1e-4

    def test_drift_variant_moves_diagonal(self):
        p = make_linreg("linreg_drift")
        h0 = p.hess_xx(np.zeros(10), 0.0)
        h1 = p.hess_xx(np.zeros(10), 200.0)
        assert not np.allclose(h0, h1)

    def test_constants_and_g2_bound(self):
        c = linreg_static_constants()
        assert c.L1 == 100.0 and c.mu == 0.01
        assert c.rho == pytest.approx(1 - 1e-4)
        # the time derivative at x, a central difference of the value in t,
        # is bounded by ||Ax - b|| * ||b'||; the slack covers the difference
        p = make_linreg("linreg_static")
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=10) * 3
            t = rng.uniform(0, 400)
            s = 1e-5 * (1.0 + t)
            ft = (p.value(x, t + s) - p.value(x, t - s)) / (2 * s)
            ax = np.linalg.norm(np.where(np.arange(1, 11) <= 5, 0.1, 10.0) * x)
            assert abs(ft) <= linreg_g2_bound(ax) * (1.0 + 1e-6)


class TestClosedFormOptimum:
    """Every diagonal-regression preset minimizes at the zero residual
    ``A(t)^{-1} b(t)``, where each loss and so the objective is 0."""

    @pytest.mark.parametrize("name", [LINREG_STATIC, LINREG_DRIFT, ROBUST_GM, ROBUST_WELSCH])
    def test_zero_residual_point_is_the_minimum(self, name):
        p = PROBLEMS[name].build(None, None, None)
        rng = np.random.default_rng(13)
        for t in np.concatenate([[0.0, -0.05, -50.0], rng.uniform(-50.0, 5000.0, 12)]):
            x_star, f_star = p.optimum(t)
            for hint in (np.zeros(10), 50.0 * rng.standard_normal(10)):
                x_h, f_h = p.optimum(t, hint)
                assert x_h.tobytes() == x_star.tobytes() and f_h == f_star
            assert f_star == 0.0
            assert np.linalg.norm(p.grad_x(x_star, t)) < 1e-12
            assert p.value(x_star, t) < 1e-20
            for scale in (1e-3, 1.0, 50.0):
                assert p.value(x_star + scale * rng.standard_normal(10), t) >= f_star


class TestRobust:
    def test_loss_values_at_anchor_points(self):
        assert geman_mcclure(np.array(0.0)) == 0.0
        assert geman_mcclure_d1(np.array(0.0)) == 0.0
        assert welsch(np.array(0.0)) == 0.0
        assert welsch_d1(np.array(0.0)) == 0.0
        assert geman_mcclure(np.array(2.0)) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e6, 1e6))
    def test_loss_bounds_and_evenness(self, y):
        ya = np.array(y)
        assert 0.0 <= geman_mcclure(ya) < 2.0
        # the strict bound rounds up to exactly 1.0 in float64 once
        # exp(-y^2/2) drops below the spacing at 1
        assert 0.0 <= welsch(ya) <= 1.0
        if abs(y) <= 8.0:
            assert welsch(ya) < 1.0
        assert geman_mcclure(-ya) == geman_mcclure(ya)
        assert welsch(-ya) == welsch(ya)

    def test_welsch_objective_bounded_by_dimension(self):
        p = make_robust("robust_welsch")
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert p.value(rng.normal(size=10) * 50, rng.uniform(0, 100)) <= 10.0

    @pytest.mark.parametrize("loss", ["robust_gm", "robust_welsch"])
    def test_finite_differences(self, loss):
        rep = finite_difference_check(make_robust(loss), samples=10, seed=1)
        assert rep.grad_x_max_rel < 1e-6
        assert rep.hess_xx_max_rel < 1e-4

    def test_constants(self):
        assert robust_constants().L1 == pytest.approx(110.25)

    def test_domain_guard_is_loose(self):
        assert make_robust("robust_gm").domain_guard == 1e4

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            make_robust("huber")


def interpolating_instance(latent_dim=2, reg=0.0):
    """Dataset generated exactly by known factors, plus the flat iterate."""
    rng = np.random.default_rng(7)
    U, I, n = 6, 5, 40
    P = rng.normal(size=(U, latent_dim))
    Q = rng.normal(size=(I, latent_dim))
    u = rng.integers(0, U, size=n).astype(np.int64)
    i = rng.integers(0, I, size=n).astype(np.int64)
    vals = np.einsum("jf,jf->j", P[u], Q[i])
    ds = RatingsDataset(u, i, vals, np.arange(n, dtype=np.int64), U, I)
    x = np.concatenate([P.ravel(), Q.ravel()])
    problem = make_mf(ds, latent_dim, reg, reveal_per_step=5, initial_revealed=10)
    return problem, x


def distinct_pair_dataset(n_users, n_items, n, seed=0):
    """n ratings of n distinct (user, item) pairs, so that a prefix of
    length k leaves exactly k live ratings."""
    rng = np.random.default_rng(seed)
    pairs = rng.permutation(n_users * n_items)[:n]
    return RatingsDataset(
        (pairs // n_items).astype(np.int64), (pairs % n_items).astype(np.int64),
        rng.normal(size=n), np.arange(n, dtype=np.int64), n_users, n_items,
    )


def gathered_value_and_grad(ds, n, latent_dim, reg, x):
    """The mf objective and gradient on the first n ratings of a
    distinct-pair dataset, through whole n x F factor-row gathers."""
    u, i, r = ds.users[:n], ds.items[:n], ds.values[:n]
    U, I, F = ds.n_users, ds.n_items, latent_dim
    cu = np.bincount(u, minlength=U).astype(float)
    ci = np.bincount(i, minlength=I).astype(float)
    Pt = x[: F * U].reshape(U, F)
    Qt = x[F * U:].reshape(I, F)
    Pu, Qi = Pt[u], Qt[i]
    err = r - np.einsum("jf,jf->j", Pu, Qi)
    reg_term = cu @ np.einsum("uf,uf->u", Pt, Pt) + ci @ np.einsum("if,if->i", Qt, Qt)
    value = float(err @ err) / n + (reg / n) * float(reg_term)
    w = (-2.0 / n) * err
    reg_scale = 2.0 * reg / n
    dP = reg_scale * Pt * cu[:, None]
    dQ = reg_scale * Qt * ci[:, None]
    for f in range(F):
        dP[:, f] += np.bincount(u, weights=w * Qi[:, f], minlength=U)
        dQ[:, f] += np.bincount(i, weights=w * Pu[:, f], minlength=I)
    return value, np.concatenate([dP.ravel(), dQ.ravel()])


class TestMatrixFactorization:
    def test_interpolating_point_has_zero_value_and_gradient(self):
        problem, x = interpolating_instance(reg=0.0)
        assert problem.value(x, 0.0) == 0.0
        assert np.all(problem.grad_x(x, 0.0) == 0.0)

    def test_gradient_matches_finite_differences(self):
        ds = synth_ratings(8, 7, 150, 3, 0.4, seed=11)
        p = make_mf(ds, latent_dim=3, reg=0.05, reveal_per_step=10, initial_revealed=60)
        rep = finite_difference_check(p, samples=4, seed=4)
        assert rep.grad_x_max_rel < 1e-6
        assert rep.hess_xx_max_rel is None

    @pytest.mark.parametrize("initial", [1000, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 123])
    def test_chunked_oracle_matches_whole_gathers_bit_for_bit(self, initial):
        # live sets below one chunk, of exactly one, and of several with a
        # ragged tail; later times add 37 ratings per step
        ds = distinct_pair_dataset(150, 120, 3 * _CHUNK)
        F, reg = 20, 0.01
        p = make_mf(ds, F, reg, reveal_per_step=37, initial_revealed=initial)
        x = np.random.default_rng(3).normal(size=p.dim)
        for t in (0.0, 0.01, 0.05, 0.4):
            n = _revealed(t, 0.01, initial, 37, len(ds))
            value, grad = gathered_value_and_grad(ds, n, F, reg, x)
            assert p.value(x, t) == value
            assert np.array_equal(p.grad_x(x, t), grad)

    def test_gradient_matches_finite_differences_across_chunks(self):
        ds = distinct_pair_dataset(100, 90, 2 * _CHUNK + 123, seed=1)
        p = make_mf(ds, latent_dim=2, reg=0.05, reveal_per_step=10, initial_revealed=len(ds))
        rep = finite_difference_check(p, samples=2, seed=4)
        assert rep.grad_x_max_rel < 1e-6

    @pytest.mark.parametrize("oracle", ["grad_x", "value"])
    def test_oracle_allocates_no_ratings_by_factors_array(self, oracle):
        # one n x F gather of the live set would take 8 MB
        n, F = 50_000, 20
        ds = distinct_pair_dataset(400, 300, n)
        p = make_mf(ds, F, 0.01, reveal_per_step=10, initial_revealed=n)
        x = np.random.default_rng(0).normal(size=p.dim)
        call = getattr(p, oracle)
        call(x, 0.0)   # builds the memoized live set
        tracemalloc.start()
        try:
            call(x, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * F * 8 / 2

    def test_doubling_reg_doubles_pure_regularization(self):
        p1, x = interpolating_instance(reg=0.3)
        p2, _ = interpolating_instance(reg=0.6)
        v1, v2 = p1.value(x, 0.0), p2.value(x, 0.0)
        assert v1 > 0
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_untouched_users_have_zero_gradient(self):
        # user ids 0..5 but only 0 and 1 revealed at t=0
        u = np.array([0, 1, 0, 1], dtype=np.int64)
        i = np.array([0, 1, 2, 0], dtype=np.int64)
        vals = np.array([1.0, -2.0, 0.5, 3.0])
        ds = RatingsDataset(u, i, vals, np.arange(4, dtype=np.int64), 6, 3)
        p = make_mf(ds, latent_dim=2, reg=0.0, reveal_per_step=1, initial_revealed=4)
        x = np.arange(p.dim, dtype=float) / 7.0
        g = p.grad_x(x, 0.0)
        for uid in range(2, 6):
            assert np.all(g[uid * 2:(uid + 1) * 2] == 0.0)

    def test_duplicate_pair_keeps_latest_revealed(self):
        u = np.array([0, 0], dtype=np.int64)
        i = np.array([0, 0], dtype=np.int64)
        vals = np.array([1.0, 5.0])
        ds = RatingsDataset(u, i, vals, np.array([0, 1], dtype=np.int64), 1, 1)
        p = make_mf(ds, latent_dim=1, reg=0.0, reveal_per_step=1, initial_revealed=1)
        x = np.array([1.0, 1.0])  # prediction is exactly 1.0
        # only the first rating revealed: residual 0
        assert p.value(x, 0.0) == 0.0
        # both revealed at step 1 (default period 0.01): later rating
        # overwrites, single pair with residual 4
        assert p.value(x, 0.01) == pytest.approx(16.0)

    def test_reveal_schedule(self):
        for k in (0, 1, 5, 9, 30):
            assert _revealed(k * 0.01, 0.01, 30, 7, 100) == min(30 + 7 * k, 100)
        # the inverse: the last step of an auto run reveals the whole
        # stream, and the step before it does not
        for total, initial, per in (
            (100, 30, 7), (100, 30, 10), (600, 300, 50), (100, 99, 7),
            (100, 100, 7), (100, 150, 7), (1, 1, 1),
        ):
            steps = steps_to_reveal(total, initial, per)
            last = _revealed((steps - 1) * 0.01, 0.01, initial, per, total)
            assert last == total
            if steps > 1:
                assert _revealed((steps - 2) * 0.01, 0.01, initial, per, total) < total
        assert steps_to_reveal(600, 300, 50) == 7
        assert steps_to_reveal(100, 150, 7) == 1

    def test_warm_start_reaches_target(self):
        # beta must respect this tiny instance's curvature (~|K| pairs only)
        ds = synth_ratings(10, 9, 400, 2, 0.2, seed=5)
        p = make_mf(ds, latent_dim=3, reg=0.01, reveal_per_step=10, initial_revealed=200)
        x0, iters = mf_warm_start(p, 0.05, seed=0, beta=1.0)
        assert np.linalg.norm(p.grad_x(x0, 0.0)) <= 0.05
        x1, iters1 = mf_warm_start(p, 1e-4, seed=0, beta=1.0)
        assert np.linalg.norm(p.grad_x(x1, 0.0)) <= 1e-4
        assert iters1 >= iters

    def test_warm_start_diverging_step_fails_loudly(self):
        ds = synth_ratings(10, 9, 400, 2, 0.2, seed=5)
        p = make_mf(ds, latent_dim=3, reg=0.01, reveal_per_step=10, initial_revealed=200)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match="step size"
        ):
            mf_warm_start(p, 1e-4, seed=0, beta=50.0)

    def test_oracle_purity(self):
        ds = synth_ratings(8, 7, 150, 3, 0.4, seed=11)
        p = make_mf(ds, latent_dim=3, reg=0.05, reveal_per_step=10, initial_revealed=60)
        x = np.arange(p.dim, dtype=float) / p.dim
        for t in (0.0, 0.03, 0.0):  # revisit t=0 after the cache moved on
            assert p.value(x, t) == p.value(x, t)
            assert np.array_equal(p.grad_x(x, t), p.grad_x(x, t))

    def test_parameter_validation(self):
        ds = synth_ratings(4, 4, 20, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            make_mf(ds, 0, 0.0, 1, 5)
        with pytest.raises(ValueError):
            make_mf(ds, 2, -0.1, 1, 5)
        with pytest.raises(ValueError):
            make_mf(ds, 2, 0.0, 0, 5)
        with pytest.raises(ValueError):
            make_mf(ds, 2, 0.0, 1, 0)
        with pytest.raises(ValueError):
            make_mf(ds, 2, 0.0, 1, 21)
