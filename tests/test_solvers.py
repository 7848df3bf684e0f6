import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predcorr import (
    CP,
    FOA_MIN,
    TVGD,
    UFOPC,
    MissingOracleError,
    ProblemOracle,
    SolverConfig,
    TimeGrid,
    correct,
    g_select,
    make_linreg,
    make_mf,
    make_robust,
    make_toy,
    predict_cauchy_point,
    predict_foa_min,
    predict_ufopc,
    rng_from_seed,
    run,
    synth_ratings,
    tail_stats,
)

from conftest import diag_quadratic


def toy_x0():
    return np.array([8.0])


def counting_grad(problem):
    """The same problem with ``grad_x`` counting its calls in a 1-list."""
    calls = [0]

    def grad_x(x, t):
        calls[0] += 1
        return problem.grad_x(x, t)

    return replace(problem, grad_x=grad_x), calls


def run_iterates(problem, config, grid, x0):
    """Run with ``f_corr`` recorded and return ``(trace, x_pred, x_corr)``,
    the entering and corrected iterate of every step as (steps, dim)
    arrays, logged from the points ``value`` receives: such a run calls it
    twice per step, at the entering point, then at the corrected one."""
    points = []

    def value(x, t):
        points.append(x.copy())
        return problem.value(x, t)

    trace = run(replace(problem, value=value), config, grid, x0, record_f_corr=True)
    assert len(points) == 2 * len(trace)
    return trace, np.array(points[0::2]), np.array(points[1::2])


class TestSolverConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            SolverConfig(algorithm="newton")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(C=-1),
            dict(beta=0.0),
            dict(P=-2),
            dict(alpha=-1.0),
            dict(gamma=1.5),
            dict(zeta=0.0),
            dict(delta=0.0),
            dict(g_choice="future"),
            dict(beta=math.inf),
            dict(alpha=math.inf),
            dict(zeta=math.inf),
            dict(delta=math.inf),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="tvgd", **kwargs)


class TestCorrect:
    def test_one_step_solves_isotropic_quadratic(self):
        p = diag_quadratic([4.0, 4.0, 4.0])
        x = np.array([3.0, -1.0, 0.5])
        out = correct(p, x, 0.0, C=1, beta=0.25)
        assert np.array_equal(out, np.zeros(3))

    def test_zero_gradient_is_fixed_point(self):
        p = diag_quadratic([2.0, 5.0])
        out = correct(p, np.zeros(2), 0.0, C=7, beta=0.1)
        assert np.array_equal(out, np.zeros(2))

    def test_c_zero_returns_input_unchanged(self):
        p = diag_quadratic([2.0])
        x = np.array([1.25])
        assert np.array_equal(correct(p, x, 0.0, C=0, beta=1.0), x)

    def test_toy_hand_step(self):
        out = correct(make_toy(), toy_x0(), 0.0, C=1, beta=1.0)
        assert out[0] == pytest.approx(8.0 - (0.8 + math.cos(8.0)), rel=1e-15)

    def test_given_entry_gradient_replaces_first_evaluation(self):
        p = make_linreg("linreg_static")
        x = np.linspace(-1.0, 1.0, 10)
        counted, calls = counting_grad(p)
        out = correct(counted, x, 0.3, C=2, beta=0.01, grad=p.grad_x(x, 0.3))
        assert calls == [1]
        assert np.array_equal(out, correct(p, x, 0.3, C=2, beta=0.01))

    def test_nonfinite_iterate_is_returned_unevaluated(self):
        def value(x, t):
            return 1e200 * float(x[0] ** 4)

        def grad_x(x, t):
            return 4e200 * x**3

        p, calls = counting_grad(ProblemOracle(dim=1, value=value, grad_x=grad_x, name="steep"))
        with np.errstate(over="ignore"):
            out = correct(p, np.array([10.0]), 0.0, C=3, beta=1.0)
        # 10 -> -4e203 -> inf; a third gradient would be taken at inf
        assert not np.isfinite(out).all()
        assert calls == [2]


class TestPredictFoaMin:
    def test_zero_gradient_guard(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(predict_foa_min(np.zeros(2), x, 10.0, 0.1, 1e-10), x)

    def test_toy_unit_step(self):
        toy = make_toy()
        x = toy_x0()
        g = toy.grad_x(x, 0.0)  # positive scalar gradient
        out = predict_foa_min(g, x, zeta=10.0, h=0.1, delta=1e-10)
        assert out[0] == 7.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_step_length_identity(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=dim)
        if np.linalg.norm(g) <= 1e-9:
            return
        x = rng.normal(size=dim)
        out = predict_foa_min(g, x, zeta=2.5, h=0.2, delta=1e-9)
        assert np.linalg.norm(out - x) == pytest.approx(0.5, abs=1e-12)


def model_value_along_direction(g, H, s):
    """Quadratic-model value at arc length s along -g/||g||."""
    gn = np.linalg.norm(g)
    d = -g / gn
    return float(g @ (s * d) + 0.5 * s * s * (d @ H @ d))


class TestPredictCauchyPoint:
    def test_interior_minimizer_1d(self):
        # curvature 1, gradient 2: minimizer at arc length 2, radius 10
        x = np.array([5.0])
        out = predict_cauchy_point(np.array([2.0]), np.ones(1).__mul__, x, 10.0, 1.0, 1e-10)
        assert out[0] == pytest.approx(3.0, rel=1e-15)
        # brute-force the 1-d model m(s) = 2 s + s^2 / 2 over [-10, 10]
        s = np.arange(-10.0, 10.0001, 1e-4)
        m = 2.0 * s + 0.5 * s * s
        assert s[np.argmin(m)] == pytest.approx(-2.0, abs=1e-3)

    def test_negative_curvature_matches_full_step(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=3)
        H = -np.eye(3)
        x = rng.normal(size=3)
        cp = predict_cauchy_point(g, H.__matmul__, x, 1.5, 0.1, 1e-10)
        foa = predict_foa_min(g, x, 1.5, 0.1, 1e-10)
        assert np.array_equal(cp, foa)

    def test_zero_curvature_takes_full_step(self):
        # q = 0 exactly is treated like negative curvature
        g = np.array([1.0, 0.0])
        H = np.array([[0.0, 0.0], [0.0, 1.0]])
        x = np.zeros(2)
        out = predict_cauchy_point(g, H.__matmul__, x, 2.0, 0.5, 1e-10)
        assert np.linalg.norm(out - x) == pytest.approx(1.0, rel=1e-14)

    def test_far_minimizer_clamped_to_radius(self):
        g = np.array([1e-3])
        H = np.array([[1e-6]])
        x = np.array([0.0])
        out = predict_cauchy_point(g, H.__matmul__, x, 1.0, 0.5, 1e-12)
        assert abs(out[0]) == pytest.approx(0.5, rel=1e-14)

    def test_guard_branch(self):
        x = np.array([1.0])
        out = predict_cauchy_point(np.array([1e-12]), np.ones(1).__mul__, x, 1.0, 1.0, 1e-10)
        assert np.array_equal(out, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_never_beats_brute_force_or_exceeds_radius(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=dim)
        if np.linalg.norm(g) < 1e-6:
            return
        A = rng.normal(size=(dim, dim))
        H = (A + A.T) / 2
        x = rng.normal(size=dim)
        radius = float(rng.uniform(0.1, 3.0))
        out = predict_cauchy_point(g, H.__matmul__, x, radius, 1.0, 1e-12)
        step = np.linalg.norm(out - x)
        assert step <= radius * (1 + 1e-12)
        grid = np.linspace(0.0, radius, 4001)
        best = min(model_value_along_direction(g, H, s) for s in grid[1:])
        assert model_value_along_direction(g, H, step) <= best + 1e-7


class TestPredictUfopc:
    def test_p_zero_is_identity(self):
        p = diag_quadratic([1.0, 2.0])
        x = np.array([0.3, -0.4])
        assert np.array_equal(predict_ufopc(p, x, 1.0, 0.1, P=0, alpha=0.5, gamma=0.0), x)

    def drifting_quadratic(self):
        # 0.5 x'Ax - b(t)'x with b linear in t: backward difference is exact
        A = np.diag([2.0, 3.0])
        c = np.array([1.0, -2.0])

        def value(x, t):
            return 0.5 * float(x @ A @ x) - float((c * t) @ x)

        def grad_x(x, t):
            return A @ x - c * t

        return ProblemOracle(
            dim=2, value=value, grad_x=grad_x, hess_xx=lambda x, t: A.__matmul__, name="driftq"
        )

    def test_single_step_closed_form(self):
        p = self.drifting_quadratic()
        x = np.array([0.5, 0.25])
        t, h, alpha, gamma = 0.5, 0.25, 0.125, 0.75
        out = predict_ufopc(p, x, t, h, P=1, alpha=alpha, gamma=gamma)
        dtg = (p.grad_x(x, t) - p.grad_x(x, t - h)) / h
        expected = x - alpha * (h * dtg + gamma * p.grad_x(x, t))
        assert np.array_equal(out, expected)

    def test_converges_to_model_minimizer(self):
        p = self.drifting_quadratic()
        x = np.array([0.5, 0.25])
        t, h = 1.0, 0.125
        out = predict_ufopc(p, x, t, h, P=400, alpha=0.3, gamma=0.0)
        dtg = (p.grad_x(x, t) - p.grad_x(x, t - h)) / h
        expected = x - np.linalg.solve(np.diag([2.0, 3.0]), h * dtg)
        assert out == pytest.approx(expected, rel=1e-9)

    def test_requires_hessian(self):
        bare = replace(diag_quadratic([1.0]), hess_xx=None)
        with pytest.raises(MissingOracleError):
            predict_ufopc(bare, np.zeros(1), 0.0, 0.1, P=1, alpha=1.0, gamma=0.0)


class TestGSelect:
    def test_plain_is_current_gradient(self):
        p = make_linreg("linreg_static")
        x = np.arange(10.0)
        assert np.array_equal(g_select(p, x, 2.0, 0.1, "plain"), p.grad_x(x, 2.0))

    def test_time_invariant_extrapolation_collapses(self):
        p = diag_quadratic([1.0, 3.0])
        x = np.array([1.0, -1.0])
        plain = g_select(p, x, 1.0, 0.1, "plain")
        extr = g_select(p, x, 1.0, 0.1, "extrapolated")
        assert np.array_equal(plain, extr)

    def test_first_step_falls_back_to_plain(self):
        p = make_linreg("linreg_static")
        x = np.ones(10)
        out = g_select(p, x, 0.0, 0.1, "extrapolated", first_step=True)
        assert np.array_equal(out, p.grad_x(x, 0.0))

    def test_second_order_extrapolation_error(self):
        # against the analytic mixed derivative of the least-squares problem
        p = make_linreg("linreg_static")
        x = np.ones(10) * 0.5
        a = np.where(np.arange(1, 11) <= 5, 0.1, 10.0)
        phase = 2 * np.pi * np.arange(1, 11) / 10.0

        def err(h):
            t = 3.0
            g = g_select(p, x, t, h, "extrapolated")
            dtg_analytic = -a * 0.1 * np.cos(t / 100.0 + phase)
            target = p.grad_x(x, t) + h * dtg_analytic
            return np.linalg.norm(g - target)

        ratio = err(0.02) / err(0.01)
        assert 3.5 <= ratio <= 4.5


class TestRun:
    def test_single_step_noop(self):
        p = diag_quadratic([1.0, 1.0])
        cfg = SolverConfig(algorithm=TVGD, C=0, beta=1.0)
        x0 = np.array([2.0, -1.0])
        tr, _, x_corr = run_iterates(p, cfg, TimeGrid(0.1, 1), x0)
        assert len(tr) == 1 and not tr.diverged
        assert np.array_equal(x_corr[0], x0)
        assert tr.f_pred[0] == p.value(x0, 0.0)

    def test_tvgd_entering_point_is_previous_corrected(self):
        toy = make_toy()
        cfg = SolverConfig(algorithm=TVGD, C=1, beta=1.0)
        _, x_pred, x_corr = run_iterates(toy, cfg, TimeGrid(0.1, 20), toy_x0())
        assert np.array_equal(x_pred[1:], x_corr[:-1])

    def test_run_is_deterministic(self):
        p = make_linreg("linreg_static")
        cfg = SolverConfig(algorithm=FOA_MIN, C=3, beta=0.01, zeta=2.5)
        x0 = np.arange(10.0) / 3.0
        a, a_pred, a_corr = run_iterates(p, cfg, TimeGrid(0.01, 300), x0)
        b, b_pred, b_corr = run_iterates(p, cfg, TimeGrid(0.01, 300), x0)
        for fa, fb in (
            (a.f_pred, b.f_pred),
            (a.grad_norm, b.grad_norm),
            (a.gap, b.gap),
            (a.f_corr, b.f_corr),
            (a_pred, b_pred),
            (a_corr, b_corr),
        ):
            assert np.array_equal(fa, fb)

    def test_prediction_step_length_bounded(self):
        toy = make_toy()
        for algo, gch in ((FOA_MIN, "plain"), (CP, "extrapolated")):
            cfg = SolverConfig(algorithm=algo, C=1, beta=1.0, zeta=10.0, g_choice=gch)
            _, x_pred, x_corr = run_iterates(toy, cfg, TimeGrid(0.1, 200), toy_x0())
            moves = np.linalg.norm(x_pred[1:] - x_corr[:-1], axis=1)
            assert np.all(moves <= 10.0 * 0.1 + 1e-12)

    def test_correction_descent_inequality(self):
        # one gradient step with step size 1/L1 descends by grad^2/(2 L1)
        p = make_linreg("linreg_static")
        L1 = 100.0
        cfg = SolverConfig(algorithm=TVGD, C=1, beta=1 / L1)
        x0 = np.linspace(-1, 1, 10)
        tr = run(p, cfg, TimeGrid(0.01, 400), x0, record_f_corr=True)
        for k in range(len(tr)):
            bound = tr.f_pred[k] - tr.grad_norm[k] ** 2 / (2 * L1)
            assert tr.f_corr[k] <= bound + 1e-9 + 1e-9 * abs(bound)

    def test_toy_foa_tracks_without_divergence(self):
        toy = make_toy()
        cfg = SolverConfig(algorithm=FOA_MIN, C=1, beta=1.0, zeta=10.0)
        tr, x_pred, _ = run_iterates(toy, cfg, TimeGrid(0.1, 1000), toy_x0())
        assert not tr.diverged
        shifted = x_pred[:, 0] - 10.0 * tr.t
        assert np.all(np.abs(shifted) < 20.0)

    def test_ufopc_gamma1_diverges_on_toy(self):
        toy = make_toy()
        cfg = SolverConfig(algorithm=UFOPC, C=1, beta=1.0, P=10, alpha=1.0, gamma=1.0)
        tr = run(toy, cfg, TimeGrid(0.1, 100), toy_x0())
        assert tr.diverged and tr.diverged_step is not None
        assert len(tr) == tr.diverged_step + 1
        assert len(tr) < 100

    def test_shift_equivariance_on_toy(self):
        # shifting start and time together translates the whole run
        toy = make_toy()
        delta = 4.0
        shifted = replace(
            toy,
            value=lambda x, t: toy.value(x, t + delta),
            grad_x=lambda x, t: toy.grad_x(x, t + delta),
            hess_xx=lambda x, t: toy.hess_xx(x, t + delta),
            optimum=None,
        )
        cfg = SolverConfig(algorithm=FOA_MIN, C=1, beta=1.0, zeta=10.0)
        grid = TimeGrid(0.25, 40)
        _, base, _ = run_iterates(toy, cfg, grid, toy_x0())
        _, moved, _ = run_iterates(shifted, cfg, grid, toy_x0() + 10.0 * delta)
        assert moved == pytest.approx(base + 10.0 * delta, abs=1e-9)

    def test_missing_hessian_refused_before_first_step(self):
        ds = synth_ratings(6, 5, 60, 2, 0.1, seed=0)
        mf = make_mf(ds, latent_dim=2, reg=0.0, reveal_per_step=5, initial_revealed=20)
        cfg = SolverConfig(algorithm=CP, C=1, beta=1.0, zeta=1.0)
        with pytest.raises(MissingOracleError):
            run(mf, cfg, TimeGrid(0.01, 4), np.zeros(mf.dim))

    def test_gap_recorded_for_closed_form(self):
        cfg = SolverConfig(algorithm=TVGD, C=1, beta=0.01)
        for p in (make_linreg("linreg_static"), make_robust("robust_gm"),
                  make_robust("robust_welsch")):
            tr = run(p, cfg, TimeGrid(0.1, 10), np.zeros(10))
            assert tr.gap is not None
            assert tr.gap.tobytes() == tr.f_pred.tobytes()  # optimal value is zero

    def test_gap_skipped_for_numeric_by_default(self):
        """The toy's optimum, once a numeric solve, is a basin-table lookup,
        so its gap is recorded by default; only compute_gap=False skips it."""
        toy = make_toy()
        cfg = SolverConfig(algorithm=TVGD, C=1, beta=1.0)
        assert run(toy, cfg, TimeGrid(0.1, 5), toy_x0(), compute_gap=False).gap is None
        for flag in (None, True):
            tr = run(toy, cfg, TimeGrid(0.1, 5), toy_x0(), compute_gap=flag)
            assert tr.gap is not None and np.all(tr.gap >= -1e-9)

    def test_bad_x0_shape_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            run(
                make_toy(),
                SolverConfig(algorithm=TVGD),
                TimeGrid(0.1, 2),
                np.zeros(3),
            )

    @pytest.mark.parametrize("problem", [make_linreg("linreg_static"), make_toy()],
                             ids=["unguarded", "guarded"])
    # 1e200 is finite, but ||x0||^2 overflows
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_nonfinite_x0_rejected(self, problem, bad):
        x0 = np.zeros(problem.dim)
        x0[-1] = bad
        with pytest.raises(ValueError, match="x0 must be finite"):
            run(problem, SolverConfig(algorithm=TVGD), TimeGrid(0.1, 2), x0)


class TestClosedForm:
    """tvgd with C = 1 on ``linreg_static`` is, per coordinate, the linear
    filter x_{k+1} = rho x_k + (1 - rho) x*(t_k) with rho = 1 - beta a^2 and
    x*(t) = (10/a) sin(t/100 + phi).  Summing the geometric series of
    z = exp(i h/100) gives

        x_k = rho^k x_0 + (1 - rho) (10/a) Im(e^{i phi} (z^k - rho^k) / (z - rho)),

    which checks the loop against the mathematics, not against itself."""

    H, STEPS, BETA = 0.1, 2000, 0.01

    @pytest.fixture(scope="class")
    def runs(self):
        """The run's trace, and the filter's values and gradient norms."""
        p = make_linreg("linreg_static")
        h, steps, beta = self.H, self.STEPS, self.BETA
        x0 = rng_from_seed(0).standard_normal(p.dim)
        tr = run(p, SolverConfig(TVGD, C=1, beta=beta), TimeGrid(h, steps), x0)
        assert not tr.diverged and len(tr) == steps

        idx = np.arange(1, 11)
        a = np.where(idx <= 5, 0.1, 10.0)
        phi = 2.0 * np.pi * idx / 10.0
        rho = 1.0 - beta * a * a
        z = np.exp(1j * h / 100.0)
        k = np.arange(steps)[:, None]
        geometric = np.exp(1j * phi) * (z**k - rho**k) / (z - rho)
        x = rho**k * x0 + (1.0 - rho) * (10.0 / a) * geometric.imag
        r = a * x - 10.0 * np.sin(h * k / 100.0 + phi)
        f = 0.5 * (r**2).sum(axis=1)
        grad_norm = np.linalg.norm(a * r, axis=1)
        return tr, f, grad_norm

    def test_tvgd_on_static_least_squares_matches_the_filter(self, runs):
        tr, f, _ = runs
        assert np.all(np.abs(tr.f_pred - f) <= 1e-10 * f)
        # the optimal value is 0, so the gap is the value
        assert np.all(np.abs(tr.gap - f) <= 1e-10 * f)

    def test_tail_stats_match_the_filter(self, runs):
        tr, f, grad_norm = runs
        tail = tail_stats(tr)
        w = self.STEPS // 2
        assert tail.window == w
        want = {
            "max_grad": grad_norm[-w:].max(),
            "mean_grad": grad_norm[-w:].mean(),
            "max_gap": f[-w:].max(),
            "mean_gap": f[-w:].mean(),
        }
        for stat, value in want.items():
            assert abs(getattr(tail, stat) - value) <= 1e-10 * value, stat


class TestCorrectedValue:
    """``f_corr``, the value at the corrected iterate, recorded on request."""

    @pytest.mark.parametrize(
        "config",
        [
            SolverConfig(TVGD, C=2, beta=0.01),
            SolverConfig(UFOPC, C=2, beta=0.01, P=3, alpha=0.01, gamma=0.5),
            SolverConfig(FOA_MIN, C=2, beta=0.01, zeta=2.5),
            SolverConfig(CP, C=2, beta=0.01, zeta=2.5, g_choice="extrapolated"),
        ],
        ids=lambda c: c.algorithm,
    )
    def test_value_at_the_logged_corrected_iterate(self, config):
        p = make_linreg("linreg_drift")
        grid = TimeGrid(0.1, 30)
        tr, x_pred, x_corr = run_iterates(p, config, grid, np.linspace(-2.0, 2.0, 10))
        assert not tr.diverged
        for k, t in enumerate(tr.t):
            assert np.array_equal(x_corr[k], correct(p, x_pred[k], t, config.C, config.beta))
            assert tr.f_corr[k] == p.value(x_corr[k], t)
        assert run(p, config, grid, x_pred[0]).f_corr is None

    def test_memory_holds_no_iterate_per_step(self):
        d, steps = 10_000, 200
        p = ProblemOracle(
            dim=d,
            value=lambda x, t: 0.5 * float((x - t) @ (x - t)),
            grad_x=lambda x, t: x - t,
            name="moving_square",
        )
        cfg = SolverConfig(FOA_MIN, C=1, beta=0.5, zeta=1.0)
        tracemalloc.start()
        try:
            tr = run(p, cfg, TimeGrid(0.01, steps), np.zeros(d), record_f_corr=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not tr.diverged and np.isfinite(tr.f_corr).all()
        assert peak < steps * d * 8 / 10


def half_square(**pieces):
    """``0.5 x^2`` in one dimension with domain guard 10 and a closed-form
    optimum at zero; ``pieces`` replace oracles to force one divergence."""
    base = ProblemOracle(
        dim=1,
        value=lambda x, t: 0.5 * float(x @ x),
        grad_x=lambda x, t: x.copy(),
        hess_xx=lambda x, t: np.ones(1).__mul__,
        optimum=lambda t, x_hint=None: (np.zeros(1), 0.0),
        domain_guard=10.0,
        name="half_square",
    )
    return replace(base, **pieces)


NAN = math.nan


class TestDivergenceCases:
    """Each way a run can diverge, pinned on the trace it leaves: length,
    step, which of f_pred / grad_norm / gap are NaN, and f_corr, which is
    NaN on the diverged step whether the entry or the correction failed."""

    @pytest.mark.parametrize(
        "problem, config, steps, nan_f, nan_gn, nan_gap, f_corr",
        [
            # the quadratic model's NaN curvature makes the prediction NaN
            (
                half_square(hess_xx=lambda x, t: np.full(1, NAN).__mul__),
                SolverConfig(UFOPC, C=1, beta=0.5, P=1, alpha=1.0),
                2, [0, 1], [0, 1], [0, 1], [0.125, NAN],
            ),
            # a prediction of length zeta*h = 100 lands at -99.5
            (
                half_square(),
                SolverConfig(FOA_MIN, C=1, beta=0.5, zeta=1000.0),
                2, [0, 0], [0, 0], [0, 1], [0.125, NAN],
            ),
            (
                half_square(value=lambda x, t: NAN if t > 0 else 0.5 * float(x @ x)),
                SolverConfig(TVGD, C=1, beta=0.5),
                2, [0, 1], [0, 0], [0, 1], [0.125, NAN],
            ),
            # the second correction gradient at step 1 (x = 0.125) is NaN
            (
                half_square(grad_x=lambda x, t: np.where(np.abs(x) < 0.2, NAN, x)),
                SolverConfig(TVGD, C=2, beta=0.5),
                2, [0, 0], [0, 0], [0, 0], [0.03125, NAN],
            ),
            # corrections overshoot: 1 -> -2 -> 4 -> -8 -> 16
            (
                half_square(),
                SolverConfig(TVGD, C=1, beta=3.0),
                4, [0] * 4, [0] * 4, [0] * 4, [2.0, 8.0, 32.0, NAN],
            ),
        ],
        ids=[
            "non_finite_entry", "entry_outside_guard", "non_finite_value",
            "correction_raises", "corrected_outside_guard",
        ],
    )
    def test_trace_at_divergence(
        self, problem, config, steps, nan_f, nan_gn, nan_gap, f_corr
    ):
        tr = run(problem, config, TimeGrid(0.1, 10), np.ones(1), record_f_corr=True)
        assert tr.diverged and tr.diverged_step == steps - 1
        assert len(tr) == len(tr.f_corr) == len(tr.gap) == steps
        assert np.isnan(tr.f_pred).astype(int).tolist() == nan_f
        assert np.isnan(tr.grad_norm).astype(int).tolist() == nan_gn
        assert np.isnan(tr.gap).astype(int).tolist() == nan_gap
        assert np.array_equal(tr.f_corr, f_corr, equal_nan=True)

    @pytest.mark.parametrize(
        "x0, predicted",
        # negative curvature: the model's error grows by 1 + alpha |c| per
        # step and runs to -inf; positive curvature: it alternates in sign
        # until inf - inf gives NaN
        [(8.0, -math.inf), (-1.0, NAN)],
        ids=["indefinite", "overshooting"],
    )
    def test_ufopc_model_loop_overflow(self, x0, predicted):
        toy = make_toy()
        config = SolverConfig(UFOPC, C=1, beta=1.0, P=10, alpha=1e100)
        x_c = correct(toy, np.array([x0]), 0.0, config.C, config.beta)
        assert np.array_equal(
            predict_ufopc(toy, x_c, 0.0, 0.1, config.P, config.alpha, config.gamma),
            [predicted], equal_nan=True,
        )
        tr = run(toy, config, TimeGrid(0.1, 10), np.array([x0]), record_f_corr=True)
        assert tr.diverged and tr.diverged_step == 1
        assert len(tr) == len(tr.f_corr) == len(tr.gap) == 2
        for column in (tr.f_pred, tr.grad_norm, tr.gap):
            assert np.isnan(column).astype(int).tolist() == [0, 1]
        assert tr.f_corr[0] == toy.value(x_c, 0.0) and np.isnan(tr.f_corr[1])


class TestOracleBudget:
    """Exact ``grad_x`` calls per step of ``run()``: one entry gradient,
    which doubles as the first correction gradient, C - 1 further
    correction gradients, then the predictor's own calls."""

    @pytest.mark.parametrize(
        "config, first, later",
        [
            (SolverConfig(TVGD, C=3, beta=0.01), 3, 3),
            (SolverConfig(FOA_MIN, C=2, beta=0.01), 3, 3),
            (SolverConfig(CP, C=2, beta=0.01, g_choice="plain"), 3, 3),
            (SolverConfig(CP, C=2, beta=0.01, g_choice="extrapolated"), 3, 4),
            (SolverConfig(UFOPC, C=2, beta=0.01, P=3, alpha=0.01), 4, 4),
            (SolverConfig(UFOPC, C=2, beta=0.01, P=0), 2, 2),
            (SolverConfig(TVGD, C=0), 1, 1),
            (SolverConfig(FOA_MIN, C=0), 2, 2),
            (SolverConfig(CP, C=0, g_choice="extrapolated"), 2, 3),
            (SolverConfig(UFOPC, C=0, P=3, alpha=0.01), 3, 3),
        ],
        ids=lambda v: v.algorithm + f"-C{v.C}-P{v.P}-{v.g_choice}"
        if isinstance(v, SolverConfig) else None,
    )
    def test_grad_x_calls_per_step(self, config, first, later):
        problem, calls = counting_grad(make_linreg("linreg_static"))
        x0 = np.linspace(-2.0, 2.0, 10)
        for steps in (1, 5):
            calls[0] = 0
            trace = run(problem, config, TimeGrid(0.1, steps), x0, compute_gap=False)
            assert not trace.diverged
            assert calls[0] == first + (steps - 1) * later
