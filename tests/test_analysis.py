import math

import numpy as np
import pytest

from predcorr import (
    ProblemConstants,
    ProblemOracle,
    SolverConfig,
    TimeGrid,
    average_gradient_bound,
    bound_tol,
    check_lipschitz_optimum,
    check_post_convergence,
    check_prediction_gap,
    check_tvgd_pl_envelope,
    envelope_limit,
    fit_order,
    g2_bar,
    make_linreg,
    make_toy,
    max_prediction_increase,
    ratio_bound_selftest,
    run,
    stationarity_threshold,
    tail_stats,
)
from predcorr.analysis import DivergedTraceError
from predcorr.solvers import Trace



def fake_trace(grads, gaps=None, diverged_step=None, f_corr=None):
    n = len(grads)
    return Trace(
        t=np.arange(n) * 0.1,
        f_pred=np.asarray(grads, dtype=float),
        grad_norm=np.asarray(grads, dtype=float),
        gap=None if gaps is None else np.asarray(gaps, dtype=float),
        pred_seconds=np.zeros(n),
        corr_seconds=np.zeros(n),
        f_corr=None if f_corr is None else np.asarray(f_corr, dtype=float),
        diverged_step=diverged_step,
        algorithm="tvgd",
    )


class TestTailStats:
    def test_constant_trace(self):
        st = tail_stats(fake_trace([3.0] * 10))
        assert st.max_grad == st.mean_grad == 3.0

    def test_windowing_example(self):
        st = tail_stats(fake_trace([9.0, 9.0, 1.0, 3.0]))
        assert st.window == 2
        assert st.max_grad == 3.0
        assert st.mean_grad == 2.0

    @pytest.mark.parametrize(
        "n,expected_window,expected_first",
        [(2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 2, 3)],
    )
    def test_floor_based_window_boundaries(self, n, expected_window, expected_first):
        grads = np.arange(n, dtype=float)
        st = tail_stats(fake_trace(grads))
        assert st.window == expected_window
        assert st.mean_grad == pytest.approx(np.mean(grads[expected_first:]))

    def test_gap_fields_absent_without_gaps(self):
        st = tail_stats(fake_trace([1.0, 2.0]))
        assert st.max_gap is None and st.mean_gap is None

    def test_gap_fields_present(self):
        st = tail_stats(fake_trace([1.0, 2.0, 3.0, 4.0], gaps=[4.0, 3.0, 2.0, 1.0]))
        assert st.max_gap == 2.0 and st.mean_gap == 1.5

    def test_diverged_trace_raises_with_step(self):
        tr = fake_trace([1.0, 2.0], diverged_step=1)
        with pytest.raises(DivergedTraceError) as err:
            tail_stats(tr)
        assert err.value.step == 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            tail_stats(fake_trace([1.0]))


class TestFitOrder:
    def test_exact_quadratic_power_law(self):
        pts = [(h, 7.0 * h * h) for h in (0.1, 0.03, 0.01, 0.003)]
        fit = fit_order(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.max_abs_residual < 1e-9

    def test_exact_linear_power_law(self):
        fit = fit_order([(h, 3.0 * h) for h in (0.2, 0.05, 0.01)])
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-9)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.01, 0.1)])

    def test_rejects_nonpositive_stat(self):
        with pytest.raises(ValueError, match="positive"):
            fit_order([(0.1, 1.0), (0.01, 0.0), (0.001, 0.1)])
        with pytest.raises(ValueError, match="h value"):
            fit_order([(0.1, 1.0), (-0.01, 0.1), (0.001, 0.2)])


class TestThresholds:
    def test_g2_bar_formula(self):
        c = ProblemConstants(L1=2.0, L2=3.0, L3=4.0)
        assert g2_bar(c, zeta=5.0, delta=0.01, h=0.1) == pytest.approx(42.5, rel=1e-15)

    def test_stationarity_threshold_tvgd(self):
        c = ProblemConstants(L1=4.0, G2=3.0)
        assert stationarity_threshold("tvgd", c, h=0.25) == pytest.approx(
            2.0 * math.sqrt(4.0 * 4.0 * 0.25), rel=1e-15
        )

    def test_stationarity_threshold_foa(self):
        c = ProblemConstants(L1=2.0, L2=3.0, L3=4.0)
        thr = stationarity_threshold("foa_min", c, h=0.1, zeta=5.0, delta=0.01)
        assert thr == pytest.approx(math.sqrt(2 * 2 * 43.5) * 0.1, rel=1e-15)

    def test_unknown_mode(self):
        # one rule for all three users of the per-solver terms
        c = ProblemConstants(L1=1.0, G2=1.0)
        tr = fake_trace([1.0, 1.0], gaps=[1.0, 1.0])
        with pytest.raises(ValueError, match="unknown mode"):
            stationarity_threshold("cp", c, h=0.1)
        with pytest.raises(ValueError, match="unknown mode"):
            check_post_convergence(tr, 1.0, c, h=0.1, mode="cp")
        with pytest.raises(ValueError, match="unknown mode"):
            average_gradient_bound(tr, c, h=0.1, mode="cp")


class TestLipschitzOptimum:
    def test_constant_optimal_value(self):
        p = make_linreg("linreg_static")
        viol = check_lipschitz_optimum(p, TimeGrid(0.1, 50), G2=1.0)
        assert viol == pytest.approx(-0.1, rel=1e-12)

    def test_requires_optimum(self):
        p = ProblemOracle(dim=1, value=lambda x, t: 0.0, grad_x=lambda x, t: np.zeros(1))
        with pytest.raises(ValueError, match="optimum"):
            check_lipschitz_optimum(p, TimeGrid(0.1, 2), G2=1.0)


class TestEnvelope:
    def run_tvgd(self, problem, h, steps, C=1, beta=0.25, x0=None):
        cfg = SolverConfig(algorithm="tvgd", C=C, beta=beta)
        x0 = np.array([2.0, -1.0]) if x0 is None else x0
        return run(problem, cfg, TimeGrid(h, steps), x0)

    def test_time_invariant_quadratic_decays_inside_envelope(self, quadratic2):
        # eigenvalues 1 and 4: L1 = 4, mu = 1, no drift
        tr = self.run_tvgd(quadratic2, 0.1, 60)
        c = ProblemConstants(L1=4.0, mu=1.0, G2=0.0)
        viol = check_tvgd_pl_envelope(tr, c, TimeGrid(0.1, 60))
        assert viol <= 1e-9

    def test_envelope_limit_formula(self):
        c = ProblemConstants(L1=4.0, mu=1.0, G2=3.0)
        # 2 G2 h / (1 - rho) with rho = 0.75
        assert envelope_limit(c, h=0.1) == pytest.approx(2.4, rel=1e-12)

    def test_violation_detected_on_fabricated_gaps(self):
        c = ProblemConstants(L1=4.0, mu=1.0, G2=0.0)
        gaps = [1.0, 10.0, 10.0, 10.0]  # cannot exceed rho^k with G2 = 0
        tr = fake_trace([1.0] * 4, gaps=gaps)
        viol = check_tvgd_pl_envelope(tr, c, TimeGrid(0.1, 4))
        assert viol > 1.0

    def test_missing_constants_named(self):
        tr = fake_trace([1.0, 1.0], gaps=[1.0, 1.0])
        with pytest.raises(ValueError, match="G2"):
            check_tvgd_pl_envelope(tr, ProblemConstants(L1=1.0, mu=0.5), TimeGrid(0.1, 2))
        # mu = 0 gives rho = 1: the envelope divides by 1 - rho
        zero_mu = ProblemConstants(L1=100.0, mu=0.0, G2=1.0)
        with pytest.raises(ValueError, match="mu"):
            check_tvgd_pl_envelope(tr, zero_mu, TimeGrid(0.1, 2))
        with pytest.raises(ValueError, match="mu"):
            envelope_limit(zero_mu, h=0.1)

    def test_needs_gaps(self):
        with pytest.raises(ValueError, match="gaps"):
            check_tvgd_pl_envelope(
                fake_trace([1.0, 1.0]),
                ProblemConstants(L1=1.0, mu=0.5, G2=0.0),
                TimeGrid(0.1, 2),
            )


class TestPostConvergence:
    def constants(self):
        return ProblemConstants(L1=4.0, G2=1.0)

    def test_always_below_threshold_is_clean(self):
        thr = 1.0
        tr = fake_trace([0.5, 0.4, 0.3, 0.2], gaps=[1.0, 0.9, 0.8, 0.7])
        rep = check_post_convergence(tr, thr, self.constants(), h=0.1, mode="tvgd")
        assert rep.converged and rep.ok and rep.first_crossing == 0

    def test_never_crossed_reports_not_converged(self):
        tr = fake_trace([5.0, 5.0], gaps=[1.0, 1.0])
        rep = check_post_convergence(tr, 1.0, self.constants(), h=0.1, mode="tvgd")
        assert not rep.converged and rep.first_crossing is None and rep.ok

    def test_excursion_with_small_gap_growth_allowed(self):
        # slack = 2 G2 h - grad_l^2 / (2 L1) = 0.2 - 0.045^2... with grad 0.6
        thr = 1.0
        tr = fake_trace([0.6, 2.0, 0.5], gaps=[1.0, 1.1, 1.0])
        rep = check_post_convergence(tr, thr, self.constants(), h=0.1, mode="tvgd")
        assert rep.converged and rep.ok

    def test_violation_reported_with_index(self):
        thr = 1.0
        tr = fake_trace([0.6, 2.0, 0.5], gaps=[1.0, 5.0, 1.0])
        rep = check_post_convergence(tr, thr, self.constants(), h=0.1, mode="tvgd")
        assert rep.violations == [1]

    def test_foa_mode_uses_squared_drift(self):
        c = ProblemConstants(L1=4.0, L2=1.0, L3=1.0)
        thr = 1.0
        # drift slack is g2_bar * h^2, tiny at h = 0.1
        tr = fake_trace([0.9, 2.0, 0.5], gaps=[1.0, 1.0 + 5.0, 1.0])
        rep = check_post_convergence(tr, thr, c, h=0.1, mode="foa_min", zeta=1.0, delta=0.01)
        assert rep.violations == [1]

    def test_reference_resets_at_each_crossing(self):
        thr = 1.0
        # second crossing (index 2) becomes the reference for index 3
        tr = fake_trace([0.5, 2.0, 0.5, 2.0], gaps=[1.0, 1.1, 0.2, 0.35])
        rep = check_post_convergence(tr, thr, self.constants(), h=0.1, mode="tvgd")
        assert rep.ok


class TestPredictionGap:
    def test_ratio_on_manufactured_traces(self, quadratic2):
        # entering values rise by 0.4 (coarse) vs 0.1 (fine) per step from a
        # corrected point at the origin, where quadratic2 is 0
        zero = [quadratic2.value(np.zeros(2), 0.0)] * 3
        coarse = fake_trace([0.0, 0.4, 0.8], f_corr=zero)
        fine = fake_trace([0.0, 0.1, 0.2], f_corr=zero)
        rep = check_prediction_gap(coarse, fine)
        assert rep.increase_coarse == pytest.approx(0.8)  # worst step wins
        assert rep.increase_fine == pytest.approx(0.2)
        assert rep.ratio == pytest.approx(4.0)
        # a non-positive maximum (predictions never raised f) has no ratio
        lowering = fake_trace([0.0, -0.1, -0.2], f_corr=zero)
        rep = check_prediction_gap(coarse, lowering)
        assert rep.increase_fine == pytest.approx(-0.1)
        assert math.isnan(rep.ratio)
        rep = check_prediction_gap(lowering, lowering)
        assert math.isnan(rep.ratio)
        # maxima at rounding level have no ratio either (2.0 here), and the
        # level scales with the largest |f| each run entered with
        tiny_c = fake_trace([0.0, 7.88e-15, 7.88e-15], f_corr=zero)
        tiny_f = fake_trace([0.0, 3.94e-15, 3.94e-15], f_corr=zero)
        rep = check_prediction_gap(tiny_c, tiny_f)
        assert rep.increase_coarse == pytest.approx(7.88e-15)
        assert math.isnan(rep.ratio)
        level = fake_trace([1e3, 1e3 + 2e-7, 1e3 + 4e-7], f_corr=[1e3] * 3)
        rep = check_prediction_gap(level, fine)
        assert rep.increase_coarse == pytest.approx(4e-7, rel=1e-6)
        assert math.isnan(rep.ratio)
        # each run's increase is measured from its own corrected values
        fine_shifted = fake_trace([0.0, 0.1, 0.2], f_corr=[0.1] * 3)
        rep = check_prediction_gap(coarse, fine_shifted)
        assert rep.increase_coarse == pytest.approx(0.8)
        assert rep.increase_fine == pytest.approx(0.1)
        assert rep.ratio == pytest.approx(8.0)

    def test_increase_uses_corrected_point_value(self, quadratic2):
        f_corr = [quadratic2.value(np.array(x), 0.0) for x in ([1.0, 0.0], [0.0, 0.0])]
        assert f_corr == [0.5, 0.0]
        tr = fake_trace([0.7, 0.6], f_corr=f_corr)
        assert max_prediction_increase(tr) == pytest.approx(0.1)

    def test_requires_iterates(self):
        with pytest.raises(ValueError, match="f_corr"):
            max_prediction_increase(fake_trace([1.0, 2.0]))


class TestRatioBound:
    def test_selftest_holds(self):
        assert ratio_bound_selftest(trials=200, seed=0) <= 1e-9

    def test_identity_map_is_cauchy_schwarz(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, x = rng.normal(size=4), rng.normal(size=4)
            assert abs(a @ x) / np.linalg.norm(x) <= np.linalg.norm(a) + 1e-12

    def test_aligned_vectors_achieve_equality(self):
        a = np.array([2.0, -1.0, 0.5])
        lhs = abs(a @ a) / np.linalg.norm(a)
        assert lhs == pytest.approx(np.linalg.norm(a), rel=1e-15)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ratio_bound_selftest(trials=0)


class TestAverageGradientBound:
    def toy_foa_trace(self, steps=1000):
        from predcorr import make_toy

        toy = make_toy()
        cfg = SolverConfig(algorithm="foa_min", C=1, beta=1.0, zeta=10.0, delta=1e-10)
        return toy, run(toy, cfg, TimeGrid(0.1, steps), np.array([8.0]), compute_gap=True)

    def test_foa_average_within_bound_on_toy(self):
        from predcorr import average_gradient_bound

        _, tr = self.toy_foa_trace()
        c = ProblemConstants(L1=1.1, L2=11.0, L3=110.0)
        rep = average_gradient_bound(tr, c, 0.1, "foa_min", zeta=10.0, delta=1e-10)
        assert rep.horizon == math.ceil(tr.gap[0] / 0.01)
        assert rep.ok

    def test_tvgd_average_within_bound_on_least_squares(self):
        from predcorr import average_gradient_bound, linreg_g2_from_values

        p = make_linreg("linreg_static")
        cfg = SolverConfig(algorithm="tvgd", C=1, beta=0.01)
        # start near the optimum so the horizon gap/(2h) fits in the trace
        x0 = p.optimum(0.0)[0] + 0.5
        tr = run(p, cfg, TimeGrid(0.1, 2000), x0)
        c = ProblemConstants(L1=100.0, G2=linreg_g2_from_values(tr.f_pred))
        rep = average_gradient_bound(tr, c, 0.1, "tvgd")
        assert rep.ok and 1 <= rep.horizon < 2000

    def test_short_trace_rejected(self):
        from predcorr import average_gradient_bound

        tr = fake_trace([1.0, 1.0], gaps=[100.0, 100.0])
        with pytest.raises(ValueError, match="horizon"):
            average_gradient_bound(tr, ProblemConstants(L1=1.0, G2=1.0), 0.1, "tvgd")


class TestOnRealSolvers:
    def test_time_invariant_increase_without_prediction_is_nonpositive(self, quadratic2):
        # no drift and no prediction step: the entering value can only fall
        cfg = SolverConfig(algorithm="tvgd", C=1, beta=0.25)
        tr = run(quadratic2, cfg, TimeGrid(0.1, 50), np.array([3.0, -2.0]), record_f_corr=True)
        assert max_prediction_increase(tr) <= bound_tol(1.0)

    def test_time_invariant_increase_with_prediction_obeys_step_bound(self, quadratic2):
        # the fixed-length normalized step can overshoot a nearby optimum,
        # so the increase is not signed; it stays within g2_bar * h^2
        cfg = SolverConfig(algorithm="foa_min", C=1, beta=0.25, zeta=1.0, delta=1e-10)
        h = 0.1
        tr = run(quadratic2, cfg, TimeGrid(h, 50), np.array([3.0, -2.0]), record_f_corr=True)
        c = ProblemConstants(L1=4.0, L2=0.0, L3=0.0)
        cap = g2_bar(c, zeta=1.0, delta=1e-10, h=h) * h * h
        assert max_prediction_increase(tr) <= cap + bound_tol(cap)

    def test_toy_post_convergence_zero_violations(self):
        # drifting ripple benchmark under the normalized-step predictor
        toy = make_toy()
        cfg = SolverConfig(algorithm="foa_min", C=1, beta=1.0, zeta=10.0, delta=1e-10)
        tr = run(toy, cfg, TimeGrid(0.1, 300), np.array([8.0]), compute_gap=True)
        c = ProblemConstants(L1=1.1, L2=11.0, L3=110.0)
        thr = stationarity_threshold("foa_min", c, 0.1, zeta=10.0, delta=1e-10)
        rep = check_post_convergence(tr, thr, c, 0.1, "foa_min", zeta=10.0, delta=1e-10)
        assert rep.converged and rep.ok
