import math
from dataclasses import replace

import numpy as np
import pytest

from predcorr import (
    MissingOracleError,
    ProblemConstants,
    TimeGrid,
    ball_sampler,
    estimate_Z,
    finite_difference_check,
    gaussian_sampler,
    make_linreg,
    make_robust,
    make_toy,
    rng_from_seed,
)

from conftest import diag_quadratic


class TestTimeGrid:
    def test_times_are_exact_products(self):
        grid = TimeGrid(h=0.1, steps=1000)
        for k in (0, 1, 7, 999, 1000):
            assert grid.t(k) == k * 0.1

    def test_times_array_matches_scalar(self):
        grid = TimeGrid(h=0.01, steps=500)
        times = grid.times()
        assert times.shape == (500,)
        # bit-identical to the scalar path, no accumulated drift
        assert all(times[k] == grid.t(k) for k in range(500))

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(h=0.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(h=-1.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(h=0.1, steps=0)

    def test_horizon(self):
        assert TimeGrid(h=0.5, steps=4).horizon == 2.0


class TestProblemConstants:
    def test_rho(self):
        c = ProblemConstants(L1=100.0, mu=0.01)
        assert c.rho == pytest.approx(1.0 - 1e-4, rel=1e-15)

    def test_mu_cannot_exceed_L1(self):
        with pytest.raises(ValueError):
            ProblemConstants(L1=1.0, mu=2.0)

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            ProblemConstants(L2=-1.0)


class TestFiniteDifferenceCheck:
    def test_quadratic_gradient_is_near_exact(self):
        rep = finite_difference_check(diag_quadratic([1.0, 1.0, 1.0]), samples=5, seed=3)
        assert rep.grad_x_max_rel < 1e-6

    def test_toy_hand_derivative(self):
        # at x=8, t=0 the derivative is 0.8 + cos(8)
        toy = make_toy()
        x = np.array([8.0])
        assert toy.grad_x(x, 0.0)[0] == pytest.approx(0.8 + math.cos(8.0), rel=1e-15)
        s = 1e-5 * (1.0 + 8.0)
        fd = (toy.value(x + s, 0.0) - toy.value(x - s, 0.0)) / (2 * s)
        assert abs(fd - toy.grad_x(x, 0.0)[0]) < 1e-6

    def test_robust_hessian_matches_fd(self):
        rep = finite_difference_check(make_robust("robust_welsch"), samples=10, seed=0)
        assert rep.hess_xx_max_rel < 1e-4
        assert rep.hess_asym_max <= 1e-12

    def test_absent_oracles_reported_not_fatal(self):
        bare = replace(diag_quadratic([1.0]), grad_t=None, hess_xx=None)
        rep = finite_difference_check(bare, samples=3, seed=0)
        assert set(rep.absent) == {"grad_t", "hess_xx"}
        assert rep.grad_t_max_rel is None and rep.hess_xx_max_rel is None

    def test_deterministic_per_seed(self):
        p = make_linreg("linreg_static")
        a = finite_difference_check(p, samples=6, seed=42)
        b = finite_difference_check(p, samples=6, seed=42)
        assert a.grad_x_max_rel == b.grad_x_max_rel
        assert a.hess_xx_max_rel == b.hess_xx_max_rel

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            finite_difference_check(make_toy(), samples=0)


class TestEstimateZ:
    def test_toy_ratio_is_ten_everywhere(self):
        toy = make_toy()
        est = estimate_Z(toy, gaussian_sampler(1, x_scale=5.0), samples=200, seed=1)
        assert est.value == pytest.approx(10.0, rel=1e-12)
        assert est.used == 200

    def test_time_invariant_gives_zero(self):
        est = estimate_Z(diag_quadratic([2.0, 3.0]), gaussian_sampler(2), samples=50, seed=0)
        assert est.value == 0.0

    def test_linreg_bounded_on_small_ball(self):
        p = make_linreg("linreg_static")
        est = estimate_Z(p, ball_sampler(10, radius=10.0, t_max=50.0), samples=500, seed=7)
        assert 0.0 < est.value <= 2.5

    def test_all_stationary_errors(self):
        flat = diag_quadratic([1.0, 1.0])

        def at_optimum(rng):
            return np.zeros(2), rng.random()

        with pytest.raises(ValueError, match="stationary"):
            estimate_Z(flat, at_optimum, samples=10, seed=0)

    def test_monotone_in_sample_count(self):
        p = make_linreg("linreg_static")
        sampler = gaussian_sampler(10, x_scale=3.0)
        small = estimate_Z(p, sampler, samples=50, seed=11).value
        large = estimate_Z(p, sampler, samples=200, seed=11).value
        assert large >= small

    def test_requires_grad_t(self):
        bare = replace(diag_quadratic([1.0]), grad_t=None)
        with pytest.raises(MissingOracleError):
            estimate_Z(bare, gaussian_sampler(1), samples=5, seed=0)


class TestRng:
    def test_philox_stream_is_stable(self):
        # counter-based generator: same key, same draws
        a = rng_from_seed(123).standard_normal(4)
        b = rng_from_seed(123).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, rng_from_seed(124).standard_normal(4))
