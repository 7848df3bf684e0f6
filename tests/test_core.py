import math
from dataclasses import replace

import numpy as np
import pytest

from predcorr import (
    ProblemConstants,
    ProblemOracle,
    TimeGrid,
    finite_difference_check,
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


class TestProblemOracle:
    @pytest.mark.parametrize("guard", [math.inf, math.nan, 0.0, -1.0])
    def test_domain_guard_must_be_finite_and_positive(self, guard):
        with pytest.raises(ValueError, match="domain_guard"):
            ProblemOracle(
                dim=1,
                value=lambda x, t: 0.5 * float(x @ x),
                grad_x=lambda x, t: x.copy(),
                domain_guard=guard,
            )


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

    def test_absent_oracles_reported_not_fatal(self):
        bare = replace(diag_quadratic([1.0]), hess_xx=None)
        rep = finite_difference_check(bare, samples=3, seed=0)
        assert rep.grad_x_max_rel < 1e-6 and rep.hess_xx_max_rel is None

    def test_deterministic_per_seed(self):
        p = make_linreg("linreg_static")
        a = finite_difference_check(p, samples=6, seed=42)
        b = finite_difference_check(p, samples=6, seed=42)
        assert a.grad_x_max_rel == b.grad_x_max_rel
        assert a.hess_xx_max_rel == b.hess_xx_max_rel

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            finite_difference_check(make_toy(), samples=0)


class TestRng:
    def test_philox_stream_is_stable(self):
        # counter-based generator: same key, same draws
        a = rng_from_seed(123).standard_normal(4)
        b = rng_from_seed(123).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, rng_from_seed(124).standard_normal(4))
