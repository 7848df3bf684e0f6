import numpy as np
import pytest

from predcorr import ProblemOracle


def diag_quadratic(diag, target=None):
    """Time-invariant quadratic 0.5 (x-c)' D (x-c) as a ProblemOracle."""
    d = np.asarray(diag, dtype=float)
    c = np.zeros(len(d)) if target is None else np.asarray(target, dtype=float)

    def value(x, t):
        r = x - c
        return 0.5 * float(r @ (d * r))

    def grad_x(x, t):
        return d * (x - c)

    def optimum(t, x_hint=None):
        return c.copy(), 0.0

    return ProblemOracle(
        dim=len(d),
        value=value,
        grad_x=grad_x,
        hess_xx=lambda x, t: d.__mul__,
        optimum=optimum,
        name="diag_quadratic",
    )


@pytest.fixture
def quadratic2():
    return diag_quadratic([1.0, 4.0])
