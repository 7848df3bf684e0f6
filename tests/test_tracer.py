"""The benchmark's tracer keeps seeing every layer it counts.

``bench/tracing.py`` patches CLI names and wraps oracle fields by name, so
a program change that renames one of them would silently zero a count of a
``--trace 1`` run.  These tests run the tracer unchanged on a toy run and
check and pin its exact counts.
"""

import importlib.util
from pathlib import Path

import pytest

import predcorr.cli
import predcorr.solvers
from predcorr.cli import EXIT_OK, main

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

STEPS = 40

TOY_ALL_SOLVERS = f"""
[experiment]
problem = toy
h = 0.05
steps = {STEPS}
x0 = 2.5
checks = gradients, prediction_gap

[solver tvgd]
algorithm = tvgd
C = 1
beta = 1.0

[solver ufopc]
algorithm = ufopc
C = 1
beta = 1.0
P = 10
alpha = 1.0
gamma = 0.0

[solver foa_min]
algorithm = foa_min
C = 1
beta = 1.0
zeta = 10
delta = 1e-10

[solver cp]
algorithm = cp
C = 1
beta = 1.0
zeta = 10
delta = 1e-10
"""


@pytest.fixture(scope="module")
def metrics(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    cfg = tmp / "toy.ini"
    cfg.write_text(TOY_ALL_SOLVERS)
    tracer = tracing.Tracer()
    with tracer.installed():
        for verb in ("run", "check"):
            assert main([verb, "--config", str(cfg), "--out", str(tmp / verb)]) == EXIT_OK
    return tracer.metrics()


def test_exact_counts(metrics):
    # run: one trace per solver; check: prediction_gap runs tvgd, foa_min
    # and cp at h and h/2 (ufopc has no window), gradients checks the six
    # finite-difference problems
    runs = 4 + 2 * 3
    assert metrics["solvers.run_calls"] == runs
    assert metrics["solvers.steps"] == runs * STEPS
    assert metrics["solvers.diverged_runs"] == 0
    # run: set-up plus one per solver; check: set-up plus the h/2 problem
    assert metrics["config.build_problem_calls"] == 5 + 2
    assert metrics["core.fd_check_calls"] == 6
    # one Hessian per ufopc and cp step, and 8 samples on each of the five
    # problems with one (d = 1 for the toy, 10 for the rest)
    hess_in_runs = STEPS * (1 + 3)
    assert metrics["problems.hess_xx_calls"] == hess_in_runs + 5 * 8
    assert metrics["problems.hess_bytes_computed"] == 8 * (hess_in_runs + 8 + 4 * 8 * 100)
    # a tail per run trace, one prediction-gap ratio per eligible solver
    assert metrics["analysis.calls"] == 4 + 3
    # a row per step of each run trace, a row per check outcome
    assert metrics["cli.csv_rows"] == 4 * STEPS + 6 + 3
    assert metrics["problems.value_calls"] > 0 and metrics["problems.grad_x_calls"] > 0
    assert metrics["ratings.load_calls"] == metrics["config.warm_start_grads"] == 0


def test_every_exact_metric_is_reported(metrics):
    assert set(tracing.EXACT) <= set(metrics)


def test_patched_names_are_restored(metrics):
    assert predcorr.cli.run is predcorr.solvers.run
