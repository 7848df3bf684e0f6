"""The benchmark's tracer keeps seeing every layer it counts.

``bench/tracing.py`` patches CLI names and wraps oracle fields by name, so
a program change that renames one of them would silently zero a count of a
``--trace 1`` run.  These tests run the tracer unchanged, on a toy run and
check, on a warm-started matrix-factorization run and on a run that parses
a ratings file, and pin their exact counts.
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
    # run: set-up plus one per solver; check: set-up and one per
    # prediction-gap run
    assert metrics["config.build_problem_calls"] == 5 + 7
    assert metrics["core.fd_check_calls"] == 6
    # one Hessian per ufopc and cp step, and 8 samples on each of the five
    # problems with one (d = 1 for the toy, 10 for the rest)
    hess_in_runs = STEPS * (1 + 3)
    assert metrics["problems.hess_xx_calls"] == hess_in_runs + 5 * 8
    assert metrics["problems.hess_bytes_computed"] == 8 * (hess_in_runs + 8 + 4 * 8 * 100)
    # one prediction-gap ratio per eligible solver; run computes no tails
    assert metrics["analysis.calls"] == 3
    # a row per step of each run trace, a row per check outcome
    assert metrics["cli.csv_rows"] == 4 * STEPS + 6 + 3
    assert metrics["problems.value_calls"] > 0 and metrics["problems.grad_x_calls"] > 0
    assert metrics["ratings.load_calls"] == metrics["config.warm_start_grads"] == 0


MF_STEPS = 6
MF_C = 2

MF_WARM = f"""
[experiment]
problem = mf_synth
h = 0.01
steps = {MF_STEPS}
x0 = warm:0.05
warm_beta = 5
seed = 0
compute_gap = never
mf_latent_dim = 3
mf_reg = 0.01
mf_reveal_per_step = 20
mf_initial_revealed = 200
synth_users = 20
synth_items = 15
synth_ratings = 400
synth_latent_dim = 2
synth_noise_sd = 0.3
synth_seed = 4

[solver tvgd]
algorithm = tvgd
C = {MF_C}
beta = 5
"""


@pytest.fixture(scope="module")
def mf_metrics(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced_mf")
    cfg = tmp / "mf.ini"
    cfg.write_text(MF_WARM)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["run", "--config", str(cfg), "--out", str(tmp / "run")]) == EXIT_OK
    return tracer.metrics()


def test_mf_oracle_is_traced(mf_metrics):
    # the warm start's gradients at t = 0, then C per solver step
    assert mf_metrics["config.warm_start_grads"] == 10
    assert mf_metrics["problems.grad_x_calls"] == 10 + MF_C * MF_STEPS
    assert mf_metrics["solvers.steps"] == MF_STEPS
    assert mf_metrics["problems.mf.grad_x_ms_p50"] > 0
    assert mf_metrics["problems.mf.value_ms_p50"] > 0


MF_FILE = """
[experiment]
problem = mf_file
h = 0.01
steps = 4
x0 = randn
compute_gap = never
mf_latent_dim = 2
mf_reveal_per_step = 5
mf_initial_revealed = 20

[solver tvgd]
algorithm = tvgd
C = 1
beta = 0.5

[solver foa_min]
algorithm = foa_min
C = 1
beta = 0.5
zeta = 10
delta = 1e-10
"""


def test_ratings_file_is_traced(tmp_path):
    cfg = tmp_path / "mf.ini"
    cfg.write_text(MF_FILE)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("# user,item,rating,timestamp\n" + "".join(
        f"{7 * (j % 9)},{3 * (j % 11)},{(j % 5) - 2.0},{(37 * j) % 60}\n" for j in range(60)
    ))
    tracer = tracing.Tracer()
    with tracer.installed():
        argv = ["run", "--config", str(cfg), "--ratings", str(ratings),
                "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_OK
    m = tracer.metrics()
    # one parse per command; the set-up and each of the two solvers build
    # an oracle from the parsed dataset
    assert m["ratings.load_calls"] == 1
    assert m["ratings.bytes_parsed"] == ratings.stat().st_size
    assert m["config.build_problem_calls"] == 1 + 2
    assert m["solvers.run_calls"] == 2


def test_every_exact_metric_is_reported(metrics):
    assert set(tracing.EXACT) <= set(metrics)


def test_patched_names_are_restored(metrics):
    assert predcorr.cli.run is predcorr.solvers.run
