import contextlib
import dataclasses
import io
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predcorr.cli
import predcorr.config
from predcorr import synth_ratings
from predcorr.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    TRACE_HEADER,
    main,
)
from predcorr.analysis import TailStats, summarize_sweep
from predcorr.config import ConfigError, build_problem, parse_config, resolve_configs
from predcorr.core import ProblemConstants
from predcorr.solvers import SolverConfig, Trace

TOY_RUN = """
[experiment]
problem = toy
h = 0.1
steps = 50
x0 = 8.0
seed = 0

[solver foa_min]
algorithm = foa_min
C = 1
beta = 1.0
zeta = 10
delta = 1e-10
"""

TOY_DIVERGING = """
[experiment]
problem = toy
h = 0.1
steps = 50
x0 = 8.0

[solver bad]
algorithm = ufopc
C = 1
beta = 1.0
P = 10
alpha = 1.0
gamma = 1.0
"""


MF_SYNTH_RUN = """
[experiment]
problem = mf_synth
h = 0.01
steps = 3
x0 = warm:0.5
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
C = 1
beta = 5
"""

# Two solvers over three periods; the middle step count reveals the rest of
# the stream.
MF_FILE_SWEEP = """
[experiment]
problem = mf_file
h = 0.01, 0.02, 0.04
steps = 4, auto, 3
x0 = warm:0.5
warm_beta = 5
seed = 1
compute_gap = never
mf_latent_dim = 3
mf_reveal_per_step = 50
mf_initial_revealed = 300
mf_min_user = 2

[solver tvgd]
algorithm = tvgd
C = 2
beta = 5

[solver foa_min]
algorithm = foa_min
C = 1
beta = 5
zeta = 10
delta = 1e-10
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_ratings(tmp_path, name="ratings.csv"):
    """A small ratings file with sparse ids and shuffled timestamps."""
    ds = synth_ratings(n_users=30, n_items=20, n_ratings=600, latent_dim=2, noise_sd=0.3, seed=5)
    path = tmp_path / name
    path.write_text("".join(
        f"{u * 7},{i * 3},{v!r},{(s * 37) % 600}\n"
        for u, i, v, s in ds.ratings()
    ))
    return str(path)


class TestConfigParsing:
    def test_unknown_experiment_key_is_named(self, tmp_path):
        # a misspelling, and four keys that no longer exist
        for key in ("sede", "ratio_min", "ratio_max", "Z", "mf_reg_normalized"):
            path = write_config(tmp_path, TOY_RUN.replace("seed = 0", f"{key} = 0"))
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(path)

    def test_unknown_solver_key_is_named(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN + "momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN + "\n[plotting]\ncolor = red\n")
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(path)

    def test_solver_needs_algorithm(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN + "\n[solver x]\nC = 1\n")
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(path)

    def test_grid_length_mismatch(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN.replace("h = 0.1", "h = 0.1, 0.01"))
        with pytest.raises(ConfigError, match="steps"):
            parse_config(path)

    def test_bad_solver_value_reports_section(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN.replace("zeta = 10", "zeta = -1"))
        with pytest.raises(ConfigError, match="solver foa_min"):
            parse_config(path)

    def test_auto_steps_only_for_mf(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN.replace("steps = 50", "steps = auto"))
        with pytest.raises(ConfigError, match="auto"):
            parse_config(path)

    # a valid value other than the default for every SolverConfig field
    SOLVER_VALUES = {
        "algorithm": "cp", "C": 3, "beta": 0.5, "P": 4, "alpha": 0.25, "gamma": 0.75,
        "zeta": 2.5, "delta": 1e-6, "g_choice": "extrapolated",
    }

    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(SolverConfig) if f.name != "name"]
    )
    def test_every_solver_field_is_a_key(self, key):
        value = self.SOLVER_VALUES[key]
        assert value != getattr(SolverConfig("tvgd"), key, None)
        section = {"algorithm": "tvgd", key: value}
        text = TOY_RUN.split("[solver")[0] + "[solver s]\n" + "".join(
            f"{k} = {v}\n" for k, v in section.items()
        )
        solver = parse_config(text, is_text=True).solvers[0]
        assert getattr(solver, key) == value and type(getattr(solver, key)) is type(value)

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ProblemConstants)])
    def test_every_constant_is_a_key(self, key):
        cfg = parse_config(TOY_RUN.replace("seed = 0", f"{key} = 0.5"), is_text=True)
        assert getattr(cfg.constants, key) == 0.5
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
            parse_config(TOY_RUN.replace("seed = 0", f"{key} = -1"), is_text=True)
        with pytest.raises(ValueError, match=f"^{key} must be >= 0"):
            ProblemConstants(**{key: -1.0})

    def test_parse_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_RUN))
        assert cfg.problem == "toy"
        assert cfg.grid == [(0.1, 50)]
        assert cfg.solvers[0].algorithm == "foa_min"
        assert cfg.solvers[0].zeta == 10.0
        assert cfg.solvers[0].label == "foa_min"


class TestMalformedNumbers:
    """Bad numeric values and bad command-line options end in exit 1 and a
    single ``error:`` line."""

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("seed = 0", "seed = abc", "seed"),
            ("seed = 0", "seed = -1", "seed"),
            ("h = 0.1", "h = -0.1", "h"),
            ("h = 0.1", "h = nan", "h"),
            ("steps = 50", "steps = 0", "steps"),
            ("steps = 50", "steps = 2.5", "steps"),
            ("C = 1", "C = one", "C"),
            ("beta = 1.0", "beta = fast", "beta"),
            ("x0 = 8.0", "x0 = abc", "x0"),
            ("x0 = 8.0", "x0 = nan", "x0"),
            # finite, but its norm overflows
            ("x0 = 8.0", "x0 = 1e200", "x0 must be finite"),
            ("beta = 1.0", "beta = inf", "beta"),
            ("zeta = 10", "zeta = inf", "zeta"),
            ("delta = 1e-10", "delta = inf", "delta"),
            ("seed = 0", "seed = 0\ncompute_gap = always",
             "compute_gap must be auto or never, got 'always'"),
            # files configparser or the decoder cannot read
            ("delta = 1e-10", "delta = 1e-10\n[solver foa_min]\nalgorithm = tvgd",
             "section 'solver foa_min' already exists"),
            ("h = 0.1", "h = 0.1\nh = 0.2", "option 'h' in section 'experiment'"),
            ("[experiment]\n", "", "no section headers"),
            ("seed = 0", "seed = 0\ngarbage", "parsing errors"),
            ("seed = 0", "seed = 0\n# \xff", "can't decode byte 0xff"),
            ("seed = 0", "seed = 0\nout = 50%", "'%' must be followed"),
            # two runs would write one <label>.csv
            ("delta = 1e-10", "delta = 1e-10\n[solver  foa_min]\nalgorithm = tvgd",
             "a solver is already labelled 'foa_min'"),
            ("delta = 1e-10", "delta = 1e-10\n[solver ]\nalgorithm = foa_min",
             "a solver is already labelled 'foa_min'"),
            ("h = 0.1\nsteps = 50", "h = 0.1, 0.1, 0.05\nsteps = 50, 50, 50",
             "h lists 0.1 more than once"),
            # a check named twice would run and write its rows twice
            ("seed = 0", "seed = 0\nchecks = ratio_bound, gradients, ratio_bound",
             "checks lists 'ratio_bound' more than once"),
            # an unknown [experiment] key is reported after every other
            # error, so a misspelled required key reads as missing
            ("steps = 50", "stpes = 100", "[experiment] needs both 'h' and 'steps'"),
            ("problem = toy", "problm = toy", "unknown problem ''"),
            ("seed = 0", "sede = 0\ncompute_gap = always", "compute_gap must be auto or never"),
        ],
    )
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, old, new, key):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(TOY_RUN.replace(old, new).encode("latin-1"))  # "\xff" is one byte
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.strip().split("\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb, base, old, new, ratings, key",
        [
            ("run", "mf_synth", "mf_latent_dim = 3", "mf_latent_dim = 0", None, "mf_latent_dim"),
            ("run", "mf_synth", "synth_users = 20", "synth_users = 0", None, "synth_users"),
            ("run", "toy", "seed = 0", "seed = 0\ntrials = 0", None, "trials"),
            ("run", "toy", "seed = 0", "seed = 0\nmu = -1", None, "mu"),
            ("run", "toy", "seed = 0", "seed = 0\nmu = 2", None, "mu"),
            ("run", "mf_file", "", "", "malformed", "bad.csv:2"),
            ("run", "mf_file", "", "", "directory", "directory"),
            ("run", "mf_synth", "warm_beta = 5", "warm_beta = 1e6", None, "warm start diverged"),
            ("check", "envelope", "seed = 0", "seed = 0\nmu = 0\nG2 = 1", None,
             "mu must be a finite number > 0"),
            ("check", "mf_synth", "seed = 0", "seed = 0\nchecks = lipschitz_optimum\nG2 = 1",
             None, "optimum"),
            ("check", "toy", "seed = 0\n\n[solver foa_min]\nalgorithm = foa_min",
             "seed = 0\nchecks = prediction_gap\n\n[solver foa_min]\nalgorithm = ufopc",
             None, "prediction_gap needs"),
            # the bounds and the step rule beta = 1/L1 divide by L1
            ("check", "toy", "seed = 0\n\n[solver foa_min]\nalgorithm = foa_min",
             "seed = 0\nchecks = post_convergence\nG2 = 12\nL1 = 0\n\n"
             "[solver tvgd]\nalgorithm = tvgd",
             None, "L1 must be a finite number > 0"),
            ("run", "toy", "seed = 0", "seed = 0\nchecks = gradient", None,
             "unknown check 'gradient'"),
            ("check", "toy", "seed = 0", "seed = 0\nchecks = gradient", None,
             "unknown check 'gradient'"),
        ],
        ids=[
            "mf_latent_dim", "synth_users", "trials", "negative_mu", "mu_above_L1",
            "malformed_ratings_line", "ratings_directory", "diverging_warm_start",
            "pl_envelope_zero_mu", "mf_lipschitz_optimum", "prediction_gap_no_solver",
            "post_convergence_zero_L1", "run_unknown_check", "check_unknown_check",
        ],
    )
    def test_range_and_input_errors(self, tmp_path, capsys, verb, base, old, new, ratings, key):
        text = {
            "toy": TOY_RUN, "mf_synth": MF_SYNTH_RUN, "mf_file": MF_FILE_SWEEP,
            "envelope": CHECK_ENVELOPE,
        }[base]
        cfg = write_config(tmp_path, text.replace(old, new))
        argv = [verb, "--config", cfg, "--out", str(tmp_path / "out")]
        if ratings == "malformed":
            bad = tmp_path / "bad.csv"
            bad.write_text("1,2,4.0,10\n1,3,four,11\n")
            argv += ["--ratings", str(bad)]
        elif ratings == "directory":
            argv += ["--ratings", str(tmp_path)]
        code = main(argv)
        err = capsys.readouterr().err.strip().split("\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]

    def test_unwritable_out_dir(self, tmp_path, capsys):
        # the runs finish, then the output directory cannot be created
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, TOY_RUN)
        code = main(["run", "--config", cfg, "--out", str(blocker / "out")])
        err = capsys.readouterr().err.strip().split("\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocker}")

    @pytest.mark.parametrize(
        "extra, key",
        [
            (["--seed", "abc"], "--seed"),
            (["--jobs", "x"], "--jobs"),
            (["--jobs", "0"], "--jobs"),
            (["--bogus"], "--bogus"),
        ],
        ids=["seed_not_int", "jobs_not_int", "jobs_zero", "unknown_option"],
    )
    def test_bad_option(self, tmp_path, capsys, extra, key):
        cfg = write_config(tmp_path, TOY_RUN)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")] + extra)
        err = capsys.readouterr().err.strip().split("\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_RUN)
        assert main(["run", "--config", cfg, "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --seed")

    def test_integral_float_steps_accepted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_RUN.replace("steps = 50", "steps = 5e1")))
        assert cfg.grid == [(0.1, 50)]


class TestPresets:
    def test_table5_matches_published_parameters(self):
        (cfg,) = resolve_configs("table5")
        assert cfg.problem == "linreg_static"
        assert cfg.grid == [(0.1, 2000), (0.01, 20000), (0.001, 200000)]
        by_name = {s.label: s for s in cfg.solvers}
        assert by_name["tvgd"].C == 4 and by_name["tvgd"].beta == 0.01
        assert by_name["ufopc"].P == 10 and by_name["ufopc"].gamma == 0.0
        assert by_name["foa_min"].C == 3 and by_name["foa_min"].zeta == 2.5
        assert by_name["cp"].C == 1 and by_name["cp"].g_choice == "extrapolated"
        assert by_name["cp"].delta == 1e-10

    def test_table2_has_both_mixing_weights(self):
        (cfg,) = resolve_configs("table2")
        gammas = {s.label: s.gamma for s in cfg.solvers if s.algorithm == "ufopc"}
        assert sorted(gammas.values()) == [0.0, 1.0]
        assert cfg.grid == [(0.1, 100)]
        assert cfg.x0_spec == "8.0"

    def test_table7_alias_expands_to_both_losses(self):
        configs = resolve_configs("table7")
        assert [c.problem for c in configs] == ["robust_gm", "robust_welsch"]
        for c in configs:
            by_name = {s.label: s for s in c.solvers}
            assert by_name["foa_min"].zeta == 1.5
            assert by_name["cp"].zeta == 2.5

    def test_table12_is_streaming_mf(self):
        (cfg,) = resolve_configs("table12")
        assert cfg.problem == "mf_file"
        assert cfg.grid == [(0.01, "auto")]
        assert cfg.mf_params["latent_dim"] == 20
        assert {s.algorithm for s in cfg.solvers} == {"tvgd", "foa_min"}
        by_name = {s.label: s for s in cfg.solvers}
        assert by_name["tvgd"].C == 2 and by_name["foa_min"].C == 1
        assert by_name["foa_min"].beta == 10.0 and by_name["foa_min"].zeta == 10.0

    def test_order_preset_is_single_correction(self):
        (cfg,) = resolve_configs("order_pl")
        assert all(s.C == 1 for s in cfg.solvers)
        assert {s.algorithm for s in cfg.solvers} == {"tvgd", "foa_min", "cp"}
        assert cfg.grid == [(0.1, 2000), (0.01, 20000), (0.001, 200000)]

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ConfigError, match="table2"):
            resolve_configs("table99")


class TestRunCommand:
    def test_writes_one_csv_per_solver(self, tmp_path):
        cfg = write_config(tmp_path, TOY_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "foa_min.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 51
        assert lines[1].startswith("0,0,4.1893582466233816,")
        assert lines[-1].endswith(",0")  # not diverged

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TOY_RUN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out_a)])
        main(["run", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "foa_min.csv").read_bytes() == (out_b / "foa_min.csv").read_bytes()

    def test_floats_roundtrip_exactly(self, tmp_path):
        import predcorr as pc

        cfg = write_config(tmp_path, TOY_RUN)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        rows = (out / "foa_min.csv").read_text().strip().split("\n")[1:]
        f_csv = np.array([float(r.split(",")[2]) for r in rows])
        tr = pc.run(
            pc.make_toy(),
            pc.SolverConfig(algorithm="foa_min", C=1, beta=1.0, zeta=10.0, delta=1e-10),
            pc.TimeGrid(0.1, 50),
            np.array([8.0]),
        )
        assert np.array_equal(f_csv, tr.f_pred)

    def test_divergence_exit_code_and_flag_column(self, tmp_path):
        cfg = write_config(tmp_path, TOY_DIVERGING)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        last = (out / "bad.csv").read_text().strip().split("\n")[-1]
        assert last.endswith(",1")
        assert main(
            ["run", "--config", cfg, "--out", str(out), "--allow-divergence"]
        ) == EXIT_OK

    def test_huge_gradient_cauchy_step_runs(self, tmp_path):
        # ||g|| ~ 2e103 at x0, so ||g||^3 overflows a float in cp's step length
        text = (
            "[experiment]\nproblem = linreg_static\nh = 0.1\nsteps = 5\nx0 = 1e101\n"
            "[solver cp]\nalgorithm = cp\nC = 1\nbeta = 0.001\nzeta = 2.5\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == EXIT_OK
        rows = (out / "cp.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 5 and all(row.endswith(",0") for row in rows)

    def test_overflow_is_one_divergence_line(self, tmp_path, capsys):
        # ||a x0||^2 overflows at the first value: no numpy warning is printed
        text = (
            "[experiment]\nproblem = linreg_static\nh = 0.1\nsteps = 5\nx0 = 1e153\n"
            "[solver tvgd]\nalgorithm = tvgd\nC = 1\nbeta = 0.01\n"
        )
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["[run] divergence detected (use --allow-divergence to accept)"]

    def test_usage_error_exit_code(self):
        assert main(["run", "--config", "no_such_preset"]) == EXIT_USAGE

    def test_mf_file_without_ratings_is_usage_error(self, tmp_path):
        assert main(["run", "--config", "table12", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_seed_override_changes_randn_start(self, tmp_path):
        text = TOY_RUN.replace("x0 = 8.0", "x0 = randn")
        cfg = write_config(tmp_path, text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out_a), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(out_b), "--seed", "2"])
        assert (out_a / "foa_min.csv").read_text() != (out_b / "foa_min.csv").read_text()

    def test_seed_override_reaches_synthetic_dataset(self, tmp_path):
        # without synth_seed the dataset takes the experiment seed, also
        # when --seed sets it
        text = MF_SYNTH_RUN.replace("synth_seed = 4\n", "")
        cfg_0 = write_config(tmp_path, text, name="seed0.ini")
        cfg_5 = write_config(tmp_path, text.replace("seed = 0", "seed = 5"), name="seed5.ini")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_0, "--out", str(out_a), "--seed", "5"]) == EXIT_OK
        assert main(["run", "--config", cfg_5, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "tvgd.csv").read_bytes() == (out_b / "tvgd.csv").read_bytes()

    def test_live_timing_populates_timing_columns(self, tmp_path):
        cfg = write_config(tmp_path, TOY_RUN.replace("seed = 0", "seed = 0\ntiming = live"))
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        rows = (out / "foa_min.csv").read_text().strip().split("\n")[1:]
        corr = [float(r.split(",")[6]) for r in rows]
        assert sum(corr) > 0.0

    def test_table2_preset_end_to_end(self, tmp_path):
        out = tmp_path / "t2"
        code = main(["run", "--config", "table2", "--out", str(out), "--allow-divergence"])
        assert code == EXIT_OK
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["cp.csv", "foa_min.csv", "tvgd.csv", "ufopc_gamma0.csv",
                         "ufopc_gamma1.csv"]
        gamma1 = (out / "ufopc_gamma1.csv").read_text().strip().split("\n")
        assert gamma1[-1].endswith(",1")  # trace ends on the divergence row
        assert len(gamma1) - 1 < 51
        # without the flag the same preset signals the divergence
        assert main(["run", "--config", "table2", "--out", str(out)]) == EXIT_DIVERGED


SWEEP_SMALL = """
[experiment]
problem = linreg_static
h = 0.2, 0.1, 0.05
steps = 400, 800, 1600
x0 = randn
seed = 0

[solver foa_min]
algorithm = foa_min
C = 1
beta = 0.01
zeta = 2.5
delta = 1e-10
"""


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by one that maps in this process; returns the
    worker counts asked for and the values the workers would send back."""
    asked, returned = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            results = list(map(fn, jobs))   # what a worker would pickle back
            returned.extend(results)
            return iter(results)

    monkeypatch.setattr(predcorr.cli, "ProcessPoolExecutor", InProcessPool)
    return asked, returned


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_SMALL)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sweep = (out / "sweep.csv").read_text().strip().split("\n")
        assert sweep[0] == "h,solver,max_grad,mean_grad,max_gap,mean_gap"
        assert len(sweep) == 4
        slopes = (out / "slopes.csv").read_text().strip().split("\n")
        assert slopes[0] == "solver,stat,slope,intercept,max_abs_residual"
        assert len(slopes) == 5  # four statistics fitted for the one solver

    def test_sweep_parallel_matches_serial(self, tmp_path):
        # The mf_file input ships its loaded dataset to the worker processes.
        ratings = ["--ratings", write_ratings(tmp_path)]
        for name, text in (("linreg", SWEEP_SMALL), ("mf_file", MF_FILE_SWEEP)):
            cfg = write_config(tmp_path, text, name=f"{name}.ini")
            out_a, out_b = tmp_path / name / "a", tmp_path / name / "b"
            for out, jobs in ((out_a, "1"), (out_b, "3")):
                code = main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs] + ratings)
                assert code == EXIT_OK
            assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_pool_is_capped_at_the_job_count(self, tmp_path, in_process_pool):
        asked, returned = in_process_pool
        two_runs = SWEEP_SMALL.replace("h = 0.2, 0.1, 0.05\nsteps = 400, 800, 1600",
                                       "h = 0.2, 0.1\nsteps = 40, 80")
        cfg = write_config(tmp_path, two_runs)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "64"])
        assert code == EXIT_OK
        assert asked == [2]
        # a sweep's workers send back tail statistics, never a whole trace
        assert len(returned) == 2
        assert not any(isinstance(v, Trace) for result in returned for v in result)

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_ratings_file_parsed_once_per_command(self, tmp_path, monkeypatch, verb):
        parsed = []
        load = predcorr.config.load_ratings
        monkeypatch.setattr(
            predcorr.config, "load_ratings", lambda path: parsed.append(path) or load(path)
        )
        cfg = write_config(tmp_path, MF_FILE_SWEEP)
        ratings = write_ratings(tmp_path)
        code = main([verb, "--config", cfg, "--ratings", ratings, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert parsed == [ratings]

    def test_synthetic_power_law_injection(self):
        # plumbing check: a fabricated stat table with stat = h^2 fits slope 2
        table = {
            "solverx": {
                h: TailStats(max_grad=h * h, mean_grad=h * h, window=1)
                for h in (0.1, 0.01, 0.001)
            }
        }
        fits = {(label, stat): fit for label, stat, fit in summarize_sweep(table)}
        assert fits[("solverx", "mean_grad")].slope == pytest.approx(2.0, abs=1e-9)
        assert ("solverx", "mean_gap") not in fits


CHECK_FAST = """
[experiment]
problem = toy
h = 0.1
steps = 20
x0 = 8.0
checks = ratio_bound
trials = 50
"""

CHECK_ENVELOPE = """
[experiment]
problem = linreg_static
h = 0.1
steps = 1500
x0 = randn
seed = 0
checks = pl_envelope

[solver tvgd]
algorithm = tvgd
C = 1
beta = 0.01
"""

CHECK_POST_CONVERGENCE = """
[experiment]
problem = toy
h = 0.05
steps = 200
x0 = 2.5
G2 = 12
checks = post_convergence

[solver tvgd]
algorithm = tvgd
C = 1
beta = 0.01
"""

CHECK_PREDICTION_GAP = """
[experiment]
problem = toy
h = 0.05
steps = 200
x0 = 2.5
checks = prediction_gap

[solver tvgd]
algorithm = tvgd
C = 1
beta = 1.0

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
g_choice = plain
"""


class TestCheckCommand:
    def test_ratio_bound_check_passes(self, tmp_path):
        cfg = write_config(tmp_path, CHECK_FAST)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "checks.csv").read_text()
        assert text.startswith("check,target,status,value,detail")
        assert ",pass," in text

    def test_pl_envelope_check_passes_on_static_least_squares(self, tmp_path):
        # every tvgd solver is checked
        text = CHECK_ENVELOPE + "\n[solver tvgd_c2]\nalgorithm = tvgd\nC = 2\nbeta = 0.01\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "checks.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["tvgd@h=0.1", "tvgd_c2@h=0.1"]

    def test_pl_envelope_fails_with_fabricated_zero_drift(self, tmp_path):
        # forcing G2 = 0 claims a pure-decay envelope; once the decay term
        # falls below the drift equilibrium the moving target violates it
        text = CHECK_ENVELOPE.replace("checks = pl_envelope", "checks = pl_envelope\nG2 = 0.0")
        text = text.replace("steps = 1500", "steps = 40000")
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED

    def test_prediction_gap_ratios_in_expected_windows(self, tmp_path):
        cfg = write_config(tmp_path, CHECK_PREDICTION_GAP)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "checks.csv").read_text()
        assert text.count("prediction_gap") == 3

    def test_prediction_gap_runs_record_no_gap(self, tmp_path, monkeypatch):
        # the ratio reads predictions only, so under compute_gap = auto the
        # two runs per solver still ask for no optimum
        calls = []

        def counting(config, ratings=None, h=None):
            problem = build_problem(config, ratings, h)
            optimum = problem.optimum
            return dataclasses.replace(
                problem, optimum=lambda *a: calls.append(a) or optimum(*a)
            )

        monkeypatch.setattr(predcorr.cli, "build_problem", counting)
        text = CHECK_ENVELOPE.replace("checks = pl_envelope", "checks = prediction_gap")
        text = text.replace("steps = 1500", "steps = 200\ncompute_gap = auto")
        out = tmp_path / "o"
        code = main(["check", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert "prediction_gap,tvgd," in (out / "checks.csv").read_text()
        assert calls == []

    def test_post_convergence_check_on_toy_predictor(self, tmp_path):
        text = """
[experiment]
problem = toy
h = 0.1
steps = 300
x0 = 8.0
checks = post_convergence

[solver foa_min]
algorithm = foa_min
C = 1
beta = 0.9090909090909091
zeta = 10
delta = 1e-10
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "0 violations / 299 checked" in (out / "checks.csv").read_text()

    @pytest.mark.parametrize("check, text, beta, step", [
        ("post_convergence", CHECK_POST_CONVERGENCE, "0.01", "0.9090909090909091"),
        ("pl_envelope", CHECK_ENVELOPE.replace("beta = 0.01", "beta = 0.02"), "0.02", "0.01"),
        # a check listed first does not run before a later one refuses
        ("post_convergence", CHECK_POST_CONVERGENCE.replace(
            "checks = post_convergence", "checks = prediction_gap, post_convergence"),
         "0.01", "0.9090909090909091"),
    ], ids=["post_convergence", "pl_envelope", "after_prediction_gap"])
    def test_step_other_than_one_over_l1_is_refused(
        self, tmp_path, capsys, monkeypatch, check, text, beta, step
    ):
        # both bounds hold for the step 1/L1 only; at beta = 0.01 the toy's
        # post-convergence check read 161 violations out of 199
        runs = []
        run = predcorr.cli.run
        monkeypatch.setattr(predcorr.cli, "run", lambda *a, **kw: runs.append(a) or run(*a, **kw))
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [
            f"error: {check}: tvgd has beta = {beta}, but the bound holds for "
            f"beta = 1/L1 = {step}"
        ]
        assert runs == []   # refused before any solver ran

    def test_lipschitz_check_on_constant_optimal_value(self, tmp_path):
        # the toy's optimum stays in one ripple basin, whose f* is a
        # tabulated constant; the robust optimum has f* = 0; both exactly
        for problem, h in (("toy", 0.1), ("robust_gm", 0.05)):
            text = f"""
[experiment]
problem = {problem}
h = {h}
steps = 30
checks = lipschitz_optimum
G2 = 1.0
"""
            cfg = write_config(tmp_path, text, name=f"{problem}.ini")
            out = tmp_path / problem
            assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
            value = float((out / "checks.csv").read_text().splitlines()[1].split(",")[3])
            assert value == -h   # -G2 * h with G2 = 1

    def test_lipschitz_needs_g2_constant(self, tmp_path):
        text = CHECK_FAST.replace("checks = ratio_bound", "checks = lipschitz_optimum")
        cfg = write_config(tmp_path, text.replace("trials = 50", ""))
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_post_convergence_without_g2_names_the_key(self, tmp_path, capsys):
        text = """
[experiment]
problem = toy
h = 0.1
steps = 50
x0 = 8.0
checks = post_convergence

[solver tvgd]
algorithm = tvgd
C = 1
beta = 1.0
"""
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: post_convergence") and "G2" in err[0]

    def test_check_parallel_matches_serial(self, tmp_path):
        text = CHECK_ENVELOPE.replace("h = 0.1\nsteps = 1500", "h = 0.1, 0.05\nsteps = 300, 300")
        text = text.replace(
            "checks = pl_envelope", "L3 = 1\nchecks = pl_envelope, prediction_gap, post_convergence"
        )
        text += "\n[solver tvgd_c2]\nalgorithm = tvgd\nC = 2\nbeta = 0.01\n" + "".join(
            f"\n[solver {name}]\nalgorithm = {name}\nC = 1\nbeta = 0.01\nzeta = 2.5\ndelta = 1e-10\n"
            for name in ("foa_min", "cp")
        )
        cfg = write_config(tmp_path, text)
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        for out, jobs in zip(outs, ("1", "2")):
            code = main(["check", "--config", cfg, "--out", str(out), "--jobs", jobs])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        serial, parallel = ((out / "checks.csv").read_bytes() for out in outs)
        assert serial == parallel
        assert serial.count(b"\n") == 1 + 4 + 4 + 3   # header, then the rows of each check

    def test_check_row_runs_in_one_pool(self, tmp_path, in_process_pool):
        # h and h/2 of all three solvers share one pool of 6 workers
        asked, returned = in_process_pool
        cfg = write_config(tmp_path, CHECK_PREDICTION_GAP)
        code = main(["check", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "8"])
        assert code == EXIT_OK
        assert asked == [6]
        labels = ["tvgd", "tvgd", "foa_min", "foa_min", "cp", "cp"]
        assert [trace.label for trace in returned] == labels
        assert [trace.t[1] for trace in returned] == [0.05, 0.025] * 3

    def test_missing_checks_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, TOY_RUN)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("check, problem", [
        ("post_convergence", "toy"),
        ("pl_envelope", "linreg_static"),
        ("prediction_gap", "toy"),
    ])
    def test_diverged_check_run_is_a_fail_row(self, tmp_path, check, problem):
        # a step of 1e9 throws the first correction far past the domain guard;
        # L1 = 1e-9 makes it the step 1/L1 that the bound checks require
        text = f"""
[experiment]
problem = {problem}
h = 0.1
steps = 20
x0 = 8.0
checks = {check}
G2 = 1.0
L1 = 1e-9
mu = 1e-10

[solver tvgd]
algorithm = tvgd
C = 1
beta = 1e9
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
        rows = (out / "checks.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        name, _, status, value, detail = rows[0].split(",")
        assert (name, status, value) == (check, "FAIL", "nan")
        assert re.fullmatch(r"run diverged at step \d+ \(h=0\.1\)", detail)


class TestRefusedBeforeAnyRun:
    """Configurations that cannot run end in exit 1 with one line, before
    any solver runs and before any CSV is written."""

    def refused(self, tmp_path, capsys, monkeypatch, verb, text, *extra):
        runs = []
        monkeypatch.setattr(predcorr.cli, "run", lambda *a, **kw: runs.append(a))
        out = tmp_path / "o"
        code = main([verb, "--config", write_config(tmp_path, text), "--out", str(out), *extra])
        assert code == EXIT_USAGE
        assert runs == []
        assert not out.exists() or not list(out.rglob("*.csv"))
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    @pytest.mark.parametrize("verb", ["run", "sweep", "check"])
    def test_missing_hessian(self, tmp_path, capsys, monkeypatch, verb):
        # the cp solver is listed after tvgd, which alone could run
        text = MF_SYNTH_RUN.replace("h = 0.01\nsteps = 3", "h = 0.01, 0.02, 0.04\nsteps = 3, 3, 3")
        text = text.replace("compute_gap = never", "compute_gap = never\nchecks = prediction_gap")
        text += "\n[solver cp]\nalgorithm = cp\nC = 1\nbeta = 5\nzeta = 1\n"
        err = self.refused(tmp_path, capsys, monkeypatch, verb, text)
        assert err == "error: problem 'mf' does not provide: hess_xx"

    @pytest.mark.parametrize("problem, checks", [
        ("mf_synth", "prediction_gap"),
        # listed after a check that could run
        ("mf_synth", "ratio_bound, prediction_gap"),
        ("mf_file", "prediction_gap"),
    ])
    def test_prediction_gap_refused_on_a_ratings_stream(
        self, tmp_path, capsys, monkeypatch, problem, checks
    ):
        # both runs of the check would see the same objective sequence
        base, extra = MF_SYNTH_RUN, ()
        if problem == "mf_file":
            base, extra = MF_FILE_SWEEP, ("--ratings", write_ratings(tmp_path))
        text = base.replace("compute_gap = never", f"compute_gap = never\nchecks = {checks}")
        err = self.refused(tmp_path, capsys, monkeypatch, "check", text, *extra)
        assert err == (
            f"error: prediction_gap is not defined on {problem}: the ratings stream "
            "reveals the same ratings per step at h and h/2"
        )

    def test_check_needs_oracles_of_its_planned_solvers_only(self, tmp_path, monkeypatch):
        # prediction_gap has no window for ufopc, so a toy stripped of its
        # Hessian still runs the check on tvgd
        build = predcorr.cli.build_problem
        monkeypatch.setattr(
            predcorr.cli, "build_problem",
            lambda *a, **kw: dataclasses.replace(build(*a, **kw), hess_xx=None),
        )
        text = CHECK_PREDICTION_GAP.split("[solver foa_min]")[0]
        text += "[solver ufopc]\nalgorithm = ufopc\nC = 1\nbeta = 1.0\nP = 1\n"
        out = tmp_path / "o"
        code = main(["check", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        rows = (out / "checks.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["tvgd"]

    @pytest.mark.parametrize("checks", [
        "prediction_gap, pl_envelope",
        "prediction_gap, post_convergence",
        "prediction_gap, lipschitz_optimum",
    ])
    def test_missing_optimum(self, tmp_path, capsys, monkeypatch, checks):
        # every constant is set and tvgd takes the step 1/L1, so only the
        # optimum the later check reads is missing
        starts = []
        build_x0 = predcorr.cli.build_x0
        monkeypatch.setattr(
            predcorr.cli, "build_x0", lambda *a: starts.append(a) or build_x0(*a)
        )
        constants = "L1 = 0.2\nmu = 0.1\nG2 = 1\nL2 = 1\nL3 = 1"
        text = MF_SYNTH_RUN.replace("compute_gap = never", f"checks = {checks}\n{constants}")
        err = self.refused(tmp_path, capsys, monkeypatch, "check", text)
        assert err == "error: problem 'mf' does not provide: optimum"
        assert starts == []   # refused before the warm start too

    def test_halved_period_must_be_positive(self, tmp_path, capsys, monkeypatch):
        # half the least subnormal period rounds to 0
        text = CHECK_PREDICTION_GAP.replace("h = 0.05", "h = 5e-324")
        err = self.refused(tmp_path, capsys, monkeypatch, "check", text)
        assert err == "error: prediction_gap would run at h = 0, which is not > 0"

    @pytest.mark.parametrize("problem", ["toy", "mf_synth"])
    def test_prediction_gap_needs_two_steps(self, tmp_path, capsys, monkeypatch, problem):
        if problem == "toy":
            text = CHECK_PREDICTION_GAP.replace("steps = 200", "steps = 1")
        else:
            # the initial reveal is the whole stream, so auto resolves to 1
            text = MF_SYNTH_RUN.replace("steps = 3", "steps = auto").replace(
                "mf_initial_revealed = 200", "mf_initial_revealed = 400"
            ).replace("compute_gap = never", "compute_gap = never\nchecks = prediction_gap")
        err = self.refused(tmp_path, capsys, monkeypatch, "check", text)
        assert err.startswith("error: prediction_gap needs at least 2 steps") and err.endswith("got 1")


class TestCheckTable:
    def test_beta_rule_rows_need_l1_for_every_algorithm(self):
        for row in predcorr.cli.CHECKS.values():
            if row.beta_rule:
                assert row.solvers and all("L1" in keys for keys in row.solvers.values())

    def test_rows_with_solvers_and_only_they_declare_periods(self):
        # a row with solvers but no periods would run nothing and report nothing
        for row in predcorr.cli.CHECKS.values():
            assert bool(row.solvers) == bool(predcorr.cli._groups(row, [(0.1, 2)]))


# One numeric key replaced by a token from a fixed set.  The set holds no
# large value a count could take, so no example builds a huge array.
BAD_TOKENS = ("0", "-1", "2.5", "nan", "inf", "1e400", "abc", "")
TOKEN_BASES = {
    "toy": (TOY_RUN, ("h", "steps", "seed", "x0", "C", "beta", "zeta", "delta")),
    "mf_synth": (MF_SYNTH_RUN, (
        "h", "steps", "seed", "warm_beta", "mf_latent_dim", "mf_reg", "mf_reveal_per_step",
        "mf_initial_revealed", "synth_users", "synth_items", "synth_ratings",
        "synth_latent_dim", "synth_noise_sd", "synth_seed", "C", "beta",
    )),
}


@st.composite
def one_bad_token(draw):
    text, keys = TOKEN_BASES[draw(st.sampled_from(sorted(TOKEN_BASES)))]
    key, token = draw(st.sampled_from(keys)), draw(st.sampled_from(BAD_TOKENS))
    return re.sub(rf"^{key} = .*$", f"{key} = {token}", text, count=1, flags=re.M)


@settings(max_examples=80, deadline=None)
@given(text=one_bad_token())
def test_bad_token_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/exp.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", cfg, "--out", f"{tmp}/out"])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED)
    if code == EXIT_USAGE:
        lines = err.getvalue().strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:")
