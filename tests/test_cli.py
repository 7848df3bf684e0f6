import numpy as np
import pytest

from predcorr.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    TRACE_HEADER,
    fit_sweep_orders,
    main,
)
from predcorr.analysis import TailStats
from predcorr.config import ConfigError, parse_config, resolve_configs

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


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_unknown_experiment_key_is_named(self, tmp_path):
        path = write_config(tmp_path, TOY_RUN.replace("seed = 0", "sede = 0"))
        with pytest.raises(ConfigError, match="sede"):
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

    def test_parse_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_RUN))
        assert cfg.problem == "toy"
        assert cfg.grid == [(0.1, 50)]
        assert cfg.solvers[0].algorithm == "foa_min"
        assert cfg.solvers[0].zeta == 10.0
        assert cfg.solvers[0].label == "foa_min"


class TestMalformedNumbers:
    """Bad numeric values end in exit 1 and a single ``error:`` line."""

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
        ],
    )
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, old, new, key):
        cfg = write_config(tmp_path, TOY_RUN.replace(old, new))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.strip().split("\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]

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
        cfg = write_config(tmp_path, SWEEP_SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(out_a), "--jobs", "1"])
        main(["sweep", "--config", cfg, "--out", str(out_b), "--jobs", "3"])
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_synthetic_power_law_injection(self):
        # plumbing check: a fabricated stat table with stat = h^2 fits slope 2
        table = {
            "solverx": {
                h: TailStats(max_grad=h * h, mean_grad=h * h, window=1)
                for h in (0.1, 0.01, 0.001)
            }
        }
        fits = {(label, stat): fit for label, stat, fit in fit_sweep_orders(table)}
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
        cfg = write_config(tmp_path, CHECK_ENVELOPE)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

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
beta = 1.0
zeta = 10
delta = 1e-10
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "0 violations" in (out / "checks.csv").read_text()

    def test_lipschitz_check_on_constant_optimal_value(self, tmp_path):
        text = """
[experiment]
problem = toy
h = 0.1
steps = 30
x0 = 8.0
checks = lipschitz_optimum
G2 = 1.0
"""
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_lipschitz_needs_g2_constant(self, tmp_path):
        text = CHECK_FAST.replace("checks = ratio_bound", "checks = lipschitz_optimum")
        cfg = write_config(tmp_path, text.replace("trials = 50", ""))
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_missing_checks_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, TOY_RUN)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
