"""Experiment configuration: flat INI files with one section per solver.

The format is deliberately plain so any language can parse it: a single
``[experiment]`` section with scalar keys, plus one ``[solver <name>]``
section per algorithm to run.  Unknown keys and sections are errors, named
explicitly.  Bundled presets reproduce the benchmark parameter tables and
are addressed by bare name (``table2``, ``table5``, ``table7_gm``,
``table7_welsch``, ``table12``; ``table7`` expands to both robust losses).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ProblemConstants, ProblemOracle, rng_from_seed
from .problems import (
    LINREG_DRIFT,
    LINREG_STATIC,
    ROBUST_GM,
    ROBUST_WELSCH,
    TOY,
    linreg_static_constants,
    make_linreg,
    make_mf,
    make_robust,
    make_toy,
    mf_warm_start,
    robust_constants,
    toy_constants,
)
from .ratings import load_ratings, filter_min_counts, synth_ratings
from .solvers import SolverConfig

MF_FILE = "mf_file"
MF_SYNTH = "mf_synth"
PROBLEMS = (TOY, LINREG_STATIC, LINREG_DRIFT, ROBUST_GM, ROBUST_WELSCH, MF_FILE, MF_SYNTH)

CHECK_NAMES = (
    "gradients",
    "lipschitz_optimum",
    "pl_envelope",
    "post_convergence",
    "prediction_gap",
    "ratio_bound",
)

_EXPERIMENT_KEYS = {
    "problem", "h", "steps", "x0", "seed", "out", "compute_gap", "timing",
    "warm_beta", "checks", "trials", "ratio_min", "ratio_max",
    "L1", "L2", "L3", "G2", "mu", "Z",
    "mf_latent_dim", "mf_reg", "mf_reveal_per_step", "mf_initial_revealed",
    "mf_min_user", "mf_min_item", "mf_reg_normalized",
    "synth_users", "synth_items", "synth_ratings", "synth_latent_dim",
    "synth_noise_sd", "synth_seed",
}

_SOLVER_KEYS = {"algorithm", "C", "beta", "P", "alpha", "gamma", "zeta", "delta", "g_choice"}

PRESET_ALIASES = {"table7": ("table7_gm", "table7_welsch")}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description, independent of any CLI state."""

    problem: str
    grid: list[tuple[float, object]]          # (h, steps) with steps int or "auto"
    solvers: list[SolverConfig]
    x0_spec: str = "randn"
    seed: int = 0
    out: str = "out"
    compute_gap: str = "auto"                 # auto | always | never
    timing: str = "zero"                      # zero | live
    warm_beta: float = 10.0
    checks: list[str] = field(default_factory=list)
    constants_overrides: dict = field(default_factory=dict)
    check_params: dict = field(default_factory=dict)
    mf_params: dict = field(default_factory=dict)
    synth_params: dict = field(default_factory=dict)
    source: str = ""

    def gap_flag(self) -> Optional[bool]:
        return {"auto": None, "always": True, "never": False}[self.compute_gap]


def _number(key: str, text: str, cast=float):
    """Cast one config value to ``float`` or ``int``, naming the key on error.

    Integers may also be written as integral floats (``1e3``), but not as
    fractions (``2.5``).
    """
    text = text.strip()
    if cast is int:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if cast is float:
        return value
    if not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {text!r}")
    return int(value)


def check_seed(key: str, seed: int) -> int:
    """Reject seeds the package generator cannot take as a key."""
    if not 0 <= seed < 2**128:
        raise ConfigError(f"{key} must lie in [0, 2**128), got {seed}")
    return seed


def _parse_floats(text: str, key: str) -> list[float]:
    return [_number(key, v) for v in text.split(",") if v.strip() != ""]


def _parse_grid(h_text: str, steps_text: str) -> list[tuple[float, object]]:
    hs = _parse_floats(h_text, "h")
    steps_items = [s.strip() for s in steps_text.split(",") if s.strip() != ""]
    if len(hs) != len(steps_items):
        raise ConfigError(
            f"h lists {len(hs)} values but steps lists {len(steps_items)}"
        )
    grid: list[tuple[float, object]] = []
    for h, s in zip(hs, steps_items):
        if not (math.isfinite(h) and h > 0):
            raise ConfigError(f"h must be a finite number > 0, got {h}")
        if s == "auto":
            grid.append((h, "auto"))
            continue
        steps = _number("steps", s, int)
        if steps < 1:
            raise ConfigError(f"steps must be >= 1, got {steps}")
        grid.append((h, steps))
    return grid


def parse_config(path_or_text, is_text: bool = False, source: str = "") -> ExperimentConfig:
    """Parse an experiment INI file (or literal text) into a config object."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",)
    )
    parser.optionxform = str  # keys are case-sensitive
    if is_text:
        parser.read_string(path_or_text)
    else:
        source = source or str(path_or_text)
        with open(path_or_text, "r", encoding="utf-8") as fh:
            parser.read_file(fh)

    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key {key!r} in [experiment]")

    problem = exp.get("problem", "")
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")
    if "h" not in exp or "steps" not in exp:
        raise ConfigError("[experiment] needs both 'h' and 'steps'")
    grid = _parse_grid(exp["h"], exp["steps"])
    for h, steps in grid:
        if steps == "auto" and problem not in (MF_FILE, MF_SYNTH):
            raise ConfigError("steps = auto is only meaningful for mf problems")

    compute_gap = exp.get("compute_gap", "auto")
    if compute_gap not in ("auto", "always", "never"):
        raise ConfigError(f"compute_gap must be auto/always/never, got {compute_gap!r}")
    timing = exp.get("timing", "zero")
    if timing not in ("zero", "live"):
        raise ConfigError(f"timing must be zero or live, got {timing!r}")

    checks = [c.strip() for c in exp.get("checks", "").split(",") if c.strip()]
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}; expected one of {CHECK_NAMES}")

    def num(key, default, cast=float):
        return _number(key, exp.get(key, default), cast)

    overrides = {}
    for key in ("L1", "L2", "L3", "G2", "mu", "Z"):
        if key in exp:
            overrides[key] = _number(key, exp[key])

    check_params = {}
    if "trials" in exp:
        check_params["trials"] = _number("trials", exp["trials"], int)
    for key in ("ratio_min", "ratio_max"):
        if key in exp:
            check_params[key] = _number(key, exp[key])

    seed = check_seed("seed", num("seed", "0", int))
    mf_params = {
        "latent_dim": num("mf_latent_dim", "20", int),
        "reg": num("mf_reg", "0.01"),
        "reveal_per_step": num("mf_reveal_per_step", "10", int),
        "initial_revealed": num("mf_initial_revealed", "100000", int),
        "min_user": num("mf_min_user", "0", int),
        "min_item": num("mf_min_item", "0", int),
        "reg_normalized": exp.get("mf_reg_normalized", "true").lower() in ("true", "1", "yes"),
    }
    synth_params = {
        "n_users": num("synth_users", "80", int),
        "n_items": num("synth_items", "70", int),
        "n_ratings": num("synth_ratings", "40000", int),
        "latent_dim": num("synth_latent_dim", "5", int),
        "noise_sd": num("synth_noise_sd", "0.3"),
        "seed": check_seed("synth_seed", num("synth_seed", str(seed), int)),
    }

    solvers = []
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("solver "):
            raise ConfigError(
                f"unknown section [{section}]; expected [experiment] or [solver <name>]"
            )
        name = section[len("solver "):].strip()
        raw = parser[section]
        for key in raw:
            if key not in _SOLVER_KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
        if "algorithm" not in raw:
            raise ConfigError(f"[{section}] is missing 'algorithm'")
        kwargs = {"algorithm": raw["algorithm"], "name": name}
        if "g_choice" in raw:
            kwargs["g_choice"] = raw["g_choice"]
        for key, cast in (
            ("C", int), ("beta", float), ("P", int), ("alpha", float),
            ("gamma", float), ("zeta", float), ("delta", float),
        ):
            if key in raw:
                kwargs[key] = _number(f"[{section}] {key}", raw[key], cast)
        try:
            solvers.append(SolverConfig(**kwargs))
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from None

    return ExperimentConfig(
        problem=problem,
        grid=grid,
        solvers=solvers,
        x0_spec=exp.get("x0", "randn"),
        seed=seed,
        out=exp.get("out", "out"),
        compute_gap=compute_gap,
        timing=timing,
        warm_beta=num("warm_beta", "10.0"),
        checks=checks,
        constants_overrides=overrides,
        check_params=check_params,
        mf_params=mf_params,
        synth_params=synth_params,
        source=source,
    )


def available_presets() -> list[str]:
    files = resources.files("predcorr").joinpath("presets")
    names = sorted(p.name[:-4] for p in files.iterdir() if p.name.endswith(".ini"))
    return names + sorted(PRESET_ALIASES)


def resolve_configs(spec: str) -> list[ExperimentConfig]:
    """Resolve a --config argument to one or more experiment configs.

    A path to an existing file wins; otherwise the name is looked up among
    the bundled presets (aliases may expand to several configs).
    """
    if Path(spec).is_file():
        return [parse_config(spec)]
    names = PRESET_ALIASES.get(spec, (spec,))
    configs = []
    for name in names:
        ref = resources.files("predcorr").joinpath(f"presets/{name}.ini")
        if not ref.is_file():
            raise ConfigError(
                f"{spec!r} is neither a config file nor a preset; "
                f"available presets: {', '.join(available_presets())}"
            )
        configs.append(parse_config(ref.read_text(encoding="utf-8"), is_text=True, source=name))
    return configs


# ---------------------------------------------------------------------------
# Problem/initial-point assembly
# ---------------------------------------------------------------------------

def build_problem(
    config: ExperimentConfig,
    ratings_path: Optional[str] = None,
    h: Optional[float] = None,
) -> ProblemOracle:
    """Instantiate the configured problem (a fresh, immutable oracle).

    Matrix-factorization oracles map time to a reveal count through the
    sampling period, so ``h`` must be the period the run will use (defaults
    to the first grid entry).
    """
    name = config.problem
    if name == TOY:
        return make_toy()
    if name in (LINREG_STATIC, LINREG_DRIFT):
        return make_linreg(name)
    if name in (ROBUST_GM, ROBUST_WELSCH):
        return make_robust(name)
    mf = config.mf_params
    if name == MF_SYNTH:
        ds = synth_ratings(**config.synth_params)
    else:
        if not ratings_path:
            raise ConfigError("mf_file requires --ratings <path>")
        ds = load_ratings(ratings_path)
        if mf["min_user"] or mf["min_item"]:
            ds = filter_min_counts(ds, mf["min_user"], mf["min_item"])
    initial = min(mf["initial_revealed"], len(ds))
    return make_mf(
        ds,
        latent_dim=mf["latent_dim"],
        reg=mf["reg"],
        reveal_per_step=mf["reveal_per_step"],
        initial_revealed=initial,
        step_period=config.grid[0][0] if h is None else h,
        normalize_reg=mf["reg_normalized"],
    )


def resolve_steps(config: ExperimentConfig, problem: ProblemOracle) -> list[tuple[float, int]]:
    """Materialize 'auto' step counts (reveal the whole ratings stream)."""
    grid = []
    for h, steps in config.grid:
        if steps == "auto":
            n_total = problem.n_ratings
            per = problem.reveal_per_step
            remaining = max(n_total - problem.initial_revealed, 0)
            steps = max(-(-remaining // per), 1)
        grid.append((h, int(steps)))
    return grid


def build_x0(
    config: ExperimentConfig, problem: ProblemOracle, seed: Optional[int] = None
) -> np.ndarray:
    """Resolve the configured initial point to a concrete vector.

    Forms: explicit comma-separated floats, ``randn`` (seeded standard
    normal), or ``warm:<grad-norm>`` (matrix factorization only: descend the
    frozen initial objective until the gradient norm crosses the level).
    """
    spec = config.x0_spec.strip()
    s = config.seed if seed is None else seed
    if spec == "randn":
        return rng_from_seed(s).standard_normal(problem.dim)
    if spec.startswith("warm:"):
        if config.problem not in (MF_FILE, MF_SYNTH):
            raise ConfigError("warm: initial points are only defined for mf problems")
        level = _number("x0", spec[len("warm:"):])
        x0, _ = mf_warm_start(problem, level, seed=s, beta=config.warm_beta)
        return x0
    values = _parse_floats(spec, "x0")
    if len(values) == 1 and problem.dim > 1:
        return np.full(problem.dim, values[0])
    if len(values) != problem.dim:
        raise ConfigError(
            f"x0 has {len(values)} components but the problem dimension is {problem.dim}"
        )
    return np.asarray(values, dtype=float)


def default_constants(problem_name: str) -> Optional[ProblemConstants]:
    """Known analytic constants per benchmark, None when unavailable."""
    if problem_name == TOY:
        return toy_constants()
    if problem_name == LINREG_STATIC:
        return linreg_static_constants()
    if problem_name in (ROBUST_GM, ROBUST_WELSCH):
        return robust_constants()
    return None


def constants_for(config: ExperimentConfig) -> ProblemConstants:
    """Merge per-problem defaults with explicit overrides from the config."""
    base = default_constants(config.problem)
    values = {}
    if base is not None:
        for key in ("L1", "L2", "L3", "G2", "mu", "Z"):
            values[key] = getattr(base, key)
    values.update(config.constants_overrides)
    return ProblemConstants(**values)
