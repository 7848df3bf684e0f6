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
import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import ProblemConstants, ProblemOracle, rng_from_seed
from .problems import (
    LINREG_DRIFT,
    LINREG_STATIC,
    ROBUST_GM,
    ROBUST_WELSCH,
    TOY,
    linreg_g2_from_values,
    linreg_static_constants,
    make_linreg,
    make_mf,
    make_robust,
    make_toy,
    mf_warm_start,
    robust_constants,
    steps_to_reveal,
    toy_constants,
)
from .ratings import RatingsDataset, load_ratings, filter_min_counts, synth_ratings
from .solvers import SolverConfig, x0_norm

PRESET_ALIASES = {"table7": ("table7_gm", "table7_welsch")}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description, independent of any CLI state."""

    problem: str
    grid: list[tuple[float, object]]          # (h, steps) with steps int or "auto"
    solvers: list[SolverConfig]
    x0_spec: str
    seed: int
    out: str
    compute_gap: str                          # auto | never
    timing: str                               # zero | live
    warm_beta: float
    checks: list[str]
    constants: ProblemConstants
    trials: int                               # ratio_bound samples
    mf_params: dict
    synth_params: dict
    source: str

    def gap_flag(self) -> Optional[bool]:
        return {"auto": None, "never": False}[self.compute_gap]

    def has_g2(self) -> bool:
        """Whether ``g2`` gives a value: G2 is set, or the problem has a rule."""
        return self.constants.G2 is not None or PROBLEMS[self.problem].auto_g2 is not None

    def g2(self, f_values) -> Optional[float]:
        """The configured G2, else the problem's rule for the values a run
        reached, else None."""
        if self.constants.G2 is not None:
            return self.constants.G2
        rule = PROBLEMS[self.problem].auto_g2
        return None if rule is None else rule(f_values)


def _number(key: str, text: str, cast=float, low=None, strict=False):
    """Cast one config value to ``float`` or ``int``, naming the key on error.

    Integers may also be written as integral floats (``1e3``), but not as
    fractions (``2.5``).  With a bound ``low`` the value must also be finite
    and ``>= low`` (``> low`` when ``strict``).
    """
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if cast is int:
        if not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {text!r}")
        # int(text) keeps every digit of a long seed; float keeps 53 bits
        value = int(text) if text.lstrip("+-").isdigit() else int(value)
    if low is not None:
        ok = value > low if strict else value >= low
        if not (ok and math.isfinite(value)):
            kind = "an integer" if cast is int else "a finite number"
            raise ConfigError(
                f"{key} must be {kind} {'>' if strict else '>='} {low}, got {text!r}"
            )
    return value


def check_seed(key: str, seed: int) -> int:
    """Reject seeds the package generator cannot take as a key."""
    if not 0 <= seed < 2**128:
        raise ConfigError(f"{key} must lie in [0, 2**128), got {seed}")
    return seed


def _parse_grid(h_text: str, steps_text: str) -> list[tuple[float, object]]:
    hs = [_number("h", v, low=0, strict=True) for v in h_text.split(",") if v.strip()]
    for i, h in enumerate(hs):
        if h in hs[:i]:
            raise ConfigError(f"h lists {h!r} more than once")
    steps_items = [s.strip() for s in steps_text.split(",") if s.strip() != ""]
    if len(hs) != len(steps_items):
        raise ConfigError(f"h lists {len(hs)} values but steps lists {len(steps_items)}")
    return [
        (h, s if s == "auto" else _number("steps", s, int, low=1))
        for h, s in zip(hs, steps_items)
    ]


def parse_config(path_or_text, is_text: bool = False, source: str = "") -> ExperimentConfig:
    """Parse an experiment INI file (or literal text) into a config object."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",)
    )
    parser.optionxform = str  # keys are case-sensitive
    if not is_text:
        source = source or str(path_or_text)
    try:
        if is_text:
            parser.read_string(path_or_text)
        else:
            with open(path_or_text, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError, OSError) as exc:
        message = " ".join(str(exc).split())  # some of these span several lines
        raise ConfigError(f"cannot read config {source or 'text'}: {message}") from None

    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    # Each key is popped as it is read; one still left at the end is unknown.
    exp = sections["experiment"]
    problem = exp.pop("problem", "")
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}; expected one of {tuple(PROBLEMS)}")
    spec = PROBLEMS[problem]
    if "h" not in exp or "steps" not in exp:
        raise ConfigError("[experiment] needs both 'h' and 'steps'")
    grid = _parse_grid(exp.pop("h"), exp.pop("steps"))
    if spec.load is None and any(steps == "auto" for _, steps in grid):
        raise ConfigError("steps = auto is only meaningful for mf problems")

    compute_gap = exp.pop("compute_gap", "auto")
    if compute_gap not in ("auto", "never"):
        raise ConfigError(f"compute_gap must be auto or never, got {compute_gap!r}")
    timing = exp.pop("timing", "zero")
    if timing not in ("zero", "live"):
        raise ConfigError(f"timing must be zero or live, got {timing!r}")

    # the command line tests check names against cli.CHECKS
    checks = [c.strip() for c in exp.pop("checks", "").split(",") if c.strip()]

    def num(key, default, cast=float, low=None, strict=False):
        return _number(key, exp.pop(key, default), cast, low, strict)

    # The bounds divide by L1 and mu.
    overrides = {
        f.name: _number(f.name, exp.pop(f.name), low=0, strict=f.name in ("L1", "mu"))
        for f in dataclasses.fields(ProblemConstants)
        if f.name in exp
    }
    try:
        constants = dataclasses.replace(spec.constants, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    trials = num("trials", "200", int, low=1)
    seed = check_seed("seed", num("seed", "0", int))
    mf_params = {
        "latent_dim": num("mf_latent_dim", "20", int, low=1),
        "reg": num("mf_reg", "0.01", low=0),
        "reveal_per_step": num("mf_reveal_per_step", "10", int, low=1),
        "initial_revealed": num("mf_initial_revealed", "100000", int, low=1),
        "min_user": num("mf_min_user", "0", int, low=0),
        "min_item": num("mf_min_item", "0", int, low=0),
    }
    synth_params = {
        "n_users": num("synth_users", "80", int, low=1),
        "n_items": num("synth_items", "70", int, low=1),
        "n_ratings": num("synth_ratings", "40000", int, low=1),
        "latent_dim": num("synth_latent_dim", "5", int, low=1),
        "noise_sd": num("synth_noise_sd", "0.3", low=0),
    }
    if "synth_seed" in exp:   # else the dataset takes `seed` when it is built
        synth_params["seed"] = check_seed("synth_seed", num("synth_seed", None, int))

    # A solver key is a SolverConfig field; its default's type casts it.
    solver_fields = {
        f.name: type(f.default) for f in dataclasses.fields(SolverConfig) if f.name != "name"
    }
    solvers = []
    for section, raw in sections.items():
        if section == "experiment":
            continue
        if not section.startswith("solver "):
            raise ConfigError(
                f"unknown section [{section}]; expected [experiment] or [solver <name>]"
            )
        for key in raw:
            if key not in solver_fields:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
        if "algorithm" not in raw:
            raise ConfigError(f"[{section}] is missing 'algorithm'")
        kwargs = {"name": section[len("solver "):].strip()}
        for key, cast in solver_fields.items():
            if key in raw:
                kwargs[key] = (
                    _number(f"[{section}] {key}", raw[key], cast)
                    if cast in (int, float) else raw[key]
                )
        try:
            solver = SolverConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from None
        if any(s.label == solver.label for s in solvers):
            raise ConfigError(f"[{section}]: a solver is already labelled {solver.label!r}")
        solvers.append(solver)

    config = ExperimentConfig(
        problem=problem,
        grid=grid,
        solvers=solvers,
        x0_spec=exp.pop("x0", "randn"),
        seed=seed,
        out=exp.pop("out", "out"),
        compute_gap=compute_gap,
        timing=timing,
        warm_beta=num("warm_beta", "10.0", low=0, strict=True),
        checks=checks,
        constants=constants,
        trials=trials,
        mf_params=mf_params,
        synth_params=synth_params,
        source=source,
    )
    if exp:
        raise ConfigError(f"unknown key {next(iter(exp))!r} in [experiment]")
    return config


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
# Problem registry and initial-point assembly
# ---------------------------------------------------------------------------

def _analytic(make, *args) -> Callable:
    """Builder of a problem that needs neither a dataset nor the period."""
    return lambda config, ds, h: make(*args)


def _synth_ratings(config: ExperimentConfig, ratings_path) -> RatingsDataset:
    return synth_ratings(**{"seed": config.seed, **config.synth_params})


def _load_ratings_file(config: ExperimentConfig, ratings_path) -> RatingsDataset:
    if not ratings_path:
        raise ConfigError("mf_file requires --ratings <path>")
    mf = config.mf_params
    try:
        ds = load_ratings(ratings_path)
        if mf["min_user"] or mf["min_item"]:
            ds = filter_min_counts(ds, mf["min_user"], mf["min_item"])
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return ds


def _build_mf(config: ExperimentConfig, ds: RatingsDataset, h: float) -> ProblemOracle:
    mf = config.mf_params
    return make_mf(
        ds,
        latent_dim=mf["latent_dim"],
        reg=mf["reg"],
        reveal_per_step=mf["reveal_per_step"],
        initial_revealed=min(mf["initial_revealed"], len(ds)),
        step_period=h,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """What the harness knows about one problem name.

    build      (config, dataset or None, period h) -> a fresh oracle
    constants  default constants; config keys override them one by one
    auto_g2    G2 from the values a run reached, used when no G2 is set
    load       (config, ratings path or None) -> RatingsDataset; a problem
               with a loader permits ``steps = auto`` and ``x0 = warm:``
    """

    build: Callable
    constants: ProblemConstants = ProblemConstants()
    auto_g2: Optional[Callable] = None
    load: Optional[Callable] = None


PROBLEMS: dict[str, ProblemSpec] = {
    TOY: ProblemSpec(_analytic(make_toy), toy_constants()),
    LINREG_STATIC: ProblemSpec(
        _analytic(make_linreg, LINREG_STATIC), linreg_static_constants(), linreg_g2_from_values
    ),
    LINREG_DRIFT: ProblemSpec(_analytic(make_linreg, LINREG_DRIFT)),
    ROBUST_GM: ProblemSpec(_analytic(make_robust, ROBUST_GM), robust_constants()),
    ROBUST_WELSCH: ProblemSpec(_analytic(make_robust, ROBUST_WELSCH), robust_constants()),
    "mf_file": ProblemSpec(_build_mf, load=_load_ratings_file),
    "mf_synth": ProblemSpec(_build_mf, load=_synth_ratings),
}


def load_dataset(config: ExperimentConfig, ratings_path=None) -> Optional[RatingsDataset]:
    """The configured problem's dataset (None for problems without one)."""
    load = PROBLEMS[config.problem].load
    return None if load is None else load(config, ratings_path)


def build_problem(config: ExperimentConfig, ratings=None, h=None) -> ProblemOracle:
    """Instantiate the configured problem (a fresh, immutable oracle).

    ``ratings`` is a dataset from ``load_dataset``, or a ratings file path
    (or None) to load one from.  Matrix-factorization oracles map time to a
    reveal count through the sampling period, so ``h`` must be the period
    the run will use (defaults to the first grid entry).
    """
    if not isinstance(ratings, RatingsDataset):
        ratings = load_dataset(config, ratings)
    h = config.grid[0][0] if h is None else h
    return PROBLEMS[config.problem].build(config, ratings, h)


def resolve_steps(
    config: ExperimentConfig, dataset: Optional[RatingsDataset]
) -> list[tuple[float, int]]:
    """Materialize 'auto' step counts: the fewest steps whose last one has
    revealed the whole ratings stream of ``dataset``."""
    mf = config.mf_params
    return [
        (h, steps_to_reveal(len(dataset), mf["initial_revealed"], mf["reveal_per_step"])
         if steps == "auto" else steps)
        for h, steps in config.grid
    ]


def build_x0(config: ExperimentConfig, problem: ProblemOracle) -> np.ndarray:
    """Resolve the configured initial point to a concrete vector.

    Forms: explicit comma-separated floats, ``randn`` (seeded standard
    normal), or ``warm:<grad-norm>`` (matrix factorization only: descend the
    frozen initial objective until the gradient norm crosses the level).
    """
    spec = config.x0_spec.strip()
    if spec == "randn":
        return rng_from_seed(config.seed).standard_normal(problem.dim)
    if spec.startswith("warm:"):
        if PROBLEMS[config.problem].load is None:
            raise ConfigError("warm: initial points are only defined for mf problems")
        level = _number("x0", spec[len("warm:"):], low=0, strict=True)
        try:
            x0, _ = mf_warm_start(problem, level, seed=config.seed, beta=config.warm_beta)
        except RuntimeError as exc:
            raise ConfigError(f"x0 = {spec}: {exc}") from None
        return x0
    values = [_number("x0", v) for v in spec.split(",") if v.strip()]
    if len(values) == 1 and problem.dim > 1:
        x0 = np.full(problem.dim, values[0])
    elif len(values) != problem.dim:
        raise ConfigError(
            f"x0 has {len(values)} components but the problem dimension is {problem.dim}"
        )
    else:
        x0 = np.asarray(values, dtype=float)
    try:
        x0_norm(x0)   # the solver loop refuses the same points
    except ValueError as exc:
        raise ConfigError(f"{exc}, got {spec!r}") from None
    return x0
