"""Workloads of the predcorr benchmark: inputs, commands and output checks.

Every workload is a short list of ``predcorr`` CLI commands that the
benchmark runs in-process through ``predcorr.cli.main``.  The program sees
only the files written here from the benchmark seed: INI configs and, for
the streaming factorization, a ratings file.

One repetition of a workload produces output files that are reduced to one
summary per *operation* (one solver run, or one row of ``checks.csv``).  An
operation fails when its command raised or exited with an unexpected code,
when a seed-independent invariant does not hold, or, for the reference
seed, when a value leaves the tolerance around ``reference.json``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from predcorr.ratings import load_ratings, synth_ratings

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Values are compared as |got - ref| <= atol + rtol * |ref|.  The outputs are
# deterministic, so the tolerance only has to absorb a change of
# floating-point evaluation order.
RTOL = 1e-6
ATOL = 1e-12
# Check values that are rounding-level quantities (finite-difference relative
# errors, the worst slack of an exact inequality) are compared against the
# threshold of their own check instead.
CHECK_VALUE_ATOL = {"gradients": 1e-6, "ratio_bound": 1e-9}

# Criterion 2's window for the foa_min mean-gradient order on robust losses.
FOA_SLOPE_WINDOW = (0.7, 1.3)

MF_STEPS = 5
LINREG_STEPS = 2000
RATINGS_SHAPE = dict(n_users=2000, n_items=1500, n_ratings=300_000, latent_dim=5, noise_sd=0.3)

_ROBUST_INI = """\
# table7 solvers unchanged; the grid keeps three periods over a horizon of 20.
[experiment]
problem = {problem}
h = 0.05, 0.02, 0.01
steps = 400, 1000, 2000
x0 = randn
seed = {seed}
compute_gap = never

[solver tvgd]
algorithm = tvgd
C = 4
beta = 0.01

[solver ufopc]
algorithm = ufopc
C = 1
beta = 0.01
P = 10
alpha = 0.01
gamma = 0.0

[solver foa_min]
algorithm = foa_min
C = 3
beta = 0.01
zeta = 1.5
delta = 1e-10
g_choice = plain

[solver cp]
algorithm = cp
C = 1
beta = 0.01
zeta = 2.5
delta = 1e-10
g_choice = extrapolated
"""

_MF_INI = """\
# table12 shape with a fixed step count.
[experiment]
problem = mf_file
h = 0.01
steps = {mf_steps}
x0 = warm:0.1
warm_beta = 10
seed = {seed}
compute_gap = never
mf_latent_dim = 20
mf_reg = 0.01
mf_reveal_per_step = 10
mf_initial_revealed = 100000

[solver tvgd]
algorithm = tvgd
C = 2
beta = 10

[solver foa_min]
algorithm = foa_min
C = 1
beta = 10
zeta = 10
delta = 1e-10
g_choice = plain
"""

# order_pl solvers at its first period.  post_convergence (needs L3) and
# lipschitz_optimum (needs an explicit G2) are left out: both stop the
# command with a configuration error on linreg_static.
_LINREG_INI = """\
[experiment]
problem = linreg_static
h = 0.1
steps = {linreg_steps}
x0 = randn
seed = {seed}
compute_gap = auto
checks = gradients, pl_envelope, prediction_gap, ratio_bound

[solver tvgd]
algorithm = tvgd
C = 1
beta = 0.01

[solver foa_min]
algorithm = foa_min
C = 1
beta = 0.01
zeta = 2.5
delta = 1e-10
g_choice = plain

[solver cp]
algorithm = cp
C = 1
beta = 0.01
zeta = 2.5
delta = 1e-10
g_choice = extrapolated
"""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_ratings(path: Path, seed: int) -> None:
    """Write a synthetic ratings stream and check that it round-trips.

    The file must load back through ``load_ratings`` with the same counts,
    ids, values and timestamps; a mismatch is a benchmark error.
    """
    ds = synth_ratings(seed=seed, **RATINGS_SHAPE)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(ds), 50_000):
            hi = lo + 50_000
            fh.write("".join(
                f"{u},{i},{v!r},{s}\n"
                for u, i, v, s in zip(
                    ds.users[lo:hi].tolist(), ds.items[lo:hi].tolist(),
                    ds.values[lo:hi].tolist(), ds.timestamps[lo:hi].tolist(),
                )
            ))
    back = load_ratings(path)
    same = (
        (back.n_users, back.n_items, len(back)) == (ds.n_users, ds.n_items, len(ds))
        and all(
            np.array_equal(getattr(back, f), getattr(ds, f))
            for f in ("users", "items", "values", "timestamps")
        )
    )
    if not same:
        raise RuntimeError(f"{path} does not round-trip through load_ratings")


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, template in workload.inis.items():
        text = template.format(seed=seed, mf_steps=MF_STEPS, linreg_steps=LINREG_STEPS)
        (work / name).write_text(text, encoding="utf-8")
    if any(c.ratings for c in workload.commands):
        write_ratings(work / "ratings.csv", seed)


def argv(command: Command, work: Path) -> list[str]:
    args = [command.verb, "--config", str(work / command.ini),
            "--out", str(work / command.out), "--jobs", "1"]
    if command.ratings:
        args += ["--ratings", str(work / "ratings.csv")]
    return args


# ---------------------------------------------------------------------------
# output summaries
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """Summary of one operation: comparable values plus invariant breaches."""

    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _flag_exit(ops: dict[str, Op], verb: str, code, expected: int) -> dict[str, Op]:
    if code != expected:
        for op in ops.values():
            op.errors.append(f"{verb} exit code {code}, expected {expected}")
    return ops


def _trace_op(path: Path, steps: int, with_gap: bool) -> Op:
    """Tail statistics of a row-per-step trace CSV (trailing half, as
    ``analysis.tail_stats``) and the invariants every run must meet."""
    op = Op()
    rows = _rows(path)
    if len(rows) != steps or any(r["diverged"] != "0" for r in rows):
        op.errors.append(f"{path.name}: {len(rows)} rows of {steps}, or diverged")
        return op
    tail = rows[len(rows) - len(rows) // 2:]
    for col in ("f_pred", "grad_norm") + (("gap",) if with_gap else ()):
        vals = np.array([float(r[col]) for r in tail])
        if not np.all(np.isfinite(vals)):
            op.errors.append(f"{path.name}: non-finite {col} in the tail")
            continue
        op.values[f"max_{col}"] = float(vals.max())
        op.values[f"mean_{col}"] = float(vals.mean())
    if with_gap and any(float(r["gap"]) < 0 for r in rows):
        op.errors.append(f"{path.name}: negative gap")
    return op


def run_ops(solvers, steps, with_gap):
    """Summarizer of ``predcorr run``: one operation per trace CSV."""
    def summarize(out: Path, code) -> dict[str, Op]:
        ops = {f"run/{s}": _trace_op(out / f"{s}.csv", steps, with_gap) for s in solvers}
        return _flag_exit(ops, "run", code, 0)
    return summarize


def sweep_ops(out: Path, code) -> dict[str, Op]:
    """Summarizer of ``predcorr sweep``: one operation per sweep.csv row;
    the foa_min rows also carry the fitted mean-gradient order."""
    loss = out.name
    ops: dict[str, Op] = {}
    for r in _rows(out / "sweep.csv"):
        op = Op(values={"max_grad": float(r["max_grad"]), "mean_grad": float(r["mean_grad"])})
        if not all(math.isfinite(v) for v in op.values.values()):
            op.errors.append("non-finite tail (diverged run)")
        ops[f"{loss}/{r['solver']}@h={float(r['h']):g}"] = op
    slopes = {(r["solver"], r["stat"]): float(r["slope"]) for r in _rows(out / "slopes.csv")}
    for key, op in ops.items():
        if key.startswith(f"{loss}/foa_min@"):
            op.values["foa_min_mean_grad_slope"] = slopes.get(("foa_min", "mean_grad"), math.nan)
    return _flag_exit(ops, "sweep", code, 0)


def check_slope_window(ops: dict[str, Op]) -> None:
    """Criterion 2's order window, checked on the reference seed only.

    At this horizon it is not a property of every seed: a basin crossing
    that lands in the tail window at the smallest period moves the
    robust_welsch slope out of the window (7 of 300 seeds, down to -0.47).
    """
    lo, hi = FOA_SLOPE_WINDOW
    for op in ops.values():
        slope = op.values.get("foa_min_mean_grad_slope")
        if slope is not None and not lo <= slope <= hi:
            op.errors.append(f"foa_min mean_grad slope {slope:.3f} outside [{lo}, {hi}]")


def check_ops(out: Path, code) -> dict[str, Op]:
    """Summarizer of ``predcorr check``: one operation per checks.csv row."""
    ops: dict[str, Op] = {}
    for r in _rows(out / "checks.csv"):
        op = Op(values={"status": r["status"], "value": float(r["value"])})
        if not math.isfinite(op.values["value"]):
            op.errors.append("non-finite check value")
        # Exact or analytic guarantees: these hold for every seed.
        if r["check"] in ("gradients", "pl_envelope", "ratio_bound") and r["status"] != "pass":
            op.errors.append(f"{r['check']} failed")
        ops[f"check/{r['check']}/{r['target']}"] = op
    any_fail = any(op.values["status"] != "pass" for op in ops.values())
    return _flag_exit(ops, "check", code, 3 if any_fail else 0)


def summarize(workload: Workload, work: Path, exit_codes: list) -> dict[str, Op]:
    """Reduce one repetition's output files to per-operation summaries.

    ``exit_codes`` holds one entry per command: the return value of
    ``predcorr.cli.main``, or None when it raised.  A command that raised or
    exited unexpectedly marks every operation it owns as failed.
    """
    ops: dict[str, Op] = {}
    for command, code in zip(workload.commands, exit_codes):
        ops.update(command.summarize(work / command.out, code))
    return ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    """One CLI invocation: ``predcorr <verb> --config <ini> ...``."""

    verb: str
    ini: str                 # file name inside the work directory
    out: str                 # output directory name inside the work directory
    summarize: Callable      # (output directory, exit code) -> {op id: Op}
    ratings: bool = False


@dataclass
class Workload:
    name: str
    inis: dict[str, str]     # file name -> str.format template with a seed field
    commands: list[Command]
    setup_samples: int       # set-up repetitions per run (build_x0 is slow on mf)
    calibration: str         # speed-normalization loop, a key of run.CALIBRATIONS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="robust_sweep",
            inis={
                "robust_gm.ini": _ROBUST_INI.replace("{problem}", "robust_gm"),
                "robust_welsch.ini": _ROBUST_INI.replace("{problem}", "robust_welsch"),
            },
            commands=[
                Command("sweep", "robust_gm.ini", "robust_gm", sweep_ops),
                Command("sweep", "robust_welsch.ini", "robust_welsch", sweep_ops),
            ],
            setup_samples=11,
            calibration="small_arrays",
        ),
        Workload(
            name="mf_stream",
            inis={"mf.ini": _MF_INI},
            commands=[
                Command("run", "mf.ini", "mf", run_ops(("tvgd", "foa_min"), MF_STEPS, False),
                        ratings=True),
            ],
            setup_samples=3,
            calibration="large_arrays",
        ),
        Workload(
            name="linreg_check",
            inis={"linreg.ini": _LINREG_INI},
            commands=[
                Command("run", "linreg.ini", "linreg",
                        run_ops(("tvgd", "foa_min", "cp"), LINREG_STEPS, True)),
                Command("check", "linreg.ini", "linreg", check_ops),
            ],
            setup_samples=11,
            calibration="small_arrays",
        ),
    )
}


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def _close(got, ref, atol: float) -> bool:
    if isinstance(ref, str):
        return got == ref
    return abs(got - ref) <= atol + RTOL * abs(ref)


def compare_reference(key: str, op: Op, ref: dict) -> None:
    """Append an error to ``op`` for every value outside the reference band."""
    atol = ATOL
    if key.startswith("check/"):
        atol = CHECK_VALUE_ATOL.get(key.split("/")[1], ATOL)
    for name, want in ref.items():
        got = op.values.get(name)
        if got is None or not _close(got, want, atol):
            op.errors.append(f"{name} = {got!r}, reference {want!r}")


def evaluate(workload: Workload, work: Path, exit_codes: list, seed: int,
             reference: dict) -> dict[str, Op]:
    """Summaries of one repetition, checked against ``reference.json``.

    The reference fixes the set of operations for every seed; values and
    exit codes are compared only for the reference seed.
    """
    ref = reference[workload.name]
    ops = summarize(workload, work, exit_codes)
    for key in ref["ops"]:
        ops.setdefault(key, Op(errors=["missing from the output"]))
    for key in set(ops) - set(ref["ops"]):
        ops[key].errors.append("not in the reference")
    if seed == REFERENCE_SEED:
        check_slope_window(ops)
        for key, values in ref["ops"].items():
            compare_reference(key, ops[key], values)
        if exit_codes != ref["exit_codes"]:
            for op in ops.values():
                op.errors.append(f"exit codes {exit_codes}, reference {ref['exit_codes']}")
    return ops
