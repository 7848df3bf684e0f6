"""predcorr benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout::

    python3 bench/run.py --workload robust_sweep --seed 0 --seconds 35 --trace 0

The workload's CLI commands run in-process through ``predcorr.cli.main``
with ``--jobs 1`` and BLAS/OpenMP pinned to one thread, repeatedly, until
``--seconds`` are used.  ``--trace 0`` reports the end-to-end metrics
(medians over the repetitions) and ``--trace 1`` the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Must be set before numpy is first imported, here or in a child interpreter.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3            # timed repetitions per run, whatever --seconds says
MIN_TRACED_PAIRS = 2    # (untraced, traced) repetition pairs in a traced run


# Speed normalization.  On a shared host the speed of one core drifts by a
# factor of up to 2 over stretches of seconds to minutes, so the median of a
# half-minute run depends on when it ran.  The timed metrics are therefore
# measured in short segments with a fixed calibration loop timed at both ends
# of each one, and each segment is scaled by REFERENCE_LOOP_S / (mean of the
# two loop times): it reads as the seconds it would take on a host where the
# loop takes REFERENCE_LOOP_S.  Commands are cut at the start and end of
# every solver run and initial-point build (SegmentClock); each set-up sample
# is one segment.  A slowdown does not hit every kind of work alike, so each
# workload names the loop shaped like its own hot path (CALIBRATIONS).
REFERENCE_LOOP_S = 0.005       # about the loops' median time where the bounds were set


def small_array_loop() -> float:
    """Seconds for small array operations driven from Python, the shape of
    the solvers' per-step work on 10-dimensional problems."""
    import numpy as np

    a = np.eye(10) * 0.5
    x = np.ones(10)
    start = time.perf_counter()
    for _ in range(1000):
        x = a @ x + 0.1 * np.cos(x)
    return time.perf_counter() - start


@functools.cache
def _scatter_index():
    import numpy as np

    return np.random.default_rng(0).integers(0, 70_000, 100_000)


def large_array_loop() -> float:
    """Seconds for gathers and ``bincount`` scatters over arrays of 70 000
    entries, the shape of the matrix-factorization oracle."""
    import numpy as np

    index = _scatter_index()
    start = time.perf_counter()
    v = np.ones(70_000)
    for _ in range(7):
        v = np.bincount(index, weights=v[index], minlength=70_000) * 0.5 + 0.5
    return time.perf_counter() - start


CALIBRATIONS = {"small_arrays": small_array_loop, "large_arrays": large_array_loop}


def normalize(elapsed: float, loop_before: float, loop_after: float) -> float:
    """Seconds ``elapsed`` between two calibration loops, in reference-host
    seconds."""
    return elapsed * 2 * REFERENCE_LOOP_S / (loop_before + loop_after)


def _import_time() -> float:
    """Seconds to import the CLI module in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import predcorr.cli; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def setup_seconds(workload, work: Path) -> tuple[float, float]:
    """One sample of the set-up a user pays before the first solver step:
    fresh-interpreter import, config parse, problem build (ratings load
    included) and initial point (warm start included).  Returns the wall
    seconds and the same, normalized."""
    from predcorr.config import build_problem, build_x0, resolve_configs

    first = workload.commands[0]
    ratings = str(work / "ratings.csv") if first.ratings else None
    loop = CALIBRATIONS[workload.calibration]
    gc.collect()
    loop_before = loop()
    elapsed = _import_time()
    start = time.perf_counter()
    (config,) = resolve_configs(str(work / first.ini))
    problem = build_problem(config, ratings, h=config.grid[0][0])
    build_x0(config, problem)
    elapsed += time.perf_counter() - start
    return elapsed, normalize(elapsed, loop_before, loop())


class SegmentClock:
    """Counts the time-grid steps of every solver run the CLI makes and, when
    given a calibration ``loop``, times the commands in speed-normalized
    segments cut at the start and end of each ``run`` and ``build_x0`` call
    (see REFERENCE_LOOP_S)."""

    def __init__(self, loop=None):
        self.loop = loop
        self.steps = 0
        self.elapsed: list[float] = []       # seconds per segment, in order
        self.segments: list[float] = []      # the same, normalized
        self._loop = self._start = 0.0

    def start(self) -> None:
        """Open the first segment of a command."""
        self.elapsed, self.segments = [], []
        if self.loop is not None:
            self._loop = self.loop()
        self._start = time.perf_counter()

    def cut(self) -> None:
        """Close the segment that runs since the last cut or start."""
        elapsed = time.perf_counter() - self._start
        self.elapsed.append(elapsed)
        if self.loop is not None:
            loop = self.loop()
            self.segments.append(normalize(elapsed, self._loop, loop))
            self._loop = loop
        self._start = time.perf_counter()

    def _cutting(self, fn):
        def cut_around(*args, **kwargs):
            self.cut()
            result = fn(*args, **kwargs)
            self.cut()
            return result
        return cut_around

    @contextlib.contextmanager
    def installed(self):
        import predcorr.cli

        cli = predcorr.cli
        run, build_x0 = cli.run, cli.build_x0

        def counted(*args, **kwargs):
            trace = run(*args, **kwargs)
            self.steps += len(trace)
            return trace

        cli.run, cli.build_x0 = self._cutting(counted), self._cutting(build_x0)
        try:
            yield self
        finally:
            cli.run, cli.build_x0 = run, build_x0


def run_commands(workload, work: Path, tracer=None, loop=None):
    """Run the workload's commands once, speed-normalized with the calibration
    ``loop`` if one is given (see SegmentClock).

    Returns (wall seconds per command, normalized segments per command, exit
    codes, solver steps); an exit code is None when the command raised.  The
    wall seconds leave out the calibration loops.
    """
    import predcorr.cli
    from workloads import argv

    for command in workload.commands:   # no stale file can pass for an output
        shutil.rmtree(work / command.out, ignore_errors=True)
    clock = SegmentClock(loop)
    codes, walls, segments = [], [], []
    sink = io.StringIO()
    patches = tracer.installed() if tracer is not None else contextlib.nullcontext()
    gc.collect()
    with clock.installed(), patches, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for command in workload.commands:
            main = predcorr.cli.main
            if tracer is not None:
                main = tracer.wrap(f"cli.cmd.{command.verb}", main)
            clock.start()
            try:
                code = main(argv(command, work))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not a benchmark error
                code = None
                traceback.print_exc(file=sys.__stderr__)
            clock.cut()
            walls.append(sum(clock.elapsed))
            segments.append(clock.segments)
            codes.append(code)
    return walls, segments, codes, clock.steps


class Tally:
    """Operations attempted and failed over the repetitions of one run."""

    def __init__(self, workload, work, seed, reference):
        self.workload, self.work, self.seed, self.reference = workload, work, seed, reference
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self._first = None

    def check(self, codes) -> None:
        """Evaluate one repetition; its outputs must repeat the first one's."""
        from workloads import evaluate

        ops = evaluate(self.workload, self.work, codes, self.seed, self.reference)
        if self._first is None:
            self._first = ops
        for key, op in ops.items():
            if key in self._first and op.values != self._first[key].values:
                op.errors.append("output differs from the first repetition")
        self.attempted += len(ops)
        self.failed += sum(1 for op in ops.values() if op.errors)
        self.errors += [f"{k}: {e}" for k, op in ops.items() for e in op.errors]


def wall_seconds(per_command: list[list[float]]) -> float:
    """Workload wall clock: the sum over its commands of each command's
    median.  A command sample is shorter than a whole repetition, so its
    median is less disturbed by slow stretches of a shared machine."""
    return sum(statistics.median(walls) for walls in per_command)


def normalized_seconds(per_rep: list[list[float]]) -> float:
    """Normalized workload wall clock from each repetition's segments (all
    commands, in order): the sum over segment positions of the median over
    repetitions.  The segments cut at the same points in every repetition."""
    return sum(statistics.median(position) for position in zip(*per_rep))


def timed_run(workload, work, seed, seconds, reference):
    """End-to-end metrics with tracing off: {name: (value, samples)}."""
    setups = [setup_seconds(workload, work) for _ in range(workload.setup_samples)]
    tally = Tally(workload, work, seed, reference)
    per_command = [[] for _ in workload.commands]
    per_rep = []
    steps = set()
    deadline = time.perf_counter() + seconds
    while True:
        walls, segments, codes, n = run_commands(
            workload, work, loop=CALIBRATIONS[workload.calibration])
        tally.check(codes)
        steps.add(n)
        for samples, wall in zip(per_command, walls):
            samples.append(wall)
        per_rep.append([t for command in segments for t in command])
        reps = len(per_rep)
        if reps == MIN_REPS:
            # Taken after a fixed amount of work: allocator fragmentation
            # lets the peak creep up with the number of repetitions.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reps >= MIN_REPS and time.perf_counter() + sum(walls) > deadline:
            break
    if len(steps) != 1:
        tally.errors.append(f"solver steps vary across repetitions: {sorted(steps)}")
    cuts = {len(rep) for rep in per_rep}
    if len(cuts) != 1:
        tally.errors.append(f"segment count varies across repetitions: {sorted(cuts)}")
    wall = normalized_seconds(per_rep)
    metrics = {
        "wall_s": (wall, reps),
        "steps_per_s": (max(steps) / wall, reps),
        "setup_s": (statistics.median(n for _, n in setups), len(setups)),
        "peak_rss_mb": (peak_mb, 1),
        # Informational, not declared: the clock times the normalization
        # starts from.
        "unnormalized_wall_s": (wall_seconds(per_command), reps),
        "unnormalized_setup_s": (statistics.median(w for w, _ in setups), len(setups)),
    }
    return metrics, tally


def traced_run(workload, work, seed, seconds, reference, spans_path):
    """Per-layer metrics from traced repetitions, interleaved with untraced
    ones to measure the tracing overhead: {name: (value, samples)}."""
    from tracing import EXACT, Tracer

    tally = Tally(workload, work, seed, reference)
    untraced = [[] for _ in workload.commands]
    traced = [[] for _ in workload.commands]
    per_rep, kept = [], []     # spans are kept for the first pairs only
    deadline = time.perf_counter() + seconds
    while True:
        pair = 0.0
        for tracer in (None, Tracer()):
            walls, _, codes, _ = run_commands(workload, work, tracer)
            tally.check(codes)
            pair += sum(walls)
            for samples, wall in zip(untraced if tracer is None else traced, walls):
                samples.append(wall)
        per_rep.append(tracer.metrics())
        if len(kept) < MIN_TRACED_PAIRS:
            kept.append(tracer)
        if len(per_rep) >= MIN_TRACED_PAIRS and time.perf_counter() + pair > deadline:
            break

    for name in EXACT:
        values = {m[name] for m in per_rep}
        if len(values) != 1:
            tally.errors.append(
                f"self-test: exact count {name} varies across traced runs: {sorted(values)}")
    n = len(per_rep)
    metrics = {name: (statistics.median(m[name] for m in per_rep), n) for name in per_rep[0]}
    metrics["trace.overhead_frac"] = (wall_seconds(traced) / wall_seconds(untraced) - 1.0, n)
    metrics["failed_ops_frac"] = (tally.failed / tally.attempted, tally.attempted)

    origin = kept[0].spans[0][1]
    for rep, tracer in enumerate(kept):
        tracer.write(spans_path, rep, workload.name, origin, mode="w" if rep == 0 else "a")
    return metrics, tally


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git (the
    checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(metrics: dict[str, tuple]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "samples": {name: n for name, (_, n) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "predcorr" / "__init__.py").is_file():
        print(f"error: no predcorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import predcorr
    from workloads import REFERENCE_FILE, WORKLOADS, write_inputs

    if Path(predcorr.__file__).resolve().parent != SRC / "predcorr":
        print(f"error: predcorr imported from {predcorr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))

    work = OUT / f"run-{os.getpid()}"
    try:
        write_inputs(workload, args.seed, work)
        if args.trace:
            spans_path = OUT / f"spans-{workload.name}.csv"
            metrics, tally = traced_run(
                workload, work, args.seed, args.seconds, reference, spans_path)
        else:
            metrics, tally = timed_run(workload, work, args.seed, args.seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: declared in BENCHMARK.json but not measured: {sorted(missing)}",
              file=sys.stderr)
        return 2
    for e in tally.errors[:20]:
        print(f"FAILED {e}")
    for name in units:
        value, n = metrics[name]
        print(f"{workload.name:<14} {name:<30} median {value:<14.6g} {units[name]:<10} n={n}")
    for name in sorted(set(metrics) - set(units)):
        value, n = metrics[name]
        print(f"{workload.name:<14} {name:<30} median {value:<14.6g} (not declared) n={n}")
    env = environment(metrics)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "env": env, "seed": args.seed}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
