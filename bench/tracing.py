"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of each predcorr module from outside the
package, at the names the CLI looks them up under, and restores them
afterwards.  Every wrapped call appends one span (name, start, end, parent,
tag) to an in-memory list; counts are taken at the same boundaries.  The
per-layer metrics are derived from the spans once the commands finish, and
the spans are written out once when the run ends.

Layers (ROADMAP L0-L3): ``problems`` oracles (L0), ``solvers`` phases (L1,
from the Trace phase clocks), ``solvers.run`` (L2) and the ``cli`` command
(L3), plus ``config``, ``ratings``, ``analysis`` and ``core``.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import predcorr.analysis
import predcorr.cli
import predcorr.config

ORACLES = ("value", "grad_x", "grad_t", "hess_xx", "optimum")
ALGORITHMS = ("tvgd", "ufopc", "foa_min", "cp")

# Counts that are a pure function of the workload inputs; two traced
# repetitions must reproduce them exactly.
EXACT = (
    "solvers.run_calls", "solvers.steps", "solvers.diverged_runs",
    "problems.value_calls", "problems.grad_x_calls", "problems.hess_xx_calls",
    "problems.optimum_calls", "problems.grad_x_per_step", "problems.hess_bytes_computed",
    "ratings.load_calls", "ratings.bytes_parsed", "config.build_problem_calls",
    "config.warm_start_grads", "analysis.calls", "core.fd_check_calls",
    "cli.csv_rows", "cli.csv_bytes",
)


class Tracer:
    """In-memory span recorder for one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, tag]
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()     # phase clocks summed from Traces
        self._stack: list[tuple[int, str]] = [(-1, "")]

    def wrap(self, name, fn, tag="", after=None):
        """Return ``fn`` recording a span per call; ``after(args, result,
        parent_name, span)`` runs on success to take counts at the boundary."""
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent[0], tag]
            spans.append(span)
            stack.append((idx, name))
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if after is not None:
                after(args, result, parent[1], span)
            return result

        return traced

    # -- wrappers with counts -------------------------------------------------

    def _wrap_problem(self, problem):
        """Same oracle bundle with every present oracle recording spans."""
        d2_bytes = problem.dim * problem.dim * 8

        def count_hess(args, result, parent, span):
            self.counts["problems.hess_bytes_computed"] += d2_bytes

        def count_grad(args, result, parent, span):
            if parent == "solvers.run":
                self.counts["grad_x_in_run"] += 1
            elif parent == "config.build_x0" and args[1] == 0:
                self.counts["config.warm_start_grads"] += 1

        after = {"hess_xx": count_hess, "grad_x": count_grad}
        wrapped = {
            k: self.wrap(f"problems.{k}", getattr(problem, k), problem.name, after.get(k))
            for k in ORACLES
            if getattr(problem, k) is not None
        }
        return dataclasses.replace(problem, **wrapped)

    def _count_run(self, args, trace, parent, span):
        span[4] = trace.algorithm
        self.counts["solvers.steps"] += len(trace)
        self.counts[f"steps.{trace.algorithm}"] += len(trace)
        self.counts["solvers.diverged_runs"] += int(trace.diverged)
        self.seconds["solvers.correct_s"] += float(trace.corr_seconds.sum())
        self.seconds["solvers.predict_s"] += float(trace.pred_seconds.sum())

    def _count_load(self, args, result, parent, span):
        self.counts["ratings.bytes_parsed"] += os.path.getsize(args[0])

    def _count_write(self, args, result, parent, span):
        text = args[1]
        self.counts["cli.csv_rows"] += text.count("\n") - 1   # minus the header
        self.counts["cli.csv_bytes"] += len(text.encode("utf-8"))

    @contextmanager
    def installed(self):
        """Patch the traced functions in place; restore them on exit."""
        cli, config, analysis = predcorr.cli, predcorr.config, predcorr.analysis
        wrap_problem = self._wrap_problem

        def returning_wrapped(fn):
            return lambda *a, **kw: wrap_problem(fn(*a, **kw))

        patches = [
            (cli, "run", self.wrap(
                "solvers.run", cli.run, after=self._count_run)),
            (cli, "build_problem", self.wrap(
                "config.build_problem", returning_wrapped(cli.build_problem))),
            (cli, "build_x0", self.wrap("config.build_x0", cli.build_x0)),
            (config, "load_ratings", self.wrap(
                "ratings.load_ratings", config.load_ratings, after=self._count_load)),
            (cli, "finite_difference_check", self.wrap(
                "core.finite_difference_check", cli.finite_difference_check)),
            (cli, "trace_csv", self.wrap("cli.trace_csv", cli.trace_csv)),
            (cli, "_write_atomic", self.wrap(
                "cli.write_csv", cli._write_atomic, after=self._count_write)),
        ]
        # Problems the gradients check builds directly.
        for name in ("make_toy", "make_linreg", "make_robust", "make_mf"):
            patches.append((cli, name, self.wrap(
                "problems.make", returning_wrapped(getattr(cli, name)))))
        for name, fn in inspect.getmembers(analysis, inspect.isfunction):
            if fn.__module__ == analysis.__name__ and not name.startswith("_"):
                patches.append((analysis, name, self.wrap(f"analysis.{name}", fn)))

        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- derived metrics ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, tag in spans:
            if parent >= 0:
                child[parent] += end - start

        def dur(pred):
            return [s[2] - s[1] for s in spans if pred(s)]

        def self_time(pred):
            return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if pred(s))

        def p50(values, scale):
            return statistics.median(values) * scale if values else 0.0

        c = self.counts
        m: dict[str, float] = {}
        runs = dur(lambda s: s[0] == "solvers.run")
        m["solvers.run_calls"] = len(runs)
        m["solvers.steps"] = c["solvers.steps"]
        m["solvers.run_s"] = sum(runs)
        m["solvers.self_s"] = self_time(lambda s: s[0] == "solvers.run")
        for algo in ALGORITHMS:
            t = sum(dur(lambda s: s[0] == "solvers.run" and s[4] == algo))
            steps = c[f"steps.{algo}"]
            m[f"solvers.us_per_step.{algo}"] = 1e6 * t / steps if steps else 0.0
        m["solvers.correct_s"] = self.seconds["solvers.correct_s"]
        m["solvers.predict_s"] = self.seconds["solvers.predict_s"]
        m["solvers.diverged_runs"] = c["solvers.diverged_runs"]

        oracle_names = {f"problems.{k}" for k in ORACLES}
        for k in ("value", "grad_x", "hess_xx", "optimum"):
            m[f"problems.{k}_calls"] = sum(1 for s in spans if s[0] == f"problems.{k}")
        m["problems.grad_x_per_step"] = (
            c["grad_x_in_run"] / c["solvers.steps"] if c["solvers.steps"] else 0.0
        )
        m["problems.oracle_s"] = sum(dur(lambda s: s[0] in oracle_names))
        m["problems.grad_x_us_p50"] = p50(
            dur(lambda s: s[0] == "problems.grad_x" and s[4] != "mf"), 1e6)
        m["problems.mf.grad_x_ms_p50"] = p50(
            dur(lambda s: s[0] == "problems.grad_x" and s[4] == "mf"), 1e3)
        m["problems.mf.value_ms_p50"] = p50(
            dur(lambda s: s[0] == "problems.value" and s[4] == "mf"), 1e3)
        m["problems.hess_bytes_computed"] = c["problems.hess_bytes_computed"]

        loads = dur(lambda s: s[0] == "ratings.load_ratings")
        m["ratings.load_calls"] = len(loads)
        m["ratings.load_s"] = sum(loads)
        m["ratings.bytes_parsed"] = c["ratings.bytes_parsed"]

        builds = dur(lambda s: s[0] == "config.build_problem")
        m["config.build_problem_calls"] = len(builds)
        m["config.build_problem_s"] = sum(builds)
        m["config.build_x0_s"] = sum(dur(lambda s: s[0] == "config.build_x0"))
        m["config.warm_start_grads"] = c["config.warm_start_grads"]

        # Calls into the layer from outside it; nested analysis calls are
        # part of their caller's time.
        entries = dur(lambda s: s[0].startswith("analysis.")
                      and not (s[3] >= 0 and spans[s[3]][0].startswith("analysis.")))
        m["analysis.calls"] = len(entries)
        m["analysis.s"] = sum(entries)

        fd = dur(lambda s: s[0] == "core.finite_difference_check")
        m["core.fd_check_calls"] = len(fd)
        m["core.fd_check_s"] = sum(fd)

        m["cli.csv_rows"] = c["cli.csv_rows"]
        m["cli.csv_bytes"] = c["cli.csv_bytes"]
        m["cli.csv_write_s"] = sum(dur(lambda s: s[0] in ("cli.trace_csv", "cli.write_csv")))
        m["cli.self_s"] = self_time(lambda s: s[0].startswith("cli.cmd."))
        return m

    def write(self, path, rep: int, workload: str, origin: float, mode: str = "a") -> None:
        """Append the spans as CSV rows, times relative to ``origin``."""
        with open(path, mode, encoding="utf-8") as fh:
            if mode == "w":
                fh.write("rep,index,name,start_s,end_s,parent,workload,tag\n")
            fh.writelines(
                f"{rep},{i},{name},{start - origin:.9f},{end - origin:.9f},"
                f"{parent},{workload},{tag}\n"
                for i, (name, start, end, parent, tag) in enumerate(self.spans)
            )
