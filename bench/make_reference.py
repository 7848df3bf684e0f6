"""Regenerate bench/reference.json from the current code.

Runs every workload once at the reference seed and stores its exit codes
and per-operation values; refuses when an invariant fails.  Run from the
root of a source checkout::

    python3 bench/make_reference.py
"""

import json
import shutil
import sys

import run  # pins BLAS/OpenMP threads before numpy is imported

sys.path.insert(0, str(run.SRC))

from workloads import (  # noqa: E402
    REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, check_slope_window, summarize, write_inputs,
)


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        work = run.OUT / f"reference-{name}"
        try:
            write_inputs(workload, REFERENCE_SEED, work)
            _, _, codes, _ = run.run_commands(workload, work)
            ops = summarize(workload, work, codes)
            check_slope_window(ops)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        bad = [f"{name} {k}: {e}" for k, op in ops.items() for e in op.errors]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        reference[name] = {
            "exit_codes": codes,
            "ops": {k: op.values for k, op in sorted(ops.items())},
        }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
