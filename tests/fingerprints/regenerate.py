"""Rewrite the committed command-output fingerprints from the current program.

Each ``<verb>_<name>.ini`` in this directory is a config for ``predcorr
<verb>``, where the verb is ``run``, ``sweep`` or ``check``.  The script
runs that command on it at ``--jobs 1`` (``run`` and ``sweep`` with
``--allow-divergence``) and puts every file the command writes into the
directory ``<verb>_<name>/`` next to it, in place of what was there.
``tests/test_fingerprints.py`` compares fresh output with these files byte
for byte.

Regenerate them only in a change whose CHANGES.md entry names the output
change; a fingerprint rewritten to make a failing comparison pass hides the
difference it was there to show.  Name configs to rewrite only those:

    python tests/fingerprints/regenerate.py                 # every config
    python tests/fingerprints/regenerate.py sweep_table5    # one config
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from predcorr.cli import EXIT_USAGE, main  # noqa: E402


def argv(config: Path, out, jobs: str) -> list[str]:
    """The command line whose output the fingerprint of ``config`` records."""
    verb = config.stem.split("_")[0]
    extra = [] if verb == "check" else ["--allow-divergence"]
    return [verb, "--config", str(config), "--out", str(out), "--jobs", jobs, *extra]


def regenerate(names: list[str]) -> int:
    configs = sorted(HERE.glob("*.ini"))
    unknown = set(names) - {config.stem for config in configs}
    if unknown:
        print(f"no such fingerprint config: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    for config in configs:
        if names and config.stem not in names:
            continue
        target = config.with_suffix("")
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv(config, out, "1"))
            if code == EXIT_USAGE:
                print(f"{config.name}: refused", file=sys.stderr)
                return 1
            target.mkdir(exist_ok=True)
            for old in target.iterdir():
                old.unlink()
            for path in sorted(Path(out).iterdir()):
                (target / path.name).write_bytes(path.read_bytes())
        print(f"wrote {target.name}/ (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
