"""Rewrite the committed check fingerprints from the current program.

For every ``<name>.ini`` in this directory, run ``predcorr check`` on it and
write the ``checks.csv`` it produces to ``<name>.csv`` next to it.
``tests/test_fingerprints.py`` compares fresh output with these files byte
for byte.

Regenerate them only in a change whose CHANGES.md entry names the output
change; a fingerprint rewritten to make a failing comparison pass hides the
difference it was there to show.

    python tests/fingerprints/regenerate.py
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


def regenerate() -> int:
    for config in sorted(HERE.glob("*.ini")):
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["check", "--config", str(config), "--out", out, "--jobs", "1"])
            if code == EXIT_USAGE:
                print(f"{config.name}: refused", file=sys.stderr)
                return 1
            text = (Path(out) / "checks.csv").read_bytes()
        config.with_suffix(".csv").write_bytes(text)
        print(f"wrote {config.with_suffix('.csv').name} (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
