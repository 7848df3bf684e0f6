"""Committed ``checks.csv`` outputs, compared byte for byte.

Each ``tests/fingerprints/<name>.ini`` is a check config, and ``<name>.csv``
is the ``checks.csv`` that ``predcorr check`` wrote for it when the files
were last regenerated (``python tests/fingerprints/regenerate.py``).  A
change that alters any of these rows must name the output change in
CHANGES.md and regenerate the files in the same change.  The comparison is
exact; it names the first row that differs.
"""

from pathlib import Path

import pytest

from predcorr.cli import EXIT_CHECK_FAILED, EXIT_OK, main

FINGERPRINTS = Path(__file__).parent / "fingerprints"


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize(
    "config", sorted(FINGERPRINTS.glob("*.ini")), ids=lambda path: path.stem
)
def test_checks_csv_matches_fingerprint(tmp_path, capsys, config, jobs):
    want = config.with_suffix(".csv").read_text(encoding="utf-8")
    code = main(["check", "--config", str(config), "--out", str(tmp_path), "--jobs", jobs])
    assert code == (EXIT_CHECK_FAILED if ",FAIL," in want else EXIT_OK), capsys.readouterr().err
    got = (tmp_path / "checks.csv").read_text(encoding="utf-8")
    name, got_rows, want_rows = config.with_suffix(".csv").name, got.splitlines(), want.splitlines()
    for i, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        assert got_row == want_row, f"{name} line {i + 1} differs"
    assert got == want, f"{name}: {len(got_rows)} lines, expected {len(want_rows)}"
