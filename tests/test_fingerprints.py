"""Committed command outputs, compared byte for byte.

Each ``tests/fingerprints/<verb>_<name>.ini`` is a config for ``predcorr
<verb>``, and the directory ``<verb>_<name>/`` holds every file that the
command wrote for it when the files were last regenerated
(``python tests/fingerprints/regenerate.py``).  The ``run`` and ``sweep``
configs are shortened copies of the bundled presets.  A change that alters
any of these files must name the output change in CHANGES.md and regenerate
the files in the same change.  The comparison is exact; it names the first
file and line that differ.
"""

from pathlib import Path

import pytest
from fingerprints.regenerate import argv

from predcorr.cli import EXIT_CHECK_FAILED, EXIT_OK, main

FINGERPRINTS = Path(__file__).parent / "fingerprints"


def configs(*verbs):
    return sorted(p for p in FINGERPRINTS.glob("*.ini") if p.stem.split("_")[0] in verbs)


def written(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}


def assert_matches(config: Path, out: Path) -> None:
    want, got = written(config.with_suffix("")), written(out)
    assert sorted(got) == sorted(want), f"{config.stem} wrote {sorted(got)}"
    for name, text in want.items():
        where, got_rows, want_rows = f"{config.stem}/{name}", got[name].splitlines(), text.splitlines()
        for i, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
            assert got_row == want_row, f"{where} line {i + 1} differs"
        assert got[name] == text, f"{where}: {len(got_rows)} lines, expected {len(want_rows)}"


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("config", configs("check"), ids=lambda path: path.stem)
def test_checks_csv_matches_fingerprint(tmp_path, capsys, config, jobs):
    failed = ",FAIL," in (config.with_suffix("") / "checks.csv").read_text(encoding="utf-8")
    code = main(argv(config, tmp_path, jobs))
    assert code == (EXIT_CHECK_FAILED if failed else EXIT_OK), capsys.readouterr().err
    assert_matches(config, tmp_path)


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("config", configs("run", "sweep"), ids=lambda path: path.stem)
def test_run_and_sweep_outputs_match_fingerprint(tmp_path, capsys, config, jobs):
    # a diverged run is part of the fingerprint: --allow-divergence keeps exit 0
    assert main(argv(config, tmp_path, jobs)) == EXIT_OK, capsys.readouterr().err
    assert_matches(config, tmp_path)
