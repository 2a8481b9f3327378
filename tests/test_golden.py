"""Byte-level regression: each command's stdout must match its stored report.

The files under tests/golden/ hold the reports as the command line printed
them before the action-row refactor; any change to a number, a key order or
a float's last digit shows up here as a failure.
"""

from pathlib import Path

import pytest

from cp2q import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_nmax3": ["spectrum", "--q", "0.5", "--nmax", "3"],
    "spectrum_nmax8": ["spectrum", "--q", "0.5", "--nmax", "8"],
    "spectrum_nmax3_table": ["--format", "table", "spectrum", "--q", "0.5", "--nmax", "3"],
    "spectrum_nmax3_csv": ["--format", "csv", "spectrum", "--q", "0.5", "--nmax", "3"],
    "cohomology_nmax2": ["cohomology", "--q", "0.5", "--nmax", "2"],
    "summability_nmax8": ["summability", "--q", "0.5", "--nmax", "8"],
    "verify_casimir_deg3": ["verify-casimir", "--q", "0.5", "--total-degree", "3"],
    "decompose_cp2_dump": ["decompose", "cp2", "--nmax", "2", "--dump"],
    "evaluate_e1f1": ["evaluate", "E1 F1 - q^-1 F1 E1", "--n1", "1", "--n2", "1"],
}


def run_cli(argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run_cli(CASES[name])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / f"{name}.out").read_text()
