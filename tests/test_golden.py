"""Byte-level regression: each command's stdout must match its stored report.

The files under tests/golden/ hold reports as the command line printed them
before a change to the code behind them: the numeric cases before the lazy
action-row provider, the rewrite cases before integer Laurent coefficients.
Any change to a number, a coefficient's printed form, a key order or a
float's last digit shows up here as a failure.
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
    # the seed-1 and seed-2 queries of the benchmark's exact workload
    "rewrite_exact_seed1": ["rewrite", "p13 p12 p23 p33 p11 p32 + p32 p12 p11 p22 p31 p33"
                            " + p11 p22 p23 p21 p33 p12"],
    "rewrite_exact_seed2": ["rewrite", "p12 p21 p12 p12 p23 p21 + p21 p32 p21 p33 p22 p22"
                            " + p12 p22 p32 p21 p21 p23"],
    "rewrite_p12_p21": ["rewrite", "p12 p21"],
    # a non-integral rational keeps its Fraction coefficient
    "rewrite_rational": ["rewrite", "1/2 p12 p21 - q^-2 p21 p12"],
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
