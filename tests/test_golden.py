"""Byte-level regression: each command's stdout must match its stored report.

The files under tests/golden/ hold reports as the command line printed them
before a change to the code behind them: the numeric cases before the lazy
action-row provider, the rewrite cases before integer Laurent coefficients,
the q = 0.3 spectrum and q = 0.9 cohomology before forms became plain
Peter-Weyl vectors, the degree-4 relation battery before the rewriting
engine moved to flat integer polynomials, the verify-complex cases before
the slot operators were assembled from black blocks, and the form1_doublet
and sphere decompositions before their per-irrep counts became one pass.
The relation battery pins the verify-cp2-relations report at degrees 4
and 6, the latter the benchmark's exact command and captured before the
confluence sweep moved to canonical interned normal forms: its key order,
its branching_words count and the last digit of its classical_max_error
float, re-captured when the q = 1 cross-check moved to the standard
library's random draws (every other byte unchanged).  The two
verify-complex reports were re-captured when the complex and equivariance
checks moved from random vectors on the assembled operators to the black
blocks and the dict path: only their residual floats moved.  The two
identity-battery reports at degree 8, the benchmark's verify-hopf and
verify-casimir lines, were captured before the diagonal generators were read
as weights and the ladder coefficients from one table per label.
The two verify-gt reports, the benchmark's seed-1 line at degree 6 and the
lemma identities at power 8, were captured before each label's lowering
elements were built in one pass from one list of q-factorials and of powers.
The verify-coproduct report (the battery's seed-1 line) and its csv layout,
the table layout of a cohomology report and a summability report at four
epsilons were captured before the coproduct was built from its rule, the
shells' decay ratios were read off their rows and the command line set each
report's command key: the csv and table reports pin that key in the
key/value and table layouts.
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
    "spectrum_q03_nmax8": ["spectrum", "--q", "0.3", "--nmax", "8"],
    "cohomology_nmax2": ["cohomology", "--q", "0.5", "--nmax", "2"],
    "cohomology_q09_nmax4": ["cohomology", "--q", "0.9", "--nmax", "4"],
    "summability_nmax8": ["summability", "--q", "0.5", "--nmax", "8"],
    "summability_q031_nmax8_eps": ["summability", "--q", "0.31", "--nmax", "8", "--eps", "0.01", "0.5", "3", "20"],
    "cohomology_nmax2_table": ["--format", "table", "cohomology", "--q", "0.5", "--nmax", "2"],
    # the seed-1 verify-coproduct line of the battery workload, and its csv layout
    "verify_coproduct_q053": ["verify-coproduct", "--q", "0.53"],
    "verify_coproduct_q053_csv": ["--format", "csv", "verify-coproduct", "--q", "0.53"],
    "verify_casimir_deg3": ["verify-casimir", "--q", "0.5", "--total-degree", "3"],
    # the seed-1 verify-hopf and verify-casimir lines of the benchmark's battery workload
    "verify_hopf_q079_deg8": ["verify-hopf", "--q", "0.79", "--total-degree", "8"],
    "verify_casimir_q044_deg8": ["verify-casimir", "--q", "0.44", "--total-degree", "8"],
    # the seed-1 verify-gt line of the battery workload, and the lemma identities at power 8
    "verify_gt_q053_deg6": ["verify-gt", "--q", "0.53", "--total-degree", "6"],
    "verify_gt_q05_deg3_powers8": ["verify-gt", "--q", "0.5", "--total-degree", "3", "--powers", "8"],
    "decompose_cp2_dump": ["decompose", "cp2", "--nmax", "2", "--dump"],
    "decompose_form1_doublet_nmax2": ["decompose", "form1_doublet", "--nmax", "2"],
    "decompose_sphere_nmax3": ["decompose", "sphere", "--nmax", "3"],
    "evaluate_e1f1": ["evaluate", "E1 F1 - q^-1 F1 E1", "--n1", "1", "--n2", "1"],
    # the seed-1 and seed-2 queries of the benchmark's exact workload
    "rewrite_exact_seed1": ["rewrite", "p13 p12 p23 p33 p11 p32 + p32 p12 p11 p22 p31 p33"
                            " + p11 p22 p23 p21 p33 p12"],
    "rewrite_exact_seed2": ["rewrite", "p12 p21 p12 p12 p23 p21 + p21 p32 p21 p33 p22 p22"
                            " + p12 p22 p32 p21 p21 p23"],
    "rewrite_p12_p21": ["rewrite", "p12 p21"],
    # a non-integral rational keeps its Fraction coefficient
    "rewrite_rational": ["rewrite", "1/2 p12 p21 - q^-2 p21 p12"],
    "verify_cp2_relations_deg4": ["verify-cp2-relations", "--max-deg", "4"],
    "verify_cp2_relations_deg6": ["verify-cp2-relations", "--max-deg", "6"],
    # the seed-1 query of the benchmark's forms workload, and a larger truncation
    "verify_complex_q072_nmax4": ["verify-complex", "--q", "0.72", "--nmax", "4"],
    "verify_complex_nmax8": ["verify-complex", "--q", "0.5", "--nmax", "8"],
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
