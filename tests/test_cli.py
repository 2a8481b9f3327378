import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cp2q import classical, cli, dirac, dolbeault, irreps, ncrewrite, peterweyl, qarith, ualg


def run_cli(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_spectrum_json_contains_expected_rows():
    code, out = run_cli(["spectrum", "--q", "0.5", "--nmax", "3"])
    assert code == 0
    report = json.loads(out)
    rows = {(r["family"], r["n"], r["eigenvalue"] > 0): r for r in report["rows"]
            if r["family"] != "zero"}
    a1 = rows[("alpha", 1, True)]
    assert abs(a1["eigenvalue"] - 2.049390153) < 1e-8
    assert a1["multiplicity"] == 8
    b0 = rows[("beta", 0, True)]
    assert abs(b0["eigenvalue"] - 3.622844186) < 1e-8
    assert b0["multiplicity"] == 10


def test_spectrum_deterministic_bytes_across_threads():
    # repeated runs in one process must agree byte for byte
    outs = [run_cli(["spectrum", "--q", "0.5", "--nmax", "2"])[1] for _ in range(3)]
    assert outs[0] == outs[1] == outs[2]


def test_cohomology_command():
    code, out = run_cli(["cohomology", "--q", "0.5", "--nmax", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["harmonic_dimensions"] == [1, 0, 0]


def test_rewrite_command():
    code, out = run_cli(["rewrite", "z2 z1 - q^-1 z1 z2"])
    assert code == 0
    assert json.loads(out)["is_zero"] is True


def test_verify_cp2_relations_command():
    code, out = run_cli(["verify-cp2-relations", "--max-deg", "3", "--samples", "20"])
    assert code == 0
    report = json.loads(out)
    assert report["relations_passed"] and report["confluence_passed"]
    assert report["critical_pairs"] == 26


def test_config_error_exit_code():
    code, out = run_cli(["spectrum", "--q", "0.2", "--nmax", "2"])
    assert code == cli.EXIT_CONFIG_ERROR
    assert "q" in json.loads(out)["error"]
    code, _ = run_cli(["spectrum", "--q", "0.5", "--nmax", "99"])
    assert code == cli.EXIT_CONFIG_ERROR
    code, _ = run_cli(["spectrum", "--q", "not-a-number"])
    assert code == cli.EXIT_CONFIG_ERROR


def test_rational_q_string():
    _, out1 = run_cli(["spectrum", "--q", "1/2", "--nmax", "1"])
    _, out2 = run_cli(["spectrum", "--q", "0.5", "--nmax", "1"])
    assert out1 == out2


def test_exact_mode_allowed_for_rewriting():
    # rewriting is always exact, with no flag to select it
    code, out = run_cli(["rewrite", "p12 p21"])
    assert code == 0
    assert not json.loads(out)["is_zero"]


def test_decompose_command():
    code, out = run_cli(["decompose", "cp2", "--nmax", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 36
    code, out = run_cli(["decompose", "line_bundle", "--nmax", "1", "--N", "3"])
    assert json.loads(out)["total"] == 45


@pytest.mark.parametrize("kind", ["sphere", "cp2", "form1_doublet"])
def test_decompose_refuses_an_N_its_kind_ignores(kind):
    # only line_bundle reads --N; the default 0 is accepted
    code, out = run_cli(["decompose", kind, "--nmax", "1", "--N", "5"])
    assert code == cli.EXIT_CONFIG_ERROR
    assert json.loads(out) == {"error": f"--N is read by line_bundle only, got 5 for {kind}", "passed": False}
    code, out = run_cli(["decompose", kind, "--nmax", "1", "--N", "0"])
    assert code == cli.EXIT_OK and json.loads(out)["N"] == 0


def test_evaluate_command():
    code, out = run_cli(["evaluate", "E1 F1 - F1 E1", "--q", "0.5", "--n1", "0", "--n2", "1"])
    assert code == 0
    mat = json.loads(out)["matrix"]
    assert len(mat) == 3


def test_table_and_csv_formats():
    code, out = run_cli(["--format", "table", "spectrum", "--q", "0.5", "--nmax", "1"])
    assert code == 0 and "eigenvalue" in out
    code, out = run_cli(["--format", "csv", "spectrum", "--q", "0.5", "--nmax", "1"])
    assert code == 0
    header = out.splitlines()[0]
    assert set(header.split(",")) == {"family", "n", "eigenvalue", "multiplicity"}


def test_verify_commands_pass():
    code, _ = run_cli(["verify-coproduct", "--q", "0.5"])
    assert code == 0
    code, _ = run_cli(["verify-gt", "--q", "0.5", "--total-degree", "2", "--powers", "2"])
    assert code == 0
    code, _ = run_cli(["verify-complex", "--q", "0.5", "--nmax", "1"])
    assert code == 0
    code, _ = run_cli(["classical-check", "--samples", "10", "--seed", "3"])
    assert code == 0


@pytest.mark.parametrize("q, nmax", [("0.3", "8"), ("0.2", "4"), ("0.1", "3"), ("0.1", "8")])
def test_verify_complex_passes_where_the_values_grow_like_q_to_the_minus_n(q, nmax):
    # the identities hold; every residual, and the off-space junk of each
    # black image, is measured against the largest summand it compares,
    # which grows like q^-n, not against a unit input
    code, out = run_cli(["verify-complex", "--q", q, "--nmax", nmax])
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["complex"]["passed"] and report["equivariance"]["passed"]


# each command line one below a least value, with the error it prints
EMPTY_CHECKS = [
    (["verify-hopf", "--total-degree", "-1"], "--total-degree must be >= 0, got -1"),
    (["verify-casimir", "--total-degree", "-1"], "--total-degree must be >= 0, got -1"),
    (["verify-gt", "--total-degree", "-1"], "--total-degree must be >= 0, got -1"),
    (["verify-gt", "--powers", "0"], "--powers must be >= 1, got 0"),
    (["summability", "--nmax", "1"], "--nmax must be >= 2, got 1"),
    (["classical-check", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["verify-cp2-relations", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["verify-complex", "--nmax", "-1"], "--nmax must be >= 0, got -1"),
    # no word below degree 3 holds two redexes, so the sweep checks nothing
    (["verify-cp2-relations", "--max-deg", "2"], "--max-deg must be >= 3, got 2"),
    (["verify-cp2-relations", "--max-deg", "-1"], "--max-deg must be >= 3, got -1"),
    (["spectrum", "--nmax", "-1"], "--nmax must be >= 0, got -1"),
    (["cohomology", "--nmax", "-1"], "--nmax must be >= 0, got -1"),
    (["classical-check", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["decompose", "sphere", "--nmax", "-1"], "--nmax must be >= 0, got -1"),
    (["evaluate", "E1", "--n1", "-1"], "--n1 must be >= 0, got -1"),
    (["evaluate", "E1", "--n2", "-1"], "--n2 must be >= 0, got -1"),
]


@pytest.mark.parametrize("argv, error", EMPTY_CHECKS, ids=[f"argv{i}" for i in range(len(EMPTY_CHECKS))])
def test_empty_checks_are_config_errors(argv, error):
    # each of these would check nothing and still report a pass, or name
    # a label or seed that does not exist
    code, out = run_cli(argv)
    assert code == cli.EXIT_CONFIG_ERROR
    assert json.loads(out) == {"error": error, "passed": False}


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


TOL_COMMANDS = [
    ["verify-hopf", "--total-degree", "1"],
    ["verify-casimir", "--total-degree", "1"],
    ["verify-gt", "--total-degree", "1"],
    ["verify-coproduct"],
    ["verify-complex", "--nmax", "1"],
    ["spectrum", "--nmax", "1"],
    ["cohomology", "--nmax", "1"],
    ["summability", "--nmax", "2"],
    ["classical-check", "--samples", "2"],
]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", TOL_COMMANDS, ids=lambda a: a[0])
def test_bad_tol_is_a_config_error(argv, tol):
    # a tolerance of zero or below fails every check, and NaN or infinity
    # decides them all alike: a usage error, reported as JSON
    code, out = run_cli(argv + ["--tol", tol])
    assert code == cli.EXIT_CONFIG_ERROR
    report = _strict_json(out)
    assert report["passed"] is False and "--tol" in report["error"]
    # the same command line with a usable tolerance runs and passes
    code, out = run_cli(argv + ["--tol", "1e-6"])
    assert code == cli.EXIT_OK and _strict_json(out)["passed"] is True


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_bad_eps_is_a_config_error(eps):
    # one bad value among good ones is a usage error, reported as JSON
    code, out = run_cli(["summability", "--nmax", "2", "--eps", "0.1", eps])
    assert code == cli.EXIT_CONFIG_ERROR
    report = _strict_json(out)
    assert report["passed"] is False and "--eps" in report["error"]
    code, out = run_cli(["summability", "--nmax", "2", "--eps", "0.1"])
    assert code == cli.EXIT_OK and _strict_json(out)["passed"] is True


@pytest.mark.parametrize("argv, code", [
    (["--eps", "300"], cli.EXIT_CONFIG_ERROR),
    (["--q", "0.3", "--nmax", "8", "--eps", "100"], cli.EXIT_CONFIG_ERROR),
    (["--q", "0.3", "--nmax", "8", "--eps", "90"], cli.EXIT_CONFIG_ERROR),
    (["--q", "0.3", "--nmax", "8", "--eps", "79"], cli.EXIT_CONFIG_ERROR),
    (["--q", "0.3", "--nmax", "8", "--eps", "70"], cli.EXIT_OK),
], ids=("eps-300", "q-0.3-eps-100", "q-0.3-eps-90", "q-0.3-eps-79", "q-0.3-eps-70"))
def test_an_eps_whose_factors_underflow_is_a_config_error(argv, code):
    # a shell's factor (1 + lambda^2)^(-eps/2) is subnormal from eps about
    # 75.2 at q 0.3 and nmax 8, and 0.0 from about 90.6, where the next
    # decay ratio would divide by it; a ratio of subnormals is rounding, so
    # either is a usage error naming --eps, with nothing on stderr
    out = _python("-m", "cp2q.cli", "summability", *argv)
    assert (out.returncode, out.stderr) == (code, "")
    report = _strict_json(out.stdout)
    assert report["passed"] is (code == cli.EXIT_OK)
    assert code == cli.EXIT_OK or (report["error"].startswith("--eps ")
                                   and report["error"].endswith(" is 0.0 or subnormal"))


@pytest.mark.parametrize("q, nmax, code", [
    ("1e-10", "8", cli.EXIT_OK),
    ("1e-12", "8", cli.EXIT_CONFIG_ERROR),
    ("1e-13", "8", cli.EXIT_CONFIG_ERROR),
    ("1e-20", "8", cli.EXIT_CONFIG_ERROR),
    ("1e-25", "6", cli.EXIT_CONFIG_ERROR),
    ("1e-30", "4", cli.EXIT_CONFIG_ERROR),
])
def test_verify_complex_past_the_float_range_is_a_config_error(q, nmax, code):
    # at small q products of q-numbers overflow, and a residual would rest
    # on a nan or an inf: a usage error rather than a pass or a traceback
    out = _python("-m", "cp2q.cli", "verify-complex", "--q", q, "--nmax", nmax)
    assert (out.returncode, out.stderr) == (code, "")
    assert _strict_json(out.stdout)["passed"] is (code == cli.EXIT_OK)


def test_classical_check_reports_a_bad_sample(monkeypatch):
    draw = classical.sample

    def scaled(seed):  # the sample of seed 13 is twice a unitary matrix
        g = draw(seed)
        return tuple(tuple(2.0 * x for x in row) for row in g) if seed == 13 else g

    monkeypatch.setattr(classical, "sample", scaled)
    code, out = run_cli(["classical-check", "--samples", "5", "--seed", "10"])
    assert code == cli.EXIT_VERIFICATION_FAILED
    report = _strict_json(out)
    assert report["passed"] is False and report["bad_sample"] == 13
    assert "seed 13" in report["error"] and report["unitarity"] > 1.0 and report["det"] > 1.0


def test_classical_check_refuses_a_nan_residual(monkeypatch):
    # a nan family residual exits 2, as every numeric check's does, where it
    # used to print NaN, which is not JSON, and exit 1
    check = classical.transition_check

    def with_nan(g, tol):
        return {**check(g, tol), "projector": NAN}

    monkeypatch.setattr(classical, "transition_check", with_nan)
    code, out = run_cli(["classical-check", "--samples", "3"])
    assert code == cli.EXIT_CONFIG_ERROR
    assert _strict_json(out)["passed"] is False


@pytest.mark.parametrize("argv", [
    ["evaluate", "E1", "--q", "1e-16", "--n1", "9", "--n2", "9"],
    ["verify-hopf", "--q", "1e-30", "--total-degree", "12"],
    ["verify-casimir", "--q", "1e-30", "--total-degree", "12"],
    ["verify-gt", "--q", "1e-40", "--total-degree", "9"],
    # here the q-numbers are finite, and a product of them overflows into a
    # residual's nan or inf
    pytest.param(["verify-hopf", "--q", "1e-20", "--total-degree", "8"], id="verify-hopf-residual"),
    pytest.param(["verify-casimir", "--q", "1e-15", "--total-degree", "8"], id="verify-casimir-residual"),
    pytest.param(["verify-gt", "--q", "0.01", "--total-degree", "9"], id="verify-gt-residual"),
], ids=lambda a: a[0])
def test_q_numbers_past_the_float_range_are_a_config_error(argv):
    # at the first four q a power q^-k overflows while the q-numbers are built
    code, out = run_cli(argv)
    assert code == cli.EXIT_CONFIG_ERROR
    report = _strict_json(out)
    assert report["passed"] is False
    assert report["error"] == f"the q-numbers leave the float range at q = {argv[argv.index('--q') + 1]}"


@pytest.mark.parametrize("check, label, q", [
    (irreps.verify_hopf_relations, (0, 12), 1e-14),
    (ualg.verify_casimir_scalar, (0, 11), 1e-12),
    (peterweyl.verify_gt_lowering, (7, 2), 0.01),
], ids=["verify_hopf_relations", "verify_casimir_scalar", "verify_gt_lowering"])
def test_a_non_finite_residual_raises_overflow_error(check, label, q):
    # a product of q-numbers overflows here: 19 of hopf's 27 residuals and one
    # of the others' are nan or inf, and none may pass or be reported
    with pytest.raises(OverflowError):
        check(label, qarith.QParam(q))


NAN = float("nan")
ONES = [[1.0, 1.0], [1.0, 1.0]]


def _nan_at(k: int) -> list:
    """A 2x2 block of ones with a nan at row-major position k."""
    return [[NAN if 2 * i + j == k else 1.0 for j in range(2)] for i in range(2)]


def _black_act_with_nan(monkeypatch):
    """Make the last coefficient of every nonzero black image a nan."""
    black_act = peterweyl.black_act

    def with_nan(elem, vec, p):
        out = black_act(elem, vec, p)
        if out:
            out[next(reversed(out))] = NAN
        return out

    monkeypatch.setattr(peterweyl, "black_act", with_nan)


def _apply_with_a_nan_leg(monkeypatch):
    _black_act_with_nan(monkeypatch)
    dolbeault.dbar_raw(dolbeault.block_slots("diag", 1)[0], qarith.QParam(0.5))


def _membership_of_two_doublets(monkeypatch):
    # v+ has 2 where E1 v- has 1, so "E1 v- = v+" reads a finite difference
    # before the nan: a check that fails must still raise on the nan
    _black_act_with_nan(monkeypatch)
    w1, w2 = (0, 0, 0), (1, 0, 1)
    vp, vm = ({**peterweyl.pw_vector(1, 1, w1, t, c), **peterweyl.pw_vector(1, 1, w2, t)}
              for t, c in (((1, 0, 1), 2.0), ((1, 0, -1), 1.0)))
    peterweyl.form1_membership_report(vp, vm, qarith.QParam(0.5))


def _laplacian_block(monkeypatch):
    # (block @ block)[0][1] = 1 * 0 + 0 * nan is the nan, after a finite entry
    monkeypatch.setattr(dirac, "_family_block", lambda family, n, cfg: [[1.0, 0.0], [0.0, NAN]])
    dirac.verify_laplacian_identity(dirac.DiracConfig(p=qarith.QParam(0.5), nmax=0), trials=1)


def _cohomology_block(monkeypatch):
    # each block's first column is (1, nan): not harmonic, unless the nan is dropped
    monkeypatch.setattr(dirac, "_black_blocks", lambda family, n, p: ([[1.0, 0.0], [NAN, 0.0]], [[0.0, 0.0]] * 2))
    dirac.cohomology(dirac.DiracConfig(p=qarith.QParam(0.5), nmax=1))


def _classical_rep_gap(monkeypatch):
    monkeypatch.setattr(classical, "_gap", lambda a, b: NAN)
    classical.classical_rep_check()


def _cross_check_value(monkeypatch):
    monkeypatch.setattr(ncrewrite, "_value", lambda terms, vals: NAN)
    ncrewrite.classical_cross_check(samples=1)


NAN_SITES = {
    **{f"square_residual-{k}": lambda mp, k=k: dolbeault._square_residual(_nan_at(k)) for k in range(4)},
    **{f"transpose_residual-a{k}": lambda mp, k=k: dolbeault._transpose_residual(_nan_at(k), ONES)
       for k in range(4)},
    **{f"transpose_residual-b{k}": lambda mp, k=k: dolbeault._transpose_residual(ONES, _nan_at(k))
       for k in range(4)},
    "apply": _apply_with_a_nan_leg,
    "form1_membership_report": _membership_of_two_doublets,
    "verify_laplacian_identity": _laplacian_block,
    "cohomology": _cohomology_block,
    "dbar_local_check": lambda mp: classical.dbar_local_check(lambda p: NAN, classical.sample(3), 1),
    "classical_rep_check": _classical_rep_gap,
    "classical_cross_check": _cross_check_value,
}


@pytest.mark.parametrize("site", NAN_SITES)
def test_a_nan_anywhere_in_a_maximum_raises_overflow_error(site, monkeypatch):
    # every maximum that feeds a residual is qarith.largest, which keeps a nan
    # where Python's max keeps it only when it comes first
    with pytest.raises(OverflowError):
        NAN_SITES[site](monkeypatch)


def test_membership_error_exits_1(monkeypatch):
    raw = dolbeault.dbar_raw
    monkeypatch.setattr(dolbeault, "dbar_raw", lambda f, p: (raw(f, p)[0], 1.0))
    code, out = run_cli(["spectrum", "--q", "0.5", "--nmax", "1"])
    assert code == cli.EXIT_VERIFICATION_FAILED
    report = json.loads(out)
    assert report["passed"] is False and "form spaces" in report["error"]


def test_spectrum_symmetry_error_exits_1(monkeypatch):
    monkeypatch.setattr(dirac, "_family_block", lambda family, n, cfg: np.diag([1.0, 2.0]))
    code, out = run_cli(["spectrum", "--q", "0.5", "--nmax", "1"])
    assert code == cli.EXIT_VERIFICATION_FAILED
    report = json.loads(out)
    assert report["passed"] is False and "not symmetric" in report["error"]


@pytest.mark.parametrize("block", [[[0.0, NAN], [1.0, 0.0]], [[0.0, 1.0], [NAN, 0.0]],
                                   [[0.0, float("inf")], [1.0, 0.0]], [[NAN, 1.0], [1.0, 0.0]]],
                         ids=["upper", "lower", "inf", "diagonal"])
def test_spectrum_non_finite_block_exits_2(monkeypatch, block):
    # the symmetry guard is False for a nan, which would otherwise become a row
    monkeypatch.setattr(dirac, "_family_block", lambda family, n, cfg: block)
    code, out = run_cli(["spectrum", "--q", "0.5", "--nmax", "1"])
    assert code == cli.EXIT_CONFIG_ERROR
    report = _strict_json(out)
    assert report["passed"] is False
    assert report["error"] == "the q-numbers leave the float range at q = 0.5"


def test_spectrum_rejects_an_asymmetric_block(monkeypatch):
    # tripling dbar_dag into degree 0 makes each V(n,n) block [[0, 3d], [d, 0]]:
    # eigvalsh, which reads one triangle, would still report +-d
    monkeypatch.setitem(dolbeault._DBAR_DAG, "0", (("+", "X", 3.0), ("-", "F2", 3.0)))
    code, out = run_cli(["spectrum", "--q", "0.5", "--nmax", "2"])
    assert code == cli.EXIT_VERIFICATION_FAILED
    report = json.loads(out)
    assert report["passed"] is False and "not symmetric" in report["error"]


def test_rewrite_budget_error_exits_1(monkeypatch):
    def exhausted(f):
        raise ncrewrite.RewriteBudgetError("reduction budget exhausted")

    monkeypatch.setattr(ncrewrite, "normal_form", exhausted)
    code, out = run_cli(["rewrite", "p12 p21"])
    assert code == cli.EXIT_VERIFICATION_FAILED
    report = json.loads(out)
    assert report["passed"] is False and "budget" in report["error"]


def test_other_errors_surface(monkeypatch):
    # only the named verification failures become reports; a plain
    # ArithmeticError or a RuntimeError is a bug and must surface
    def broken(cfg):
        raise ArithmeticError("bug")

    monkeypatch.setattr(dirac, "spectrum", broken)
    with pytest.raises(ArithmeticError):
        run_cli(["spectrum", "--q", "0.5", "--nmax", "1"])

    def crashed(f):
        raise RuntimeError("bug")

    monkeypatch.setattr(ncrewrite, "normal_form", crashed)
    with pytest.raises(RuntimeError):
        run_cli(["rewrite", "p12 p21"])

    # a ValueError from inside the engine is a bug too, not a usage error
    def misread(f):
        raise ValueError("bug")

    monkeypatch.setattr(ncrewrite, "normal_form", misread)
    with pytest.raises(ValueError):
        run_cli(["rewrite", "p12 p21"])
    monkeypatch.setattr(ualg, "evaluate", lambda elem, label, p: misread(elem))
    with pytest.raises(ValueError):
        run_cli(["evaluate", "E1", "--n1", "0", "--n2", "1"])


# the two term grammars share one syntax: each malformed input fails alike
# in both, with the error text naming the grammar's noun; {a} and {b} are
# two of its factors
GRAMMAR_ERRORS = [
    ("", "empty {noun}"),
    ("  ", "empty {noun}"),
    ("+", "operator '+' without a left operand at '+'"),
    ("{a} - + {b}", "operator '+' without a left operand at '+ {b}'"),
    ("{a} +", "dangling operator in '{a} +'"),
    ("* x", "operator '*' without a left operand at '* x'"),
    ("1/0 {a}", "zero denominator in '1/0'"),
    ("{a} + z4", "cannot parse {noun} at ' z4'"),
    # a zero denominator is refused at its token, before the term's next one
    ("1/0 z4", "zero denominator in '1/0'"),
]


@pytest.mark.parametrize("expr, error", GRAMMAR_ERRORS,
                         ids=("empty", "blank", "lone-operator", "no-left-operand", "dangling",
                              "leading-star", "zero-denominator", "unknown", "zero-denominator-first"))
@pytest.mark.parametrize("command, a, b, noun", [("evaluate", "E1", "F1", "element"),
                                                 ("rewrite", "z1", "z2", "polynomial")],
                         ids=("evaluate", "rewrite"))
def test_grammar_errors_are_config_errors_with_fixed_texts(command, a, b, noun, expr, error):
    code, out = run_cli([command, expr.format(a=a, b=b)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert json.loads(out) == {"error": error.format(a=a, b=b, noun=noun), "passed": False}


# a "-" glued to a number after an operand is the operator, as with a space;
# where an operand is due it is the number's sign (normal forms as printed
# before the operator reading)
SIGNED_NUMBERS = [("-2 z1", "(-2) z1"), ("z1 * -2 z2", "(-2) z1 z2"),
                  ("z1 - -2 z2", "(1) z1 + (2) z2"), ("q^-1 z1", "(1*q^-1) z1")]


def test_a_minus_after_an_operand_is_the_operator():
    for command, a, b, echo in (("rewrite", "z1", "z2", "input"), ("evaluate", "E1", "F1", "expr")):
        glued, spaced = (json.loads(run_cli([command, f"{a} {op}2 {b}"])[1]) for op in ("-", "- "))
        assert glued.pop(echo) == f"{a} -2 {b}" and spaced.pop(echo) == f"{a} - 2 {b}"
        assert glued == spaced
    for expr, nf in SIGNED_NUMBERS:
        code, out = run_cli(["rewrite", expr])
        assert code == cli.EXIT_OK and json.loads(out)["normal_form"] == nf


# one case per guard on unbounded work: the command line one past its cap,
# the same command at its cap, and the workers with stub results
GUARDS = [
    (["verify-complex", "--nmax", str(cli.NMAX_GUARD + 1)],
     ["verify-complex", "--nmax", str(cli.NMAX_GUARD)],
     [(dolbeault, "verify_complex", {"passed": True}),
      (dolbeault, "verify_equivariance", {"passed": True})]),
    (["evaluate", "E1", "--n1", "10", "--n2", "9"],  # dim 1155
     ["evaluate", "E1", "--n1", "9", "--n2", "9"],  # dim 1000
     [(ualg, "evaluate", [()])]),
    (["verify-cp2-relations", "--max-deg", str(cli.MAX_DEG_GUARD + 1)],
     ["verify-cp2-relations", "--max-deg", str(cli.MAX_DEG_GUARD)],
     [(ncrewrite, "verify_cp2_relations", {"passed": True, "count": 0}),
      (ncrewrite, "confluence_check", {"passed": True, "branching_words": 0})]),
    (["verify-cp2-relations", "--samples", str(cli.CROSS_CHECK_SAMPLES_GUARD + 1)],
     ["verify-cp2-relations", "--samples", str(cli.CROSS_CHECK_SAMPLES_GUARD)],
     [(ncrewrite, "verify_cp2_relations", {"passed": True, "count": 0}),
      (ncrewrite, "confluence_check", {"passed": True, "branching_words": 0}),
      (ncrewrite, "critical_pairs", {"passed": True, "overlaps": 0}),
      (ncrewrite, "classical_cross_check", {"passed": True, "max_abs_error": 0.0})]),
    (["classical-check", "--samples", str(cli.CLASSICAL_SAMPLES_GUARD + 1)],
     ["classical-check", "--samples", str(cli.CLASSICAL_SAMPLES_GUARD)],
     [(classical, "run_sample_battery", {"passed": True, "residuals": {}})]),
    # the irrep battery: labels_up_to is stubbed to one label, so each
    # worker runs once at the cap, and the cap is checked before the labels
    (["verify-hopf", "--total-degree", str(cli.TOTAL_DEGREE_GUARD + 1)],
     ["verify-hopf", "--total-degree", str(cli.TOTAL_DEGREE_GUARD)],
     [(irreps, "labels_up_to", [irreps.IrrepLabel(1, 1)]),
      (irreps, "verify_hopf_relations", {"passed": True, "max_residual": 0.0})]),
    (["verify-casimir", "--total-degree", str(cli.TOTAL_DEGREE_GUARD + 1)],
     ["verify-casimir", "--total-degree", str(cli.TOTAL_DEGREE_GUARD)],
     [(irreps, "labels_up_to", [irreps.IrrepLabel(1, 1)]),
      (ualg, "verify_casimir_scalar", {"passed": True, "scalar": 0.0,
                                       "off_scalar_residual": 0.0, "commutator_residual": 0.0})]),
    (["verify-gt", "--total-degree", str(cli.GT_TOTAL_DEGREE_GUARD + 1)],
     ["verify-gt", "--total-degree", str(cli.GT_TOTAL_DEGREE_GUARD)],
     [(irreps, "labels_up_to", [irreps.IrrepLabel(1, 1)]),
      (peterweyl, "verify_gt_lowering", {"passed": True, "max_residual": 0.0}),
      (peterweyl, "verify_lemma_commutators", {"passed": True, "max_residual": 0.0})]),
    (["verify-gt", "--powers", str(cli.GT_POWERS_GUARD + 1)],
     ["verify-gt", "--powers", str(cli.GT_POWERS_GUARD)],
     [(irreps, "labels_up_to", [irreps.IrrepLabel(1, 1)]),
      (peterweyl, "verify_gt_lowering", {"passed": True, "max_residual": 0.0}),
      (peterweyl, "verify_lemma_commutators", {"passed": True, "max_residual": 0.0})]),
    # sphere is the largest kind at a given nmax
    (["decompose", "sphere", "--nmax", str(cli.DECOMPOSE_NMAX_GUARD + 1)],
     ["decompose", "sphere", "--nmax", str(cli.DECOMPOSE_NMAX_GUARD)],
     [(peterweyl, "subspace_basis", [])]),
    # a line bundle's basis grows with |N| at any nmax; a negative N builds
    # V(n + |N|, n), as large as V(n, n + |N|)
    (["decompose", "line_bundle", "--nmax", "12", "--N", str(cli.DECOMPOSE_N_GUARD + 1)],
     ["decompose", "line_bundle", "--nmax", "12", "--N", str(cli.DECOMPOSE_N_GUARD)],
     [(peterweyl, "subspace_basis", [])]),
    (["decompose", "line_bundle", "--nmax", "12", "--N", str(-cli.DECOMPOSE_N_GUARD - 1)],
     ["decompose", "line_bundle", "--nmax", "12", "--N", str(-cli.DECOMPOSE_N_GUARD)],
     [(peterweyl, "subspace_basis", [])]),
    # the spectral commands share the --nmax cap of verify-complex
    (["spectrum", "--nmax", str(cli.NMAX_GUARD + 1)],
     ["spectrum", "--nmax", str(cli.NMAX_GUARD)],
     [(dirac, "spectrum", dirac.SpectrumTable(0.5, 1.0, cli.NMAX_GUARD, [])),
      (dirac, "verify_spectrum_closed_form", {"passed": True, "max_rel_error": 0.0})]),
    (["cohomology", "--nmax", str(cli.NMAX_GUARD + 1)],
     ["cohomology", "--nmax", str(cli.NMAX_GUARD)],
     [(dirac, "cohomology", {"passed": True})]),
    (["summability", "--nmax", str(cli.NMAX_GUARD + 1)],
     ["summability", "--nmax", str(cli.NMAX_GUARD)],
     [(dirac, "summability_probe", {"shells": []})]),
]


@pytest.mark.parametrize("over, at, workers", GUARDS)
def test_unbounded_work_is_refused_before_it_starts(monkeypatch, over, at, workers):
    called = []
    for module, name, result in workers:
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, result=result, **k: called.append(name) or result)
    code, out = run_cli(over)
    assert code == cli.EXIT_CONFIG_ERROR and not called
    report = json.loads(out)
    assert report["passed"] is False and "capped" in report["error"]
    code, _ = run_cli(at)
    assert code == cli.EXIT_OK
    assert called == [name for _, name, _ in workers]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("command", ["verify-complex", "spectrum", "cohomology", "summability"])
def test_the_nmax_cap_is_worded_alike_in_every_command(command, fmt):
    code, out = run_cli(["--format", fmt, command, "--nmax", str(cli.NMAX_GUARD + 1)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert f"--nmax is capped at {cli.NMAX_GUARD}, got {cli.NMAX_GUARD + 1}" in out


def test_every_integer_flag_declares_its_bounds():
    # the bounds main reads are declared once, beside each integer flag;
    # decompose --N is the one integer flag with no plain bound (its cap is
    # on |N|, and only line_bundle reads it)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, sp in sub.choices.items():
        integers = {a.dest for a in sp._actions if a.type is int} - {"N"}
        bounded = [action.dest for action, _, _ in sp.get_default("bounds")]
        assert sorted(bounded) == sorted(integers), name


SRC = Path(cli.__file__).resolve().parents[1]


def _python(*args):
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    probe = ("import sys, cp2q.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _python("-c", probe)
    assert out.returncode == 0 and out.stdout.strip() == "[]"


def test_classical_check_loads_no_scipy():
    probe = ("import contextlib, io, sys; from cp2q import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['classical-check', '--samples', '5'])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _python("-c", probe)
    assert out.returncode == 0 and out.stdout.strip() == "0 []"


def test_classical_check_at_the_identity_sample_is_quiet():
    # seed 0 is the identity, where charts 1 and 2 are inactive: the battery
    # evaluates nothing of them, so nothing divides by zero or warns
    out = _python("-m", "cp2q.cli", "classical-check", "--samples", "5", "--seed", "0")
    assert out.returncode == 0 and out.stderr == ""
    assert json.loads(out.stdout)["passed"] is True



# the start-up cost a command needs only for work it does not do: numpy's
# import (and numpy.random's, its largest submodule), the code generation of
# dataclasses, fractions (with decimal) and the rewriting engine
WATCHED_MODULES = ("numpy", "numpy.random", "dataclasses", "fractions", "cp2q.ncrewrite")


def launch_in_fresh_interpreter(argv):
    """(exit code of cli.main(argv), or None for a bare import, and the set
    of WATCHED_MODULES it loaded), from a fresh interpreter."""
    probe = ("import contextlib, io, json, sys; from cp2q import cli\n"
             f"argv = {argv!r}\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(argv) if argv else None\n"
             f"print(json.dumps([code, [m for m in {WATCHED_MODULES!r} if m in sys.modules]]))")
    out = _python("-c", probe)
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout)
    return code, set(loaded)


@pytest.mark.parametrize("argv, code", [([], None), (["rewrite", "p12 p21"], 0), (["rewrite", "z4"], 2),
                                        (["verify-cp2-relations", "--max-deg", "3"], 0)],
                         ids=("import", "rewrite", "malformed-rewrite", "verify-cp2-relations"))
def test_exact_launches_load_no_numpy(argv, code):
    # importing the command line, a rewrite, a malformed rewrite (a usage
    # error) and the relation battery with its q = 1 cross-check all stay on
    # the exact path
    got, loaded = launch_in_fresh_interpreter(argv)
    assert got == code and "numpy" not in loaded


@pytest.mark.parametrize("argv, code", [
    (["spectrum"], 0), (["cohomology"], 0), (["summability"], 0),
    (["--format", "table", "spectrum"], 0), (["spectrum", "--q", "0.2"], 2), (["verify-complex"], 0),
], ids=("spectrum", "cohomology", "summability", "spectrum-table", "spectrum-guard", "verify-complex"))
def test_spectral_launches_load_no_numpy(argv, code):
    # the 2x2 blocks are read and checked in plain Python, and a guard error
    # exits before any block is built; no dataclass is generated, no Fraction
    # is built and the rewriting engine stays unloaded either
    assert launch_in_fresh_interpreter(argv) == (code, set())


@pytest.mark.parametrize("argv, code", [
    (["verify-hopf", "--total-degree", "3"], 0), (["verify-casimir", "--total-degree", "3"], 0),
    (["verify-gt", "--total-degree", "3"], 0), (["verify-coproduct"], 0), (["evaluate", "E1 F1 - F1 E1"], 0),
    (["verify-hopf", "--total-degree", "13"], 2),
], ids=("verify-hopf", "verify-casimir", "verify-gt", "verify-coproduct", "evaluate", "verify-hopf-guard"))
def test_battery_launches_load_no_numpy(argv, code):
    # the identity battery multiplies sparse action columns in plain Python
    got, loaded = launch_in_fresh_interpreter(argv)
    assert got == code and not loaded & {"numpy", "cp2q.ncrewrite"}


def test_classical_check_loads_no_numpy_random():
    # its samples are drawn with the standard library, and the algebra on
    # them is plain Python: numpy does not load at all
    assert launch_in_fresh_interpreter(["classical-check", "--samples", "5"]) == (0, set())


# every subcommand at its defaults, with the arguments it requires
EVERY_COMMAND = [["verify-hopf"], ["verify-casimir"], ["verify-gt"], ["verify-coproduct"],
                 ["verify-complex"], ["spectrum"], ["cohomology"], ["summability"],
                 ["rewrite", "p12 p21"], ["verify-cp2-relations"], ["classical-check"],
                 ["decompose", "cp2"], ["evaluate", "E1 F1 - F1 E1"]]


def test_every_command_is_listed():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert sorted(a[0] for a in EVERY_COMMAND) == sorted(sub.choices)


# a meta-path finder ahead of every other, so that importing numpy or any
# of its submodules fails as it does where numpy is not installed
WITHOUT_NUMPY = ("import sys\n"
                 "class NoNumpy:\n"
                 "    def find_spec(self, name, path=None, target=None):\n"
                 "        if name == 'numpy' or name.startswith('numpy.'):\n"
                 "            raise ImportError(f'no module named {name!r}')\n"
                 "sys.meta_path.insert(0, NoNumpy())\n")


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[a[0] for a in EVERY_COMMAND])
def test_no_command_loads_numpy(argv):
    # numpy is a test-only dependency: every command runs and writes its
    # report without it, so no numpy value can reach a report; each report
    # names the subcommand that wrote it
    out = _python("-c", WITHOUT_NUMPY + f"from cp2q import cli\nraise SystemExit(cli.main({argv!r}))")
    assert (out.returncode, out.stderr) == (0, "")
    assert _strict_json(out.stdout)["command"] == argv[0]


@pytest.mark.parametrize("argv, code, loaded", [([], None, set()), (["spectrum", "--q", "1/2"], 0, {"fractions"})],
                         ids=("import", "rational-q"))
def test_import_loads_no_unused_module(argv, code, loaded):
    # the command line alone loads none of them; a rational --q needs
    # fractions for its parse alone
    assert launch_in_fresh_interpreter(argv) == (code, loaded)


def test_casimir_launch_loads_no_fractions():
    # the closed-form scalar's thirds are q-numbers of integer twelfths
    got, loaded = launch_in_fresh_interpreter(["verify-casimir", "--total-degree", "3"])
    assert got == 0 and "fractions" not in loaded


@pytest.mark.parametrize("argv", [["verify-cp2-relations", "--max-deg", "3"], ["rewrite", "p12 p21"]],
                         ids=("verify-cp2-relations", "rewrite"))
def test_exact_launches_load_no_fractions(argv):
    # integer coefficients stay ints; only a Fraction coefficient's reduction
    # in ncrewrite.canon imports fractions
    got, loaded = launch_in_fresh_interpreter(argv)
    assert got == 0 and "fractions" not in loaded


def test_numeric_launch_loads_no_rewriting_engine():
    got, loaded = launch_in_fresh_interpreter(["verify-hopf", "--total-degree", "2"])
    assert got == 0 and "cp2q.ncrewrite" not in loaded


def test_closed_pipe_keeps_the_verdict_and_stderr_quiet():
    # the reader is gone before the report is written (as under `| head`):
    # no traceback, and the exit code is the command's own
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "cp2q.cli", "decompose", "sphere", "--nmax", "6", "--dump"],
                               stdout=write_end, stderr=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    finally:
        os.close(write_end)
    assert child.stderr == ""
    assert child.returncode == cli.EXIT_OK
