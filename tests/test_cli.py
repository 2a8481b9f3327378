import io
import json

from cp2q import cli


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
