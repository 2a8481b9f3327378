import json
import re
from pathlib import Path

import pytest

from cp2q import cli

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_runs_the_suite_and_the_benchmark_selftest():
    yaml = pytest.importorskip("yaml")
    spec = yaml.safe_load(WORKFLOW.read_text())
    assert set(spec["on"]) == {"push", "pull_request"}
    steps = spec["jobs"]["tier1"]["steps"]
    assert any(s.get("with", {}).get("python-version") == "3.11" for s in steps)
    runs = [s["run"] for s in steps if "run" in s]
    # the test dependencies are listed once, in pyproject.toml's test extra.
    # Without pyyaml installed, this very test would skip in CI, and without
    # scipy the oracle of the eigendecomposition exponential would; numpy is
    # named since the package no longer pulls it in, and the oracles need it
    install = next(r for r in runs if "pip install" in r)
    assert install == 'python -m pip install -e ".[test]"'
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((WORKFLOW.parents[2] / "pyproject.toml").read_text())["project"]
    extra = project["optional-dependencies"]["test"]
    names = {re.match(r"[\w.-]+", dep).group(0).lower() for dep in extra}
    assert {"numpy", "pytest", "hypothesis", "pyyaml", "mpmath", "scipy"} <= names
    # --durations=10 puts the slowest tests in every log
    assert ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
            "--continue-on-collection-errors --durations=10") in runs
    assert "python3 perfbench/selftest.py" in runs


def test_tier1_workflow_runs_every_benchmark_workload_with_its_oracles():
    # the oracles judge live reports only when the workloads run; the result
    # line's "correct" is the verdict, since run.py exits 0 on failed commands
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    bench = [s["run"] for s in steps if "perfbench/run.py" in s.get("run", "")]
    assert len(bench) == 1
    names = [w["name"] for w in json.loads((WORKFLOW.parents[2] / "BENCHMARK.json").read_text())["workloads"]]
    assert re.search(r"for w in ([\w ]+); do", bench[0]).group(1).split() == names
    assert 'python3 perfbench/run.py --workload "$w" --seed 2 --seconds 1 --trace 0' in bench[0]
    assert """grep -F '"correct": true'""" in bench[0]


def test_tier1_workflow_runs_the_relation_battery_at_its_degree_cap():
    # the costliest verify-cp2-relations line the cap admits, which no test
    # runs; a step fails on a nonzero exit, so a failed check fails CI
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert f"PYTHONPATH=src python -m cp2q.cli verify-cp2-relations --max-deg {cli.MAX_DEG_GUARD}" in runs


def test_tier1_workflow_runs_the_cross_check_at_its_samples_cap():
    # the costliest q = 1 cross-check the cap admits, which no test runs; a
    # step fails on a nonzero exit, so a failed check fails CI
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert ("PYTHONPATH=src python -m cp2q.cli verify-cp2-relations --max-deg 3 "
            f"--samples {cli.CROSS_CHECK_SAMPLES_GUARD}") in runs


def test_tier1_workflow_runs_the_classical_battery_at_its_samples_cap():
    # the costliest classical-check the cap admits, which no test runs; a
    # step fails on a nonzero exit, so a failed check fails CI
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert (f"PYTHONPATH=src python -m cp2q.cli classical-check --samples {cli.CLASSICAL_SAMPLES_GUARD} "
            "--seed 1") in runs


def test_tier1_workflow_lists_the_line_bundle_basis_at_its_caps():
    # the largest line-bundle basis the caps admit, which no test lists;
    # a step fails on a nonzero exit
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert (f"PYTHONPATH=src python -m cp2q.cli decompose line_bundle --nmax {cli.DECOMPOSE_NMAX_GUARD} "
            f"--N {cli.DECOMPOSE_N_GUARD} --dump > /dev/null") in runs


def test_tier1_workflow_runs_the_complex_checks_where_the_values_grow_fastest():
    # q 0.3 at the --nmax cap, where the blocks' entries reach q^-8; no test
    # runs it in a fresh process, and a step fails on a nonzero exit
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert f"PYTHONPATH=src python -m cp2q.cli verify-complex --q 0.3 --nmax {cli.NMAX_GUARD}" in runs


def test_tier1_workflow_runs_the_hopf_relations_at_their_degree_cap():
    # the costliest verify-hopf line the cap admits, at the q where the
    # products grow fastest; no test runs it, and a step fails on a nonzero exit
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert f"PYTHONPATH=src python -m cp2q.cli verify-hopf --q 0.3 --total-degree {cli.TOTAL_DEGREE_GUARD}" in runs


def test_tier1_workflow_runs_the_casimir_checks_at_their_degree_cap():
    # the costliest verify-casimir line the cap admits, which no test runs; a
    # step fails on a nonzero exit (q 0.3 exits 1 on rounding at this degree)
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert f"PYTHONPATH=src python -m cp2q.cli verify-casimir --q 0.5 --total-degree {cli.TOTAL_DEGREE_GUARD}" in runs


def test_tier1_workflow_runs_the_lemma_identities_at_their_powers_cap():
    # [F2,F1]_q^n expands into 2^n words, so the --powers cap is the costliest
    # verify-gt line; no test runs it, and a step fails on a nonzero exit
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert f"PYTHONPATH=src python -m cp2q.cli verify-gt --q 0.5 --powers {cli.GT_POWERS_GUARD}" in runs
