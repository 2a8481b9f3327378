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


CLI = "PYTHONPATH=src python -m cp2q.cli"

# (the step's command, why CI runs it)
CAP_STEPS = [
    pytest.param(f"{CLI} verify-cp2-relations --max-deg {cli.MAX_DEG_GUARD}",
                 "the costliest verify-cp2-relations line the cap admits, which no test runs; "
                 "a step fails on a nonzero exit, so a failed check fails CI",
                 id="relation-battery-max-deg-cap"),
    pytest.param(f"{CLI} verify-cp2-relations --max-deg 3 --samples {cli.CROSS_CHECK_SAMPLES_GUARD}",
                 "the costliest q = 1 cross-check the cap admits, which no test runs; a step fails "
                 "on a nonzero exit, so a failed check fails CI",
                 id="cross-check-samples-cap"),
    pytest.param(f"{CLI} classical-check --samples {cli.CLASSICAL_SAMPLES_GUARD} --seed 1",
                 "the costliest classical-check the cap admits, which no test runs; a step fails "
                 "on a nonzero exit, so a failed check fails CI",
                 id="classical-battery-samples-cap"),
    pytest.param(f"{CLI} decompose line_bundle --nmax {cli.DECOMPOSE_NMAX_GUARD} "
                 f"--N {cli.DECOMPOSE_N_GUARD} --dump > /dev/null",
                 "the largest line-bundle basis the caps admit, which no test lists; a step fails "
                 "on a nonzero exit",
                 id="line-bundle-basis-nmax-and-n-caps"),
    pytest.param(f"{CLI} decompose sphere --nmax {cli.DECOMPOSE_NMAX_GUARD} --dump > /dev/null",
                 "the sphere basis is the largest kind, about nmax^5 vectors; no test lists it at "
                 "the cap, and a step fails on a nonzero exit",
                 id="sphere-basis-nmax-cap"),
    pytest.param(f"{CLI} verify-complex --q 0.3 --nmax {cli.NMAX_GUARD}",
                 "q 0.3 at the --nmax cap, where the blocks' entries reach q^-8; no test runs it in a "
                 "fresh process, and a step fails on a nonzero exit",
                 id="complex-checks-nmax-cap-q03"),
    pytest.param(f"{CLI} verify-hopf --q 0.3 --total-degree {cli.TOTAL_DEGREE_GUARD}",
                 "the costliest verify-hopf line the cap admits, at the q where the products grow "
                 "fastest; no test runs it, and a step fails on a nonzero exit",
                 id="hopf-relations-total-degree-cap-q03"),
    pytest.param(f"{CLI} verify-casimir --q 0.5 --total-degree {cli.TOTAL_DEGREE_GUARD}",
                 "the costliest verify-casimir line the cap admits, which no test runs; a step fails "
                 "on a nonzero exit (q 0.3 exits 1 on rounding at this degree)",
                 id="casimir-checks-total-degree-cap"),
    pytest.param(f"{CLI} verify-gt --q 0.5 --powers {cli.GT_POWERS_GUARD}",
                 "[F2,F1]_q^n expands into 2^n words, so the --powers cap is the costliest verify-gt "
                 "line; no test runs it, and a step fails on a nonzero exit",
                 id="lemma-identities-powers-cap"),
]


@pytest.mark.parametrize("command,reason", CAP_STEPS)
def test_tier1_workflow_runs_a_cap_step(command, reason):
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert command in runs, reason


def test_tier1_workflow_runs_the_spectral_commands_at_both_ends_of_the_q_range():
    # spectrum, cohomology and summability at the --nmax cap, at the least and
    # the largest q a spectral command accepts; no test runs them there in a
    # fresh process, and the step fails on the first nonzero exit
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    (step,) = [s["run"] for s in steps if "$cmd" in s.get("run", "")]
    lo, hi = cli.SPECTRUM_Q_RANGE
    assert f"for q in {lo} {hi}; do" in step
    assert 'for cmd in spectrum cohomology "summability --eps 0.01 0.1 1 4"; do' in step
    assert f'{CLI} $cmd --q "$q" --nmax {cli.NMAX_GUARD} > /dev/null || exit 1' in step
