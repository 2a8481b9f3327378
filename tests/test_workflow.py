from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_runs_the_suite_and_the_benchmark_selftest():
    yaml = pytest.importorskip("yaml")
    spec = yaml.safe_load(WORKFLOW.read_text())
    assert set(spec["on"]) == {"push", "pull_request"}
    steps = spec["jobs"]["tier1"]["steps"]
    assert any(s.get("with", {}).get("python-version") == "3.11" for s in steps)
    runs = [s["run"] for s in steps if "run" in s]
    # without pyyaml installed, this very test would skip in CI, and without
    # scipy the oracle of the eigendecomposition exponential would
    install = next(r for r in runs if "pip install" in r)
    assert {"pytest", "hypothesis", "pyyaml", "mpmath", "scipy"} <= set(install.split())
    assert "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors" in runs
    assert "python3 perfbench/selftest.py" in runs
