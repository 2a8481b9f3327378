"""The per-layer tracer in perfbench/ wraps cp2q functions by name; a name it
cannot find is reported as missing.  These runs catch the deletion or
renaming of any hooked name, on one command of the numeric path and one of
the exact path.

Three hooked names are gone on purpose.  The Laurent scalar class moved from
cp2q.qarith to the tests' ring oracle (tests/laurent.py), and the engine
prints its coefficients without it.  Its laurent_* spans read 0 before the
move, since the engine called only its constructor and repr.  The numpy
generator adapters irreps.generator_action and irreps.generator_matrix were
deleted, since no command called them: their spans read 0 on every
workload, and the tests scatter irreps.action_columns themselves.  The
tracer lists them as not traced until their hooks are dropped."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REMOVED_ON_PURPOSE = ["cp2q.qarith.LaurentScalar", "cp2q.irreps.generator_action",
                      "cp2q.irreps.generator_matrix"]


@pytest.mark.parametrize("argv", [["spectrum", "--q", "0.5", "--nmax", "1"], ["rewrite", "p12 p21"]],
                         ids=lambda a: a[0])
def test_tracer_finds_every_hooked_name(tmp_path, argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["missing"] == REMOVED_ON_PURPOSE
    assert spans.stat().st_size > 0
