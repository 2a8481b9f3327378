"""scripts/stdout_diff.py run against HEAD: the working tree's benchmark
commands must print what the committed tree prints."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "stdout_diff.py"


def _git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                          capture_output=True)
    return top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT and head.returncode == 0


@pytest.mark.skipif(not _git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_spectral_stdout_matches_head():
    # seed 1 of the spectral workload and of the forms workload (verify-complex)
    out = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "--workload", "spectral", "--workload", "forms",
                          "--seed", "1"], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "6 commands, 0 differ from HEAD"
