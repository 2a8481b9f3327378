"""scripts/stdout_diff.py run against HEAD: the working tree's benchmark
commands must print what the committed tree prints."""

import os
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
    # seed 1 of all four workloads: the spectral commands, the forms
    # workload's verify-complex, the exact path and the identity battery
    out = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "--seed", "1"], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "15 commands, 0 differ from HEAD"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_new_stderr_output_counts_as_a_difference(tmp_path):
    # a committed tree, then a working tree that warns on stderr at import
    # but prints the same stdout and exits alike
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    for git in (["init", "-q"], ["add", "-A"],
                ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base"]):
        subprocess.run(["git", *git], cwd=tmp_path, env=env, check=True, capture_output=True)
    init = tmp_path / "src" / "cp2q" / "__init__.py"
    init.write_text(init.read_text() + "\nimport sys\nsys.stderr.write('warning\\n')\n")
    out = subprocess.run([sys.executable, str(tmp_path / "scripts" / "stdout_diff.py"), "HEAD",
                          "--workload", "--cmd", "spectrum --nmax 1", "--cmd", "rewrite z1"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1, out.stdout + out.stderr
    assert out.stdout.splitlines() == ["differs (stderr): cp2q spectrum --nmax 1",
                                       "differs (stderr): cp2q rewrite z1",
                                       "2 commands, 2 differ from HEAD"]
