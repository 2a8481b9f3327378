"""Compare the cp2q command line's stdout, exit codes and stderr with a git revision.

    python3 scripts/stdout_diff.py REV [--workload W ...] [--seed N ...] [--cmd ARGS ...]

The commands are every `perfbench/run.py --list` command of the chosen
workloads (all four by default) at the chosen seeds (1 and 2 by default),
listed by this checkout's benchmark, plus each --cmd, a shell-quoted cp2q
argument string such as "verify-gt --q 0.3 --total-degree 7" (a bare
--workload runs the --cmd commands alone).  --workload and --seed may
repeat, and their values add up.  The committed files of REV
are exported into a temporary directory with `git archive`, so the
repository gains no worktree entry, and each command runs in a fresh
`python -m cp2q.cli` under REV's `src/` and under this checkout's `src/`.

Exit 0 when every command prints the same bytes and exits with the same
code on both sides, and writes nothing to stderr on this checkout where it
wrote nothing at REV (a new traceback or warning); 1 when any differs
(each such command is named on stdout), 2 when REV cannot be exported.
Stderr text is not compared byte for byte, as a traceback names the tree
it ran from.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectral", "forms", "exact", "battery")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def listed(workload: str, seed: int) -> list[list[str]]:
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--list"], capture_output=True, text=True, check=True)
    return [json.loads(line)[1:] for line in out.stdout.splitlines()]


def export(rev: str, dest: Path) -> None:
    """Write the committed files of rev under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, capture_output=True, check=True)


def run(tree: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({"PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"})
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-m", "cp2q.cli", *argv], capture_output=True,
                         env=env, cwd=tree)
    return out.returncode, out.stdout, out.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workload", nargs="*", action="extend", choices=WORKLOADS)
    ap.add_argument("--seed", nargs="*", action="extend", type=int)
    ap.add_argument("--cmd", action="append", default=[],
                    help="an extra cp2q argument string; may repeat")
    args = ap.parse_args(argv)

    workloads = WORKLOADS if args.workload is None else args.workload
    seeds = (1, 2) if args.seed is None else args.seed
    commands = [c for w in workloads for s in seeds for c in listed(w, s)]
    commands += [shlex.split(c) for c in args.cmd]
    with tempfile.TemporaryDirectory(prefix="cp2q-stdout-diff-") as tmp:
        try:
            export(args.rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"stdout_diff: cannot export {args.rev}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        differ = 0
        for cmd in commands:
            (old_code, old_out, old_err), (new_code, new_out, new_err) = run(Path(tmp), cmd), run(ROOT, cmd)
            what = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
            what += ["stdout"] if old_out != new_out else []
            what += ["stderr"] if new_err and not old_err else []
            if what:
                differ += 1
                print(f"differs ({', '.join(what)}): cp2q {shlex.join(cmd)}")
    print(f"{len(commands)} commands, {differ} differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
