"""Benchmark for the cp2q command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --list

One driver process runs the workload's commands one at a time, each in a
fresh `python -m cp2q.cli` process, exactly as a user would (a closed
loop with one client).  The package is imported from `src/` of the
checkout this file sits in; nothing is installed.  Every report is
judged by the oracles in `oracles.py`.

--trace 0 measures the end-to-end metrics: set-up (a fresh interpreter
importing cp2q.cli, median of several), and per pass over the command
list its wall time, child CPU time and peak resident memory; passes repeat
while another fits in --seconds, and times are medians over passes.

--trace 1 runs one untraced pass and then the same commands again
under tracer.py, one fresh process per command, and reports the
per-layer metrics: call counts and self times at each module boundary,
cache and residual counts, the per-module import-time breakdown, the
source size of each module, and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Full records (environment, commands, per-pass
figures, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

MODULES = ("qarith", "irreps", "ualg", "peterweyl", "dolbeault", "dirac",
           "ncrewrite", "classical", "cli")
SETUP_SAMPLES = 5
# at least two passes, so no median rests on a single process of a
# one-launch workload (forms, exact) on a noisy shared host
MIN_PASSES = 2
IMPORTTIME_SAMPLES = 3
COMMAND_TIMEOUT_S = 100.0
# BLAS / OpenMP pools are pinned: the package's linear algebra is tiny and
# a single pinned thread keeps the one-client loop free of pool noise
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("CP2Q_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "executable": sys.executable}


def spawn(args: list[str], env: dict) -> dict:
    """Run one child to completion; wall time, rusage, exit code and stdout."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (OUT / "stderr.txt").read_text(errors="replace")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "stdout": out.decode(errors="replace"), "stderr": stderr}


def check_checkout(env: dict) -> None:
    """Fail unless cp2q imports from this checkout's src/.  The import also
    fills the bytecode cache, as the first launch does for every user."""
    if not (SRC / "cp2q" / "cli.py").is_file():
        raise Fatal(f"no cp2q sources under {SRC}")
    probe = spawn(["-c", "import cp2q.cli, sys; sys.stdout.write(cp2q.cli.__file__)"], env)
    origin = Path(probe["stdout"]).resolve() if probe["exit"] == 0 else None
    if origin is None or SRC not in origin.parents:
        raise Fatal(f"cp2q does not import from {SRC}: {probe['stderr'] or probe['stdout']}")


def measure_setup(env: dict) -> list[float]:
    """Fresh-interpreter `import cp2q.cli` times."""
    times = []
    for _ in range(SETUP_SAMPLES):
        r = spawn(["-c", "import cp2q.cli"], env)
        if r["exit"] != 0:
            raise Fatal(f"import cp2q.cli failed: {r['stderr']}")
        times.append(r["wall_s"])
    return times


def run_pass(cmds: list[list[str]], env: dict, failures: list) -> dict:
    runs = []
    for argv in cmds:
        r = spawn(["-m", "cp2q.cli", *argv], env)
        judge(argv, r["exit"], r["stdout"], r["stderr"], failures)
        runs.append({k: r[k] for k in ("wall_s", "cpu_s", "rss_mb")})
    return {"wall_s": sum(r["wall_s"] for r in runs), "cpu_s": sum(r["cpu_s"] for r in runs),
            "peak_rss_mb": max(r["rss_mb"] for r in runs), "commands": runs}


def judge(argv, code, stdout, stderr, failures) -> None:
    reasons = oracles.judge(argv, code, stdout)
    if reasons:
        failures.append({"argv": argv, "reasons": reasons, "stderr": stderr[-500:]})
        print(f"FAILED {argv[0]}: {'; '.join(reasons[:3])}", file=sys.stderr)


def untraced(cmds, env, seconds: float, failures: list) -> tuple[dict, dict]:
    setup = measure_setup(env)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cmds, env, failures))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    return metrics, {"setup_samples": setup, "passes": passes}


# -- traced run -------------------------------------------------------------------

SUMMED_COUNTS = ("irreps.action_rows_built", "peterweyl.black_act.coeffs_in",
                 "peterweyl.black_act.coeffs_out", "ncrewrite.branching_words",
                 "ncrewrite.nf_cache_misses")
PEAK_COUNTS = ("dolbeault.max_offspace_residual", "dirac.max_rel_error",
               "irreps.matrix_cache.entries", "ncrewrite.nf_cache_entries")
SPAN_METRICS = {
    "qarith.qint": ("calls", "self_s"),
    "qarith.laurent_mul": ("calls", "self_s"),
    "qarith.laurent_add": ("calls", "self_s"),
    "irreps.generator_action": ("calls", "self_s"),
    "irreps.generator_matrix": ("calls", "self_s"),
    "irreps.verify_hopf_relations": ("self_s",),
    "ualg.evaluate": ("calls", "self_s"),
    "ualg.verify_casimir_scalar": ("self_s",),
    "ualg.verify_coproduct_identity": ("self_s",),
    "peterweyl.black_act": ("calls", "self_s"),
    "peterweyl.white_act": ("calls", "self_s"),
    "peterweyl.verify_gt_lowering": ("self_s",),
    "dolbeault.dbar": ("calls", "self_s"),
    "dolbeault.random_form": ("calls", "self_s"),
    "dolbeault.inner_product": ("calls", "self_s"),
    "dirac.dirac_apply": ("calls", "self_s"),
    "dirac.spectrum": ("self_s",),
    "dirac.cohomology": ("self_s",),
    "dirac.summability_probe": ("self_s",),
    "ncrewrite.monomial_normal_form": ("calls", "self_s"),
    "ncrewrite.poly_add": ("calls", "self_s"),
    "ncrewrite.confluence_check": ("self_s",),
    "ncrewrite.verify_cp2_relations": ("self_s",),
    "ncrewrite.classical_cross_check": ("self_s",),
    "classical.run_sample_battery": ("self_s",),
    "classical.dbar_local_check": ("calls", "self_s"),
    "cli.emit": ("self_s",),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    units.update({k: "count" for k in SUMMED_COUNTS})
    units.update({k: "count" for k in PEAK_COUNTS})
    units["dolbeault.max_offspace_residual"] = "abs"
    units["dirac.max_rel_error"] = "ratio"
    units["irreps.row_yield"] = "ratio"
    units["ncrewrite.nf_hit_ratio"] = "ratio"
    for mod in MODULES:
        units[f"{mod}.import_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.sloc"] = "lines"
    units["trace.overhead"] = "ratio"
    return units


def import_breakdown(env: dict) -> dict:
    """Cumulative import time of each cp2q module, median of a few
    `python -X importtime -c "import cp2q.cli"` runs."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        r = spawn(["-X", "importtime", "-c", "import cp2q.cli"], env)
        seen = {}
        for line in r["stderr"].splitlines() if r["exit"] == 0 else ():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("cp2q."):
                seen[parts[2].strip()[5:]] = int(parts[1]) / 1e6
        for m in MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def sloc(path: Path) -> int:
    """Lines that are neither blank nor a comment."""
    if not path.is_file():
        return 0
    lines = path.read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def traced(cmds, env, workload: str, failures: list) -> tuple[dict, dict]:
    plain = run_pass(cmds, env, failures)
    totals: dict[str, list] = {}
    counts = {k: 0.0 for k in SUMMED_COUNTS + PEAK_COUNTS}
    wall = 0.0
    dropped = 0
    missing: set[str] = set()
    for i, argv in enumerate(cmds):
        spans = OUT / f"spans-{workload}-{i}.jsonl"
        r = spawn([str(HERE / "tracer.py"), str(spans), json.dumps(argv), str(i)], env)
        wall += r["wall_s"]
        try:
            res = json.loads(r["stdout"].splitlines()[-1])
        except (IndexError, ValueError):
            judge(argv, r["exit"] or 1, "", r["stderr"], failures)
            continue
        judge(argv, res["exit"], res["stdout"], r["stderr"], failures)
        missing.update(res["missing"])
        dropped += res["spans_dropped"]
        for name, (calls, self_s) in res["totals"].items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for k in SUMMED_COUNTS:
            counts[k] += res["counts"].get(k, 0)
        for k in PEAK_COUNTS:
            counts[k] = max(counts[k], res["counts"].get(k, 0))
    if missing:
        print(f"not traced (absent from cp2q): {', '.join(sorted(missing))}", file=sys.stderr)

    metrics: dict[str, float] = {}
    for span, kinds in SPAN_METRICS.items():
        calls, self_s = totals.get(span, (0, 0.0))
        for kind in kinds:
            metrics[f"{span}.{kind}"] = calls if kind == "calls" else self_s
    metrics.update(counts)
    rows = counts["irreps.action_rows_built"]
    metrics["irreps.row_yield"] = counts["peterweyl.black_act.coeffs_in"] / rows if rows else 0.0
    nf_calls = metrics["ncrewrite.monomial_normal_form.calls"]
    nf_misses = counts["ncrewrite.nf_cache_misses"]
    metrics["ncrewrite.nf_hit_ratio"] = (nf_calls - nf_misses) / nf_calls if nf_calls else 0.0
    for mod, t in import_breakdown(env).items():
        metrics[f"{mod}.import_s"] = t
    for mod in MODULES:
        metrics[f"{mod}.sloc"] = sloc(SRC / "cp2q" / f"{mod}.py")
    metrics["trace.overhead"] = wall / plain["wall_s"]
    return metrics, {"untraced_pass": plain, "traced_wall_s": wall,
                     "span_totals": totals, "spans_not_written": dropped,
                     "not_traced": sorted(missing)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print the generated command lines and exit")
    args = ap.parse_args(argv)

    cmds = workloads.commands(args.workload, args.seed)
    if args.list:
        for c in cmds:
            print(json.dumps(["cp2q", *c]))
        return 0
    env = child_env()
    try:
        check_checkout(env)
        failures: list = []
        if args.trace:
            metrics, detail = traced(cmds, env, args.workload, failures)
            units = per_layer_units()
            attempted = 2 * len(cmds)
        else:
            metrics, detail = untraced(cmds, env, args.seconds, failures)
            units = END_TO_END_UNITS
            attempted = len(cmds) * len(detail["passes"])
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": info, "commands": cmds,
              "metrics": metrics, "failures": failures, "detail": detail}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"environment": info}))
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
