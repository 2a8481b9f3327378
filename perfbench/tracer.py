"""Run one cp2q command in this process with the package traced from outside.

    python3 perfbench/tracer.py SPANS_PATH ARGV_JSON [COMMAND_ID]

The public functions of each cp2q module are wrapped at every module
binding (so `irreps.qint` and `dirac.qint` are caught as well as
`qarith.qint`), then `cp2q.cli.main(argv)` runs with its stdout captured.
Every wrapped call is a span (name, start, end, parent, command id); self
time is a span's duration minus the time its child spans cover.  Counts
(argument sizes, cache sizes, residuals) are read at the same boundaries.
Spans stay in memory and are written to SPANS_PATH as JSON lines at exit;
the last stdout line is one JSON object with the captured report, the
exit code, per-span-name totals and the counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from types import ModuleType

SPAN_CAP = 200_000  # spans kept for the file; totals and counts are always exact


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [child_time, span_id]
        self.totals: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def wrap(self, name: str, fn, after=None, count: bool = True):
        """A wrapper timing `fn` as span `name`; `after(args, result)` reads
        counts once the span has closed.  `count=False` adds self time only,
        for a checked front end whose calls the raw function already counts."""
        totals = self.totals.setdefault(name, [0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                totals[0] += count
                totals[1] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], name, t0, t1, parent[1] if parent else 0))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(modules: list[ModuleType], original, replacement) -> None:
    """Replace every module-level binding of `original`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tr: Tracer) -> tuple[dict, list[str]]:
    """Wrap the layer boundaries; returns the probes read at exit and the
    names that were not found (a refactor renamed or removed them)."""
    import cp2q
    from cp2q import classical, cli, dirac, dolbeault, irreps, ncrewrite, peterweyl, qarith, ualg

    modules = [cp2q, qarith, irreps, ualg, peterweyl, dolbeault, dirac, ncrewrite, classical, cli]
    missing: list[str] = []

    def hook(mod, attr, name, after=None, count=True):
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{mod.__name__}.{attr}")
            return
        _rebind(modules, fn, tr.wrap(name, fn, after, count))

    def on_rows(args, result):
        tr.add("irreps.action_rows_built", len(result))

    def on_black(args, result):
        tr.add("peterweyl.black_act.coeffs_in", len(args[1]))
        tr.add("peterweyl.black_act.coeffs_out", len(result))

    def on_raw(args, result):
        tr.peak("dolbeault.max_offspace_residual", float(result[1]))

    def on_closed_form(args, result):
        tr.peak("dirac.max_rel_error", float(result["max_rel_error"]))

    def on_confluence(args, result):
        tr.add("ncrewrite.branching_words", result["branching_words"])

    hook(qarith, "qint", "qarith.qint")
    laurent = getattr(qarith, "LaurentScalar", None)
    if laurent is None:
        missing.append("cp2q.qarith.LaurentScalar")
    else:
        for attrs, name in ((("__mul__", "__rmul__"), "qarith.laurent_mul"),
                            (("__add__", "__radd__"), "qarith.laurent_add")):
            for attr in attrs:
                setattr(laurent, attr, tr.wrap(name, getattr(laurent, attr)))

    hook(irreps, "generator_action", "irreps.generator_action", on_rows)
    hook(irreps, "generator_matrix", "irreps.generator_matrix")
    hook(irreps, "verify_hopf_relations", "irreps.verify_hopf_relations")
    hook(ualg, "evaluate", "ualg.evaluate")
    hook(ualg, "verify_casimir_scalar", "ualg.verify_casimir_scalar")
    hook(ualg, "verify_coproduct_identity", "ualg.verify_coproduct_identity")
    hook(peterweyl, "black_act", "peterweyl.black_act", on_black)
    hook(peterweyl, "white_act", "peterweyl.white_act")
    hook(peterweyl, "verify_gt_lowering", "peterweyl.verify_gt_lowering")
    hook(dolbeault, "dbar_raw", "dolbeault.dbar", on_raw)
    hook(dolbeault, "dbar_dag_raw", "dolbeault.dbar", on_raw)
    hook(dolbeault, "dbar", "dolbeault.dbar", count=False)
    hook(dolbeault, "dbar_dag", "dolbeault.dbar", count=False)
    hook(dolbeault, "random_form", "dolbeault.random_form")
    hook(dolbeault, "inner_product", "dolbeault.inner_product")
    hook(dirac, "dirac_apply", "dirac.dirac_apply")
    hook(dirac, "spectrum", "dirac.spectrum")
    hook(dirac, "verify_spectrum_closed_form", "dirac.verify_spectrum_closed_form", on_closed_form)
    hook(dirac, "cohomology", "dirac.cohomology")
    hook(dirac, "summability_probe", "dirac.summability_probe")
    hook(ncrewrite, "monomial_normal_form", "ncrewrite.monomial_normal_form")
    hook(ncrewrite, "poly_add", "ncrewrite.poly_add")
    hook(ncrewrite, "confluence_check", "ncrewrite.confluence_check", on_confluence)
    hook(ncrewrite, "verify_cp2_relations", "ncrewrite.verify_cp2_relations")
    hook(ncrewrite, "classical_cross_check", "ncrewrite.classical_cross_check")
    hook(classical, "run_sample_battery", "classical.run_sample_battery")
    hook(classical, "dbar_local_check", "classical.dbar_local_check")
    hook(cli, "emit", "cli.emit")

    probes = {
        "irreps.matrix_cache.entries":
            lambda: len(getattr(getattr(irreps, "matrix_cache", None), "_data", ())),
        "ncrewrite.nf_cache_entries": lambda: len(getattr(ncrewrite, "_NF_CACHE", ())),
    }
    return probes, missing


def run(spans_path: str, argv: list[str], command_id: int = 0) -> dict:
    tr = Tracer()
    probes, missing = install(tr)
    from cp2q import cli

    nf_before = probes["ncrewrite.nf_cache_entries"]()
    main = tr.wrap("cli.main", cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    counts = dict(tr.counts)
    for key, probe in probes.items():
        counts[key] = probe()
    counts["ncrewrite.nf_cache_misses"] = counts["ncrewrite.nf_cache_entries"] - nf_before
    with open(spans_path, "w") as fh:
        for sid, name, t0, t1, parent in tr.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "command": command_id}) + "\n")
    return {"exit": code, "stdout": out.getvalue(), "totals": tr.totals,
            "counts": counts, "missing": missing, "spans_dropped": tr.dropped}


if __name__ == "__main__":
    spans_path, argv_json = sys.argv[1], sys.argv[2]
    command_id = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    result = run(spans_path, json.loads(argv_json), command_id)
    sys.stdout.write(json.dumps(result) + "\n")
