"""Command-line entry point: verification suites, spectrum computation,
rewriting queries and subspace decompositions.

Every subcommand emits a deterministic report (json, csv or table); exit
code 0 means every check passed, 1 is a verification failure, 2 a usage
or configuration error.  Reports are byte-identical across runs for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classical, dirac, dolbeault, irreps, ncrewrite, peterweyl, ualg
from .qarith import QParam

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2

SPECTRUM_Q_RANGE = (0.3, 0.95)
NMAX_GUARD = 8


class ConfigError(ValueError):
    pass


def _qparam(args) -> QParam:
    text = str(args.q)
    try:
        from fractions import Fraction

        q = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse q: {args.q!r}") from exc
    if not (0.0 < q < 1.0):
        raise ConfigError(f"q must lie strictly inside (0,1), got {q}")
    return QParam("float", q)


def _spectrum_guard(args, q: float) -> None:
    lo, hi = SPECTRUM_Q_RANGE
    if not (lo <= q <= hi):
        raise ConfigError(f"spectrum commands accept q in [{lo}, {hi}], got {q}")
    if args.nmax > NMAX_GUARD:
        raise ConfigError(f"nmax is capped at {NMAX_GUARD}, got {args.nmax}")


# -- output ------------------------------------------------------------------

def emit(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True, indent=2, default=_jsonable))
        stream.write("\n")
    elif fmt == "csv":
        rows = report.get("rows", [])
        if rows:
            cols = sorted(rows[0])
            stream.write(",".join(cols) + "\n")
            for r in rows:
                stream.write(",".join(str(r[c]) for c in cols) + "\n")
        else:
            stream.write("key,value\n")
            for k in sorted(report):
                if not isinstance(report[k], (list, dict)):
                    stream.write(f"{k},{report[k]}\n")
    else:  # table
        _emit_table(report, stream)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_table(report: dict, stream) -> None:
    rows = report.get("rows")
    for k in sorted(report):
        if k != "rows" and not isinstance(report[k], (list, dict)):
            stream.write(f"{k}: {report[k]}\n")
    if rows:
        cols = sorted(rows[0])
        widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in cols}
        stream.write("  ".join(c.ljust(widths[c]) for c in cols) + "\n")
        for r in rows:
            stream.write("  ".join(str(r[c]).ljust(widths[c]) for c in cols) + "\n")


# -- subcommands ----------------------------------------------------------------

def cmd_verify_hopf(args) -> tuple[int, dict]:
    p = _qparam(args)
    labels = irreps.labels_up_to(args.total_degree)
    worst = 0.0
    failed = []
    for label in labels:
        rep = irreps.verify_hopf_relations(label, p, args.tol)
        worst = max(worst, rep["max_residual"])
        if not rep["passed"]:
            failed.append(rep)
    report = {
        "command": "verify-hopf", "q": p.q, "tol": args.tol,
        "labels": len(labels), "max_residual": worst,
        "failures": failed, "passed": not failed,
    }
    return (EXIT_OK if not failed else EXIT_VERIFICATION_FAILED), report


def cmd_verify_casimir(args) -> tuple[int, dict]:
    p = _qparam(args)
    labels = irreps.labels_up_to(args.total_degree)
    rows = []
    ok = True
    for label in labels:
        rep = ualg.verify_casimir_scalar(label, p, args.tol)
        ok = ok and rep["passed"]
        rows.append({
            "label": f"({label.n1},{label.n2})", "scalar": rep["scalar"],
            "off_scalar": rep["off_scalar_residual"],
            "commutator": rep["commutator_residual"], "passed": rep["passed"],
        })
    report = {"command": "verify-casimir", "q": p.q, "tol": args.tol,
              "rows": rows, "passed": ok}
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def cmd_verify_gt(args) -> tuple[int, dict]:
    p = _qparam(args)
    ok = True
    rows = []
    for label in irreps.labels_up_to(args.total_degree):
        rep = peterweyl.verify_gt_lowering(label, p, args.tol)
        ok = ok and rep["passed"]
        rows.append({"label": f"({label.n1},{label.n2})",
                     "max_residual": rep["max_residual"], "passed": rep["passed"]})
    comm = peterweyl.verify_lemma_commutators((1, 1), args.powers, p)
    ok = ok and comm["passed"]
    report = {"command": "verify-gt", "q": p.q, "tol": args.tol, "rows": rows,
              "commutator_identities": comm["passed"],
              "commutator_residual": comm["max_residual"], "passed": ok}
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def cmd_verify_coproduct(args) -> tuple[int, dict]:
    p = _qparam(args)
    rep = ualg.verify_coproduct_identity(p, args.tol)
    rep["command"] = "verify-coproduct"
    return (EXIT_OK if rep["passed"] else EXIT_VERIFICATION_FAILED), rep


def cmd_verify_complex(args) -> tuple[int, dict]:
    p = _qparam(args)
    comp = dolbeault.verify_complex(args.nmax, p, args.tol)
    equi = dolbeault.verify_equivariance(args.nmax, p, args.tol)
    ok = comp["passed"] and equi["passed"]
    report = {"command": "verify-complex", "q": p.q, "nmax": args.nmax,
              "tol": args.tol, "complex": comp, "equivariance": equi, "passed": ok}
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def cmd_spectrum(args) -> tuple[int, dict]:
    p = _qparam(args)
    _spectrum_guard(args, p.q)
    cfg = dirac.DiracConfig(p=p, nmax=args.nmax, tol=args.tol)
    table = dirac.spectrum(cfg)
    check = dirac.verify_spectrum_closed_form(table, p)
    report = table.to_dict()
    report["command"] = "spectrum"
    report["closed_form_check"] = {"passed": check["passed"],
                                   "max_rel_error": check["max_rel_error"]}
    report["passed"] = check["passed"]
    return (EXIT_OK if check["passed"] else EXIT_VERIFICATION_FAILED), report


def cmd_cohomology(args) -> tuple[int, dict]:
    p = _qparam(args)
    _spectrum_guard(args, p.q)
    cfg = dirac.DiracConfig(p=p, nmax=args.nmax, tol=args.tol)
    rep = dirac.cohomology(cfg)
    rep["command"] = "cohomology"
    return (EXIT_OK if rep["passed"] else EXIT_VERIFICATION_FAILED), rep


def cmd_summability(args) -> tuple[int, dict]:
    p = _qparam(args)
    _spectrum_guard(args, p.q)
    cfg = dirac.DiracConfig(p=p, nmax=args.nmax, tol=args.tol)
    rep = dirac.summability_probe(cfg, args.eps)
    rep["command"] = "summability"
    ok = all(sh["factors_decrease_geometrically"] for sh in rep["shells"])
    rep["passed"] = ok
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), rep


def cmd_rewrite(args) -> tuple[int, dict]:
    f = ncrewrite.poly_from_string(args.expr)
    nf = ncrewrite.normal_form(f)
    report = {
        "command": "rewrite", "input": args.expr,
        "normal_form": ncrewrite.poly_to_str(nf),
        "is_zero": not nf,
        "grades": sorted({ncrewrite.grade(m) for m in nf}),
    }
    return EXIT_OK, report


def cmd_verify_cp2_relations(args) -> tuple[int, dict]:
    rep = ncrewrite.verify_cp2_relations()
    conf = ncrewrite.confluence_check(args.max_deg)
    pairs = ncrewrite.critical_pairs()
    cross = ncrewrite.classical_cross_check(args.samples)
    ok = rep["passed"] and conf["passed"] and pairs["passed"] and cross["passed"]
    report = {"command": "verify-cp2-relations",
              "relations": rep["count"], "relations_passed": rep["passed"],
              "confluence_passed": conf["passed"],
              "branching_words": conf["branching_words"],
              "critical_pairs": pairs["overlaps"],
              "classical_max_error": cross["max_abs_error"],
              "classical_passed": cross["passed"], "passed": ok}
    if not rep["passed"]:
        report["failed_relations"] = [r for r in rep["relations"] if not r["passed"]]
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def cmd_classical_check(args) -> tuple[int, dict]:
    battery = classical.run_sample_battery(args.samples, args.seed, args.tol)
    reps = classical.classical_rep_check()
    local_rows = []
    ok = battery["passed"] and reps["passed"]
    for seed in range(args.seed, args.seed + 3):
        g = classical.sample_su3(seed + 100)
        for chart in classical.active_charts(g[2, :]):
            for (i, j) in ((1, 1), (1, 2)):
                rep = classical.dbar_local_check(classical.p_entry(i, j), g, chart)
                ok = ok and rep["passed"]
                local_rows.append({"seed": seed + 100, "chart": chart,
                                   "observable": f"p{i}{j}",
                                   "residual": rep["residual"],
                                   "passed": rep["passed"]})
    report = {"command": "classical-check", "samples": args.samples,
              "seed": args.seed, "battery": battery["residuals"],
              "serre_relations_passed": reps["passed"],
              "rows": local_rows, "passed": ok}
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def cmd_decompose(args) -> tuple[int, dict]:
    spec = peterweyl.SubspaceSpec(args.kind, args.nmax, args.N)
    basis = peterweyl.subspace_basis(spec)
    rows = []
    if args.kind == "form1_doublet":
        labels = sorted({(v[0].n1, v[0].n2) for v in basis})
        for lbl in labels:
            count = sum(1 for v in basis if (v[0].n1, v[0].n2) == lbl)
            rows.append({"irrep": f"({lbl[0]},{lbl[1]})", "dim": count})
    else:
        labels = sorted({(v.n1, v.n2) for v in basis})
        for lbl in labels:
            count = sum(1 for v in basis if (v.n1, v.n2) == lbl)
            rows.append({"irrep": f"({lbl[0]},{lbl[1]})", "dim": count})
    report = {"command": "decompose", "kind": args.kind, "nmax": args.nmax,
              "N": args.N, "total": len(basis), "rows": rows, "passed": True}
    if args.dump:
        report["basis"] = peterweyl.basis_dump_lines(spec)
    return EXIT_OK, report


def cmd_evaluate(args) -> tuple[int, dict]:
    p = _qparam(args)
    elem = ualg.element_from_string(args.expr, p)
    label = irreps.IrrepLabel(args.n1, args.n2)
    mat = ualg.evaluate(elem, label, p)
    report = {"command": "evaluate", "q": p.q, "expr": args.expr,
              "label": [label.n1, label.n2],
              "matrix": [[float(x) for x in row] for row in mat],
              "passed": True}
    return EXIT_OK, report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cp2q",
        description="verification and computation engine for the spectral "
                    "geometry of the quantum projective plane",
    )
    ap.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **defaults):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if "q" in defaults:
            sp.add_argument("--q", default=defaults["q"])
        if "tol" in defaults:
            sp.add_argument("--tol", type=float, default=defaults["tol"])
        if "nmax" in defaults:
            sp.add_argument("--nmax", type=int, default=defaults["nmax"])
        return sp

    sp = add("verify-hopf", cmd_verify_hopf, q="0.5", tol=1e-11)
    sp.add_argument("--total-degree", type=int, default=6)
    sp = add("verify-casimir", cmd_verify_casimir, q="0.5", tol=1e-10)
    sp.add_argument("--total-degree", type=int, default=4)
    sp = add("verify-gt", cmd_verify_gt, q="0.5", tol=1e-9)
    sp.add_argument("--total-degree", type=int, default=4)
    sp.add_argument("--powers", type=int, default=3)
    add("verify-coproduct", cmd_verify_coproduct, q="0.5", tol=1e-12)
    add("verify-complex", cmd_verify_complex, q="0.5", tol=1e-10, nmax=3)
    add("spectrum", cmd_spectrum, q="0.5", tol=1e-9, nmax=5)
    add("cohomology", cmd_cohomology, q="0.5", tol=1e-10, nmax=3)
    sp = add("summability", cmd_summability, q="0.5", tol=1e-10, nmax=8)
    sp.add_argument("--eps", type=float, nargs="+", default=[0.1, 1.0, 4.0])
    sp = sub.add_parser("rewrite")
    sp.set_defaults(fn=cmd_rewrite)
    sp.add_argument("expr")
    sp = sub.add_parser("verify-cp2-relations")
    sp.set_defaults(fn=cmd_verify_cp2_relations)
    sp.add_argument("--max-deg", type=int, default=4)
    sp.add_argument("--samples", type=int, default=100)
    sp = sub.add_parser("classical-check")
    sp.set_defaults(fn=cmd_classical_check)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp = sub.add_parser("decompose")
    sp.set_defaults(fn=cmd_decompose)
    sp.add_argument("kind", choices=("sphere", "cp2", "line_bundle", "form1_doublet"))
    sp.add_argument("--nmax", type=int, default=3)
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--dump", action="store_true")
    sp = sub.add_parser("evaluate")
    sp.set_defaults(fn=cmd_evaluate)
    sp.add_argument("expr")
    sp.add_argument("--q", default="0.5")
    sp.add_argument("--n1", type=int, default=1)
    sp.add_argument("--n2", type=int, default=1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code, report = args.fn(args)
    except (ConfigError, ValueError) as exc:
        report = {"error": str(exc), "passed": False}
        emit(report, args.format)
        return EXIT_CONFIG_ERROR
    emit(report, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
