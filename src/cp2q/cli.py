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
import math
import os
import sys
from collections import Counter

# only qarith loads at import; each command imports the modules it runs
# on when it runs, so ncrewrite loads only with a rewriting command; no
# command loads numpy
from .qarith import QParam, VerificationError

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2

SPECTRUM_Q_RANGE = (0.3, 0.95)
NMAX_GUARD = 8
# caps on unbounded work; each is declared with its flag's least value
# beside the flag in build_parser, and main refuses a value outside them
# before the command runs; their measured time and memory are in the README's
# cost table ("Caps on unbounded work"), the one place that keeps the numbers:
# evaluate prints a dense dim x dim matrix, held as sparse columns (memory and
# output grow with dim^2); verify-cp2-relations walks all 6^d words of each
# degree d (time and memory grow several-fold per degree), and its q = 1
# cross-check sums both sides of each relation at one point at a time;
# classical-check draws, factors and checks one sample at a time in plain
# Python, so its time grows linearly in --samples; verify-hopf and
# verify-casimir hold one irrep's action columns at a time, so time, not
# memory, sets their cap; verify-gt applies each lowering word to one vector,
# and its --powers identities expand [F2,F1]_q^n into 2^n words; decompose
# lists every basis vector up to --nmax (the sphere basis, the largest kind at
# N = 0, grows about nmax^5), and a line bundle's basis holds V(n, n + |N|)
# for each n, about N^2 vectors per label: the |N| cap keeps it at nmax 12
# below the sphere's
EVALUATE_DIM_GUARD = 1000
MAX_DEG_GUARD = 7
CROSS_CHECK_SAMPLES_GUARD = 10_000
CLASSICAL_SAMPLES_GUARD = 10_000
TOTAL_DEGREE_GUARD = 12
GT_TOTAL_DEGREE_GUARD = 9
GT_POWERS_GUARD = 12
DECOMPOSE_NMAX_GUARD = 12
DECOMPOSE_N_GUARD = 26


class ConfigError(ValueError):
    pass


def _qparam(args) -> QParam:
    text = str(args.q)
    try:
        if "/" in text:
            from fractions import Fraction

            q = float(Fraction(text))
        else:
            q = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse q: {args.q!r}") from exc
    if not (0.0 < q < 1.0):
        raise ConfigError(f"q must lie strictly inside (0,1), got {q}")
    return QParam(q)


def _at_most(value: int, high: int | None, flag: str) -> None:
    """Reject a size whose measured cost is out of desk scale (None: no cap)."""
    if high is not None and value > high:
        raise ConfigError(f"{flag} is capped at {high}, got {value}")


def _finite_positive(value: float, flag: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{flag} must be finite and > 0, got {value}")


def _tol_guard(args) -> None:
    """Reject a tolerance no residual can be judged against: zero or below
    fails every check, and NaN or infinity decides them all the same way."""
    tol = getattr(args, "tol", None)
    if tol is not None:
        _finite_positive(tol, "--tol")


def _parsed(parse, *args):
    """Run a grammar parser on command-line text; a parse error is a usage
    error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _spectrum_config(args):
    """A spectral command's Dirac configuration, q inside SPECTRUM_Q_RANGE."""
    from . import dirac

    p = _qparam(args)
    lo, hi = SPECTRUM_Q_RANGE
    if not (lo <= p.q <= hi):
        raise ConfigError(f"spectrum commands accept q in [{lo}, {hi}], got {p.q}")
    return dirac.DiracConfig(p=p, nmax=args.nmax, tol=args.tol)


# -- output ------------------------------------------------------------------

def emit(report: dict, fmt: str) -> None:
    stream = sys.stdout
    if fmt == "json":
        # written piece by piece, so the report is never held as one string
        json.dump(report, stream, sort_keys=True, indent=2)
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

def cmd_verify_hopf(args) -> dict:
    from . import irreps

    p = _qparam(args)
    labels = irreps.labels_up_to(args.total_degree)
    worst = 0.0
    failed = []
    for label in labels:
        rep = irreps.verify_hopf_relations(label, p, args.tol)
        worst = max(worst, rep["max_residual"])
        if not rep["passed"]:
            failed.append(rep)
    return {
        "q": p.q, "tol": args.tol,
        "labels": len(labels), "max_residual": worst,
        "failures": failed, "passed": not failed,
    }


def cmd_verify_casimir(args) -> dict:
    from . import irreps, ualg

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
    return {"q": p.q, "tol": args.tol, "rows": rows, "passed": ok}


def cmd_verify_gt(args) -> dict:
    from . import irreps, peterweyl

    p = _qparam(args)
    ok = True
    rows = []
    # the commutator identities are checked on V(1,1) and share its columns
    # with its lowering check; every other label's are dropped after its check
    comm_label, comm_mats = (1, 1), irreps.action_columns((1, 1), p)
    for label in irreps.labels_up_to(args.total_degree):
        rep = peterweyl.verify_gt_lowering(label, p, args.tol,
                                           comm_mats if label == comm_label else None)
        ok = ok and rep["passed"]
        rows.append({"label": f"({label.n1},{label.n2})",
                     "max_residual": rep["max_residual"], "passed": rep["passed"]})
    comm = peterweyl.verify_lemma_commutators(comm_label, args.powers, p, mats=comm_mats)
    ok = ok and comm["passed"]
    return {"q": p.q, "tol": args.tol, "rows": rows,
            "commutator_identities": comm["passed"],
            "commutator_residual": comm["max_residual"], "passed": ok}


def cmd_verify_coproduct(args) -> dict:
    from . import ualg

    p = _qparam(args)
    return ualg.verify_coproduct_identity(p, args.tol)


def cmd_verify_complex(args) -> dict:
    from . import dolbeault

    p = _qparam(args)
    comp = dolbeault.verify_complex(args.nmax, p, args.tol)
    equi = dolbeault.verify_equivariance(args.nmax, p, args.tol)
    return {"q": p.q, "nmax": args.nmax, "tol": args.tol,
            "complex": comp, "equivariance": equi, "passed": comp["passed"] and equi["passed"]}


def cmd_spectrum(args) -> dict:
    from . import dirac

    cfg = _spectrum_config(args)
    table = dirac.spectrum(cfg)
    check = dirac.verify_spectrum_closed_form(table, cfg.p)
    report = table.to_dict()
    report["closed_form_check"] = {"passed": check["passed"],
                                   "max_rel_error": check["max_rel_error"]}
    report["passed"] = check["passed"]
    return report


def cmd_cohomology(args) -> dict:
    from . import dirac

    return dirac.cohomology(_spectrum_config(args))


def cmd_summability(args) -> dict:
    from . import dirac

    cfg = _spectrum_config(args)
    for eps in args.eps:  # 0+ summability is a claim about each finite eps > 0
        _finite_positive(eps, "--eps")
    try:
        rep = dirac.summability_probe(cfg, args.eps)
    except FloatingPointError as exc:  # a factor whose decay ratios would be rounding
        raise ConfigError(f"--eps {max(args.eps)} is too large at q = {cfg.p.q}: the factor (1 + lambda^2)"
                          f"^(-eps/2) of a shell up to --nmax {args.nmax} is 0.0 or subnormal") from exc
    rep["passed"] = all(sh["factors_decrease_geometrically"] for sh in rep["shells"])
    return rep


def cmd_rewrite(args) -> dict:
    from . import ncrewrite

    f = _parsed(ncrewrite.poly_from_string, args.expr)
    nf = ncrewrite.normal_form(f)
    return {
        "input": args.expr,
        "normal_form": ncrewrite.poly_to_str(nf),
        "is_zero": not nf,
        "grades": sorted({ncrewrite.grade(w) for w, _ in nf}),
    }


def cmd_verify_cp2_relations(args) -> dict:
    from . import ncrewrite

    rep = ncrewrite.verify_cp2_relations()
    conf = ncrewrite.confluence_check(args.max_deg)
    pairs = ncrewrite.critical_pairs()
    cross = ncrewrite.classical_cross_check(args.samples)
    ok = rep["passed"] and conf["passed"] and pairs["passed"] and cross["passed"]
    report = {"relations": rep["count"], "relations_passed": rep["passed"],
              "confluence_passed": conf["passed"],
              "branching_words": conf["branching_words"],
              "critical_pairs": pairs["overlaps"],
              "classical_max_error": cross["max_abs_error"],
              "classical_passed": cross["passed"], "passed": ok}
    if not rep["passed"]:
        report["failed_relations"] = [r for r in rep["relations"] if not r["passed"]]
    return report


def cmd_classical_check(args) -> dict:
    from . import classical

    battery = classical.run_sample_battery(args.samples, args.seed, args.tol)
    if "bad_sample" in battery:
        return {
            "samples": args.samples, "seed": args.seed,
            "error": f"sample of seed {battery['bad_sample']} is not special unitary",
            "bad_sample": battery["bad_sample"], **battery["detail"], "passed": False}
    reps = classical.classical_rep_check()
    local_rows = []
    ok = battery["passed"] and reps["passed"]
    for seed in range(args.seed, args.seed + 3):
        g = classical.sample(seed + 100)
        for chart in classical.active_charts(g[2]):
            for (i, j) in ((1, 1), (1, 2)):
                rep = classical.dbar_local_check(classical.p_entry(i, j), g, chart)
                ok = ok and rep["passed"]
                local_rows.append({"seed": seed + 100, "chart": chart,
                                   "observable": f"p{i}{j}",
                                   "residual": rep["residual"],
                                   "passed": rep["passed"]})
    return {"samples": args.samples, "seed": args.seed, "battery": battery["residuals"],
            "serre_relations_passed": reps["passed"],
            "rows": local_rows, "passed": ok}


def cmd_decompose(args) -> dict:
    from . import peterweyl

    if args.kind == "line_bundle":  # a negative N builds V(n + |N|, n)
        _at_most(abs(args.N), DECOMPOSE_N_GUARD, "|--N|")
    elif args.N:
        raise ConfigError(f"--N is read by line_bundle only, got {args.N} for {args.kind}")
    spec = peterweyl.SubspaceSpec(args.kind, args.nmax, args.N)
    basis = peterweyl.subspace_basis(spec)
    # a form1_doublet member is a (v+, v-) pair, counted by its v+ key
    keys = (v[0] if args.kind == "form1_doublet" else v for v in basis)
    counts = Counter((v.n1, v.n2) for v in keys)
    rows = [{"irrep": f"({n1},{n2})", "dim": counts[n1, n2]} for n1, n2 in sorted(counts)]
    report = {"kind": args.kind, "nmax": args.nmax,
              "N": args.N, "total": len(basis), "rows": rows, "passed": True}
    if args.dump:
        report["basis"] = peterweyl.basis_dump_lines(spec, basis)
    return report


def cmd_evaluate(args) -> dict:
    from . import irreps, ualg

    p = _qparam(args)
    elem = _parsed(ualg.element_from_string, args.expr, p)
    label = irreps.IrrepLabel(args.n1, args.n2)
    _at_most(irreps.dim(label), EVALUATE_DIM_GUARD, "the dimension of the --n1 --n2 irrep")
    cols = ualg.evaluate(elem, label, p)
    if not all(math.isfinite(x) for col in cols for _, x in col):
        raise ConfigError(f"the matrix on ({label.n1},{label.n2}) has entries outside the float range")
    rows = [[0.0] * len(cols) for _ in cols]  # dense only for printing
    for j, col in enumerate(cols):
        for i, x in col:
            rows[i][j] = x
    return {"q": p.q, "expr": args.expr,
            "label": [label.n1, label.n2], "matrix": rows, "passed": True}


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
        sp.set_defaults(fn=fn, bounds=[])
        if "q" in defaults:
            sp.add_argument("--q", default=defaults["q"])
        if "tol" in defaults:
            sp.add_argument("--tol", type=float, default=defaults["tol"])
        if "nmax" in defaults:
            integer(sp, "--nmax", *defaults["nmax"])
        return sp

    def integer(sp, flag, default, least, cap=None):
        # the one declaration of an integer flag's least value and cap
        sp.get_default("bounds").append((sp.add_argument(flag, type=int, default=default), least, cap))

    sp = add("verify-hopf", cmd_verify_hopf, q="0.5", tol=1e-11)
    integer(sp, "--total-degree", 6, 0, TOTAL_DEGREE_GUARD)
    sp = add("verify-casimir", cmd_verify_casimir, q="0.5", tol=1e-10)
    integer(sp, "--total-degree", 4, 0, TOTAL_DEGREE_GUARD)
    sp = add("verify-gt", cmd_verify_gt, q="0.5", tol=1e-9)
    integer(sp, "--total-degree", 4, 0, GT_TOTAL_DEGREE_GUARD)
    integer(sp, "--powers", 3, 1, GT_POWERS_GUARD)
    add("verify-coproduct", cmd_verify_coproduct, q="0.5", tol=1e-12)
    add("verify-complex", cmd_verify_complex, q="0.5", tol=1e-10, nmax=(3, 0, NMAX_GUARD))
    add("spectrum", cmd_spectrum, q="0.5", tol=1e-9, nmax=(5, 0, NMAX_GUARD))
    add("cohomology", cmd_cohomology, q="0.5", tol=1e-10, nmax=(3, 0, NMAX_GUARD))
    # summability's --nmax starts at 2: two shells give the first decay ratio
    sp = add("summability", cmd_summability, q="0.5", tol=1e-10, nmax=(8, 2, NMAX_GUARD))
    sp.add_argument("--eps", type=float, nargs="+", default=[0.1, 1.0, 4.0])
    sp = add("rewrite", cmd_rewrite)
    sp.add_argument("expr")
    sp = add("verify-cp2-relations", cmd_verify_cp2_relations)
    # a word needs three letters to hold two redexes, so a lower degree
    # leaves the confluence sweep with nothing to check
    integer(sp, "--max-deg", 4, 3, MAX_DEG_GUARD)
    integer(sp, "--samples", 100, 1, CROSS_CHECK_SAMPLES_GUARD)
    sp = add("classical-check", cmd_classical_check)
    integer(sp, "--samples", 100, 1, CLASSICAL_SAMPLES_GUARD)
    integer(sp, "--seed", 1, 0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp = add("decompose", cmd_decompose)
    sp.add_argument("kind", choices=("sphere", "cp2", "line_bundle", "form1_doublet"))
    integer(sp, "--nmax", 3, 0, DECOMPOSE_NMAX_GUARD)
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--dump", action="store_true")
    sp = add("evaluate", cmd_evaluate)
    sp.add_argument("expr")
    sp.add_argument("--q", default="0.5")
    integer(sp, "--n1", 1, 0)
    integer(sp, "--n2", 1, 0)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _tol_guard(args)
        # each integer flag's least value and cap, declared beside it in
        # build_parser: below the least value a report would check nothing or
        # name a label or seed that does not exist
        for action, least, cap in args.bounds:
            flag, value = action.option_strings[0], getattr(args, action.dest)
            if value < least:
                raise ConfigError(f"{flag} must be >= {least}, got {value}")
            _at_most(value, cap, flag)
        report = args.fn(args)
        report["command"] = args.command
        # the verdict is the report's; a report with no verdict (rewrite's) passes
        code = EXIT_OK if report.get("passed", True) else EXIT_VERIFICATION_FAILED
    except VerificationError as exc:
        code, report = EXIT_VERIFICATION_FAILED, {"error": str(exc), "passed": False}
    except ConfigError as exc:
        code, report = EXIT_CONFIG_ERROR, {"error": str(exc), "passed": False}
    except OverflowError:  # a power of q past the float range, as at very small q
        code, report = EXIT_CONFIG_ERROR, {
            "error": f"the q-numbers leave the float range at q = {getattr(args, 'q', '?')}",
            "passed": False}
    try:
        emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, not the check: the verdict stands, and what is
        # still buffered goes to the null device so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
