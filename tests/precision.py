"""The command lines that exit 1 on rounding, not on the algebra, and the
engine checks behind each failure.

ROUNDING_FAILURES pins, for each such line, every check it fails by label:
test_cli asserts that the float run fails exactly these, and test_precision
runs the same engine checks on an mpmath q at 40 digits, where each passes.
"""

from cp2q import irreps, peterweyl, ualg

# verify-hopf's eight q-commutator Serre relations, by the bracket each checks
Q_SERRE = ("[E1,[E2,E1]_q]_q", "[[E1,E2]_q,E1]_q", "[E2,[E1,E2]_q]_q", "[[E2,E1]_q,E2]_q",
           "[F1,[F2,F1]_q]_q", "[[F1,F2]_q,F1]_q", "[F2,[F1,F2]_q]_q", "[[F2,F1]_q,F2]_q")


def _q_serre(*left_out):
    return {f"q-commutator serre {b}" for b in Q_SERRE if b not in left_out}


CASIMIR = {"off_scalar", "commutator"}
EI_FI = {"[E1,F1] = (K1^2 - K1^-2)/(q - q^-1)", "[E2,F2] = (K2^2 - K2^-2)/(q - q^-1)"}

# the command lines that exit 1 on rounding, not on the algebra (ROADMAP
# items 13 and 14: at 40 digits the same code passes them), with every check
# each fails
ROUNDING_FAILURES = [
    ("verify-casimir --q 0.3 --total-degree 12", {"(0,12)": CASIMIR, "(12,0)": CASIMIR, "(1,11)": {"off_scalar"}}),
    ("verify-casimir --q 0.9999 --total-degree 4",
     {f"({a},{d - a})": CASIMIR for d in range(1, 5) for a in range(d + 1)}),
    ("verify-gt --q 0.3 --total-degree 7", {"(2,5)": {"lowering"}, "(3,4)": {"lowering"}}),
    ("verify-gt --q 0.5 --total-degree 9", {"(3,6)": {"lowering"}, "(4,5)": {"lowering"}}),
    ("verify-gt --q 0.99999 --total-degree 4", {"(1,1)": {"commutator_identities"}}),
    ("verify-hopf --q 0.99999 --total-degree 1", {"(0,1)": EI_FI, "(1,0)": EI_FI}),
    ("verify-hopf --q 1e-20 --total-degree 3",
     {"(1,1)": _q_serre(), "(1,2)": _q_serre(), "(2,1)": _q_serre(),
      "(0,3)": _q_serre("[[E2,E1]_q,E2]_q", "[F2,[F1,F2]_q]_q"),
      "(3,0)": _q_serre("[E2,[E1,E2]_q]_q", "[[F2,F1]_q,F2]_q")}),
    ("verify-hopf --q 1e-5 --total-degree 3",
     {"(0,2)": _q_serre("[E1,[E2,E1]_q]_q", "[[E2,E1]_q,E2]_q", "[[F1,F2]_q,F1]_q", "[F2,[F1,F2]_q]_q"),
      "(2,0)": _q_serre("[[E1,E2]_q,E1]_q", "[E2,[E1,E2]_q]_q", "[F1,[F2,F1]_q]_q", "[[F2,F1]_q,F2]_q"),
      "(1,1)": _q_serre(),
      "(0,3)": _q_serre("[E2,[E1,E2]_q]_q"), "(3,0)": _q_serre("[F2,[F1,F2]_q]_q"),
      "(1,2)": _q_serre("[[E2,E1]_q,E2]_q", "[F2,[F1,F2]_q]_q"),
      "(2,1)": _q_serre("[E2,[E1,E2]_q]_q", "[[F2,F1]_q,F2]_q")}),
]


def label_of(text: str) -> irreps.IrrepLabel:
    """The irrep label a report row names, as "(n1,n2)"."""
    return irreps.IrrepLabel(*(int(n) for n in text.strip("()").split(",")))


def line_q(line: str) -> float:
    """The q a pinned line passes, as the command line reads it."""
    words = line.split()
    return float(words[words.index("--q") + 1])


def engine_residuals(line: str, failed: dict, p) -> dict:
    """The residual of the engine check behind each failure of a pinned line,
    by (label, check), at p: verify_casimir_scalar's two residuals on a
    verify-casimir line, verify_hopf_relations on a verify-hopf line, and on
    a verify-gt line verify_gt_lowering for "lowering" and
    verify_lemma_commutators((1, 1), 3, p) for "commutator_identities"."""
    command = line.split()[0]
    out = {}
    for text, checks in failed.items():
        label = label_of(text)
        if command == "verify-casimir":
            rep = ualg.verify_casimir_scalar(label, p)
            out.update({(text, c): rep[f"{c}_residual"] for c in checks})
        elif command == "verify-hopf":
            out[text, "hopf"] = irreps.verify_hopf_relations(label, p)["max_residual"]
        else:
            for c in checks:
                rep = (peterweyl.verify_gt_lowering(label, p) if c == "lowering"
                       else peterweyl.verify_lemma_commutators((1, 1), 3, p))
                out[text, c] = rep["max_residual"]
    return out
