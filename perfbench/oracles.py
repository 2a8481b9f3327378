"""Output oracles for the cp2q benchmark.

Each oracle re-derives what a report must say from the paper's closed
forms or by its own enumeration, never by calling cp2q.  A command counts
as failed when its exit code is not 0, its report is not "passed", or an
oracle here rejects it; so does a report that checked nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction

REL_TOL = 1e-9


def qint(z: float, q: float) -> float:
    """q-number [z] in the cancellation-free form sinh(z h) / sinh(h), h = -ln q."""
    h = -math.log(q)
    return math.sinh(z * h) / math.sinh(h)


def irrep_dim(n1: int, n2: int) -> int:
    return (n1 + 1) * (n2 + 1) * (n1 + n2 + 2) // 2


def label_count(total: int) -> int:
    return (total + 1) * (total + 2) // 2 if total >= 0 else 0


def alpha_eigenvalue(n: int, q: float) -> float:
    """|D| on the V(n,n) blocks: sqrt(2 [n][n+2] / [2])."""
    return math.sqrt(2.0 * qint(n, q) * qint(n + 2, q) / qint(2, q))


def beta_eigenvalue(m: int, q: float) -> float:
    """|D| on the V(m,m+3) blocks: sqrt([m+2][m+3])."""
    return math.sqrt(qint(m + 2, q) * qint(m + 3, q))


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _opt(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- numeric reports ------------------------------------------------------------

def check_spectrum(argv, rep) -> list[str]:
    q, nmax = float(_opt(argv, "--q")), int(_opt(argv, "--nmax"))
    errs = []
    if _rel(rep["s"], math.sqrt(qint(2, q) / 2.0)) > REL_TOL:
        errs.append(f"s = {rep['s']} is not sqrt([2]/2)")
    want = [("zero", 0, 0.0, 1)]
    for n in range(1, nmax + 1):
        lam = alpha_eigenvalue(n, q)
        want += [("alpha", n, -lam, irrep_dim(n, n)), ("alpha", n, lam, irrep_dim(n, n))]
    for m in range(nmax + 1):
        lam = beta_eigenvalue(m, q)
        want += [("beta", m, -lam, irrep_dim(m, m + 3)), ("beta", m, lam, irrep_dim(m, m + 3))]
    got = [(r["family"], r["n"], r["eigenvalue"], r["multiplicity"]) for r in rep["rows"]]
    if len(got) != len(want):
        return errs + [f"{len(got)} spectrum rows, expected {len(want)}"]
    for g, w in zip(sorted(got, key=lambda r: r[:3]), sorted(want, key=lambda r: r[:3])):
        if g[:2] != w[:2] or g[3] != w[3]:
            errs.append(f"row {g} does not match {w}")
        elif w[2] == 0.0 and g[2] != 0.0:
            errs.append(f"zero mode reads {g[2]}")
        elif w[2] != 0.0 and _rel(g[2], w[2]) > REL_TOL:
            errs.append(f"eigenvalue {g} off the closed form {w[2]!r}")
    return errs


def check_cohomology(argv, rep) -> list[str]:
    nmax = int(_opt(argv, "--nmax"))
    errs = []
    if list(rep["harmonic_dimensions"]) != [1, 0, 0]:
        errs.append(f"harmonic dimensions {rep['harmonic_dimensions']} != (1,0,0)")
    diag = [irrep_dim(n, n) for n in range(nmax + 1)]
    off = [irrep_dim(n, n + 3) for n in range(nmax + 1)]
    dims = {"deg0": sum(diag), "deg1": sum(diag[1:]) + sum(off), "deg2": sum(off)}
    for deg, want in dims.items():
        r = rep["ranks"][deg]
        if r["dim"] != want or r["harmonic"] + r["exact"] + r["coexact"] != want:
            errs.append(f"{deg} ranks {r} do not add up to dim {want}")
    return errs


def check_summability(argv, rep) -> list[str]:
    q, nmax = float(_opt(argv, "--q")), int(_opt(argv, "--nmax"))
    errs = []
    if not rep["shells"]:
        return ["no epsilon probed"]
    for sh in rep["shells"]:
        eps, ratios = sh["eps"], sh["factor_ratios"]
        if not ratios:
            errs.append(f"eps {eps}: no factor ratios")
        elif not all(r < 1.0 for r in ratios):
            errs.append(f"eps {eps}: ratios {ratios} not all below 1")
        if len(sh["rows"]) != nmax:
            errs.append(f"eps {eps}: {len(sh['rows'])} shells, expected {nmax}")
        for row in sh["rows"]:
            n = row["shell"]
            want = sum((1.0 + lam * lam) ** (-eps / 2.0)
                       for lam in (alpha_eigenvalue(n, q), beta_eigenvalue(n - 1, q)))
            if _rel(row["factor"], want) > REL_TOL:
                errs.append(f"eps {eps} shell {n}: factor {row['factor']} != {want}")
    return errs


def check_verify_complex(argv, rep) -> list[str]:
    errs = []
    if rep["nmax"] != int(_opt(argv, "--nmax")):
        errs.append("nmax not echoed")
    if not rep["equivariance"]["residuals"]:
        errs.append("equivariance checked no generator")
    for part in ("complex", "equivariance"):
        if rep[part].get("passed") is not True:
            errs.append(f"{part} not passed")
    return errs


def check_verify_hopf(argv, rep) -> list[str]:
    want = label_count(int(_opt(argv, "--total-degree")))
    errs = [] if rep["labels"] == want else [f"{rep['labels']} labels checked, expected {want}"]
    if rep["failures"]:
        errs.append(f"{len(rep['failures'])} failing labels")
    return errs


def check_label_rows(argv, rep) -> list[str]:
    """verify-casimir and verify-gt: one passing row per label."""
    want = label_count(int(_opt(argv, "--total-degree")))
    rows = rep["rows"]
    errs = [] if len(rows) == want else [f"{len(rows)} label rows, expected {want}"]
    errs += [f"label {r['label']} failed" for r in rows if r["passed"] is not True]
    return errs


def check_verify_coproduct(argv, rep) -> list[str]:
    return [] if rep["residuals"] else ["no coproduct identity checked"]


def check_classical(argv, rep) -> list[str]:
    errs = []
    if rep["samples"] != int(_opt(argv, "--samples")) or rep["samples"] < 1:
        errs.append(f"samples = {rep['samples']}")
    if not rep["battery"] or not rep["rows"]:
        errs.append("empty battery or no local dbar rows")
    errs += [f"local row {r} failed" for r in rep["rows"] if r["passed"] is not True]
    if rep["serre_relations_passed"] is not True:
        errs.append("Serre relations not passed")
    return errs


def check_evaluate(argv, rep) -> list[str]:
    """The benchmark's element is (q - q^-1)[E1,F1] - K1^2 + K1^-2 + K2 K2^-1,
    which is the identity on every irrep."""
    n1, n2 = int(_opt(argv, "--n1")), int(_opt(argv, "--n2"))
    mat = rep["matrix"]
    d = irrep_dim(n1, n2)
    if len(mat) != d or any(len(row) != d for row in mat):
        return [f"matrix is not {d} x {d}"]
    worst = max(abs(x - (1.0 if i == j else 0.0))
                for i, row in enumerate(mat) for j, x in enumerate(row))
    return [] if worst <= 1e-8 else [f"matrix differs from the identity by {worst}"]


# -- exact reports ----------------------------------------------------------------

LETTERS = ("z1", "z2", "z3", "z3*", "z2*", "z1*")


def rule_left_sides() -> set[tuple[int, int]]:
    """The 16 length-2 left-hand sides, read off the normal-form shape
    z1^a z2^b z3^c z3*^d z2*^e z1*^f with min(c, d) = 0: every descent in
    the letter order, plus z3 z3*."""
    return {(x, y) for x in range(6) for y in range(6) if x > y} | {(2, 3)}


def branching_words(max_deg: int) -> int:
    """Words of length 2..max_deg with at least two redexes, by enumeration."""
    lhs = rule_left_sides()
    count = 0
    for length in range(2, max_deg + 1):
        for w in itertools.product(range(6), repeat=length):
            if sum((w[i], w[i + 1]) in lhs for i in range(length - 1)) >= 2:
                count += 1
    return count


def check_cp2_relations(argv, rep) -> list[str]:
    errs = []
    if rep["relations"] < 1:
        errs.append("no relation checked")
    want = branching_words(int(_opt(argv, "--max-deg", "4")))
    if rep["branching_words"] != want:
        errs.append(f"{rep['branching_words']} branching words, enumeration gives {want}")
    for key in ("relations_passed", "confluence_passed", "classical_passed"):
        if rep[key] is not True:
            errs.append(f"{key} is {rep[key]}")
    return errs


_TERM = re.compile(r"\(([^()]*)\) ((?:z[123]\*?)(?: z[123]\*?)*|1)(?: \+ |$)")


def parse_normal_form(text: str) -> list[tuple[Fraction, tuple[int, ...]]]:
    """'(c0 + c1*q^e + ...) z1 z2* + ...' -> [(value at q = 1, word)]."""
    if text == "0":
        return []
    out, pos = [], 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"unparsable normal form near {text[pos:pos + 40]!r}")
        pos = m.end()
        coeff = sum(Fraction(t.split("*")[0]) for t in m.group(1).split(" + "))
        word = () if m.group(2) == "1" else tuple(LETTERS.index(x) for x in m.group(2).split())
        out.append((coeff, word))
    return out


def is_normal_shape(word: tuple[int, ...]) -> bool:
    lhs = rule_left_sides()
    return all((a, b) not in lhs for a, b in zip(word, word[1:]))


def _sphere_points(k: int, seed: int) -> list[tuple[complex, complex, complex]]:
    rng = random.Random(seed)
    pts = []
    for _ in range(k):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in v))
        pts.append(tuple(x / nrm for x in v))
    return pts


def _query_value(expr: str, z) -> complex:
    """A sum of products of p_ij = z_i* z_j, evaluated commutatively."""
    total = 0j
    for term in expr.split("+"):
        val = 1 + 0j
        for f in term.split():
            i, j = int(f[1]), int(f[2])
            val *= z[i - 1].conjugate() * z[j - 1]
        total += val
    return total


def _word_value(word, z) -> complex:
    vals = (z[0], z[1], z[2], z[2].conjugate(), z[1].conjugate(), z[0].conjugate())
    val = 1 + 0j
    for let in word:
        val *= vals[let]
    return val


def check_rewrite(argv, rep) -> list[str]:
    expr = argv[1]
    terms = parse_normal_form(rep["normal_form"])
    errs = [f"word {w} is not in normal-form shape" for _, w in terms if not is_normal_shape(w)]
    if rep["is_zero"] != (not terms):
        errs.append("is_zero disagrees with the normal form")
    if terms and rep["grades"] != [0]:
        errs.append(f"grades {rep['grades']} for a sum of p-words")
    for z in _sphere_points(8, 12345):
        want = _query_value(expr, z)
        got = sum(float(c) * _word_value(w, z) for c, w in terms)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            errs.append(f"q = 1 value {got} != {want} at a sphere point")
            break
    return errs


# commands whose report carries no "passed" field; their oracle is the verdict
NO_VERDICT = {"rewrite"}

ORACLES = {
    "spectrum": check_spectrum,
    "cohomology": check_cohomology,
    "summability": check_summability,
    "verify-complex": check_verify_complex,
    "verify-hopf": check_verify_hopf,
    "verify-casimir": check_label_rows,
    "verify-gt": check_label_rows,
    "verify-coproduct": check_verify_coproduct,
    "classical-check": check_classical,
    "evaluate": check_evaluate,
    "verify-cp2-relations": check_cp2_relations,
    "rewrite": check_rewrite,
}


def judge(argv: list[str], exit_code: int, stdout: str) -> list[str]:
    """Reasons the command failed; empty when it passed every check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rep = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    if not isinstance(rep, dict):
        return ["report is not a JSON object"]
    verdict = rep.get("passed", True if argv[0] in NO_VERDICT else None)
    errs = [] if verdict is True else ["report not passed"]
    if rep.get("command") != argv[0]:
        errs.append(f"report is for command {rep.get('command')!r}")
    try:
        errs += ORACLES[argv[0]](argv, rep)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        errs.append(f"malformed report: {exc!r}")
    return errs
