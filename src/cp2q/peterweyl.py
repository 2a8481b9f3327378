"""Orthonormal Peter-Weyl basis of the quantum SU(3) coordinate algebra.

A basis element t(n1,n2)^{l1,l2,k}_{j1,j2,m} is modeled as the pair of a
white Gelfand-Tsetlin triple (j1,j2,m) and a black triple (l1,l2,k) inside
the same irrep label: the isometry onto V (x) V is taken as the definition,
with the white action on the first leg and the black action on the second.
The normalization constants in the harmonic construction are never
materialized; the basis is orthonormal by fiat, which fixes every inner
product below.

On top of the basis the module carves out the quantum 5-sphere (black
singlets), the projective plane (additionally n1 = n2), the equivariant
line bundles, and the antiholomorphic 1-form doublets, and verifies the
lowering-operator machinery that generates the basis from highest-weight
vectors.  FAMILIES is the one table of the complex's two block families,
read here for the doublets and by dolbeault and dirac for their blocks.
"""

from __future__ import annotations

from math import sqrt
from typing import NamedTuple

from . import irreps, ualg
from .qarith import QParam, largest, qfactorials, qint, qpow, relative


class PWBasisVector(NamedTuple):
    n1: int
    n2: int
    white: tuple  # (j1, j2, mm)
    black: tuple  # (l1, l2, kk)


PWVector = dict  # PWBasisVector -> float


def pw_vector(n1, n2, white, black, coeff: float = 1.0) -> PWVector:
    label = irreps.check_label((n1, n2))
    for t in (tuple(white), tuple(black)):
        if not irreps.valid_triple(label, t):
            raise irreps.LabelError(f"triple {t} invalid in V{tuple(label)}")
    return {PWBasisVector(label.n1, label.n2, tuple(white), tuple(black)): coeff}


def add_into(acc: PWVector, vec: PWVector, scale: float = 1.0) -> None:
    for k, c in vec.items():
        nc = acc.get(k, 0.0) + scale * c
        if nc == 0.0:
            acc.pop(k, None)
        else:
            acc[k] = nc


def scaled(vec: PWVector, scale: float) -> PWVector:
    return {k: scale * c for k, c in vec.items()} if scale else {}


def dot(a: PWVector, b: PWVector) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(c * b.get(k, 0.0) for k, c in a.items())


def norm(a: PWVector) -> float:
    return sqrt(dot(a, a))


# per-process memo of action rows, keyed by (label, gen, triple, q): only
# the rows an action actually reaches are ever built
_ROW_MEMO: dict = {}


def _act(elem: ualg.AlgebraElement, vec: PWVector, p: QParam, leg: str) -> PWVector:
    """Apply an algebra element to the white or black leg of a PW vector.

    A key's image is summed from keys of its own label alone, so each
    coefficient is the same whatever order the labels' keys come in."""
    out: PWVector = {}
    white, q = leg == "white", p.q
    for word, wc in elem.terms.items():
        partial = vec
        for gen in reversed(word):  # rightmost letter acts first
            nxt: PWVector = {}
            for key, c in partial.items():
                label, src = (key.n1, key.n2), key.white if white else key.black
                mkey = (label, gen, src, q)
                row = _ROW_MEMO.get(mkey)
                if row is None:
                    row = _ROW_MEMO[mkey] = irreps.action_row(label, gen, src, p)
                for trip, coeff in row:
                    nk = (
                        PWBasisVector(key.n1, key.n2, trip, key.black)
                        if white
                        else PWBasisVector(key.n1, key.n2, key.white, trip)
                    )
                    nxt[nk] = nxt.get(nk, 0.0) + c * coeff
            partial = nxt
        add_into(out, partial, wc)
    return out


def white_act(elem: ualg.AlgebraElement, vec: PWVector, p: QParam) -> PWVector:
    return _act(elem, vec, p, "white")


def black_act(elem: ualg.AlgebraElement, vec: PWVector, p: QParam) -> PWVector:
    return _act(elem, vec, p, "black")


# -- subspaces ---------------------------------------------------------------

class Family(NamedTuple):
    """One family of the complex's 2x2 blocks, one block per n."""
    shift: int  # the family's irrep is V(n, n + shift)
    doublet: tuple  # the black triples (v+, v-) of its degree-1 doublet
    degrees: tuple  # its slot degrees, in block order
    row: str  # its name in the spectrum rows


FAMILIES = {"diag": Family(0, ((1, 0, 1), (1, 0, -1)), (0, 1), "alpha"),
            "offdiag": Family(3, ((0, 1, 1), (0, 1, -1)), (1, 2), "beta")}


# each family's key, under the key itself and under its row name
_FAMILY_KEYS = {name: key for key, f in FAMILIES.items() for name in (key, f.row)}


def family_key(name: str) -> str:
    """The FAMILIES key of a family named by its key or by its row name."""
    if name not in _FAMILY_KEYS:
        raise ValueError(f"unknown family {name!r}")
    return _FAMILY_KEYS[name]


class SubspaceSpec(NamedTuple):
    kind: str  # "sphere" | "cp2" | "line_bundle" | "form1_doublet"
    nmax: int
    N: int = 0


def _singlet_labels(spec: SubspaceSpec) -> list[tuple[int, int]]:
    if spec.kind == "sphere":
        return [(n1, n2) for n1 in range(spec.nmax + 1) for n2 in range(spec.nmax + 1)]
    if spec.kind == "cp2":
        return [(n, n) for n in range(spec.nmax + 1)]
    if spec.kind == "line_bundle":
        if spec.N >= 0:
            return [(n, n + spec.N) for n in range(spec.nmax + 1)]
        return [(n - spec.N, n) for n in range(spec.nmax + 1)]
    raise ValueError(f"kind {spec.kind!r} has no singlet labels")


def subspace_basis(spec: SubspaceSpec):
    """Ordered basis of a carved-out subspace.

    Singlet kinds return PWBasisVector lists (black triple (0,0,0));
    form1_doublet returns (plus, minus) PWBasisVector pairs, family by
    family of FAMILIES, each V(n, n + shift) with its doublet's black
    triples; V(0,0) has no doublet.
    """
    if spec.nmax < 0:
        raise ValueError("nmax must be >= 0")
    if spec.kind != "form1_doublet":
        return [PWBasisVector(n1, n2, w, (0, 0, 0)) for n1, n2 in _singlet_labels(spec)
                for w in irreps.gt_triples((n1, n2))]
    pairs = []
    for key, f in FAMILIES.items():
        plus, minus = f.doublet
        pairs += [(PWBasisVector(n, n + f.shift, w, plus), PWBasisVector(n, n + f.shift, w, minus))
                  for n in range(1 if key == "diag" else 0, spec.nmax + 1)
                  for w in irreps.gt_triples((n, n + f.shift))]
    return pairs


def basis_dump_lines(spec: SubspaceSpec, basis: list) -> list[str]:
    """JSON-lines export of subspace_basis(spec), passed in as `basis`;
    half-integers stored doubled."""
    import json

    if spec.kind == "form1_doublet":
        basis = [v for pair in basis for v in pair]
    # one encoder for every row: json.dumps with sort_keys builds a new one per call
    encode = json.JSONEncoder(sort_keys=True).encode
    return [encode({"n1": v.n1, "n2": v.n2, "white": list(v.white), "black": list(v.black)})
            for v in basis]


# -- the lowering-operator machinery ----------------------------------------

def gt_lowering_elements(label, p: QParam) -> list[ualg.AlgebraElement]:
    """The lowering element of each triple (j1, j2, m) of the label, in
    irreps.gt_triples order: the element carrying the highest-weight vector
    onto |j1,j2,m>.

    Each is a sum over k of q-binomially weighted words F1^a [F2,F1]_q^b F2^c
    times the square-root normalization factor, its terms summed by add_into.
    The q-factorials and the powers are built once per label, and each
    product F1^a [F2,F1]_q^b F2^c once, keyed by (a, b, c).
    """
    label = irreps.check_label(label)
    n1, n2 = label
    q = p.q
    fact = qfactorials(n1 + n2 + 1, p)
    f1, f2 = ualg.AlgebraElement.gen("F1"), ualg.AlgebraElement.gen("F2")
    f1p, f2p = ualg.powers(f1, n1 + n2), ualg.powers(f2, n1 + n2)
    qcp = ualg.powers(ualg.qcommutator(f2, f1, p), n1)
    products: dict = {}
    elems = []
    for j1, j2, mm in irreps.gt_triples(label):
        s = j1 + j2
        half_plus = (s + mm) // 2   # (j1+j2)/2 + m
        half_minus = (s - mm) // 2  # (j1+j2)/2 - m
        norm_sq = (
            qint(s + 1, p)
            * fact[half_plus] / fact[half_minus]
            * fact[n2 - j2] * fact[j1] / (fact[n1 - j1] * fact[j2])
            * fact[n1 + j2 + 1] * fact[n2 + j1 + 1]
            / (fact[n1] * fact[n2] * fact[n1 + n2 + 1])
        )
        terms: dict = {}
        for k in range(n1 - j1 + 1):
            a, b, c = half_minus + k, n1 - j1 - k, j2 + k
            if (a, b, c) not in products:
                products[a, b, c] = f1p[a] * qcp[b] * f2p[c]
            qbinom = fact[n1 - j1] / (fact[k] * fact[b])
            add_into(terms, products[a, b, c].terms, q ** (-k * (s + k + 1)) / fact[s + k + 1] * qbinom)
        elems.append(sqrt(norm_sq) * ualg.AlgebraElement(terms))
    return elems


def verify_gt_lowering(label, p: QParam, tol: float = 1e-9, mats: dict | None = None) -> dict:
    """Apply every lowering element to the highest-weight vector and compare
    with the unit basis vector it should reproduce.

    Each distinct word acts once, rightmost letter first, on that vector
    alone (reversed words share prefixes in ualg.word_products), and each
    element sums c * image in term order.  mats is the caller's
    irreps.action_columns of the label."""
    label = irreps.check_label(label)
    mats = irreps.action_columns(label, p) if mats is None else mats
    triples = irreps.gt_triples(label)
    hw_idx = triples.index(irreps.highest_weight_triple(label))
    elems = gt_lowering_elements(label, p)
    images = ualg.word_products({w[::-1] for e in elems for w in e.terms}, [((hw_idx, 1.0),)],
                                lambda v, g: irreps.matmul(mats[g], v))
    worst, failures = 0.0, []
    for i, (t, elem) in enumerate(zip(triples, elems)):
        got = irreps.add([()], *((c, images[w[::-1]]) for w, c in elem.terms.items()))
        r = irreps.residual(got, [((i, 1.0),)], 1.0)
        worst = max(worst, r)
        if r >= tol:
            failures.append({"triple": list(t), "residual": r})
    return {"label": list(label), "max_residual": worst, "passed": not failures,
            "failures": failures}


def verify_lemma_commutators(label, nmax_power: int, p: QParam, tol: float = 1e-11,
                             mats: dict | None = None) -> dict:
    """The five commutator identities behind the lowering-operator lemma,
    as matrix identities for powers 1..nmax_power.

    The two [E_i, F_i^n] identities carry (q-q^-1)^-1, matching their n=1
    specialization to the defining relations.  Every identity reads the
    generator columns from one dict, mats (as in verify_gt_lowering).
    """
    mats = irreps.action_columns(label, p) if mats is None else mats
    q = p.q
    gen = ualg.AlgebraElement.gen
    word = ualg.AlgebraElement.word
    e1, e2, f1, f2 = gen("E1"), gen("E2"), gen("F1"), gen("F2")
    qc = ualg.qcommutator(f2, f1, p)
    f1p, f2p, qcp = (ualg.powers(x, nmax_power) for x in (f1, f2, qc))

    report = []
    worst = 0.0
    for n in range(1, nmax_power + 1):
        cn = qint(n, p)
        c = 1.0 / (q - 1.0 / q)
        cases = [
            ("[E1, F1^n]",
             e1 * f1p[n] - f1p[n] * e1,
             (cn * c) * (f1p[n - 1] * (q ** (-n + 1) * word(("K1", "K1")) - q ** (n - 1) * word(("K1inv", "K1inv"))))),
            ("[E1, [F2,F1]_q^n]",
             e1 * qcp[n] - qcp[n] * e1,
             (-cn * q ** (n - 2)) * (qcp[n - 1] * word(("F2", "K1inv", "K1inv")))),
            ("[E2, F2^n]",
             e2 * f2p[n] - f2p[n] * e2,
             (cn * c) * (f2p[n - 1] * (q ** (-n + 1) * word(("K2", "K2")) - q ** (n - 1) * word(("K2inv", "K2inv"))))),
            ("[E2, [F2,F1]_q^n]",
             e2 * qcp[n] - qcp[n] * e2,
             cn * (f1 * qcp[n - 1] * word(("K2", "K2")))),
            ("F2 F1^n - q^-n F1^n F2",
             f2 * f1p[n] - q ** (-n) * (f1p[n] * f2),
             cn * (f1p[n - 1] * qc)),
        ]
        for name, lhs, rhs in cases:
            lm = ualg.evaluate(lhs, label, p, mats)
            rm = ualg.evaluate(rhs, label, p, mats)
            r = irreps.residual(lm, rm, irreps.largest(rm))
            worst = max(worst, r)
            report.append({"identity": name, "power": n, "residual": r, "passed": r < tol})
    return {"label": list(label), "max_residual": worst,
            "passed": all(e["passed"] for e in report), "relations": report}


# -- antiholomorphic 1-form membership ---------------------------------------

def form1_membership_report(vplus: PWVector, vminus: PWVector, p: QParam) -> dict:
    """All conditions defining a 1-form doublet, by black action."""
    gen = ualg.AlgebraElement.gen
    k1k22 = ualg.AlgebraElement.word(("K1", "K2", "K2"))

    def residual(got: PWVector, expect: PWVector) -> float:
        diff = dict(got)
        add_into(diff, expect, -1.0)
        return relative(largest(diff.values()), 1.0)

    checks = [
        ("E1 v+ = 0", residual(black_act(gen("E1"), vplus, p), {})),
        ("E1 v- = v+", residual(black_act(gen("E1"), vminus, p), vplus)),
        ("F1 v+ = v-", residual(black_act(gen("F1"), vplus, p), vminus)),
        ("F1 v- = 0", residual(black_act(gen("F1"), vminus, p), {})),
        ("K1 v+ = q^1/2 v+", residual(black_act(gen("K1"), vplus, p), scaled(vplus, qpow(6, p)))),
        ("K1 v- = q^-1/2 v-", residual(black_act(gen("K1"), vminus, p), scaled(vminus, qpow(-6, p)))),
        ("K1K2^2 v+ = q^3/2 v+", residual(black_act(k1k22, vplus, p), scaled(vplus, qpow(18, p)))),
        ("K1K2^2 v- = q^3/2 v-", residual(black_act(k1k22, vminus, p), scaled(vminus, qpow(18, p)))),
    ]
    first_violation = next((name for name, r in checks if r >= 1e-10), None)
    return {
        "passed": first_violation is None,
        "first_violation": first_violation,
        "residuals": dict(checks),
    }


def check_form1_membership(vplus: PWVector, vminus: PWVector, p: QParam) -> bool:
    return form1_membership_report(vplus, vminus, p)["passed"]
