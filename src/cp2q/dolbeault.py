"""Antiholomorphic forms on the quantum projective plane and the operators
between them.

A form is a plain Peter-Weyl vector: the black weight of each component
fixes which part of the complex it belongs to.  Black singlets of V(n,n)
are degree 0, black singlets of V(n,n+3) (the charge-3 line bundle) are
degree 2, and black spin-1/2 doublets (v+, v-) of either family are
degree 1.  The raising operator sends a 0-form a to (X* > a, E2 > a) and
a 1-form v to -E2 > v+ - Y > v-, all by the black action; its adjoint uses
the mirrored lowering words.  Everything is orthonormal in the Peter-Weyl
basis, with doublets carrying squared norm 2, so the normalized degree-1
slot vectors pick up a 1/sqrt(2).

The operators never leave the decomposition into (irrep, white index)
blocks; block assembly exploits that and is cross-checked against the
direct action.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import irreps, peterweyl as pw, ualg
from .peterweyl import PWVector, add_into
from .qarith import QParam


class MembershipError(ArithmeticError):
    """Operator image left the form spaces beyond tolerance."""


FormVector = PWVector  # a form is a Peter-Weyl vector on the form spaces

# (n2 - n1, black triple) -> part of the complex: degrees "0" and "2", and
# the two legs "+" and "-" of a degree-1 doublet
_PARTS = {
    (0, (0, 0, 0)): "0",
    (0, (1, 0, 1)): "+", (0, (1, 0, -1)): "-",
    (3, (0, 1, 1)): "+", (3, (0, 1, -1)): "-",
    (3, (0, 0, 0)): "2",
}


def part(key: pw.PWBasisVector) -> str | None:
    """The part of the complex a Peter-Weyl key belongs to: "0", "+", "-"
    or "2"; None off the form spaces."""
    return _PARTS.get((key.n2 - key.n1, key.black))


# Haar-state inner product: Euclidean on the Peter-Weyl coefficients, so the
# degrees are mutually orthogonal and doublets pair componentwise
inner_product = pw.dot
form_norm = pw.norm


def _operators(p: QParam) -> dict:
    return {
        "X": ualg.x_element(p), "Y": ualg.y_element(p),
        "Xstar": ualg.x_star_element(p), "Ystar": ualg.y_star_element(p),
        "E2": ualg.AlgebraElement.gen("E2"), "F2": ualg.AlgebraElement.gen("F2"),
    }


# target part -> its legs (source part, black operator, sign); degree-2
# input is annihilated by the raising operator (there is no degree 3)
_DBAR = {
    "+": (("0", "Xstar", 1.0),),
    "-": (("0", "E2", 1.0),),
    "2": (("+", "E2", -1.0), ("-", "Y", -1.0)),
}
_DBAR_DAG = {
    "+": (("2", "F2", -1.0),),
    "-": (("2", "Ystar", -1.0),),
    "0": (("+", "X", 1.0), ("-", "F2", 1.0)),
}


def _apply(table: dict, f: FormVector, p: QParam) -> tuple[FormVector, float]:
    """Apply a differential given by its legs.  Each target part sums the
    black images of its sources first and splits off the off-space junk
    afterwards: on V(n,n) doublets -E2 v+ and -Y v- cancel only together.
    Returns the image and the largest off-space coefficient seen, in the
    input or the image."""
    ops = _operators(p)
    pieces: dict = {}
    junk = 0.0
    for k, c in f.items():
        name = part(k)
        if name is None:
            junk = max(junk, abs(c))
        else:
            pieces.setdefault(name, {})[k] = c
    out: FormVector = {}
    for target, legs in table.items():
        img: PWVector = {}
        for source, op, sign in legs:
            if source in pieces:
                add_into(img, pw.black_act(ops[op], pieces[source], p), sign)
        for k, c in img.items():
            if part(k) == target:
                out[k] = c
            else:
                junk = max(junk, abs(c))
    return out, junk


def dbar_raw(f: FormVector, p: QParam) -> tuple[FormVector, float]:
    """One application of the raising differential; returns the image and the
    largest off-space coefficient (it should vanish up to rounding; kept
    observable for the structural tests)."""
    return _apply(_DBAR, f, p)


def dbar_dag_raw(f: FormVector, p: QParam) -> tuple[FormVector, float]:
    return _apply(_DBAR_DAG, f, p)


def _checked(raw, f: FormVector, p: QParam, tol: float) -> FormVector:
    out, junk = raw(f, p)
    scale = max(max(map(abs, f.values()), default=0.0), 1.0)
    if junk > tol * scale:
        raise MembershipError(f"image left the form spaces: residual {junk:.3e}")
    return out


def dbar(f: FormVector, p: QParam, tol: float = 1e-9) -> FormVector:
    """Degree-raising differential; validates that the image lands in the
    form spaces (doublet membership, line-bundle support)."""
    return _checked(dbar_raw, f, p, tol)


def dbar_dag(f: FormVector, p: QParam, tol: float = 1e-9) -> FormVector:
    """Degree-lowering adjoint differential, with the same validation."""
    return _checked(dbar_dag_raw, f, p, tol)


# -- slot bases and blocks ----------------------------------------------------

@dataclass(frozen=True)
class BlockIndex:
    family: str  # "diag" (V(n,n)) | "offdiag" (V(n,n+3))
    n: int
    white: tuple


def family_label(family: str, n: int) -> tuple[int, int]:
    if family == "diag":
        return (n, n)
    if family == "offdiag":
        return (n, n + 3)
    raise ValueError(f"unknown family {family!r}")


def blocks(nmax: int) -> list[BlockIndex]:
    """Every block up to the truncation: the V(n,n) family first, then
    V(n,n+3), each by n and white triple."""
    return [BlockIndex(family, n, w) for family in ("diag", "offdiag")
            for n in range(nmax + 1) for w in irreps.gt_triples(family_label(family, n))]


def block_slots(block: BlockIndex) -> list[FormVector]:
    """Orthonormal slot vectors of one block, in degree order.

    diag(0) blocks are degree-0 singletons; every other block is
    two-dimensional with a normalized doublet slot.
    """
    n1, n2 = family_label(block.family, block.n)
    w = block.white
    singlet = pw.pw_vector(n1, n2, w, (0, 0, 0))
    if block.family == "diag" and block.n == 0:
        return [singlet]
    plus, minus = ((1, 0, 1), (1, 0, -1)) if block.family == "diag" else ((0, 1, 1), (0, 1, -1))
    doublet = pw.pw_vector(n1, n2, w, plus, 1.0 / sqrt(2.0))
    doublet.update(pw.pw_vector(n1, n2, w, minus, 1.0 / sqrt(2.0)))
    return [singlet, doublet] if block.family == "diag" else [doublet, singlet]


def slot_matrix(apply, slots: list[FormVector]) -> np.ndarray:
    """Matrix of a linear map in an orthonormal slot basis: entry (i, j) is
    <slots[i], apply(slots[j])>."""
    mat = np.zeros((len(slots), len(slots)))
    for j, s in enumerate(slots):
        img = apply(s)
        for i, t in enumerate(slots):
            mat[i, j] = inner_product(t, img)
    return mat


def block_structure(nmax: int, p: QParam) -> list[dict]:
    """All blocks up to the truncation with their slot bases and the matrix
    of the raising differential in the orthonormal slot basis."""
    out = []
    for b in blocks(nmax):
        slots = block_slots(b)
        out.append({"block": b, "slots": slots,
                    "dbar_matrix": slot_matrix(lambda s: dbar_raw(s, p)[0], slots)})
    return out


def form_basis(nmax: int) -> list[FormVector]:
    """Orthonormal basis of the truncated full complex, block by block."""
    return [s for b in blocks(nmax) for s in block_slots(b)]


def random_form(nmax: int, rng) -> FormVector:
    out: FormVector = {}
    for s in form_basis(nmax):
        add_into(out, s, rng.uniform(-1.0, 1.0))
    return out


def verify_complex(nmax: int, p: QParam, tol: float = 1e-10, trials: int = 20, seed: int = 7) -> dict:
    """Squared differentials vanish and the two are adjoint to each other on
    the truncated complex (random vectors plus the full slot basis)."""
    import random

    rng = random.Random(seed)
    worst_d2 = worst_dd2 = worst_adj = 0.0
    vecs = [random_form(nmax, rng) for _ in range(trials)]
    for f in vecs:
        scale = max(form_norm(f), 1.0)
        worst_d2 = max(worst_d2, form_norm(dbar(dbar(f, p), p)) / scale)
        worst_dd2 = max(worst_dd2, form_norm(dbar_dag(dbar_dag(f, p), p)) / scale)
    for _ in range(trials):
        f, g = random_form(nmax, rng), random_form(nmax, rng)
        scale = max(form_norm(f) * form_norm(g), 1.0)
        worst_adj = max(
            worst_adj,
            abs(inner_product(dbar(f, p), g) - inner_product(f, dbar_dag(g, p))) / scale,
        )
    return {
        "nmax": nmax, "q": p.q,
        "dbar_squared": worst_d2,
        "dbar_dag_squared": worst_dd2,
        "adjointness": worst_adj,
        "passed": max(worst_d2, worst_dd2, worst_adj) < tol,
    }


def verify_equivariance(nmax: int, p: QParam, tol: float = 1e-10, trials: int = 5, seed: int = 11) -> dict:
    """The differentials commute with the white (symmetry) action.

    In this model that holds by construction: the white action moves only
    the white leg of each Peter-Weyl key and the differentials act only on
    the black leg.  The check guards the implementation; it is no evidence
    about the paper's operators.
    """
    import random

    rng = random.Random(seed)
    gens = ("E1", "F1", "E2", "F2", "K1", "K2")
    residuals = {}
    for gname in gens:
        h = ualg.AlgebraElement.gen(gname)
        worst = 0.0
        for _ in range(trials):
            f = random_form(nmax, rng)
            scale = max(form_norm(f), 1.0)
            for op in (dbar, dbar_dag):
                diff = pw.white_act(h, op(f, p), p)
                add_into(diff, op(pw.white_act(h, f, p), p), -1.0)
                worst = max(worst, form_norm(diff) / scale)
        residuals[gname] = worst
    worst = max(residuals.values())
    return {"nmax": nmax, "q": p.q, "residuals": residuals,
            "max_residual": worst, "passed": worst < tol}
