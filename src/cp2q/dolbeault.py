"""Antiholomorphic forms on the quantum projective plane and the operators
between them.

Degree 0 lives on projective-plane basis vectors (black singlets of
V(n,n)), degree 2 on the charge-3 line bundle (black singlets of
V(n,n+3)), and degree 1 on doublets (v+, v-) characterized by the black
su(2) spin-1/2 conditions.  The raising operator sends a 0-form a to
(X* > a, E2 > a) and a 1-form v to -E2 > v+ - Y > v-, all by the black
action; its adjoint uses the mirrored lowering words.  Everything is
orthonormal in the Peter-Weyl basis, with doublets carrying squared norm
2, so the normalized degree-1 slot vectors pick up a 1/sqrt(2).

The operators never leave the decomposition into (irrep, white index)
blocks; block assembly exploits that and is cross-checked against the
direct action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import irreps, peterweyl as pw, ualg
from .peterweyl import PWVector, add_into, dot, scaled
from .qarith import QParam


class MembershipError(ArithmeticError):
    """Operator image left the form spaces beyond tolerance."""


@dataclass
class FormVector:
    """Graded element of the 0+1+2 antiholomorphic complex."""

    deg0: PWVector = field(default_factory=dict)
    deg1_plus: PWVector = field(default_factory=dict)
    deg1_minus: PWVector = field(default_factory=dict)
    deg2: PWVector = field(default_factory=dict)

    def __add__(self, other: "FormVector") -> "FormVector":
        out = self.copy()
        for name in ("deg0", "deg1_plus", "deg1_minus", "deg2"):
            add_into(getattr(out, name), getattr(other, name))
        return out

    def __sub__(self, other: "FormVector") -> "FormVector":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "FormVector":
        return FormVector(
            scaled(self.deg0, c), scaled(self.deg1_plus, c),
            scaled(self.deg1_minus, c), scaled(self.deg2, c),
        )

    def copy(self) -> "FormVector":
        return FormVector(dict(self.deg0), dict(self.deg1_plus),
                          dict(self.deg1_minus), dict(self.deg2))

    def sup_norm(self) -> float:
        return max(
            (abs(c) for part in (self.deg0, self.deg1_plus, self.deg1_minus, self.deg2)
             for c in part.values()),
            default=0.0,
        )


def inner_product(f: FormVector, g: FormVector) -> float:
    """Haar-state inner product: Euclidean per degree, componentwise on
    doublets; degrees are mutually orthogonal."""
    return (dot(f.deg0, g.deg0) + dot(f.deg1_plus, g.deg1_plus)
            + dot(f.deg1_minus, g.deg1_minus) + dot(f.deg2, g.deg2))


def form_norm(f: FormVector) -> float:
    return sqrt(inner_product(f, f))


def _is_deg0_key(key) -> bool:
    return key.n1 == key.n2 and key.black == (0, 0, 0)


def _is_deg2_key(key) -> bool:
    return key.n2 == key.n1 + 3 and key.black == (0, 0, 0)


def _split_offspace(vec: PWVector, keep) -> tuple[PWVector, float]:
    """Split a raw image into its form-space part and the residual junk."""
    good: PWVector = {}
    junk = 0.0
    for k, c in vec.items():
        if keep(k):
            good[k] = c
        else:
            junk = max(junk, abs(c))
    return good, junk


def _is_deg1_plus_key(key) -> bool:
    return (key.n1 == key.n2 and key.black == (1, 0, 1)) or \
        (key.n2 == key.n1 + 3 and key.black == (0, 1, 1))


def _is_deg1_minus_key(key) -> bool:
    return (key.n1 == key.n2 and key.black == (1, 0, -1)) or \
        (key.n2 == key.n1 + 3 and key.black == (0, 1, -1))


def _operators(p: QParam) -> dict:
    return {
        "X": ualg.x_element(p), "Y": ualg.y_element(p),
        "Xstar": ualg.x_star_element(p), "Ystar": ualg.y_star_element(p),
        "E2": ualg.AlgebraElement.gen("E2"), "F2": ualg.AlgebraElement.gen("F2"),
    }


def dbar_raw(f: FormVector, p: QParam) -> tuple[FormVector, float]:
    """One application of the raising differential; returns the image and the
    largest off-space coefficient produced along the way (it should vanish
    up to rounding; kept observable for the structural tests)."""
    ops = _operators(p)
    out = FormVector()
    junk = 0.0
    if f.deg0:
        add_into(out.deg1_plus, pw.black_act(ops["Xstar"], f.deg0, p))
        add_into(out.deg1_minus, pw.black_act(ops["E2"], f.deg0, p))
    if f.deg1_plus or f.deg1_minus:
        img: PWVector = {}
        add_into(img, pw.black_act(ops["E2"], f.deg1_plus, p), -1.0)
        add_into(img, pw.black_act(ops["Y"], f.deg1_minus, p), -1.0)
        good, j = _split_offspace(img, _is_deg2_key)
        junk = max(junk, j)
        add_into(out.deg2, good)
    # degree-2 input is annihilated (no degree 3)
    gp, j1 = _split_offspace(out.deg1_plus, _is_deg1_plus_key)
    gm, j2 = _split_offspace(out.deg1_minus, _is_deg1_minus_key)
    out.deg1_plus, out.deg1_minus = gp, gm
    return out, max(junk, j1, j2)


def dbar_dag_raw(f: FormVector, p: QParam) -> tuple[FormVector, float]:
    ops = _operators(p)
    out = FormVector()
    junk = 0.0
    if f.deg2:
        add_into(out.deg1_plus, pw.black_act(ops["F2"], f.deg2, p), -1.0)
        add_into(out.deg1_minus, pw.black_act(ops["Ystar"], f.deg2, p), -1.0)
    if f.deg1_plus or f.deg1_minus:
        img: PWVector = {}
        add_into(img, pw.black_act(ops["X"], f.deg1_plus, p))
        add_into(img, pw.black_act(ops["F2"], f.deg1_minus, p))
        good, j = _split_offspace(img, _is_deg0_key)
        junk = max(junk, j)
        add_into(out.deg0, good)
    gp, j1 = _split_offspace(out.deg1_plus, _is_deg1_plus_key)
    gm, j2 = _split_offspace(out.deg1_minus, _is_deg1_minus_key)
    out.deg1_plus, out.deg1_minus = gp, gm
    return out, max(junk, j1, j2)


def _checked(raw, f: FormVector, p: QParam, tol: float) -> FormVector:
    out, junk = raw(f, p)
    scale = max(f.sup_norm(), 1.0)
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


def white_act_form(elem: ualg.AlgebraElement, f: FormVector, p: QParam) -> FormVector:
    """Symmetry action on forms: the white action, componentwise."""
    return FormVector(
        pw.white_act(elem, f.deg0, p),
        pw.white_act(elem, f.deg1_plus, p),
        pw.white_act(elem, f.deg1_minus, p),
        pw.white_act(elem, f.deg2, p),
    )


def black_act_form(elem: ualg.AlgebraElement, f: FormVector, p: QParam) -> FormVector:
    return FormVector(
        pw.black_act(elem, f.deg0, p),
        pw.black_act(elem, f.deg1_plus, p),
        pw.black_act(elem, f.deg1_minus, p),
        pw.black_act(elem, f.deg2, p),
    )


# -- slot bases and blocks ----------------------------------------------------

@dataclass(frozen=True)
class BlockIndex:
    family: str  # "diag" (V(n,n)) | "offdiag" (V(n,n+3))
    n: int
    white: tuple


def block_slots(block: BlockIndex) -> list[FormVector]:
    """Orthonormal slot vectors of one block, in degree order.

    diag(0) blocks are degree-0 singletons; every other block is
    two-dimensional with a normalized doublet slot.
    """
    n, w = block.n, block.white
    inv_sqrt2 = 1.0 / sqrt(2.0)
    if block.family == "diag":
        slots = [FormVector(deg0=pw.pw_vector(n, n, w, (0, 0, 0)))]
        if n >= 1:
            slots.append(FormVector(
                deg1_plus=pw.pw_vector(n, n, w, (1, 0, 1), inv_sqrt2),
                deg1_minus=pw.pw_vector(n, n, w, (1, 0, -1), inv_sqrt2),
            ))
        return slots
    if block.family == "offdiag":
        return [
            FormVector(
                deg1_plus=pw.pw_vector(n, n + 3, w, (0, 1, 1), inv_sqrt2),
                deg1_minus=pw.pw_vector(n, n + 3, w, (0, 1, -1), inv_sqrt2),
            ),
            FormVector(deg2=pw.pw_vector(n, n + 3, w, (0, 0, 0))),
        ]
    raise ValueError(f"unknown family {block.family!r}")


def block_structure(nmax: int, p: QParam) -> list[dict]:
    """All blocks up to the truncation with their slot bases and the matrix
    of the raising differential in the orthonormal slot basis."""
    blocks = []
    for n in range(nmax + 1):
        for w in irreps.gt_triples((n, n)):
            blocks.append(BlockIndex("diag", n, w))
    for n in range(nmax + 1):
        for w in irreps.gt_triples((n, n + 3)):
            blocks.append(BlockIndex("offdiag", n, w))
    out = []
    for b in blocks:
        slots = block_slots(b)
        k = len(slots)
        mat = np.zeros((k, k))
        for j, s in enumerate(slots):
            img, _ = dbar_raw(s, p)
            for i, t in enumerate(slots):
                mat[i, j] = inner_product(t, img)
        out.append({"block": b, "slots": slots, "dbar_matrix": mat})
    return out


def dbar_block_coefficient(family: str, n: int, p: QParam) -> float:
    """The single off-diagonal entry of the raising differential inside one
    block, computed by applying the operator (not from the closed form)."""
    w = irreps.gt_triples((n, n) if family == "diag" else (n, n + 3))[0]
    slots = block_slots(BlockIndex(family, n, w))
    if len(slots) < 2:
        return 0.0
    img, _ = dbar_raw(slots[0], p)
    return inner_product(slots[1], img)


def block_dump_json(nmax: int, p: QParam) -> str:
    import json

    rows = []
    for entry in block_structure(nmax, p):
        b = entry["block"]
        slot_names = []
        for s in entry["slots"]:
            if s.deg0:
                slot_names.append("deg0")
            elif s.deg2:
                slot_names.append("deg2")
            else:
                slot_names.append("deg1")
        rows.append({
            "family": b.family,
            "n": b.n,
            "white": list(b.white),
            "slots": slot_names,
            "dbar_matrix": [[float(x) for x in row] for row in entry["dbar_matrix"]],
        })
    return json.dumps({"q": p.q, "nmax": nmax, "blocks": rows}, sort_keys=True)


def form_basis(nmax: int) -> list[FormVector]:
    """Orthonormal basis of the truncated full complex, block by block."""
    out = []
    for n in range(nmax + 1):
        for w in irreps.gt_triples((n, n)):
            out.extend(block_slots(BlockIndex("diag", n, w)))
    for n in range(nmax + 1):
        for w in irreps.gt_triples((n, n + 3)):
            out.extend(block_slots(BlockIndex("offdiag", n, w)))
    return out


def random_form(nmax: int, rng) -> FormVector:
    out = FormVector()
    for s in form_basis(nmax):
        out = out + s.scale(rng.uniform(-1.0, 1.0))
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
    """The differentials commute with the symmetry action on forms."""
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
                a = white_act_form(h, op(f, p), p)
                b = op(white_act_form(h, f, p), p)
                worst = max(worst, form_norm(a - b) / scale)
        residuals[gname] = worst
    worst = max(residuals.values())
    return {"nmax": nmax, "q": p.q, "residuals": residuals,
            "max_residual": worst, "passed": worst < tol}
