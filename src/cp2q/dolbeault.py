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

The checks over the whole truncated complex run in slot coordinates: the
slot basis is indexed once per truncation, and the differentials and the
white generators are assembled once per (truncation, q) as sparse
matrices, column by column from the checked dict path above, which stays
the oracle.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from math import sqrt
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import irreps, peterweyl as pw, ualg
from .peterweyl import PWVector, add_into
from .qarith import QParam, VerificationError


class MembershipError(VerificationError, ArithmeticError):
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


@functools.lru_cache(maxsize=16)
def _operators(p: QParam) -> Mapping:
    return MappingProxyType({
        "X": ualg.x_element(p), "Y": ualg.y_element(p),
        "Xstar": ualg.x_star_element(p), "Ystar": ualg.y_star_element(p),
        "E2": ualg.AlgebraElement.gen("E2"), "F2": ualg.AlgebraElement.gen("F2"),
    })


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


# -- slot coordinates -----------------------------------------------------------

class SlotIndex(NamedTuple):
    """The orthonormal slot basis of the truncated complex, indexed once."""
    slots: tuple  # read-only slot vectors, in form_basis order
    slot_of: Mapping  # Peter-Weyl key -> index of the one slot holding it
    degrees: np.ndarray  # form degree of each slot: 0, 1 or 2


_DEGREE = {"0": 0, "+": 1, "-": 1, "2": 2}


@functools.lru_cache(maxsize=4)
def slot_index(nmax: int) -> SlotIndex:
    """The slot basis up to the truncation, in form_basis order.  Every
    caller shares it, so the slots are read-only."""
    slots = tuple(MappingProxyType(s) for b in blocks(nmax) for s in block_slots(b))
    degrees = np.array([_DEGREE[part(next(iter(s)))] for s in slots], dtype=np.intp)
    degrees.flags.writeable = False
    slot_of = {k: j for j, s in enumerate(slots) for k in s}
    return SlotIndex(slots, MappingProxyType(slot_of), degrees)


def form_basis(nmax: int) -> list[FormVector]:
    """Orthonormal basis of the truncated full complex, block by block."""
    return [dict(s) for s in slot_index(nmax).slots]


def random_form(nmax: int, rng) -> FormVector:
    """One uniform draw in [-1, 1] per slot, in form_basis order."""
    out: FormVector = {}
    for s in slot_index(nmax).slots:
        add_into(out, s, rng.uniform(-1.0, 1.0))
    return out


def _random_coordinates(n: int, rng) -> np.ndarray:
    """Slot coordinates of a random form: the draws of random_form."""
    return np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])


# largest distance of an operator image from the span of the slots,
# relative to the image's largest coefficient
_SPAN_TOL = 1e-9


def _project(img: FormVector, index: SlotIndex) -> dict[int, float]:
    """Slot coordinates of a form, by slot index; raises MembershipError when
    the form is not a combination of the slots."""
    coords: dict[int, float] = {}
    for k in img:
        j = index.slot_of.get(k)
        if j is not None and j not in coords:
            coords[j] = inner_product(index.slots[j], img)
    resid = dict(img)
    for j, c in coords.items():
        add_into(resid, index.slots[j], -c)
    junk = max(map(abs, resid.values()), default=0.0)
    if junk > _SPAN_TOL * max(max(map(abs, img.values()), default=0.0), 1.0):
        raise MembershipError(f"image left the span of the slots: residual {junk:.3e}")
    return coords


class SlotOperator(NamedTuple):
    """A linear map of the truncated complex in slot coordinates, as COO
    triplets: entry (rows[i], cols[i]) is vals[i], with no repeats."""
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    size: int

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * u[self.cols], minlength=self.size)

    def dense(self) -> np.ndarray:
        mat = np.zeros((self.size, self.size))
        mat[self.rows, self.cols] = self.vals
        return mat


WHITE_GENERATORS = ("E1", "F1", "E2", "F2", "K1", "K2")


@functools.lru_cache(maxsize=32)
def slot_operator(name: str, nmax: int, p: QParam) -> SlotOperator:
    """The operator `name` in slot coordinates, assembled once per (nmax, p):
    "dbar", "dbar_dag" or the white action of one of WHITE_GENERATORS.
    Column j holds the slot coordinates of the checked dict-path image of
    slot j."""
    if name in ("dbar", "dbar_dag"):
        apply = functools.partial(dbar if name == "dbar" else dbar_dag, p=p)
    else:
        apply = functools.partial(pw.white_act, ualg.AlgebraElement.gen(name), p=p)
    index = slot_index(nmax)
    rows, cols, vals = [], [], []
    for j, s in enumerate(index.slots):
        for i, c in _project(apply(s), index).items():
            if c != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(c)
    arrays = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
              np.array(vals, dtype=float))
    for a in arrays:
        a.flags.writeable = False
    return SlotOperator(*arrays, len(index.slots))


def verify_complex(nmax: int, p: QParam, tol: float = 1e-10, trials: int = 20, seed: int = 7) -> dict:
    """Squared differentials vanish and the two are adjoint to each other on
    the truncated complex, on random forms in slot coordinates."""
    rng = random.Random(seed)
    n = len(slot_index(nmax).slots)
    d, dd = slot_operator("dbar", nmax, p), slot_operator("dbar_dag", nmax, p)
    worst_d2 = worst_dd2 = worst_adj = 0.0
    vecs = [_random_coordinates(n, rng) for _ in range(trials)]
    for u in vecs:
        scale = max(float(np.linalg.norm(u)), 1.0)
        worst_d2 = max(worst_d2, float(np.linalg.norm(d @ (d @ u))) / scale)
        worst_dd2 = max(worst_dd2, float(np.linalg.norm(dd @ (dd @ u))) / scale)
    for _ in range(trials):
        u, v = _random_coordinates(n, rng), _random_coordinates(n, rng)
        scale = max(float(np.linalg.norm(u) * np.linalg.norm(v)), 1.0)
        worst_adj = max(worst_adj, abs(float((d @ u) @ v - u @ (dd @ v))) / scale)
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
    rng = random.Random(seed)
    n = len(slot_index(nmax).slots)
    ops = (slot_operator("dbar", nmax, p), slot_operator("dbar_dag", nmax, p))
    residuals = {}
    for gname in WHITE_GENERATORS:
        h = slot_operator(gname, nmax, p)
        worst = 0.0
        for _ in range(trials):
            u = _random_coordinates(n, rng)
            scale = max(float(np.linalg.norm(u)), 1.0)
            for op in ops:
                worst = max(worst, float(np.linalg.norm(h @ (op @ u) - op @ (h @ u))) / scale)
        residuals[gname] = worst
    worst = max(residuals.values())
    return {"nmax": nmax, "q": p.q, "residuals": residuals,
            "max_residual": worst, "passed": worst < tol}
