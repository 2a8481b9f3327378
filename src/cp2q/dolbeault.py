"""Antiholomorphic forms on the quantum projective plane and the operators
between them.

A form is a plain Peter-Weyl vector: the black weight of each component
fixes which part of the complex it belongs to.  Black singlets of V(n,n)
are degree 0, black singlets of V(n,n+3) (the charge-3 line bundle) are
degree 2, and black spin-1/2 doublets (v+, v-) of either family are
degree 1; each family's irrep, doublet and slot degrees are read from
peterweyl.FAMILIES.  The raising operator sends a 0-form a to
(X* > a, E2 > a) and a 1-form v to -E2 > v+ - Y > v-, all by the black
action; its adjoint uses the mirrored lowering words.  Everything is
orthonormal in the Peter-Weyl basis, with doublets carrying squared norm
2, so the normalized degree-1 slot vectors pick up a 1/sqrt(2).

The truncated complex is indexed once, by its (family, n) pairs
(families), each owning its irrep's slots white index by white index.  The
differentials act only on the black leg and the white generators only on
the white leg, so on one pair's slots a differential is I_dim (x) B, B its
black block, read from the checked dict path above on the first white index
(black_block).  The complex and equivariance checks run pair by pair in
plain Python, on B and on the dict path at seeded white indices.  The dense
oracles of the tests read the two differentials assembled from the blocks
as numpy arrays (slot_operator), which import numpy inside the function.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Mapping
from math import sqrt
from types import MappingProxyType
from typing import NamedTuple

from . import irreps, peterweyl as pw, ualg
from .peterweyl import PWVector, add_into
from .qarith import QParam, VerificationError, largest, relative


class MembershipError(VerificationError, ArithmeticError):
    """Operator image left the form spaces beyond tolerance."""


FormVector = PWVector  # a form is a Peter-Weyl vector on the form spaces

# (n2 - n1, black triple) -> part of the complex: degrees "0" and "2", and
# the two legs "+" and "-" of a degree-1 doublet
_PARTS = {
    (pw.FAMILIES["diag"].shift, (0, 0, 0)): "0",
    (pw.FAMILIES["offdiag"].shift, (0, 0, 0)): "2",
    **{(f.shift, black): leg for f in pw.FAMILIES.values() for black, leg in zip(f.doublet, "+-")},
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
    Returns the image and the largest off-space coefficient, in the input or
    the image, against the largest coefficient of a black image before the
    sum (at least 1): what is left when summands of that size cancel."""
    ops = _operators(p)
    pieces: dict = {}
    junk, summands = [], []  # the off-space coefficients, the black images' coefficients
    for k, c in f.items():
        name = part(k)
        if name is None:
            junk.append(c)
        else:
            pieces.setdefault(name, {})[k] = c
    out: FormVector = {}
    for target, legs in table.items():
        img: PWVector = {}
        for source, op, sign in legs:
            if source in pieces:
                leg = pw.black_act(ops[op], pieces[source], p)
                summands.extend(leg.values())
                add_into(img, leg, sign)
        for k, c in img.items():
            if part(k) == target:
                out[k] = c
            else:
                junk.append(c)
    return out, relative(largest(junk), max(largest(summands), 1.0))


def dbar_raw(f: FormVector, p: QParam) -> tuple[FormVector, float]:
    """One application of the raising differential: the image and _apply's
    relative off-space residual, which vanishes up to rounding."""
    return _apply(_DBAR, f, p)


def dbar_dag_raw(f: FormVector, p: QParam) -> tuple[FormVector, float]:
    return _apply(_DBAR_DAG, f, p)


# largest relative off-space residual of _apply that dbar and dbar_dag accept
_OFFSPACE_TOL = 1e-9


def _checked(raw, f: FormVector, p: QParam) -> FormVector:
    out, junk = raw(f, p)
    if junk > _OFFSPACE_TOL:
        raise MembershipError(f"image left the form spaces: residual {junk:.3e}")
    return out


def dbar(f: FormVector, p: QParam) -> FormVector:
    """Degree-raising differential; validates that the image lands in the
    form spaces (doublet membership, line-bundle support)."""
    return _checked(dbar_raw, f, p)


def dbar_dag(f: FormVector, p: QParam) -> FormVector:
    """Degree-lowering adjoint differential, with the same validation."""
    return _checked(dbar_dag_raw, f, p)


# -- slot bases and blocks ----------------------------------------------------

def family_label(family: str, n: int) -> tuple[int, int]:
    """The irrep V(n, n + shift) of a (family, n) block."""
    return (n, n + pw.FAMILIES[pw.family_key(family)].shift)


def block_degrees(family: str, n: int) -> tuple[int, ...]:
    """Form degree of each slot of a (family, n) block, in block_slots order.
    V(0,0) has no doublet, so the diag(0) block keeps degree 0 alone."""
    family = pw.family_key(family)
    return (0,) if (family, n) == ("diag", 0) else pw.FAMILIES[family].degrees


def block_slots(family: str, n: int, white=(0, 0, 0)) -> list[FormVector]:
    """Orthonormal slot vectors of the (family, n, white) block, in
    block_degrees order: the black singlet, and on degree 1 the family's
    doublet, normalized.  white is a triple of the block's own gt_triples."""
    family = pw.family_key(family)
    shift, doublet, _, _ = pw.FAMILIES[family]
    white = tuple(white)
    singlet = {pw.PWBasisVector(n, n + shift, white, (0, 0, 0)): 1.0}
    doublet = {pw.PWBasisVector(n, n + shift, white, black): 1.0 / sqrt(2.0) for black in doublet}
    return [doublet if d == 1 else singlet for d in block_degrees(family, n)]


# largest distance of an image from the span of the slots, relative to the
# image's largest coefficient
_SPAN_TOL = 1e-9


def _coordinates(img: FormVector, slots) -> list[float]:
    """Coordinates <slot, img> of a form in orthonormal slots.  Raises
    MembershipError when the form is not a combination of the slots."""
    coords, resid = [], dict(img)
    for t in slots:
        coords.append(c := float(inner_product(t, img)))  # an empty image's product is the int 0
        add_into(resid, t, -c)
    junk = relative(largest(resid.values()), max(largest(img.values()), 1.0))
    if junk > _SPAN_TOL:
        raise MembershipError(f"image left the span of the slots: residual {junk:.3e}")
    return coords


def slot_matrix(apply, slots: list[FormVector]) -> list[list[float]]:
    """Matrix of a linear map in an orthonormal slot basis, as a list of rows:
    entry [i][j] is <slots[i], apply(slots[j])>.  Raises MembershipError when
    an image is not a combination of the slots."""
    return [list(row) for row in zip(*(_coordinates(apply(s), slots) for s in slots))]


def black_block(name: str, family: str, n: int, p: QParam) -> list[list[float]]:
    """Matrix of "dbar" or "dbar_dag" on the slots of a (family, n) block, from
    the checked dict path on the first white index, (0, 0, 0) in every irrep:
    the differentials act on the black leg alone, so every white index has
    this block."""
    apply = functools.partial(dbar if name == "dbar" else dbar_dag, p=p)
    return slot_matrix(apply, block_slots(family, n))


# -- slot coordinates -----------------------------------------------------------

def families(nmax: int):
    """(family, n, first slot, irrep dimension, slot degrees) of each
    (family, n) pair, in slot order; its slots run white index by white index."""
    start = 0
    for family in pw.FAMILIES:
        for n in range(nmax + 1):
            dim, deg = irreps.dim(family_label(family, n)), block_degrees(family, n)
            yield family, n, start, dim, deg
            start += dim * len(deg)


def slot_degrees(nmax: int) -> list[int]:
    """Form degree of each slot up to the truncation, in form_basis order."""
    return [d for *_, dim, deg in families(nmax) for _ in range(dim) for d in deg]


@functools.lru_cache(maxsize=4)
def slot_vectors(nmax: int) -> tuple:
    """The slot basis up to the truncation, in form_basis order.  Every
    caller shares it, so the slots are read-only."""
    return tuple(MappingProxyType(s) for family, n, *_ in families(nmax)
                 for w in irreps.gt_triples(family_label(family, n)) for s in block_slots(family, n, w))


def form_basis(nmax: int) -> list[FormVector]:
    """Orthonormal basis of the truncated full complex, block by block."""
    return [dict(s) for s in slot_vectors(nmax)]


def random_form(nmax: int, rng) -> FormVector:
    """One uniform draw in [-1, 1] per slot, in form_basis order."""
    out: FormVector = {}
    for s in slot_vectors(nmax):
        add_into(out, s, rng.uniform(-1.0, 1.0))
    return out


class SlotOperator(NamedTuple):
    """A linear map of the truncated complex in slot coordinates, as COO
    triplets: entry (rows[i], cols[i]) is vals[i], with no repeats."""
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    size: int

    def dense(self) -> np.ndarray:
        import numpy as np

        mat = np.zeros((self.size, self.size))
        mat[self.rows, self.cols] = self.vals
        return mat


@functools.lru_cache(maxsize=32)
def slot_operator(name: str, nmax: int, p: QParam) -> SlotOperator:
    """The differential `name`, "dbar" or "dbar_dag", in slot coordinates,
    assembled once per (nmax, p): on each (family, n) pair it is
    I (x) black_block.  Sorted by column, so a product sums each row in
    column order."""
    import numpy as np

    if name not in ("dbar", "dbar_dag"):
        raise ValueError(f"unknown slot operator {name!r}")
    rows, cols, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    size = 0
    for family, n, start, dim, deg in families(nmax):
        k, white = len(deg), np.arange(dim)
        size = start + dim * k
        b = black_block(name, family, n, p)
        for a, c in zip(*np.nonzero(b)):
            rows.append(start + white * k + a)
            cols.append(start + white * k + c)
            vals.append(np.full(dim, b[a][c]))
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    order = np.argsort(cols, kind="stable")
    arrays = (rows[order], cols[order], vals[order])
    for x in arrays:
        x.flags.writeable = False
    return SlotOperator(*arrays, size)


def _difference(a: FormVector, b: FormVector) -> float:
    """Largest coefficient of a - b, against the largest of either."""
    diff = dict(a)
    add_into(diff, b, -1.0)
    return relative(largest(diff.values()), largest([*a.values(), *b.values()]))


def _square_residual(b: list[list[float]]) -> float:
    """Largest entry of b @ b, against the largest product summed into it."""
    k = range(len(b))
    terms = [[b[i][m] * b[m][j] for m in k] for i in k for j in k]
    return relative(largest(map(sum, terms)), largest([x for t in terms for x in t]))


def _transpose_residual(a: list[list[float]], b: list[list[float]]) -> float:
    """Largest |a[j][i] - b[i][j]|, against the largest entry of either."""
    pairs = [(a[j][i], b[i][j]) for i in range(len(b)) for j in range(len(b))]
    return relative(largest([x - y for x, y in pairs]), largest([x for pair in pairs for x in pair]))


def verify_complex(nmax: int, p: QParam, tol: float = 1e-10, trials: int = 20) -> dict:
    """Squared differentials vanish and the two are adjoint to each other,
    decided on each (family, n) pair's black blocks B and B_dag: B @ B, and
    B^T against B_dag.  At `trials` seeded white indices per pair the dict
    path's block of each differential must be the transpose of the other's
    black block too, so the adjointness residual also covers that every white
    index has the blocks.  Residuals are relative to the largest summand."""
    rng = random.Random(7)
    worst = dict.fromkeys(("dbar_squared", "dbar_dag_squared", "adjointness"), 0.0)
    for family, n, _, dim, _ in families(nmax):
        b, bd = black_block("dbar", family, n, p), black_block("dbar_dag", family, n, p)
        adj = [_transpose_residual(b, bd)]
        for w in rng.sample(irreps.gt_triples(family_label(family, n)), min(trials, dim)):
            slots = block_slots(family, n, w)
            adj += [_transpose_residual(slot_matrix(functools.partial(op, p=p), slots), other)
                    for op, other in ((dbar, bd), (dbar_dag, b))]
        for key, value in zip(worst, (_square_residual(b), _square_residual(bd), max(adj))):
            worst[key] = max(worst[key], value)
    return {"nmax": nmax, "q": p.q, **worst, "passed": max(worst.values()) < tol}


WHITE_GENERATORS = ("E1", "F1", "E2", "F2", "K1", "K2")


def verify_equivariance(nmax: int, p: QParam, tol: float = 1e-10, trials: int = 5) -> dict:
    """The differentials commute with the white (symmetry) action: on the
    dict path, op(white_act(G, s)) against white_act(G, op(s)) for each white
    generator G, differential op and slot s at `trials` seeded white indices
    per (family, n) pair.  G moves s onto the same slot at other white
    indices, so by linearity the left side sums their images, each computed
    once.  Residuals are relative to the largest coefficient of either side.

    In this model that holds by construction: the white action moves only
    the white leg of each Peter-Weyl key and the differentials act only on
    the black leg.  The check guards the implementation; it is no evidence
    about the paper's operators.
    """
    rng = random.Random(11)
    slots = functools.cache(block_slots)
    images = functools.cache(lambda family, n, w: [(dbar(s, p), dbar_dag(s, p)) for s in slots(family, n, w)])
    gens = {g: ualg.AlgebraElement.gen(g) for g in WHITE_GENERATORS}
    residuals = dict.fromkeys(gens, 0.0)
    for family, n, _, dim, _ in families(nmax):
        for w in rng.sample(irreps.gt_triples(family_label(family, n)), min(trials, dim)):
            for i, s in enumerate(slots(family, n, w)):
                for g, elem in gens.items():
                    moved = pw.white_act(elem, s, p)
                    targets = list(dict.fromkeys(k.white for k in moved))
                    coords = _coordinates(moved, [slots(family, n, t)[i] for t in targets])
                    for o, img in enumerate(images(family, n, w)[i]):
                        lhs: FormVector = {}
                        for t, c in zip(targets, coords):
                            add_into(lhs, images(family, n, t)[i][o], c)
                        residuals[g] = max(residuals[g], _difference(lhs, pw.white_act(elem, img, p)))
    worst = max(residuals.values())
    return {"nmax": nmax, "q": p.q, "residuals": residuals,
            "max_residual": worst, "passed": worst < tol}
