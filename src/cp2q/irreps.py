"""Irreducible *-representations of the q-deformed su(3) symmetry algebra.

Representations are labeled by two non-negative integers (n1, n2) and
realized on the Gelfand-Tsetlin basis |n1,n2,j1,j2,m> with

    j_i = 0..n_i,   (j1+j2)/2 - |m| a non-negative integer.

Magnetic labels are half-integers; we store mm = 2m throughout so that
basis bookkeeping stays exact.  Generator actions follow the standard
ladder formulas: the K's (and the Casimir extension generator H) act
diagonally with exponents on the t = q^(1/12) lattice, E1 raises m,
E2 moves (j1, m) -> (j1+1, m-1/2) or (j2, m) -> (j2-1, m-1/2) with
square-root coefficients built from q-numbers, and F_i are the transposes
(the *-structure in an orthonormal basis).

generator_triplets evaluates action_row's formulas over a whole irrep.  It
is the one whole-irrep source: dolbeault's slot operators read it, and so
do the dense matrices (generator_matrix), built anew on each call, so each
check holds one dict of matrices for the label it reads.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt
from typing import NamedTuple

from .qarith import QParam, qint


class LabelError(ValueError):
    """Invalid irrep or Gelfand-Tsetlin label."""


class IrrepLabel(NamedTuple):
    n1: int
    n2: int


GENERATORS = ("K1", "K1inv", "K2", "K2inv", "E1", "E2", "F1", "F2", "H", "Hinv")
DIAGONAL_GENERATORS = ("K1", "K1inv", "K2", "K2inv", "H", "Hinv")


def check_label(label) -> IrrepLabel:
    n1, n2 = label
    if n1 < 0 or n2 < 0 or int(n1) != n1 or int(n2) != n2:
        raise LabelError(f"irrep label needs non-negative integers, got {label}")
    return IrrepLabel(int(n1), int(n2))


def dim(label) -> int:
    n1, n2 = check_label(label)
    return (n1 + 1) * (n2 + 1) * (n1 + n2 + 2) // 2


def gt_triples(label) -> list[tuple[int, int, int]]:
    """Ordered (j1, j2, mm) triples, lexicographic in (j1, j2, m)."""
    n1, n2 = check_label(label)
    out = []
    for j1 in range(n1 + 1):
        for j2 in range(n2 + 1):
            s = j1 + j2
            out.append([(j1, j2, mm) for mm in range(-s, s + 1, 2)])
    return [t for block in out for t in block]


def gt_index(label) -> dict[tuple[int, int, int], int]:
    return {t: i for i, t in enumerate(gt_triples(label))}


def valid_triple(label, triple) -> bool:
    n1, n2 = label
    j1, j2, mm = triple
    return 0 <= j1 <= n1 and 0 <= j2 <= n2 and abs(mm) <= j1 + j2 and (mm - j1 - j2) % 2 == 0


def highest_weight_triple(label) -> tuple[int, int, int]:
    n1, _ = check_label(label)
    return (n1, 0, n1)


# -- diagonal weights, in t-units (t = q^(1/12)) ----------------------------

def weight_twelfths(gen: str, label, triple) -> int:
    """Exponent w with gen|triple> = q^(w/12)|triple>, for diagonal gen."""
    n1, n2 = label
    j1, j2, mm = triple
    if gen in ("K1", "K1inv"):
        w = 6 * mm
    elif gen in ("K2", "K2inv"):
        w = 9 * (j1 - j2) + 6 * (n2 - n1) - 3 * mm
    elif gen in ("H", "Hinv"):
        w = 6 * mm - 6 * (j1 - j2) - 4 * (n2 - n1)
    else:
        raise LabelError(f"{gen} is not diagonal")
    return -w if gen.endswith("inv") else w


def coeff_a(label, j1: int, j2: int, p: QParam) -> float:
    n1, n2 = label
    num = qint(n1 - j1, p) * qint(n2 + j1 + 2, p) * qint(j1 + 1, p)
    den = qint(j1 + j2 + 1, p) * qint(j1 + j2 + 2, p)
    return sqrt(num / den)


def coeff_b(label, j1: int, j2: int, p: QParam) -> float:
    if j1 + j2 == 0:
        return 1.0
    n1, n2 = label
    num = qint(n1 + j2 + 1, p) * qint(n2 - j2 + 1, p) * qint(j2, p)
    den = qint(j1 + j2, p) * qint(j1 + j2 + 1, p)
    return sqrt(num / den)


def _qn(half_arg: int, p: QParam) -> float:
    # q-number of a half-integer given as twice its value
    if half_arg % 2 == 0:
        return qint(half_arg // 2, p)
    from fractions import Fraction

    return qint(Fraction(half_arg, 2), p)


def action_row(label, gen: str, triple, p: QParam) -> tuple:
    """gen|triple> as ((target triple, coefficient), ...), zeros dropped.

    The single source of generator actions; sparse by construction
    (K/H: 1 entry, E1/F1: <=1, E2/F2: <=2).
    """
    label = check_label(label)
    q = p.q
    j1, j2, mm = triple
    s = j1 + j2
    if gen in DIAGONAL_GENERATORS:
        terms = [(triple, (q ** (1.0 / 12.0)) ** weight_twelfths(gen, label, triple))]
    elif gen == "E1":
        terms = [((j1, j2, mm + 2), sqrt(_qn(s - mm, p) * _qn(s + mm + 2, p)))]
    elif gen == "F1":
        terms = [((j1, j2, mm - 2), sqrt(_qn(s + mm, p) * _qn(s - mm + 2, p)))]
    elif gen == "E2":
        terms = [((j1 + 1, j2, mm - 1), sqrt(_qn(s - mm + 2, p)) * coeff_a(label, j1, j2, p))]
        if valid_triple(label, (j1, j2 - 1, mm - 1)):
            terms.append(((j1, j2 - 1, mm - 1), sqrt(_qn(s + mm, p)) * coeff_b(label, j1, j2, p)))
    elif gen == "F2":
        # adjoint of E2, written out so the transpose contract is testable
        terms = []
        if j1 >= 1:
            terms.append(((j1 - 1, j2, mm + 1), sqrt(_qn(s - mm, p)) * coeff_a(label, j1 - 1, j2, p)))
        if j2 + 1 <= label.n2:
            terms.append(((j1, j2 + 1, mm + 1), sqrt(_qn(s + mm + 2, p)) * coeff_b(label, j1, j2 + 1, p)))
    else:
        raise LabelError(f"unknown generator {gen!r}")
    return tuple((t, c) for t, c in terms if c)


def generator_action(label, gen: str, p: QParam) -> list[list[tuple[int, float]]]:
    """Action of one generator as an adjacency list over the ordered basis:
    entry i holds the (target index, coefficient) pairs of gen|i>."""
    label = check_label(label)
    index = gt_index(label)
    return [[(index[t], c) for t, c in action_row(label, gen, triple, p)]
            for triple in gt_triples(label)]


# the caches hold what one verify-hopf or verify-casimir run reaches at
# --total-degree 12 (TOTAL_DEGREE_GUARD in cli): 13 totals at one q and
# 91 labels
@lru_cache(maxsize=16)
def _qn_table(p: QParam, top: int) -> np.ndarray:
    """_qn(h) for h = 0 .. 2*top + 4: every q-number an irrep of total
    degree top reaches, indexed by twice its argument.  Read-only, as it is
    shared."""
    import numpy as np

    table = np.array([_qn(h, p) for h in range(2 * top + 5)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=128)
def _basis_arrays(label: IrrepLabel) -> tuple:
    """(j1, j2, mm) over the ordered basis, and offset[j1, j2], the index of
    the first triple of block (j1, j2): triple (j1, j2, mm) sits at
    offset[j1, j2] + (mm + j1 + j2) // 2.  Read-only, as they are shared."""
    import numpy as np

    n1, n2 = label
    sizes = np.add.outer(np.arange(n1 + 1), np.arange(n2 + 1)) + 1
    offset = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    out = (*np.array(gt_triples(label)).T, offset)
    for arr in out:
        arr.setflags(write=False)
    return out


def generator_triplets(label, gen: str, p: QParam) -> tuple:
    """One generator on the ordered GT basis as COO triplets (rows, cols,
    vals), move by move: vals[i] is the coefficient of basis vector rows[i]
    in action_row of basis vector cols[i], bit for bit, as the formulas are
    evaluated over the whole basis with action_row's float operations."""
    import numpy as np

    label = check_label(label)
    n1, n2 = label
    j1, j2, mm, offset = _basis_arrays(label)
    s = j1 + j2
    if gen in DIAGONAL_GENERATORS:
        # Python's float ** int per distinct weight: np.power need not round
        # the way libm does
        w = weight_twelfths(gen, label, (j1, j2, mm)).tolist()
        base = p.q ** (1.0 / 12.0)
        power = {x: base ** x for x in set(w)}
        diag = np.arange(len(mm))
        return diag, diag, np.array([power[x] for x in w])
    qn = _qn_table(p, n1 + n2)

    def qi(z):  # qint of an integer array
        return qn[2 * z]

    def a(j1, j2):
        return np.sqrt(qi(n1 - j1) * qi(n2 + j1 + 2) * qi(j1 + 1) / (qi(j1 + j2 + 1) * qi(j1 + j2 + 2)))

    def b(j1, j2):
        return np.sqrt(qi(n1 + j2 + 1) * qi(n2 - j2 + 1) * qi(j2) / (qi(j1 + j2) * qi(j1 + j2 + 1)))

    # per move: the sources whose target is a basis vector, the shift from
    # source to target (j1, j2, mm), and the coefficient on every source; off
    # those sources it may be 0/0 and is never read
    with np.errstate(divide="ignore", invalid="ignore"):
        if gen == "E1":
            moves = [(mm + 2 <= s, (0, 0, 2), np.sqrt(qn[s - mm] * qn[s + mm + 2]))]
        elif gen == "F1":
            moves = [(mm - 2 >= -s, (0, 0, -2), np.sqrt(qn[s + mm] * qn[s - mm + 2]))]
        elif gen == "E2":
            moves = [(j1 + 1 <= n1, (1, 0, -1), np.sqrt(qn[s - mm + 2]) * a(j1, j2)),
                     ((j2 >= 1) & (mm - 1 >= 1 - s), (0, -1, -1), np.sqrt(qn[s + mm]) * b(j1, j2))]
        elif gen == "F2":
            moves = [((j1 >= 1) & (mm + 1 <= s - 1), (-1, 0, 1), np.sqrt(qn[s - mm]) * a(j1 - 1, j2)),
                     (j2 + 1 <= n2, (0, 1, 1), np.sqrt(qn[s + mm + 2]) * b(j1, j2 + 1))]
        else:
            raise LabelError(f"unknown generator {gen!r}")
    out = []
    for valid, (d1, d2, dm), c in moves:
        src = np.flatnonzero(valid & (c != 0))
        t1, t2, tm = j1[src] + d1, j2[src] + d2, mm[src] + dm
        out.append((offset[t1, t2] + (tm + t1 + t2) // 2, src, c[src]))
    return tuple(map(np.concatenate, zip(*out)))


def generator_matrix(label, gen: str, p: QParam):
    """Generator matrix on the ordered GT basis, as a dense read-only real
    ndarray, built anew on each call: a caller that reads a letter more than
    once keeps the matrices of the label it checks.  Entry [i, j] is the
    coefficient of basis vector i in action_row of basis vector j."""
    import numpy as np

    rows, cols, vals = generator_triplets(label, gen, p)
    size = dim(label)
    mat = np.zeros((size, size))
    mat[rows, cols] = vals
    mat.setflags(write=False)
    return mat


def _mat_scale(*mats) -> float:
    import numpy as np

    return max(max((np.abs(m).max(initial=0.0) for m in mats), default=0.0), 1.0)


def verify_hopf_relations(label, p: QParam, tol: float = 1e-11) -> dict:
    """Check every defining relation of the symmetry algebra on one irrep.

    Returns {"passed": bool, "max_residual": float, "relations": [...]},
    one entry per relation.  Residuals are measured relative to the norms
    of the constituent matrix products, the natural matrix scale (the
    products themselves grow like powers of q-numbers on large irreps).
    """
    import numpy as np

    label = check_label(label)
    q = p.q
    g = {name: generator_matrix(label, name, p) for name in GENERATORS}

    def residual(lhs, rhs, scale_mats=None):
        # relative to the constituent products when given, else to both sides
        scale = _mat_scale(lhs, rhs) if scale_mats is None else _mat_scale(*scale_mats)
        return float(np.abs(lhs - rhs).max(initial=0.0) / scale)

    def qcomm(a, b):
        return a @ b - (1.0 / q) * b @ a

    def serre(x, i, j):
        a, b = g[f"{x}{i}"], g[f"{x}{j}"]
        aab, aba, baa = a @ a @ b, a @ b @ a, b @ a @ a
        yield (f"serre {x}{i}{x}{j}",
               residual(aab - (q + 1.0 / q) * aba + baa, 0.0, (aab, aba, baa)))
        yield (f"q-commutator serre [{x}{i},[{x}{j},{x}{i}]_q]_q",
               residual(qcomm(a, qcomm(b, a)), 0.0, (aab, aba, baa)))
        yield (f"q-commutator serre [[{x}{i},{x}{j}]_q,{x}{i}]_q",
               residual(qcomm(qcomm(a, b), a), 0.0, (aab, aba, baa)))

    # (name, residual), each relation reduced to its residual before the
    # next one's products are formed
    def relations():
        yield "[K1,K2] = 0", residual(g["K1"] @ g["K2"], g["K2"] @ g["K1"])
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            ki, kiv = g[f"K{i}"], g[f"K{i}inv"]
            scale_e = q if i == j else q ** -0.5
            yield (f"K{i} E{j} K{i}^-1 = q^{'1' if i == j else '-1/2'} E{j}",
                   residual(ki @ g[f"E{j}"] @ kiv, scale_e * g[f"E{j}"]))
            scale_f = 1.0 / q if i == j else q**0.5
            yield (f"K{i} F{j} K{i}^-1 = q^{'-1' if i == j else '1/2'} F{j}",
                   residual(ki @ g[f"F{j}"] @ kiv, scale_f * g[f"F{j}"]))
        for i in (1, 2):
            ei, fi = g[f"E{i}"], g[f"F{i}"]
            ki, kiv = g[f"K{i}"], g[f"K{i}inv"]
            yield (f"[E{i},F{i}] = (K{i}^2 - K{i}^-2)/(q - q^-1)",
                   residual(ei @ fi - fi @ ei, (ki @ ki - kiv @ kiv) / (q - 1.0 / q),
                            (ei @ fi, fi @ ei)))
        yield "[E1,F2] = 0", residual(g["E1"] @ g["F2"], g["F2"] @ g["E1"])
        yield "[E2,F1] = 0", residual(g["E2"] @ g["F1"], g["F1"] @ g["E2"])
        for x in ("E", "F"):
            for i, j in ((1, 2), (2, 1)):
                yield from serre(x, i, j)
        # H is the cube-root extension: H^3 = (K1 K2^-1)^2, and H is central
        # relative to the Cartan part
        yield ("H^3 = (K1 K2^-1)^2",
               residual(g["H"] @ g["H"] @ g["H"], g["K1"] @ g["K2inv"] @ g["K1"] @ g["K2inv"]))
        yield "H H^-1 = 1", residual(g["H"] @ g["Hinv"], np.eye(dim(label)))

    report = []
    worst = 0.0
    for name, r in relations():
        worst = max(worst, r)
        report.append({"relation": name, "residual": r, "passed": r < tol})
    return {
        "label": list(label),
        "q": q,
        "tol": tol,
        "passed": worst < tol,
        "max_residual": worst,
        "relations": report,
    }


def labels_up_to(total: int) -> list[IrrepLabel]:
    """All irrep labels with n1 + n2 <= total, ordered."""
    return [IrrepLabel(n1, n2) for s in range(total + 1) for n1 in range(s + 1) for n2 in [s - n1]]
