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

The ladder formulas are written once, in ladder_moves: the moves of one
basis vector under E1, F1, E2 or F2, read from a table of the label's
q-numbers.  action_row, the dict path's per-row provider, and
action_columns, which builds a whole irrep as sparse columns of (row,
coefficient) pairs, both call it.  action_columns is the one whole-irrep
source: the identity battery multiplies its columns in plain Python (matmul,
add) and the classical checks read the fundamental's.  Nothing here loads
numpy; the tests scatter the columns into dense arrays for their oracles.
Columns are built anew on each call, so each check holds the columns of the
label it reads.
"""

from __future__ import annotations

from math import sqrt
from typing import NamedTuple

from . import qarith
from .qarith import QParam, qint, relative


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


def ladder_moves(label: IrrepLabel, gen: str, triple, qi) -> tuple:
    """E1, F1, E2 or F2 of one basis vector as ((target triple, coefficient),
    ...), from qi[z] = [z], the label's q-numbers for z = 0 .. n1+n2+2.  A move
    is kept when its target is in the basis and its coefficient is not 0; past
    the float range a move off the basis can carry nan, and is dropped too."""
    n1, n2 = label
    j1, j2, mm = triple
    s = j1 + j2
    up, down = (s + mm) // 2, (s - mm) // 2

    def a(j1, j2):
        return sqrt(qi[n1 - j1] * qi[n2 + j1 + 2] * qi[j1 + 1] / (qi[j1 + j2 + 1] * qi[j1 + j2 + 2]))

    def b(j1, j2):
        return sqrt(qi[n1 + j2 + 1] * qi[n2 - j2 + 1] * qi[j2] / (qi[j1 + j2] * qi[j1 + j2 + 1]))

    if gen == "E1":
        moves = [((j1, j2, mm + 2), sqrt(qi[down] * qi[up + 1]))]
    elif gen == "F1":
        moves = [((j1, j2, mm - 2), sqrt(qi[up] * qi[down + 1]))]
    elif gen == "E2":
        moves = [((j1 + 1, j2, mm - 1), sqrt(qi[down + 1]) * a(j1, j2))]
        if j2 >= 1:  # at j2 = 0 the move has no target, and b can divide by [0]
            moves.append(((j1, j2 - 1, mm - 1), sqrt(qi[up]) * b(j1, j2)))
    elif gen == "F2":
        # adjoint of E2, written out so the transpose contract is testable
        moves = [((j1 - 1, j2, mm + 1), sqrt(qi[down]) * a(j1 - 1, j2))] if j1 >= 1 else []
        moves.append(((j1, j2 + 1, mm + 1), sqrt(qi[up + 1]) * b(j1, j2 + 1)))
    else:
        raise LabelError(f"unknown generator {gen!r}")
    return tuple((t, c) for t, c in moves if c and valid_triple(label, t))


def action_row(label, gen: str, triple, p: QParam) -> tuple:
    """gen|triple> as ((target triple, coefficient), ...), zeros dropped.

    The dict path's per-row provider; sparse by construction (K/H: 1 entry,
    E1/F1: <=1, E2/F2: <=2).
    """
    label = check_label(label)
    if gen in DIAGONAL_GENERATORS:
        c = (p.q ** (1.0 / 12.0)) ** weight_twelfths(gen, label, triple)
        return ((triple, c),) if c else ()
    return ladder_moves(label, gen, triple, [qint(z, p) for z in range(sum(label) + 3)])


def action_columns(label, p: QParam) -> dict[str, list[tuple]]:
    """Every generator on the ordered GT basis as a list of columns: column
    j holds the (row, coefficient) pairs of action_row of basis vector j,
    the ladder moves from ladder_moves over one table of q-numbers.  K and H
    are the weights (q^(1/12))**w, one per distinct w."""
    label = check_label(label)
    index = gt_index(label)
    qi = [qint(z, p) for z in range(sum(label) + 3)]
    out = {gen: [tuple((index[t], c) for t, c in ladder_moves(label, gen, src, qi)) for src in index]
           for gen in ("E1", "F1", "E2", "F2")}
    base = p.q ** (1.0 / 12.0)
    for gen in DIAGONAL_GENERATORS:
        w = [weight_twelfths(gen, label, t) for t in index]
        power = {x: base ** x for x in set(w)}
        out[gen] = [((i, power[x]),) if power[x] else () for i, x in enumerate(w)]
    return out


# -- products of column lists ---------------------------------------------------

def identity(n: int) -> list[tuple]:
    return [((j, 1.0),) for j in range(n)]


def matmul(*factors) -> list[tuple]:
    """Product of column lists, left to right as numpy's a @ b @ c: column j
    of a @ b sums b[k, j] * a[:, k] over b's column j in order; a column
    with one entry, as each K or H column has, scales a column of a."""
    out = factors[0]
    for right in factors[1:]:
        left, out = out, []
        append = out.append
        for col in right:
            if len(col) == 1:
                k, y = col[0]
                append(tuple([(i, x * y) for i, x in left[k]]))
                continue
            acc: dict = {}
            get = acc.get
            for k, y in col:
                for i, x in left[k]:
                    acc[i] = get(i, 0.0) + x * y
            append(tuple(acc.items()))
    return out


def add(a, *terms) -> list[tuple]:
    """a + c1 * m1 + c2 * m2 + ... over the (c, m) pairs of terms, column
    lists of one size, entry by entry in that order, an entry missing from a
    column read as 0.0: numpy's a + c1 * m1 + ...."""
    out = []
    for j, col in enumerate(a):
        acc = dict(col)
        for c, m in terms:
            for i, y in m[j]:
                acc[i] = acc.get(i, 0.0) + c * y
        out.append(tuple(acc.items()))
    return out


def largest(*mats) -> float:
    """qarith.largest of the entries of column lists, flattened into one list."""
    return qarith.largest([x for m in mats for col in m for _, x in col])


def residual(lhs, rhs=None, scale=None) -> float:
    """qarith.relative of the largest |entry| of lhs - rhs (of lhs without rhs)
    and max(scale, 1), scale being by default the largest entry of both sides."""
    diff = lhs if rhs is None else add(lhs, (-1.0, rhs))
    return relative(largest(diff), max(largest(lhs, rhs) if scale is None else scale, 1.0))


def verify_hopf_relations(label, p: QParam, tol: float = 1e-11) -> dict:
    """Check every defining relation of the symmetry algebra on one irrep.

    Returns {"passed": bool, "max_residual": float, "relations": [...]},
    one entry per relation.  Residuals are measured relative to the norms
    of the constituent matrix products, the natural matrix scale (the
    products themselves grow like powers of q-numbers on large irreps).
    """
    label = check_label(label)
    q = p.q
    g = action_columns(label, p)
    zero = [()] * dim(label)

    def qcomm(a, b, ab=None):  # ab: a @ b when the caller has it
        return add(matmul(a, b) if ab is None else ab, (-1.0, matmul(add(zero, (1.0 / q, b)), a)))

    def serre(x, i, j):
        a, b = g[f"{x}{i}"], g[f"{x}{j}"]
        ab, ba = matmul(a, b), matmul(b, a)
        aab, aba, baa = matmul(a, a, b), matmul(ab, a), matmul(ba, a)
        scale = largest(aab, aba, baa)
        yield f"serre {x}{i}{x}{j}", residual(add(aab, (-(q + 1.0 / q), aba), (1.0, baa)), None, scale)
        yield (f"q-commutator serre [{x}{i},[{x}{j},{x}{i}]_q]_q",
               residual(qcomm(a, qcomm(b, a, ba)), None, scale))
        yield (f"q-commutator serre [[{x}{i},{x}{j}]_q,{x}{i}]_q",
               residual(qcomm(qcomm(a, b, ab), a), None, scale))

    # (name, residual), each relation reduced to its residual before the
    # next one's products are formed
    def relations():
        yield "[K1,K2] = 0", residual(matmul(g["K1"], g["K2"]), matmul(g["K2"], g["K1"]))
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            ki, kiv = g[f"K{i}"], g[f"K{i}inv"]
            scale_e = q if i == j else q ** -0.5
            yield (f"K{i} E{j} K{i}^-1 = q^{'1' if i == j else '-1/2'} E{j}",
                   residual(matmul(ki, g[f"E{j}"], kiv), add(zero, (scale_e, g[f"E{j}"]))))
            scale_f = 1.0 / q if i == j else q**0.5
            yield (f"K{i} F{j} K{i}^-1 = q^{'-1' if i == j else '1/2'} F{j}",
                   residual(matmul(ki, g[f"F{j}"], kiv), add(zero, (scale_f, g[f"F{j}"]))))
        for i in (1, 2):
            ei, fi = g[f"E{i}"], g[f"F{i}"]
            ki, kiv = g[f"K{i}"], g[f"K{i}inv"]
            ef, fe = matmul(ei, fi), matmul(fi, ei)
            k2 = [tuple((r, x / (q - 1.0 / q)) for r, x in col)
                  for col in add(matmul(ki, ki), (-1.0, matmul(kiv, kiv)))]
            yield (f"[E{i},F{i}] = (K{i}^2 - K{i}^-2)/(q - q^-1)",
                   residual(add(ef, (-1.0, fe)), k2, largest(ef, fe)))
        yield "[E1,F2] = 0", residual(matmul(g["E1"], g["F2"]), matmul(g["F2"], g["E1"]))
        yield "[E2,F1] = 0", residual(matmul(g["E2"], g["F1"]), matmul(g["F1"], g["E2"]))
        for x in ("E", "F"):
            for i, j in ((1, 2), (2, 1)):
                yield from serre(x, i, j)
        # H is the cube-root extension: H^3 = (K1 K2^-1)^2, and H is central
        # relative to the Cartan part
        yield ("H^3 = (K1 K2^-1)^2",
               residual(matmul(g["H"], g["H"], g["H"]), matmul(g["K1"], g["K2inv"], g["K1"], g["K2inv"])))
        yield "H H^-1 = 1", residual(matmul(g["H"], g["Hinv"]), identity(dim(label)))

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
