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
basis vector under E1, F1, E2 or F2, read from the label's ladder_table (its
q-numbers, their square roots and the factors a(j1, j2) and b(j1, j2)),
built once per label and q.  action_row, the dict path's per-row provider,
and action_columns, which builds a whole irrep as sparse columns of (row,
coefficient) pairs, both call it.  action_columns is the one whole-irrep
source: the identity battery multiplies its ladder columns in plain Python
(matmul, add), reads its K and H columns as weights (weights), entry by
entry with the rounding of the column product, and takes each residual's
worst entry in one pass (worst); the classical checks read the
fundamental's columns.  Nothing here loads numpy; the tests scatter the
columns into dense arrays for their oracles.  Columns are built anew on
each call, so each check holds the columns of the label it reads.
"""

from __future__ import annotations

from functools import lru_cache
from math import isfinite, sqrt
from typing import NamedTuple

from . import qarith
from .qarith import QParam, qint, qpow, relative


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

def cartan_twelfths(label, triple) -> tuple[int, int, int]:
    """The exponents (w1, w2, wh) with K1|triple> = q^(w1/12)|triple>, and
    K2 and H alike; each inverse's exponent is the negated one."""
    n1, n2 = label
    j1, j2, mm = triple
    return 6 * mm, 9 * (j1 - j2) + 6 * (n2 - n1) - 3 * mm, 6 * mm - 6 * (j1 - j2) - 4 * (n2 - n1)


# each diagonal generator's place in cartan_twelfths, and its sign
_CARTAN = {"K1": (0, 1), "K1inv": (0, -1), "K2": (1, 1), "K2inv": (1, -1), "H": (2, 1), "Hinv": (2, -1)}


def weight_twelfths(gen: str, label, triple) -> int:
    """Exponent w with gen|triple> = q^(w/12)|triple>, for diagonal gen."""
    if gen not in _CARTAN:
        raise LabelError(f"{gen} is not diagonal")
    k, sign = _CARTAN[gen]
    return sign * cartan_twelfths(label, triple)[k]


@lru_cache(maxsize=256)
def ladder_table(label: IrrepLabel, p: QParam) -> tuple:
    """The factors of the label's ladder moves at q, built once per (label,
    q), as (qi, root, a, b): qi[z] = [z] and root[z] = sqrt([z]) for z = 0 ..
    n1+n2+2, and the q-number factors a[j1][j2] = a(j1, j2) for j1 < n1 and
    b[j1][j2] = b(j1, j2) for j2 >= 1 (b[j1][0] is None) of the moves that
    change j1 and j2."""
    n1, n2 = label
    qi = [qint(z, p) for z in range(n1 + n2 + 3)]
    a = [[sqrt(qi[n1 - j1] * qi[n2 + j1 + 2] * qi[j1 + 1] / (qi[j1 + j2 + 1] * qi[j1 + j2 + 2]))
          for j2 in range(n2 + 1)] for j1 in range(n1)]
    b = [[None] + [sqrt(qi[n1 + j2 + 1] * qi[n2 - j2 + 1] * qi[j2] / (qi[j1 + j2] * qi[j1 + j2 + 1]))
                   for j2 in range(1, n2 + 1)] for j1 in range(n1 + 1)]
    return qi, [sqrt(x) for x in qi], a, b


def ladder_moves(label: IrrepLabel, gen: str, triple, table: tuple) -> tuple:
    """E1, F1, E2 or F2 of one basis vector as ((target triple, coefficient),
    ...), read from the label's ladder_table.  A move is formed only when its
    target is in the basis, and kept when its coefficient is not 0 (a
    product of q-numbers can underflow past the float range)."""
    n1, n2 = label
    j1, j2, mm = triple
    s = j1 + j2
    up, down = (s + mm) // 2, (s - mm) // 2
    qi, root, a, b = table
    if gen == "E1":
        moves = (((j1, j2, mm + 2), sqrt(qi[down] * qi[up + 1])),) if down else ()
    elif gen == "F1":
        moves = (((j1, j2, mm - 2), sqrt(qi[up] * qi[down + 1])),) if up else ()
    elif gen == "E2":
        moves = (((j1 + 1, j2, mm - 1), root[down + 1] * a[j1][j2]),) if j1 < n1 else ()
        if j2 and up:
            moves += (((j1, j2 - 1, mm - 1), root[up] * b[j1][j2]),)
    elif gen == "F2":
        # adjoint of E2, written out so the transpose contract is testable
        moves = (((j1 - 1, j2, mm + 1), root[down] * a[j1 - 1][j2]),) if j1 and down else ()
        if j2 < n2:
            moves += (((j1, j2 + 1, mm + 1), root[up + 1] * b[j1][j2 + 1]),)
    else:
        raise LabelError(f"unknown generator {gen!r}")
    for _, c in moves:
        if not c:
            return tuple([m for m in moves if m[1]])
    return moves


def action_row(label, gen: str, triple, p: QParam) -> tuple:
    """gen|triple> as ((target triple, coefficient), ...), zeros dropped.

    The dict path's per-row provider; sparse by construction (K/H: 1 entry,
    E1/F1: <=1, E2/F2: <=2).
    """
    label = check_label(label)
    if gen in DIAGONAL_GENERATORS:
        c = qpow(1, p) ** weight_twelfths(gen, label, triple)
        return ((triple, c),) if c else ()
    return ladder_moves(label, gen, triple, ladder_table(label, p))


def action_columns(label, p: QParam) -> dict[str, list[tuple]]:
    """Every generator on the ordered GT basis as a list of columns: column
    j holds the (row, coefficient) pairs of action_row of basis vector j,
    the ladder moves from ladder_moves over the label's ladder_table.  K and
    H are the weights t**w, t = qpow(1, p), one per distinct w."""
    label = check_label(label)
    index = gt_index(label)
    table = ladder_table(label, p)
    out = {gen: [tuple([(index[t], c) for t, c in ladder_moves(label, gen, src, table)]) for src in index]
           for gen in ("E1", "F1", "E2", "F2")}
    base = qpow(1, p)
    cartan = [cartan_twelfths(label, t) for t in index]
    for gen in DIAGONAL_GENERATORS:
        k, sign = _CARTAN[gen]
        w = [sign * c[k] for c in cartan]
        power = {x: base ** x for x in set(w)}
        out[gen] = [((i, power[x]),) if power[x] else () for i, x in enumerate(w)]
    return out


def weights(cols) -> list[float]:
    """The diagonal of a K or H column list, 0.0 where a column is empty (its
    weight underflowed).  Wherever a residual is finite, so are the other
    factors of each product with a weight, and a 0.0 adds what no entry adds.
    A weight past the float range raises OverflowError, as its residual would."""
    w = [col[0][1] if col else 0.0 for col in cols]
    if not all(map(isfinite, w)):
        raise OverflowError("a diagonal weight outside the float range")
    return w


# -- products of column lists ---------------------------------------------------

def diagonal(values) -> list[tuple]:
    """The column list of the diagonal matrix of values."""
    return [((j, x),) for j, x in enumerate(values)]


def matmul(*factors) -> list[tuple]:
    """Product of column lists, left to right as numpy's a @ b @ c: column j
    of a @ b sums b[k, j] * a[:, k] over b's column j in order; a column
    with one entry, as each K or H column has, scales a column of a."""
    out = factors[0]
    for right in factors[1:]:
        left, out = out, []
        append = out.append
        for col in right:
            if not col:
                append(())
            elif len(col) == 1:
                k, y = col[0]
                lk = left[k]
                if len(lk) == 1:
                    i, x = lk[0]
                    append(((i, x * y),))
                else:
                    append(tuple([(i, x * y) for i, x in lk]))
            else:
                acc: dict = {}
                get = acc.get
                for k, y in col:
                    for i, x in left[k]:
                        acc[i] = get(i, 0.0) + x * y
                append(tuple(acc.items()))
    return out


def scaled(c: float, m) -> list[tuple]:
    """c * m, entry by entry."""
    return [tuple([(i, c * y) for i, y in col]) for col in m]


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


def worst(a, *terms) -> float:
    """largest(add(a, *terms)) in one pass: each entry's sum is formed as add
    forms it, and no column is built."""
    vals: list = []
    for j, col in enumerate(a):
        acc = dict(col)
        get = acc.get
        for c, m in terms:
            for i, y in m[j]:
                acc[i] = get(i, 0.0) + c * y
        vals += acc.values()
    return qarith.largest(vals)


def largest(*mats) -> float:
    """qarith.largest of the entries of column lists, flattened into one list."""
    return qarith.largest([x for m in mats for col in m for _, x in col])


def residual(lhs, rhs=None, scale=None) -> float:
    """qarith.relative of the largest |entry| of lhs - rhs (of lhs without rhs)
    and max(scale, 1), scale being by default the largest entry of both sides."""
    diff = largest(lhs) if rhs is None else worst(lhs, (-1.0, rhs))
    return relative(diff, max(largest(lhs, rhs) if scale is None else scale, 1.0))


def paired_residual(lhs: list, rhs: list, scale=None) -> float:
    """residual of two sides given as lists of entries, lhs[k] and rhs[k] at
    one place, 0.0 standing for no entry."""
    diff = qarith.largest([x - y for x, y in zip(lhs, rhs)])
    return relative(diff, max(qarith.largest(lhs + rhs) if scale is None else scale, 1.0))


def verify_hopf_relations(label, p: QParam, tol: float = 1e-11) -> dict:
    """Check every defining relation of the symmetry algebra on one irrep.

    Returns {"passed": bool, "max_residual": float, "relations": [...]},
    one entry per relation.  Residuals are measured relative to the norms
    of the constituent matrix products, the natural matrix scale (the
    products themselves grow like powers of q-numbers on large irreps).

    The relations among K and H, and K X K^-1 = c X, are read entry by
    entry off the weights, each entry rounded as the column product rounds
    it; the ladder relations multiply columns, and the products that two
    Serre relations share are formed once.
    """
    label = check_label(label)
    q = p.q
    g = action_columns(label, p)
    w = {name: weights(g[name]) for name in DIAGONAL_GENERATORS}

    def conjugated(i, x, c):  # K_i X K_i^-1 against c X: X's entry (r, y) in column j is (w_r y) v_j
        k, kinv, cols = w[f"K{i}"], w[f"K{i}inv"], g[x]
        return paired_residual([(k[r] * y) * v for col, v in zip(cols, kinv) for r, y in col],
                               [c * y for col in cols for _, y in col])

    def serre(x):
        a1, a2 = g[f"{x}1"], g[f"{x}2"]
        p12, p21 = matmul(a1, a2), matmul(a2, a1)
        s1, s2 = scaled(1.0 / q, a1), scaled(1.0 / q, a2)
        c12 = add(p12, (-1.0, matmul(s2, a1)))  # [X1,X2]_q
        c21 = add(p21, (-1.0, matmul(s1, a2)))  # [X2,X1]_q
        for i, j, a, b, ab, ba, sa, cab, cba in ((1, 2, a1, a2, p12, p21, s1, c12, c21),
                                                (2, 1, a2, a1, p21, p12, s2, c21, c12)):
            aab, aba, baa = matmul(a, a, b), matmul(ab, a), matmul(ba, a)
            scale = max(largest(aab, aba, baa), 1.0)
            yield f"serre {x}{i}{x}{j}", relative(worst(aab, (-(q + 1.0 / q), aba), (1.0, baa)), scale)
            yield (f"q-commutator serre [{x}{i},[{x}{j},{x}{i}]_q]_q",
                   relative(worst(matmul(a, cba), (-1.0, matmul(scaled(1.0 / q, cba), a))), scale))
            yield (f"q-commutator serre [[{x}{i},{x}{j}]_q,{x}{i}]_q",
                   relative(worst(matmul(cab, a), (-1.0, matmul(sa, cab))), scale))

    # (name, residual), each relation reduced to its residual before the
    # next one's products are formed
    def relations():
        k1, k2, k2inv, h = w["K1"], w["K2"], w["K2inv"], w["H"]
        yield "[K1,K2] = 0", paired_residual([x * y for x, y in zip(k1, k2)], [y * x for x, y in zip(k1, k2)])
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            yield (f"K{i} E{j} K{i}^-1 = q^{'1' if i == j else '-1/2'} E{j}",
                   conjugated(i, f"E{j}", q if i == j else qpow(-6, p)))
            yield (f"K{i} F{j} K{i}^-1 = q^{'-1' if i == j else '1/2'} F{j}",
                   conjugated(i, f"F{j}", 1.0 / q if i == j else qpow(6, p)))
        for i in (1, 2):
            ef, fe = matmul(g[f"E{i}"], g[f"F{i}"]), matmul(g[f"F{i}"], g[f"E{i}"])
            rhs = diagonal([(x * x - y * y) / (q - 1.0 / q) for x, y in zip(w[f"K{i}"], w[f"K{i}inv"])])
            yield (f"[E{i},F{i}] = (K{i}^2 - K{i}^-2)/(q - q^-1)",
                   relative(worst(ef, (-1.0, fe), (-1.0, rhs)), max(largest(ef, fe), 1.0)))
        yield "[E1,F2] = 0", residual(matmul(g["E1"], g["F2"]), matmul(g["F2"], g["E1"]))
        yield "[E2,F1] = 0", residual(matmul(g["E2"], g["F1"]), matmul(g["F1"], g["E2"]))
        yield from serre("E")
        yield from serre("F")
        # H is the cube-root extension: H^3 = (K1 K2^-1)^2, and H is central
        # relative to the Cartan part
        yield ("H^3 = (K1 K2^-1)^2",
               paired_residual([(x * x) * x for x in h], [((x * y) * x) * y for x, y in zip(k1, k2inv)]))
        yield "H H^-1 = 1", paired_residual([x * y for x, y in zip(h, w["Hinv"])], [1.0] * len(h))

    report = []
    worst_r = 0.0
    for name, r in relations():
        worst_r = max(worst_r, r)
        report.append({"relation": name, "residual": r, "passed": r < tol})
    return {
        "label": list(label),
        "q": q,
        "tol": tol,
        "passed": worst_r < tol,
        "max_residual": worst_r,
        "relations": report,
    }


def labels_up_to(total: int) -> list[IrrepLabel]:
    """All irrep labels with n1 + n2 <= total, ordered."""
    return [IrrepLabel(n1, n2) for s in range(total + 1) for n1 in range(s + 1) for n2 in [s - n1]]
