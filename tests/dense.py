"""The identity battery on dense numpy matrices, kept as the tests' oracle.

These are the whole-irrep checks as they ran before they moved to sparse
columns (irreps.action_columns): dense generator matrices (generator_matrix,
the columns scattered into an ndarray), products by numpy's @, and the same
relation lists, scales and report keys.  The sparse checks must reach the same
verdicts, with residuals that differ only where a sum of several products
is rounded in another order.
"""

import numpy as np

from cp2q import irreps, peterweyl as pw, ualg
from cp2q.irreps import GENERATORS, action_columns, check_label, dim


def dense(cols) -> np.ndarray:
    """A square column list (irreps.action_columns, ualg.evaluate) as an ndarray."""
    mat = np.zeros((len(cols), len(cols)))
    for j, col in enumerate(cols):
        for i, x in col:
            mat[i, j] = x
    return mat


def generator_matrix(label, gen: str, p) -> np.ndarray:
    """One generator on the ordered GT basis as a dense ndarray: entry [i, j]
    is the coefficient of basis vector i in action_row of basis vector j."""
    return dense(action_columns(label, p)[gen])


def letter_matrix(mats: dict, label, gen: str, p):
    """The matrix of one generator on label, read from the caller's dict of
    that label's matrices and built into it on the first read."""
    mat = mats.get(gen)
    if mat is None:
        mat = mats[gen] = generator_matrix(label, gen, p)
    return mat


def evaluate(elem, label, p, mats: dict | None = None) -> np.ndarray:
    """Matrix of an element on one irrep: eye @ G1 @ G2 @ ... per word, and
    c * word summed in elem.terms order."""
    mats = {} if mats is None else mats
    n = dim(label)
    out = np.zeros((n, n))
    eye = np.eye(n)
    for w, c in elem.terms.items():
        mat = eye
        for g in w:
            mat = mat @ letter_matrix(mats, label, g, p)
        out += c * mat
    return out


def _mat_scale(*mats) -> float:
    return max(max((np.abs(m).max(initial=0.0) for m in mats), default=0.0), 1.0)


def verify_hopf_relations(label, p, tol: float = 1e-11) -> dict:
    label = check_label(label)
    q = p.q
    g = {name: generator_matrix(label, name, p) for name in GENERATORS}

    def residual(lhs, rhs, scale_mats=None):
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
        yield ("H^3 = (K1 K2^-1)^2",
               residual(g["H"] @ g["H"] @ g["H"], g["K1"] @ g["K2inv"] @ g["K1"] @ g["K2inv"]))
        yield "H H^-1 = 1", residual(g["H"] @ g["Hinv"], np.eye(dim(label)))

    report = [{"relation": name, "residual": r, "passed": r < tol} for name, r in relations()]
    worst = max(e["residual"] for e in report)
    return {"label": list(label), "q": q, "tol": tol, "passed": worst < tol,
            "max_residual": worst, "relations": report}


def verify_casimir_scalar(label, p, tol: float = 1e-10) -> dict:
    mats: dict = {}
    cas = evaluate(ualg.casimir_element(p), label, p, mats)
    value = ualg.casimir_eigenvalue(label[0], label[1], p)
    off = float(np.abs(cas - value * np.eye(cas.shape[0])).max() / max(abs(value), 1.0))
    comm = 0.0
    for gname in GENERATORS:
        g = letter_matrix(mats, label, gname, p)
        cg = cas @ g
        scale = max(np.abs(cg).max(initial=0.0), 1.0)
        comm = max(comm, float(np.abs(cg - g @ cas).max() / scale))
    return {"label": list(label), "scalar": value, "off_scalar_residual": off,
            "commutator_residual": comm, "passed": off < tol and comm < tol}


def word_columns(words, label, p, col: int, mats: dict) -> dict:
    """Column `col` of the matrix of each word, formed as evaluate forms it,
    along the chain of prefix products over the sorted words."""
    chain = [np.eye(dim(label))]  # chain[k]: product of the first k letters
    prev: tuple = ()
    out = {}
    for w in sorted(words):
        shared = 0
        while shared < min(len(w), len(prev)) and w[shared] == prev[shared]:
            shared += 1
        del chain[shared + 1:]
        for g in w[shared:]:
            chain.append(chain[-1] @ letter_matrix(mats, label, g, p))
        out[w] = chain[-1][:, col].copy()
        prev = w
    return out


def verify_gt_lowering(label, p, tol: float = 1e-9) -> dict:
    """Each lowering element's highest-weight column, summed as evaluate sums."""
    label = check_label(label)
    triples = irreps.gt_triples(label)
    hw_idx = triples.index(irreps.highest_weight_triple(label))
    pieces: dict = {}
    elems = [pw.gt_lowering_word(label.n1, label.n2, *t, p, pieces) for t in triples]
    columns = word_columns({w for e in elems for w in e.terms}, label, p, hw_idx, {})
    worst, failures = 0.0, []
    for i, (t, elem) in enumerate(zip(triples, elems)):
        got = np.zeros(len(triples))
        for w, c in elem.terms.items():
            got += c * columns[w]
        expect = np.zeros(len(triples))
        expect[i] = 1.0
        r = float(np.abs(got - expect).max())
        worst = max(worst, r)
        if r >= tol:
            failures.append({"triple": list(t), "residual": r})
    return {"label": list(label), "max_residual": worst, "passed": not failures,
            "failures": failures}
