"""The identity battery on column products, kept as the tests' oracle.

These are irreps.verify_hopf_relations and ualg.verify_casimir_scalar as they
ran before the diagonal generators were read as weights: every relation,
diagonal ones included, is formed as products (matmul) and sums (add) of the
sparse columns of irreps.action_columns, each side built as columns before
its residual flattens them.  The engine's checks must give the same
residuals bit for bit, or raise alike.

matmul, add and residual are the column kernels as they stood then, so the
oracle does not share the engine's.
"""

from cp2q import irreps, ualg
from cp2q.irreps import check_label, dim
from cp2q.qarith import largest as qlargest, relative


def identity(n: int) -> list[tuple]:
    return [((j, 1.0),) for j in range(n)]


def matmul(*factors) -> list[tuple]:
    """Product of column lists, left to right: column j of a @ b sums
    b[k, j] * a[:, k] over b's column j in order."""
    out = factors[0]
    for right in factors[1:]:
        left, out = out, []
        for col in right:
            if len(col) == 1:
                k, y = col[0]
                out.append(tuple([(i, x * y) for i, x in left[k]]))
                continue
            acc: dict = {}
            for k, y in col:
                for i, x in left[k]:
                    acc[i] = acc.get(i, 0.0) + x * y
            out.append(tuple(acc.items()))
    return out


def add(a, *terms) -> list[tuple]:
    """a + c1 * m1 + c2 * m2 + ..., entry by entry, a missing entry read as 0.0."""
    out = []
    for j, col in enumerate(a):
        acc = dict(col)
        for c, m in terms:
            for i, y in m[j]:
                acc[i] = acc.get(i, 0.0) + c * y
        out.append(tuple(acc.items()))
    return out


def largest(*mats) -> float:
    return qlargest([x for m in mats for col in m for _, x in col])


def residual(lhs, rhs=None, scale=None) -> float:
    diff = lhs if rhs is None else add(lhs, (-1.0, rhs))
    return relative(largest(diff), max(largest(lhs, rhs) if scale is None else scale, 1.0))


def verify_hopf_relations(label, p, tol: float = 1e-11) -> dict:
    label = check_label(label)
    q = p.q
    g = irreps.action_columns(label, p)
    zero = [()] * dim(label)

    def qcomm(a, b, ab=None):
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
        yield ("H^3 = (K1 K2^-1)^2",
               residual(matmul(g["H"], g["H"], g["H"]), matmul(g["K1"], g["K2inv"], g["K1"], g["K2inv"])))
        yield "H H^-1 = 1", residual(matmul(g["H"], g["Hinv"]), identity(dim(label)))

    report = []
    worst = 0.0
    for name, r in relations():
        worst = max(worst, r)
        report.append({"relation": name, "residual": r, "passed": r < tol})
    return {"label": list(label), "q": q, "tol": tol, "passed": worst < tol,
            "max_residual": worst, "relations": report}


def evaluate(elem, label, p, mats) -> list[tuple]:
    """ualg.evaluate on this module's kernels."""
    n = dim(label)
    eye = identity(n)
    words = ualg.word_products(elem.terms, eye, lambda m, g: mats[g] if m is eye else matmul(m, mats[g]))
    return add([()] * n, *((c, words[w]) for w, c in elem.terms.items()))


def verify_casimir_scalar(label, p, tol: float = 1e-10) -> dict:
    mats = irreps.action_columns(label, p)
    cas = evaluate(ualg.casimir_element(p), label, p, mats)
    value = ualg.casimir_eigenvalue(label[0], label[1], p)
    off = residual(cas, [((j, value),) for j in range(len(cas))], abs(value))
    comm = 0.0
    for g in mats.values():
        cg = matmul(cas, g)
        comm = max(comm, residual(cg, matmul(g, cas), largest(cg)))
    return {"label": list(label), "scalar": value, "off_scalar_residual": off,
            "commutator_residual": comm, "passed": off < tol and comm < tol}
