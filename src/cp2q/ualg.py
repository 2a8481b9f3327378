"""Formal elements of the (extended) q-deformed su(3) enveloping algebra.

An element is a finite real combination of generator words; no normal form
is imposed on words.  Identities between elements are certified by
evaluation on a battery of irreducibles, which at desk scale is cheap and
sidesteps a PBW rewriting theory.  The module supplies the named operators
entering the Dolbeault complex (X, Y and their stars), the central Casimir
element of the extension, the Hopf structure maps (star, coproduct,
counit), and the command line's element grammar, a float fold of
qarith.term_tokens.
"""

from __future__ import annotations

import math

from . import irreps
from .irreps import GENERATORS
from .qarith import QParam, largest, qint, qint_twelfths, relative, term_tokens

Word = tuple  # tuple of generator names; () is the unit


class AlgebraElement:
    """Finitely supported map word -> real coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0.0}

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def unit() -> "AlgebraElement":
        return AlgebraElement({(): 1.0})

    @staticmethod
    def gen(name: str) -> "AlgebraElement":
        return AlgebraElement.word((name,))

    @staticmethod
    def word(names, coeff: float = 1.0) -> "AlgebraElement":
        w = tuple(names)
        for name in w:
            if name not in GENERATORS:
                raise ValueError(f"unknown generator {name!r}")
        return AlgebraElement({w: coeff})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) - c
        return AlgebraElement(out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return AlgebraElement({w: c * other for w, c in self.terms.items()})
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0.0) + c1 * c2
        return AlgebraElement(out)

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement({w: scalar * c for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items()):
            body = " ".join(w) if w else "1"
            parts.append(f"{c:+g} {body}")
        return " ".join(parts)


def star(elem: AlgebraElement) -> AlgebraElement:
    """Hermitian adjoint: antimultiplicative, swaps E<->F, fixes K and H."""
    swap = {"E1": "F1", "E2": "F2", "F1": "E1", "F2": "E2"}
    out: dict = {}
    for w, c in elem.terms.items():
        sw = tuple(swap.get(g, g) for g in reversed(w))
        out[sw] = out.get(sw, 0.0) + c  # real coefficients: conjugation is trivial
    return AlgebraElement(out)


def qcommutator(a: AlgebraElement, b: AlgebraElement, p: QParam) -> AlgebraElement:
    """[a,b]_q = ab - q^-1 ba."""
    return a * b - (1.0 / p.q) * (b * a)


def _pair(a: str, b: str, p: QParam) -> AlgebraElement:
    """a b - 2 [2]^-1 b a for two letters a, b."""
    c = 2.0 / qint(2, p)
    return AlgebraElement.word((a, b)) - c * AlgebraElement.word((b, a))


def x_element(p: QParam) -> AlgebraElement:
    """X = F2 F1 - 2 [2]^-1 F1 F2, the lowering side of the holomorphic pair."""
    return _pair("F2", "F1", p)

def y_element(p: QParam) -> AlgebraElement:
    return _pair("E2", "E1", p)

def x_star_element(p: QParam) -> AlgebraElement:
    return _pair("E1", "E2", p)

def y_star_element(p: QParam) -> AlgebraElement:
    return _pair("F1", "F2", p)


def power(elem: AlgebraElement, n: int) -> AlgebraElement:
    """elem^n for n >= 0, by repeated multiplication."""
    out = AlgebraElement.unit()
    for _ in range(n):
        out = out * elem
    return out


def casimir_element(p: QParam) -> AlgebraElement:
    """The central element of the cube-root extension, as a word combination.

    Word level, no relations applied; its scalar value on V_(n1,n2) is
    casimir_eigenvalue(n1, n2).
    """
    q = p.q
    w = AlgebraElement.word
    c2 = (q - 1.0 / q) ** -2

    diag = (
        c2 * (w(("H", "K1", "K2", "K1", "K2")) * q**2
              + w(("H", "K1inv", "K2inv", "K1inv", "K2inv")) * q**-2
              + w(("Hinv", "K1", "K2", "K1", "K2")) * q**2
              + w(("Hinv", "K1inv", "K2inv", "K1inv", "K2inv")) * q**-2
              + w(("H", "H")) + w(("Hinv", "Hinv")) - 6.0 * AlgebraElement.unit())
    )
    f1e1 = (q * w(("H", "K2", "K2")) + (1.0 / q) * w(("Hinv", "K2inv", "K2inv"))) \
        * w(("F1", "E1"))
    f2e2 = (q * w(("Hinv", "K1", "K1")) + (1.0 / q) * w(("H", "K1inv", "K1inv"))) \
        * w(("F2", "E2"))
    qc = lambda a, b: qcommutator(a, b, p)
    f2f1 = qc(AlgebraElement.gen("F2"), AlgebraElement.gen("F1"))
    f1f2 = qc(AlgebraElement.gen("F1"), AlgebraElement.gen("F2"))
    e1e2 = qc(AlgebraElement.gen("E1"), AlgebraElement.gen("E2"))
    e2e1 = qc(AlgebraElement.gen("E2"), AlgebraElement.gen("E1"))
    cross = q * (AlgebraElement.gen("H") * f2f1 * e1e2) \
        + q * (AlgebraElement.gen("Hinv") * f1f2 * e2e1)
    return diag + f1e1 + f2e2 + cross


def casimir_eigenvalue(n1: int, n2: int, p: QParam) -> float:
    """Closed-form Casimir scalar on V_(n1,n2): [(n1-n2)/3]^2 +
    [(2n1+n2)/3 + 1]^2 + [(n1+2n2)/3 + 1]^2, each exponent in twelfths."""
    a = qint_twelfths(4 * (n1 - n2), p)
    b = qint_twelfths(4 * (2 * n1 + n2) + 12, p)
    c = qint_twelfths(4 * (n1 + 2 * n2) + 12, p)
    return a * a + b * b + c * c


def word_products(words, start, step) -> dict:
    """step(...step(start, w[0])..., w[-1]) for each word w, walked in sorted
    order keeping only the current word's chain of prefix results, so a word
    reuses those of the prefix it shares with the one before."""
    chain = [start]  # chain[k]: the result after the first k letters
    prev: tuple = ()
    out = {}
    for w in sorted(words):
        shared = 0
        while shared < min(len(w), len(prev)) and w[shared] == prev[shared]:
            shared += 1
        del chain[shared + 1:]
        for g in w[shared:]:
            chain.append(step(chain[-1], g))
        out[w] = chain[-1]
        prev = w
    return out


def evaluate(elem: AlgebraElement, label, p: QParam, mats: dict | None = None) -> list[tuple]:
    """Matrix of an element on one irrep as a column list, with the
    generators read from mats, the caller's irreps.action_columns of it:
    eye @ G1 @ G2 @ ... per word along word_products' prefix chain, and
    c * word summed in elem.terms order."""
    mats = irreps.action_columns(label, p) if mats is None else mats
    n = irreps.dim(label)
    eye = irreps.diagonal([1.0] * n)  # eye @ G is G, entry for entry
    words = word_products(elem.terms, eye, lambda m, g: mats[g] if m is eye else irreps.matmul(m, mats[g]))
    return irreps.add([()] * n, *((c, words[w]) for w, c in elem.terms.items()))


def verify_casimir_scalar(label, p: QParam, tol: float = 1e-10) -> dict:
    """Casimir matrix == closed-form scalar, and commutes with every generator.

    A K or H generator's commutator is read entry by entry off its weights,
    each entry rounded as the column products round it."""
    mats = irreps.action_columns(label, p)
    cas = evaluate(casimir_element(p), label, p, mats)
    value = casimir_eigenvalue(label[0], label[1], p)
    # a non-finite entry of cas raises here, so the commutators read finite ones
    off = irreps.residual(cas, irreps.diagonal([value] * len(cas)), abs(value))
    comm = 0.0
    for name, g in mats.items():
        if name in irreps.DIAGONAL_GENERATORS:
            w = irreps.weights(g)
            cg = [y * w[j] for j, col in enumerate(cas) for _, y in col]  # cas @ g
            gc = [w[i] * y for col in cas for i, y in col]  # g @ cas
            r = irreps.paired_residual(cg, gc, largest(cg))
        else:
            cg = irreps.matmul(cas, g)
            r = irreps.residual(cg, irreps.matmul(g, cas), irreps.largest(cg))
        comm = max(comm, r)
    return {
        "label": list(label),
        "scalar": value,
        "off_scalar_residual": off,
        "commutator_residual": comm,
        "passed": off < tol and comm < tol,
    }


def counit(elem: AlgebraElement) -> float:
    """Counit: 1 on K/H letters, 0 on E/F letters, multiplicative on words."""
    total = 0.0
    for w, c in elem.terms.items():
        if all(g in irreps.DIAGONAL_GENERATORS for g in w):
            total += c
    return total


# -- coproduct ---------------------------------------------------------------

TensorElement = dict  # (left word, right word) -> coefficient

_PRIMITIVE_COPRODUCT = {
    "K1": ((("K1",), ("K1",), 1.0),),
    "K1inv": ((("K1inv",), ("K1inv",), 1.0),),
    "K2": ((("K2",), ("K2",), 1.0),),
    "K2inv": ((("K2inv",), ("K2inv",), 1.0),),
    "H": ((("H",), ("H",), 1.0),),
    "Hinv": ((("Hinv",), ("Hinv",), 1.0),),
    "E1": ((("E1",), ("K1",), 1.0), (("K1inv",), ("E1",), 1.0)),
    "E2": ((("E2",), ("K2",), 1.0), (("K2inv",), ("E2",), 1.0)),
    "F1": ((("F1",), ("K1",), 1.0), (("K1inv",), ("F1",), 1.0)),
    "F2": ((("F2",), ("K2",), 1.0), (("K2inv",), ("F2",), 1.0)),
}


def coproduct_expand(elem: AlgebraElement) -> TensorElement:
    """Expand the coproduct word by word into (left, right) word pairs."""
    out: TensorElement = {}
    for w, c in elem.terms.items():
        partial = {((), ()): c}
        for g in w:
            nxt: TensorElement = {}
            for (lw, rw), pc in partial.items():
                for gl, gr, gc in _PRIMITIVE_COPRODUCT[g]:
                    key = (lw + gl, rw + gr)
                    nxt[key] = nxt.get(key, 0.0) + pc * gc
            partial = nxt
        for key, pc in partial.items():
            out[key] = out.get(key, 0.0) + pc
    return {k: v for k, v in out.items() if v != 0.0}


def tensor_evaluate(tensor: TensorElement, label_v, label_w, p: QParam,
                    mats_v: dict | None = None, mats_w: dict | None = None) -> list[tuple]:
    """Evaluate an element of the two-fold tensor algebra on V (x) W, as
    columns, with each side's generator columns read from its dict
    (evaluate).  Each term's Kronecker product is taken column by column."""
    mats_v = irreps.action_columns(label_v, p) if mats_v is None else mats_v
    mats_w = irreps.action_columns(label_w, p) if mats_w is None else mats_w
    n = irreps.dim(label_w)
    terms = []
    for (lw, rw), c in tensor.items():
        left = evaluate(AlgebraElement.word(lw), label_v, p, mats_v)
        right = evaluate(AlgebraElement.word(rw), label_w, p, mats_w)
        terms.append((c, [tuple((i * n + k, x * y) for i, x in cl for k, y in cr) for cl in left for cr in right]))
    return irreps.add([()] * (irreps.dim(label_v) * n), *terms)


def _add_tensor(out: TensorElement, elem_l: AlgebraElement, elem_r: AlgebraElement,
                c: float) -> None:
    """out += c * (elem_l (x) elem_r), word pair by word pair."""
    for wl, cl in elem_l.terms.items():
        for wr, cr in elem_r.terms.items():
            key = (wl, wr)
            out[key] = out.get(key, 0.0) + c * cl * cr


def _closed_form_coproduct(a: str, b: str, r: float, p: QParam) -> TensorElement:
    """Closed-form coproduct of Z = a b - 2 [2]^-1 b a: Z(x)K1K2 +
    (K1K2)^-1(x)Z plus the mixing terms r a K1^-1 (x) K2 b and
    -r K2^-1 b (x) a K1.

    The mixing weight is pinned by expanding the primitive coproducts on Z's
    words and normal-ordering the K's.  It is r = (q^2-1)/(q^2+1) for X,
    (a, b) = (F2, F1), and the opposite, (1-q^2)/(1+q^2), for Y, (a, b) =
    (E2, E1), because the cross-scalings of the raising and lowering letters
    through K_j are inverse to each other.  The signs are certified against
    the primitive expansion in the test suite.
    """
    out: TensorElement = {}
    w = AlgebraElement.word
    z = _pair(a, b, p)
    _add_tensor(out, z, w(("K1", "K2")), 1.0)
    _add_tensor(out, w(("K1inv", "K2inv")), z, 1.0)
    _add_tensor(out, w((a, "K1inv")), w(("K2", b)), r)
    _add_tensor(out, w(("K2inv", b)), w((a, "K1")), -r)
    return out


def coproduct_closed_form_x(p: QParam) -> TensorElement:
    q = p.q
    return _closed_form_coproduct("F2", "F1", (q * q - 1.0) / (1.0 + q * q), p)


def coproduct_closed_form_y(p: QParam) -> TensorElement:
    q = p.q
    return _closed_form_coproduct("E2", "E1", (1.0 - q * q) / (1.0 + q * q), p)


def verify_coproduct_identity(p: QParam, tol: float = 1e-12) -> dict:
    """Primitive expansion of the coproducts of X and Y against their closed
    forms, evaluated on V (x) V with V the fundamental V(0,1); plus
    grouplikeness of K1 and the counit law."""
    label = (0, 1)
    mats = irreps.action_columns(label, p)
    results = {}
    for name, elem, closed in (
        ("X", x_element(p), coproduct_closed_form_x(p)),
        ("Y", y_element(p), coproduct_closed_form_y(p)),
    ):
        lhs = tensor_evaluate(coproduct_expand(elem), label, label, p, mats, mats)
        rhs = tensor_evaluate(closed, label, label, p, mats, mats)
        results[f"coproduct {name}"] = irreps.residual(lhs, rhs, irreps.largest(rhs))

    k1 = AlgebraElement.gen("K1")
    lhs = tensor_evaluate(coproduct_expand(k1), label, label, p, mats, mats)
    rhs = tensor_evaluate({(("K1",), ("K1",)): 1.0}, label, label, p, mats, mats)  # K1 (x) K1
    results["coproduct K1 grouplike"] = irreps.residual(lhs, rhs, 1.0)

    # counit axiom (eps (x) id) Delta = id, and eps(X) = 0
    for name, elem in (("X", x_element(p)), ("K1", k1)):
        left_collapsed = AlgebraElement.zero()
        right_collapsed = AlgebraElement.zero()
        for (lw, rw), c in coproduct_expand(elem).items():
            left_collapsed = left_collapsed + c * counit(AlgebraElement.word(lw)) * AlgebraElement.word(rw)
            right_collapsed = right_collapsed + c * counit(AlgebraElement.word(rw)) * AlgebraElement.word(lw)
        for side, collapsed in (("eps(x)id", left_collapsed), ("id(x)eps", right_collapsed)):
            results[f"counit law {side} on {name}"] = irreps.residual(evaluate(collapsed - elem, label, p, mats),
                                                                        scale=1.0)
    results["counit X"] = relative(abs(counit(x_element(p))), 1.0)

    worst = max(results.values())
    return {"q": p.q, "residuals": results, "max_residual": worst, "passed": worst < tol}


# -- text grammar ------------------------------------------------------------

_GEN_ALIAS = {"K1'": "K1inv", "K2'": "K2inv", "H'": "Hinv"}


def element_from_string(text: str, p: QParam) -> AlgebraElement:
    """Parse the CLI grammar (qarith.term_tokens) over the generators,
    primes denoting inverses, e.g. "E1 F1 - q^-1 F1 E1".  Each term's
    coefficient is a float: one that leaves the float range raises
    ValueError, as the grammar's own errors do."""
    out, coeff, word = AlgebraElement.zero(), 1.0, []
    for kind, value in term_tokens(text, r"K1'|K2'|H'|K1|K2|E1|E2|F1|F2|H", "element"):
        if kind == "factor":
            word.append(_GEN_ALIAS.get(value, value))
            continue
        try:  # a q-power, a rational, or the sign that ends the term
            coeff *= p.q ** value if kind == "q" else float(value)
        except OverflowError:
            coeff = math.inf
        if not math.isfinite(coeff):
            raise ValueError(f"term coefficient outside the float range in {text!r}")
        if kind == "end":
            out, coeff, word = out + AlgebraElement.word(tuple(word), coeff), 1.0, []
    return out
