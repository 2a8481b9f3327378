"""Noncommutative rewriting for the quantum 5-sphere coordinate algebra.

Words over z1, z2, z3, z3*, z2*, z1* (in that reduction order) are
rewritten to the normal-form shape z1^a1 z2^a2 z3^a3 z3*^b3 z2*^b2 z1*^b1
with min(a3, b3) = 0, using the defining relations

    z_i z_j  = q z_j z_i            (i < j)
    z_i* z_j = q z_j z_i*           (i != j)
    [z1*, z1] = 0
    [z2*, z2] = (1 - q^2) z1 z1*
    [z3*, z3] = (1 - q^2)(z1 z1* + z2 z2*)
    z1 z1* + z2 z2* + z3 z3* = 1

oriented so that every rule strictly decreases the degree-lexicographic
order (the sphere rule eliminates z3 z3*).  Coefficients are exact Laurent
polynomials in q.  On top of the normal form sit the projective-plane
generators p_ij = z_i* z_j, their verified relation list, the line-bundle
grading, a diamond-lemma confluence certificate with an empirical
cross-check, and a commutative cross-check at q = 1 on random points of the
classical 5-sphere.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .qarith import LaurentScalar

# letter codes in reduction order
Z1, Z2, Z3, Z3S, Z2S, Z1S = range(6)
LETTER_NAMES = ("z1", "z2", "z3", "z3*", "z2*", "z1*")
STAR_OF = {1: Z1S, 2: Z2S, 3: Z3S}
PLAIN_OF = {1: Z1, 2: Z2, 3: Z3}

NCMonomial = tuple  # tuple of letter codes
NCPoly = dict  # NCMonomial -> LaurentScalar


class RewriteBudgetError(RuntimeError):
    """Reduction exceeded its step budget (would signal non-termination)."""


def _q(k: int = 1, coeff=1) -> LaurentScalar:
    return LaurentScalar.q_power(k, coeff)


_ONE = LaurentScalar.one()
_ONE_MINUS_Q2 = LaurentScalar.rational(1) - _q(2)


def _build_rules() -> dict:
    """Length-2 left-hand sides -> replacement polynomials."""
    rules: dict = {}
    # plain letters commute up to q: z_j z_i -> q^-1 z_i z_j for i < j
    for i, j in ((Z1, Z2), (Z1, Z3), (Z2, Z3)):
        rules[(j, i)] = {(i, j): _q(-1)}
    # starred letters: z_a* z_b* -> q^-1 z_b* z_a* for a < b
    for a, b in ((1, 2), (1, 3), (2, 3)):
        rules[(STAR_OF[a], STAR_OF[b])] = {(STAR_OF[b], STAR_OF[a]): _q(-1)}
    # star past plain, distinct indices
    for a in (1, 2, 3):
        for j in (1, 2, 3):
            if a != j:
                rules[(STAR_OF[a], PLAIN_OF[j])] = {(PLAIN_OF[j], STAR_OF[a]): _q(1)}
    # diagonal commutators
    rules[(Z1S, Z1)] = {(Z1, Z1S): _ONE}
    rules[(Z2S, Z2)] = {(Z2, Z2S): _ONE, (Z1, Z1S): _ONE_MINUS_Q2}
    rules[(Z3S, Z3)] = {(Z3, Z3S): _ONE, (Z1, Z1S): _ONE_MINUS_Q2, (Z2, Z2S): _ONE_MINUS_Q2}
    # the sphere relation, oriented against z3 z3*
    rules[(Z3, Z3S)] = {(): _ONE, (Z1, Z1S): -_ONE, (Z2, Z2S): -_ONE}
    return rules


RULES = _build_rules()


def poly_add(a: NCPoly, b: NCPoly, scale: LaurentScalar | None = None) -> NCPoly:
    out = dict(a)
    for m, c in b.items():
        cc = c * scale if scale is not None else c
        acc = out.get(m)
        acc = acc + cc if acc is not None else cc
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)
    return out


def poly_sub(a: NCPoly, b: NCPoly) -> NCPoly:
    return poly_add(a, b, LaurentScalar.rational(-1))


def poly_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    out: NCPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            c = ca * cb
            acc = out.get(m)
            acc = acc + c if acc is not None else c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def _first_redex(word: NCMonomial, start: int = 0) -> int:
    for i in range(max(start, 0), len(word) - 1):
        if (word[i], word[i + 1]) in RULES:
            return i
    return -1


_NF_CACHE: dict = {}


def monomial_normal_form(word: NCMonomial, budget: list | None = None) -> NCPoly:
    """Normal form of a single word, memoized across calls."""
    cached = _NF_CACHE.get(word)
    if cached is not None:
        return cached
    i = _first_redex(word)
    if i < 0:
        result = {word: _ONE}
        _NF_CACHE[word] = result
        return result
    if budget is not None:
        budget[0] -= 1
        if budget[0] < 0:
            raise RewriteBudgetError(f"reduction budget exhausted near {word_to_str(word)}")
    out: NCPoly = {}
    head, tail = word[:i], word[i + 2:]
    for repl, coeff in RULES[(word[i], word[i + 1])].items():
        sub = monomial_normal_form(head + repl + tail, budget)
        out = poly_add(out, sub, coeff)
    _NF_CACHE[word] = out
    return out


def normal_form(f: NCPoly) -> NCPoly:
    """Fixed point of the rule set; linear, idempotent, grade preserving."""
    maxlen = max((len(m) for m in f), default=0)
    budget = [2000 * (maxlen * maxlen + 1) * (len(f) + 1)]
    out: NCPoly = {}
    for m, c in f.items():
        out = poly_add(out, monomial_normal_form(m, budget), c)
    return out


def is_normal(word: NCMonomial) -> bool:
    return _first_redex(word) < 0


def verify_identity(lhs: NCPoly, rhs: NCPoly) -> bool:
    return not normal_form(poly_sub(lhs, rhs))


def grade(word: NCMonomial) -> int:
    """Line-bundle charge: +1 per plain letter, -1 per starred letter."""
    return sum(1 if let <= Z3 else -1 for let in word)


def z(i: int) -> NCPoly:
    return {(PLAIN_OF[i],): _ONE}


def zs(i: int) -> NCPoly:
    return {(STAR_OF[i],): _ONE}


def p_gen(i: int, j: int) -> NCPoly:
    """Projective-plane generator p_ij = z_i* z_j."""
    return {(STAR_OF[i], PLAIN_OF[j]): _ONE}


def star_poly(f: NCPoly) -> NCPoly:
    """Conjugate-transpose on words: reverse and star each letter."""
    out: NCPoly = {}
    flip = {Z1: Z1S, Z2: Z2S, Z3: Z3S, Z3S: Z3, Z2S: Z2, Z1S: Z1}
    for m, c in f.items():
        mm = tuple(flip[let] for let in reversed(m))
        acc = out.get(mm)
        out[mm] = acc + c if acc is not None else c
    return out


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def cp2_relations() -> list[tuple[str, NCPoly, NCPoly]]:
    """The verified projective-plane relation list as (name, lhs, rhs).

    Families 1, 3, 4 follow the stated q-power bookkeeping.  Family 2's
    correction sum carries q^(2(i-k)); family 5 is the q-weighted exchange
    relation spelled out below.  Every relation is certified by exact
    reduction to zero in the test suite.
    """
    rels = []
    one_minus_q2 = _ONE_MINUS_Q2

    # family 1: p_ii p_jk = q^(sign(i-j)+sign(k-i)) p_jk p_ii, i,j,k distinct
    for i, j, k in itertools.permutations((1, 2, 3), 3):
        lhs = poly_mul(p_gen(i, i), p_gen(j, k))
        rhs = poly_add({}, poly_mul(p_gen(j, k), p_gen(i, i)),
                       _q(_sign(i - j) + _sign(k - i)))
        rels.append((f"f1:p{i}{i}p{j}{k}", lhs, rhs))

    # family 2: p_ii p_ij = q^(sign(j-i)+1) p_ij p_ii
    #           - (1-q^2) sum_{k<i} q^(2(i-k)) p_kk p_ij, i != j
    for i, j in itertools.permutations((1, 2, 3), 2):
        lhs = poly_mul(p_gen(i, i), p_gen(i, j))
        rhs = poly_add({}, poly_mul(p_gen(i, j), p_gen(i, i)), _q(_sign(j - i) + 1))
        for k in range(1, i):
            rhs = poly_add(rhs, poly_mul(p_gen(k, k), p_gen(i, j)),
                           -one_minus_q2 * _q(2 * (i - k)))
        rels.append((f"f2:p{i}{i}p{i}{j}", lhs, rhs))

    # family 3: p_ij p_ik = q^sign(k-j) p_ik p_ij, i not in {j,k}
    for i in (1, 2, 3):
        for j, k in itertools.permutations([x for x in (1, 2, 3) if x != i], 2):
            lhs = poly_mul(p_gen(i, j), p_gen(i, k))
            rhs = poly_add({}, poly_mul(p_gen(i, k), p_gen(i, j)), _q(_sign(k - j)))
            rels.append((f"f3:p{i}{j}p{i}{k}", lhs, rhs))

    # family 4: p_ij p_jk = q^(sign(i-j)+sign(k-j)+1) p_jk p_ij
    #           - (1-q^2) sum_{l<j} p_il p_lk, i,j,k distinct
    for i, j, k in itertools.permutations((1, 2, 3), 3):
        lhs = poly_mul(p_gen(i, j), p_gen(j, k))
        rhs = poly_add({}, poly_mul(p_gen(j, k), p_gen(i, j)),
                       _q(_sign(i - j) + _sign(k - j) + 1))
        for l in range(1, j):
            rhs = poly_add(rhs, poly_mul(p_gen(i, l), p_gen(l, k)), -one_minus_q2)
        rels.append((f"f4:p{i}{j}p{j}{k}", lhs, rhs))

    # family 5: q-weighted exchange of p_ij with p_ji against corner sums,
    #   p_ij p_ji = q^(2s) { p_ji p_ij + (1-q^2) sum_{l<i} p_jl p_lj }
    #               - (1-q^2) sum_{l<j} p_il p_li,
    # s = sign(i-j); the plain-commutator rendering is not an identity
    for i, j in itertools.permutations((1, 2, 3), 2):
        s = _sign(i - j)
        lhs = poly_mul(p_gen(i, j), p_gen(j, i))
        rhs = poly_add({}, poly_mul(p_gen(j, i), p_gen(i, j)), _q(2 * s))
        for l in range(1, i):
            rhs = poly_add(rhs, poly_mul(p_gen(j, l), p_gen(l, j)),
                           one_minus_q2 * _q(2 * s))
        for l in range(1, j):
            rhs = poly_add(rhs, poly_mul(p_gen(i, l), p_gen(l, i)), -one_minus_q2)
        rels.append((f"f5:p{i}{j}p{j}{i}", lhs, rhs))

    return rels


def projector_relations() -> list[tuple[str, NCPoly, NCPoly]]:
    """P^2 = P entrywise and the weighted trace relation."""
    rels = []
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            lhs: NCPoly = {}
            for k in (1, 2, 3):
                lhs = poly_add(lhs, poly_mul(p_gen(j, k), p_gen(k, l)))
            rels.append((f"P2:p{j}{l}", lhs, p_gen(j, l)))
    trace = poly_add(poly_add(poly_add({}, p_gen(1, 1), _q(4)),
                              p_gen(2, 2), _q(2)), p_gen(3, 3))
    rels.append(("trace_q", trace, {(): _ONE}))
    return rels


def verify_cp2_relations() -> dict:
    """Run the full relation battery; every identity must reduce to zero
    with exact coefficients."""
    report = []
    ok = True
    for name, lhs, rhs in cp2_relations() + projector_relations():
        good = verify_identity(lhs, rhs)
        ok = ok and good
        report.append({"relation": name, "passed": good})
    return {"passed": ok, "count": len(report), "relations": report}


# -- confluence ---------------------------------------------------------------

def _single_step_reducts(word: NCMonomial) -> list[NCPoly]:
    out = []
    for i in range(len(word) - 1):
        repl = RULES.get((word[i], word[i + 1]))
        if repl is None:
            continue
        head, tail = word[:i], word[i + 2:]
        step: NCPoly = {}
        for r, c in repl.items():
            step = poly_add(step, {head + r + tail: c})
        out.append(step)
    return out


def confluence_check(max_deg: int) -> dict:
    """Empirical local confluence: every single-step reduct of every word up
    to the degree bound reaches the same normal form.  With termination
    (each rule strictly decreases the graded order) this certifies
    confluence on the tested degree range."""
    alphabet = range(6)
    non_joinable = []
    checked = 0
    for length in range(2, max_deg + 1):
        for word in itertools.product(alphabet, repeat=length):
            reducts = _single_step_reducts(word)
            if len(reducts) < 2:
                continue
            checked += 1
            nfs = [normal_form(r) for r in reducts]
            if any(poly_sub(nf, nfs[0]) for nf in nfs[1:]):
                non_joinable.append({
                    "word": word_to_str(word),
                    "normal_forms": [poly_to_str(nf) for nf in nfs],
                })
    return {"max_deg": max_deg, "branching_words": checked,
            "non_joinable": non_joinable, "passed": not non_joinable}


def critical_pairs() -> dict:
    """Diamond-lemma certificate (Bergman, Adv. Math. 29 (1978) 178-218).

    Every left-hand side has length 2 and no two coincide, so the only
    ambiguities are the overlaps abc with (a,b) and (b,c) both rules.  The
    rules strictly decrease a semigroup order, so when every overlap
    resolves (its two single-step reducts share a normal form) the rewriting
    system is confluent in every degree, not only up to a degree bound."""
    unresolved = []
    overlaps = 0
    for (a, b), (b2, c) in itertools.product(RULES, repeat=2):
        if b != b2:
            continue
        overlaps += 1
        word = (a, b, c)
        nfs = [normal_form(r) for r in _single_step_reducts(word)]
        if any(poly_sub(nf, nfs[0]) for nf in nfs[1:]):
            unresolved.append({
                "word": word_to_str(word),
                "normal_forms": [poly_to_str(nf) for nf in nfs],
            })
    return {"overlaps": overlaps, "unresolved": unresolved,
            "passed": overlaps > 0 and not unresolved}


# -- classical cross-check -----------------------------------------------------

def classical_value(f: NCPoly, zpt) -> complex:
    """Evaluate commutatively at q = 1 on a classical 5-sphere point."""
    vals = {Z1: zpt[0], Z2: zpt[1], Z3: zpt[2],
            Z1S: zpt[0].conjugate(), Z2S: zpt[1].conjugate(), Z3S: zpt[2].conjugate()}
    total = 0.0 + 0.0j
    for m, c in f.items():
        term = complex(c.evaluate_at_one())
        for let in m:
            term *= vals[let]
        total += term
    return total


def classical_cross_check(samples: int = 100, seed: int = 1, tol: float = 1e-10) -> dict:
    """Both sides of every verified identity agree at random classical
    points (commutative sanity only)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(samples):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        pts.append(v / np.linalg.norm(v))
    worst = 0.0
    for name, lhs, rhs in cp2_relations() + projector_relations():
        for zpt in pts:
            d = abs(classical_value(lhs, zpt) - classical_value(rhs, zpt))
            worst = max(worst, d)
    return {"samples": samples, "max_abs_error": worst, "passed": worst < tol}


# -- text grammar ---------------------------------------------------------------

_NC_TOKEN = re.compile(
    r"\s*(?:(?P<p>p(?P<pi>[123])(?P<pj>[123]))"
    r"|(?P<z>z(?P<zi>[123])(?P<star>\*)?)"
    r"|(?P<qpow>q\^(?P<qexp>-?\d+))"
    r"|(?P<rat>-?\d+(?:/\d+)?)"
    r"|(?P<op>[+\-*])"
    r")"
)


def poly_from_string(text: str) -> NCPoly:
    """Parse the small CLI grammar: terms of rational and q-power
    coefficients with juxtaposed z/p identifiers, e.g.
    "z2 z1 - q^-1 z1 z2" or "p12 p21"; p identifiers expand to z* z.

    Raises ValueError on empty input, on an operator without an operand on
    either side (a leading "-" is a sign), and on a zero denominator."""
    pos = 0
    total: NCPoly = {}
    coeff = LaurentScalar.one()
    factor: NCPoly = {(): _ONE}
    started = False
    operand_due = True  # no factor since the start or the last operator

    def flush():
        nonlocal total, coeff, factor, started
        if started:
            total = poly_add(total, factor, coeff)
        coeff = LaurentScalar.one()
        factor = {(): _ONE}
        started = False

    while pos < len(text):
        m = _NC_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial at {text[pos:]!r}")
        start, pos = m.start(), m.end()
        op = m.group("op")
        leading_sign = op == "-" and not text[:start].strip()
        if op and operand_due and not leading_sign:
            raise ValueError(f"operator {op!r} without a left operand at {text[start:].strip()!r}")
        operand_due = bool(op)
        if m.group("p"):
            factor = poly_mul(factor, p_gen(int(m.group("pi")), int(m.group("pj"))))
            started = True
        elif m.group("z"):
            i = int(m.group("zi"))
            factor = poly_mul(factor, zs(i) if m.group("star") else z(i))
            started = True
        elif m.group("qpow"):
            coeff = coeff * _q(int(m.group("qexp")))
            started = True
        elif m.group("rat"):
            try:
                value = Fraction(m.group("rat"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {m.group('rat')!r}") from None
            coeff = coeff * LaurentScalar.rational(value)
            started = True
        else:
            if op == "*":
                continue
            flush()
            if op == "-":
                coeff = -LaurentScalar.one()
    if operand_due:
        raise ValueError(f"dangling operator in {text!r}" if text.strip() else "empty polynomial")
    flush()
    return total


def word_to_str(word: NCMonomial) -> str:
    return " ".join(LETTER_NAMES[let] for let in word) if word else "1"


def poly_to_str(f: NCPoly) -> str:
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=lambda w: (len(w), w)):
        parts.append(f"({f[m]}) {word_to_str(m)}")
    return " + ".join(parts)
