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
polynomials in t = q^(1/12), stored flat: a polynomial is one dict
{(word, k): c} for the sum of c t^k word, with c a nonzero int, or a
Fraction where parsed input has a non-integral rational.  Zero terms are
never stored, so two polynomials are equal exactly when their dicts are.
Normal forms of words are memoized in a dict that each top-level call
creates and passes down, so no state outlives a call.  A memo entry
(c, k, base) stands for c t^k base, with base a flat polynomial shared by
reference, so a one-term rule only scales its target's base.  On top sit
the projective-plane generators p_ij = z_i* z_j, their verified relation
list, the line-bundle grading, a diamond-lemma confluence certificate with
an empirical cross-check, a commutative cross-check at q = 1, and the
command line's polynomial grammar, an exact fold of qarith.term_tokens.

The empirical sweep fills a table of canonical normal forms (see canon)
per word length, finding each reduct's by index arithmetic; to degree 6
and 7 it checks 44,584 and 304,848 words in 0.1 and 0.8 s (2-vCPU box).
The q = 1 cross-check is plain Python, as is the whole module, so neither
`rewrite` nor `verify-cp2-relations` loads numpy: it draws its points with
the standard library's random and evaluates each relation side with
classical_value's arithmetic, reading each side's terms once.
"""

from __future__ import annotations

import itertools
from math import gcd, hypot, lcm

from .qarith import LATTICE, VerificationError, _coeff, largest, relative, term_tokens

# letter codes in reduction order
Z1, Z2, Z3, Z3S, Z2S, Z1S = range(6)
LETTER_NAMES = ("z1", "z2", "z3", "z3*", "z2*", "z1*")
STAR_OF = {1: Z1S, 2: Z2S, 3: Z3S}
PLAIN_OF = {1: Z1, 2: Z2, 3: Z3}

NCMonomial = tuple  # tuple of letter codes
NCPoly = dict  # (NCMonomial, t-exponent) -> nonzero int | Fraction


class RewriteBudgetError(VerificationError, RuntimeError):
    """A rule does not decrease the order, so reduction might not
    terminate."""


def _q(k: int) -> NCPoly:
    """q^k, a polynomial on the empty word."""
    return {((), LATTICE * k): 1}


_ONE_MINUS_Q2 = {((), 0): 1, ((), 2 * LATTICE): -1}


def _build_rules() -> dict:
    """Length-2 left-hand sides -> (replacement word, t-exponent, coefficient)
    triples; a replacement with coefficient 1 - q^2 takes two triples."""
    q = LATTICE
    rules: dict = {}
    # plain letters commute up to q: z_j z_i -> q^-1 z_i z_j for i < j
    for i, j in ((Z1, Z2), (Z1, Z3), (Z2, Z3)):
        rules[(j, i)] = (((i, j), -q, 1),)
    # starred letters: z_a* z_b* -> q^-1 z_b* z_a* for a < b
    for a, b in ((1, 2), (1, 3), (2, 3)):
        rules[(STAR_OF[a], STAR_OF[b])] = (((STAR_OF[b], STAR_OF[a]), -q, 1),)
    # star past plain, distinct indices
    for a in (1, 2, 3):
        for j in (1, 2, 3):
            if a != j:
                rules[(STAR_OF[a], PLAIN_OF[j])] = (((PLAIN_OF[j], STAR_OF[a]), q, 1),)
    # diagonal commutators, the correction words carrying 1 - q^2
    rules[(Z1S, Z1)] = (((Z1, Z1S), 0, 1),)
    rules[(Z2S, Z2)] = (((Z2, Z2S), 0, 1), ((Z1, Z1S), 0, 1), ((Z1, Z1S), 2 * q, -1))
    rules[(Z3S, Z3)] = (((Z3, Z3S), 0, 1), ((Z1, Z1S), 0, 1), ((Z1, Z1S), 2 * q, -1),
                        ((Z2, Z2S), 0, 1), ((Z2, Z2S), 2 * q, -1))
    # the sphere relation, oriented against z3 z3*
    rules[(Z3, Z3S)] = (((), 0, 1), ((Z1, Z1S), 0, -1), ((Z2, Z2S), 0, -1))
    return rules


RULES = _build_rules()


def poly_add(out: NCPoly, f: NCPoly, k: int = 0, c=1) -> NCPoly:
    """out += c t^k f in place, for a nonzero c; returns out."""
    get = out.get
    for (w, e), v in f.items():
        key = (w, e + k)
        v = get(key, 0) + v * c
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def poly_sub(a: NCPoly, b: NCPoly) -> NCPoly:
    return poly_add(dict(a), b, 0, -1)


def poly_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    out: NCPoly = {}
    for (wa, ea), ca in a.items():
        poly_add(out, {(wa + wb, eb): cb for (wb, eb), cb in b.items()}, ea, ca)
    return out


def _redexes(word: NCMonomial) -> list[int]:
    """Start positions of the left-hand sides occurring in word."""
    return [i for i in range(len(word) - 1) if (word[i], word[i + 1]) in RULES]


def _reduct_normal_form(word: NCMonomial, i: int, memo: dict) -> tuple:
    """Scaled normal form of the single-step reduct of word at the redex at
    i.  A one-term rule scales its target's base; only a rule with several
    terms builds a dict."""
    head, tail = word[:i], word[i + 2:]
    terms = RULES[(word[i], word[i + 1])]
    if len(terms) == 1:
        (repl, k, c), = terms
        c2, k2, base = _scaled_normal_form(head + repl + tail, memo)
        return c * c2, k + k2, base
    nf: NCPoly = {}
    for repl, k, c in terms:
        c2, k2, base = _scaled_normal_form(head + repl + tail, memo)
        poly_add(nf, base, k + k2, c * c2)
    return 1, 0, nf


def _scaled_normal_form(word: NCMonomial, memo: dict) -> tuple:
    """Normal form of a single word as (c, k, base), standing for c t^k base,
    reduced at its first redex.  `memo` maps the words already reduced in
    the caller's run to these triples, whose bases are shared by reference
    and must never be mutated."""
    nf = memo.get(word)
    if nf is not None:
        return nf
    for i in range(len(word) - 1):
        if (word[i], word[i + 1]) in RULES:
            nf = _reduct_normal_form(word, i, memo)
            break
    else:
        nf = (1, 0, {(word, 0): 1})
    memo[word] = nf
    return nf


def materialize(nf: tuple) -> NCPoly:
    """The fresh flat polynomial c t^k base of a scaled normal form."""
    c, k, base = nf
    return {(w, e + k): c * v for (w, e), v in base.items()} if c else {}


def monomial_normal_form(word: NCMonomial, memo: dict | None = None) -> NCPoly:
    """Normal form of a single word as a fresh flat polynomial; `memo` is as
    for the scaled form."""
    return materialize(_scaled_normal_form(word, {} if memo is None else memo))


def normal_form(f: NCPoly, memo: dict | None = None) -> NCPoly:
    """Fixed point of the rule set; linear, idempotent, grade preserving.
    A call without a memo reduces in a memo of its own.  The result is a
    fresh dict that shares nothing with the memo.  A rule that does not
    decrease the order raises RewriteBudgetError before any reduction,
    where it would otherwise recurse without end; with every rule
    decreasing, reduction terminates."""
    if memo is None:
        memo = {}
    _descents()
    out: NCPoly = {}
    for (w, k), c in f.items():
        c2, k2, base = _scaled_normal_form(w, memo)
        poly_add(out, base, k + k2, c * c2)
    return out


def verify_identity(lhs: NCPoly, rhs: NCPoly, memo: dict | None = None) -> bool:
    return not normal_form(poly_sub(lhs, rhs), memo)


def grade(word: NCMonomial) -> int:
    """Line-bundle charge: +1 per plain letter, -1 per starred letter."""
    return sum(1 if let <= Z3 else -1 for let in word)


def p_gen(i: int, j: int) -> NCPoly:
    """Projective-plane generator p_ij = z_i* z_j."""
    return {((STAR_OF[i], PLAIN_OF[j]), 0): 1}


_FLIP = {Z1: Z1S, Z2: Z2S, Z3: Z3S, Z3S: Z3, Z2S: Z2, Z1S: Z1}


def star_poly(f: NCPoly) -> NCPoly:
    """Conjugate-transpose on words: reverse and star each letter."""
    return {(tuple(_FLIP[let] for let in reversed(w)), k): c for (w, k), c in f.items()}


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _pp(i: int, j: int, k: int, l: int, scalar: NCPoly | None = None) -> NCPoly:
    """p_ij p_kl, times a scalar polynomial when one is given."""
    prod = poly_mul(p_gen(i, j), p_gen(k, l))
    return poly_mul(scalar, prod) if scalar is not None else prod


def cp2_relations() -> list[tuple[str, NCPoly, NCPoly]]:
    """The verified projective-plane relation list as (name, lhs, rhs).

    Families 1, 3, 4 follow the stated q-power bookkeeping.  Family 2's
    correction sum carries q^(2(i-k)); family 5 is the q-weighted exchange
    relation spelled out below.  Every relation is certified by exact
    reduction to zero in the test suite.
    """
    rels = []
    minus_one_minus_q2 = poly_sub({}, _ONE_MINUS_Q2)

    # family 1: p_ii p_jk = q^(sign(i-j)+sign(k-i)) p_jk p_ii, i,j,k distinct
    for i, j, k in itertools.permutations((1, 2, 3), 3):
        rhs = _pp(j, k, i, i, _q(_sign(i - j) + _sign(k - i)))
        rels.append((f"f1:p{i}{i}p{j}{k}", _pp(i, i, j, k), rhs))

    # family 2: p_ii p_ij = q^(sign(j-i)+1) p_ij p_ii
    #           - (1-q^2) sum_{k<i} q^(2(i-k)) p_kk p_ij, i != j
    for i, j in itertools.permutations((1, 2, 3), 2):
        rhs = _pp(i, j, i, i, _q(_sign(j - i) + 1))
        for k in range(1, i):
            poly_add(rhs, _pp(k, k, i, j, minus_one_minus_q2), LATTICE * 2 * (i - k))
        rels.append((f"f2:p{i}{i}p{i}{j}", _pp(i, i, i, j), rhs))

    # family 3: p_ij p_ik = q^sign(k-j) p_ik p_ij, i not in {j,k}
    for i in (1, 2, 3):
        for j, k in itertools.permutations([x for x in (1, 2, 3) if x != i], 2):
            rhs = _pp(i, k, i, j, _q(_sign(k - j)))
            rels.append((f"f3:p{i}{j}p{i}{k}", _pp(i, j, i, k), rhs))

    # family 4: p_ij p_jk = q^(sign(i-j)+sign(k-j)+1) p_jk p_ij
    #           - (1-q^2) sum_{l<j} p_il p_lk, i,j,k distinct
    for i, j, k in itertools.permutations((1, 2, 3), 3):
        rhs = _pp(j, k, i, j, _q(_sign(i - j) + _sign(k - j) + 1))
        for l in range(1, j):
            poly_add(rhs, _pp(i, l, l, k, minus_one_minus_q2))
        rels.append((f"f4:p{i}{j}p{j}{k}", _pp(i, j, j, k), rhs))

    # family 5: q-weighted exchange of p_ij with p_ji against corner sums,
    #   p_ij p_ji = q^(2s) { p_ji p_ij + (1-q^2) sum_{l<i} p_jl p_lj }
    #               - (1-q^2) sum_{l<j} p_il p_li,
    # s = sign(i-j); the plain-commutator rendering is not an identity
    for i, j in itertools.permutations((1, 2, 3), 2):
        s = _sign(i - j)
        rhs = _pp(j, i, i, j, _q(2 * s))
        for l in range(1, i):
            poly_add(rhs, _pp(j, l, l, j, _ONE_MINUS_Q2), LATTICE * 2 * s)
        for l in range(1, j):
            poly_add(rhs, _pp(i, l, l, i, minus_one_minus_q2))
        rels.append((f"f5:p{i}{j}p{j}{i}", _pp(i, j, j, i), rhs))

    return rels


def projector_relations() -> list[tuple[str, NCPoly, NCPoly]]:
    """P^2 = P entrywise and the weighted trace relation."""
    rels = []
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            lhs: NCPoly = {}
            for k in (1, 2, 3):
                poly_add(lhs, _pp(j, k, k, l))
            rels.append((f"P2:p{j}{l}", lhs, p_gen(j, l)))
    trace: NCPoly = {}
    for i, power in ((1, 4), (2, 2), (3, 0)):
        poly_add(trace, p_gen(i, i), LATTICE * power)
    rels.append(("trace_q", trace, _q(0)))
    return rels


def verify_cp2_relations() -> dict:
    """Run the full relation battery; every identity must reduce to zero
    with exact coefficients."""
    memo: dict = {}
    report = [{"relation": name, "passed": verify_identity(lhs, rhs, memo)}
              for name, lhs, rhs in cp2_relations() + projector_relations()]
    return {"passed": all(r["passed"] for r in report), "count": len(report), "relations": report}


# -- confluence ---------------------------------------------------------------

def _word(index: int, length: int) -> NCMonomial:
    """The word whose letters are the base-6 digits of index, leading first."""
    return tuple(index // 6 ** (length - 1 - i) % 6 for i in range(length))


def _descents() -> tuple[list, list]:
    """RULES by pair index 6a + b (None where no rule starts), each term as
    (d, k, c) with d the replacement's pair index minus the left-hand
    side's, or None for the empty word; and the term of each one-term rule
    to a same-length word.  Any other replacement does not decrease the
    order and raises RewriteBudgetError."""
    steps, swaps = [None] * 36, [None] * 36
    for (a, b), terms in RULES.items():
        lhs = 6 * a + b
        step = []
        for repl, k, c in terms:
            if repl and (len(repl) != 2 or 6 * repl[0] + repl[1] >= lhs):
                raise RewriteBudgetError(f"rule {word_to_str((a, b))} -> {word_to_str(repl)} "
                                         "does not decrease the order")
            step.append((6 * repl[0] + repl[1] - lhs if repl else None, k, c))
        steps[lhs] = tuple(step)
        swaps[lhs] = step[0] if len(step) == 1 and step[0][0] is not None else None
    return steps, swaps


class _Base(dict):
    """A canonical base: interned, so it hashes by identity."""
    __hash__ = object.__hash__


def canon(f: NCPoly, interned: dict) -> tuple:
    """f as (c, k, base), f = c t^k base, with base's least term at t^0 and
    its coefficients coprime ints, that term's positive.  `interned` keeps
    one object per base, so two polynomials are equal exactly when their
    triples are, bases compared by identity.  Zero is (0, 0, {})."""
    lead = min(f, default=((), 0))
    try:
        g = gcd(*f.values())  # 0 for the zero polynomial
    except TypeError:  # a Fraction coefficient
        from fractions import Fraction

        g = Fraction(gcd(*[v.numerator for v in f.values()]), lcm(*[v.denominator for v in f.values()]))
    g = g if f.get(lead, 0) > 0 else -g
    base = _Base({(w, e - lead[1]): v // g for (w, e), v in f.items()})
    return g, lead[1], interned.setdefault(frozenset(base.items()), base)


def _word_tables(max_len: int):
    """Yield (length, masks, (cs, ks, bases), reduct) for each length up to
    max_len, over the words _word(x, length): masks[x] has bit i set for a
    redex at i, (cs[x], ks[x], bases[x]) is the canon form of the normal
    form _scaled_normal_form gives, bases interned per sweep, and
    reduct(x, i) that of the single-step reduct at i.  Words run in index
    order: a same-length reduct has a smaller index, and the empty
    replacement drops two letters, so even and odd lengths run as two
    chains.  Words sharing letters up to a first one-term redex copy their
    reducts' block; a several-term reduct is summed once per tuple of triples."""
    steps, swaps = _descents()
    pair_bit = [int(step is not None) for step in steps]
    interned: dict = {}
    for first in (0, 1):
        n = 6 ** first  # no redex in a word this short
        masks = [0] * n
        shorter = [1] * n, [0] * n, [canon({(_word(x, first), 0): 1}, interned)[2] for x in range(n)]
        yield first, masks, shorter, None
        for length in range(first + 2, max_len + 1, 2):
            # the bits of the pairs at length - 3 and length - 2, read off
            # the last letter of the prefix and the two letters after it
            tail = [[(pair_bit[6 * a + s // 6] << (length - 3) if length > 2 else 0)
                     | pair_bit[s] << (length - 2) for s in range(36)] for a in range(6)]
            masks = [m | bits for p, m in enumerate(masks) for bits in tail[p % 6]]
            cs, ks, bases = [1] * len(masks), [0] * len(masks), [None] * len(masks)
            scs, sks, sbases = shorter
            weights = [6 ** (length - 2 - i) for i in range(length - 1)]
            sums: dict = {}

            def reduct(x: int, i: int) -> tuple:
                w = weights[i]
                key, k0 = [], None
                for d, k, c in steps[x // w % 36]:
                    tc, tk, tb, j = (scs, sks, sbases, x // (36 * w) * w + x % w) if d is None else \
                        (cs, ks, bases, x + d * w)
                    k0 = k + tk[j] if k0 is None else k0
                    key += c * tc[j], k + tk[j] - k0, tb[j]
                nf = sums.get(key := tuple(key))
                if nf is None:
                    f: NCPoly = {}
                    for t in range(0, len(key), 3):
                        poly_add(f, key[t + 2], key[t + 1], key[t])
                    nf = sums[key] = canon(f, interned)
                return nf[0], nf[1] + k0, nf[2]

            x = 0
            while x < len(masks):
                i = (masks[x] & -masks[x]).bit_length() - 1
                swap = swaps[x // weights[i] % 36] if i >= 0 else None
                if swap:  # x opens the block of the words sharing its first i + 2 letters
                    (d, k, c), w = swap, weights[i]
                    cs[x:x + w] = [c * v for v in cs[x + d * w:x + d * w + w]]
                    ks[x:x + w] = [k + v for v in ks[x + d * w:x + d * w + w]]
                    bases[x:x + w] = bases[x + d * w:x + d * w + w]
                    x += w
                    continue
                cs[x], ks[x], bases[x] = reduct(x, i) if i >= 0 else \
                    canon({(_word(x, length), 0): 1}, interned)
                x += 1
            shorter = cs, ks, bases
            yield length, masks, shorter, reduct


def _unjoinable(max_deg: int) -> tuple[int, list]:
    """The number of words of 2 to max_deg letters with two or more
    redexes, and a report of each whose reducts' canon forms differ, in
    length and then word order.  A scalar of 0 is zero, whatever its k."""
    swaps = _descents()[1]
    found: dict = {}  # length -> witnesses in word order
    checked = 0
    for length, masks, (cs, ks, bases), reduct in _word_tables(max_deg):
        weights = [6 ** (length - 2 - i) for i in range(length - 1)]
        redexes = [[i for i in range(length - 1) if m >> i & 1] for m in range(1 << max(length - 1, 0))]
        for x, m in enumerate(masks):
            if len(redexes[m]) < 2:
                continue
            checked += 1
            c0, k0, base0 = cs[x], ks[x], bases[x]
            for i in redexes[m][1:]:
                w = weights[i]
                swap = swaps[x // w % 36]
                if swap:
                    d, k, c = swap
                    c, k, base = c * cs[x + d * w], k + ks[x + d * w], bases[x + d * w]
                else:
                    c, k, base = reduct(x, i)
                if c != c0 or c and (k != k0 or base is not base0):
                    found.setdefault(length, []).append(
                        {"word": word_to_str(_word(x, length)),
                         "normal_forms": [poly_to_str(materialize(reduct(x, i))) for i in redexes[m]]})
                    break
    return checked, [bad for length in sorted(found) for bad in found[length]]


def confluence_check(max_deg: int) -> dict:
    """Empirical local confluence: every single-step reduct of every word up
    to the degree bound reaches the same normal form.  With termination
    (each rule strictly decreases the graded order, which _descents checks)
    this certifies confluence on the tested degree range."""
    checked, non_joinable = _unjoinable(max_deg)
    return {"max_deg": max_deg, "branching_words": checked,
            "non_joinable": non_joinable, "passed": not non_joinable}


def critical_pairs() -> dict:
    """Diamond-lemma certificate (Bergman, Adv. Math. 29 (1978) 178-218).

    Every left-hand side has length 2 and no two coincide, so the only
    ambiguities are the overlaps abc with (a,b) and (b,c) both rules: the
    3-letter words with two redexes, which the sweep to degree 3 checks.
    The rules strictly decrease a semigroup order, so when every overlap
    resolves (its two single-step reducts share a normal form) the system
    is confluent in every degree, not only up to a degree bound."""
    overlaps, unresolved = _unjoinable(3)
    return {"overlaps": overlaps, "unresolved": unresolved,
            "passed": bool(overlaps) and not unresolved}


# -- classical cross-check -----------------------------------------------------

def _terms(f: NCPoly) -> list:
    """(coefficient at t = 1 as a complex, word) per word of f, the word's
    exact coefficients summed before any rounding."""
    at_one: dict = {}
    for (w, _), c in f.items():
        at_one[w] = at_one.get(w, 0) + c
    return [(complex(c), w) for w, c in at_one.items()]


def _value(terms: list, vals: tuple) -> complex:
    """Sum of the terms, each coefficient multiplied by its word's letters
    left to right; vals[let] is the value of letter code let."""
    total = 0.0 + 0.0j
    for term, w in terms:
        for let in w:
            term *= vals[let]
        total += term
    return total


def _letter_values(zpt) -> tuple:
    """The value of each letter code at a classical point (z1, z2, z3)."""
    z1, z2, z3 = zpt
    return z1, z2, z3, z3.conjugate(), z2.conjugate(), z1.conjugate()


def classical_value(f: NCPoly, zpt) -> complex:
    """Evaluate commutatively at q = 1 on a classical 5-sphere point."""
    return _value(_terms(f), _letter_values(zpt))


def sample_points(samples: int, seed: int) -> list[tuple]:
    """`samples` random points of the classical 5-sphere as (z1, z2, z3)
    complex tuples: per point, six normal draws of random.Random(seed),
    the three real parts and then the three imaginary parts, divided by
    their math.hypot."""
    import random

    gauss = random.Random(seed).gauss
    points = []
    for _ in range(samples):
        x = [gauss(0.0, 1.0) for _ in range(6)]
        r = hypot(*x)
        points.append(tuple(complex(x[i] / r, x[i + 3] / r) for i in range(3)))
    return points


def classical_cross_check(samples: int = 100, seed: int = 1, tol: float = 1e-10) -> dict:
    """Both sides of every verified identity agree at random classical
    points (commutative sanity only).  Each side's terms are read once and
    each point's letter values built once; each residual is
    abs(classical_value(lhs, z) - classical_value(rhs, z)), bit for bit."""
    sides = [(_terms(lhs), _terms(rhs)) for _, lhs, rhs in cp2_relations() + projector_relations()]
    worst = 0.0
    for zpt in sample_points(samples, seed):
        vals = _letter_values(zpt)
        worst = largest([worst, *(_value(lhs, vals) - _value(rhs, vals) for lhs, rhs in sides)])
    return {"samples": samples, "max_abs_error": worst, "passed": relative(worst, 1.0) < tol}


# -- text grammar ---------------------------------------------------------------

# each identifier's letters: z names one, p_ij = z_i* z_j two
_FACTORS = {**{name: (let,) for let, name in enumerate(LETTER_NAMES)},
            **{f"p{i}{j}": (STAR_OF[i], PLAIN_OF[j]) for i in (1, 2, 3) for j in (1, 2, 3)}}


def poly_from_string(text: str) -> NCPoly:
    """Parse the CLI grammar (qarith.term_tokens) over the z and p
    identifiers, e.g. "z2 z1 - q^-1 z1 z2" or "p12 p21"; p identifiers
    expand to z* z.  Coefficients are exact."""
    total: NCPoly = {}
    word, k, c = (), 0, 1  # the term c t^k word being read
    for kind, value in term_tokens(text, r"p[123][123]|z[123]\*?", "polynomial"):
        if kind == "factor":
            word += _FACTORS[value]
        elif kind == "q":
            k += LATTICE * value
        elif kind == "rat":
            c = _coeff(c * value)
        else:  # the term ends with its sign
            if c:
                poly_add(total, {(word, 0): 1}, k, value * c)
            word, k, c = (), 0, 1
    return total


def word_to_str(word: NCMonomial) -> str:
    return " ".join(LETTER_NAMES[let] for let in word) if word else "1"


def _scalar_to_str(coeffs: dict) -> str:
    """The Laurent scalar sum c t^k of {k: c}, by increasing k, each term
    as c, c*q^(k/12) or c*t^k."""
    return " + ".join(f"{c}" if k == 0 else f"{c}*q^{k // LATTICE}" if k % LATTICE == 0
                      else f"{c}*t^{k}" for k, c in sorted(coeffs.items()))


def poly_to_str(f: NCPoly) -> str:
    """Terms by word in (length, letters) order, each word's coefficient
    printed as its Laurent scalar in t."""
    if not f:
        return "0"
    by_word: dict = {}
    for (w, k), c in f.items():
        by_word.setdefault(w, {})[k] = c
    return " + ".join(f"({_scalar_to_str(by_word[w])}) {word_to_str(w)}"
                      for w in sorted(by_word, key=lambda w: (len(w), w)))
