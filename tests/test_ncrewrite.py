import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cp2q import cli
from cp2q import ncrewrite as nc
from cp2q.qarith import LATTICE
from laurent import LaurentScalar


def word(*letters):
    """The flat polynomial of one word with coefficient 1."""
    return {(letters, 0): 1}


def test_basic_rewrites():
    assert nc.normal_form(word(nc.Z2, nc.Z1)) == {((nc.Z1, nc.Z2), -LATTICE): 1}
    assert nc.normal_form(word(nc.Z1S, nc.Z1)) == word(nc.Z1, nc.Z1S)
    sphere = nc.normal_form(word(nc.Z3, nc.Z3S))
    assert sphere == {((), 0): 1, ((nc.Z1, nc.Z1S), 0): -1, ((nc.Z2, nc.Z2S), 0): -1}


def test_normal_form_shape():
    rng = random.Random(11)
    for _ in range(40):
        w = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 7)))
        nf = nc.normal_form(word(*w))
        for m, _ in nf:
            assert list(m) == sorted(m)  # letters in reduction order
            # min(a3, b3) = 0: no surviving z3 z3* pair
            assert min(m.count(nc.Z3), m.count(nc.Z3S)) == 0


def test_normal_form_idempotent_and_linear():
    rng = random.Random(12)
    for _ in range(25):
        f = {}
        for _ in range(3):
            w = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 7)))
            f = nc.poly_add(f, {(w, 0): rng.randrange(1, 5)})
        nf = nc.normal_form(f)
        assert not nc.poly_sub(nc.normal_form(nf), nf)
    a = word(nc.Z2, nc.Z1)
    b = word(nc.Z3S, nc.Z3)
    lhs = nc.normal_form(nc.poly_add(dict(a), b))
    rhs = nc.poly_add(nc.normal_form(a), nc.normal_form(b))
    assert not nc.poly_sub(lhs, rhs)


def test_grade():
    assert nc.grade((nc.Z1S, nc.Z2)) == 0  # p-generators are invariant
    assert nc.grade((nc.Z1,)) == 1
    assert nc.grade(()) == 0


def test_grade_preserved_by_rules():
    rng = random.Random(13)
    for _ in range(40):
        w = tuple(rng.randrange(6) for _ in range(rng.randrange(1, 7)))
        g = nc.grade(w)
        assert all(nc.grade(m) == g for m, _ in nc.normal_form(word(*w)))


def test_star_poly_on_relations():
    # star of the family-1 relation p22 p13 = q^2 p13 p22 is again an identity
    lhs = nc.poly_mul(nc.p_gen(2, 2), nc.p_gen(1, 3))
    rhs = nc.poly_add({}, nc.poly_mul(nc.p_gen(1, 3), nc.p_gen(2, 2)), 2 * LATTICE)
    assert nc.verify_identity(lhs, rhs)
    assert nc.verify_identity(nc.star_poly(lhs), nc.star_poly(rhs))


def test_all_cp2_relation_families():
    rep = nc.verify_cp2_relations()
    assert rep["passed"], [r for r in rep["relations"] if not r["passed"]]
    assert rep["count"] == 40  # 6+6+6+6+6 family instances + 9 projector + trace


def test_projector_and_trace():
    for name, lhs, rhs in nc.projector_relations():
        assert nc.verify_identity(lhs, rhs), name


def test_identity_rejects_non_identity():
    assert not nc.verify_identity(nc.p_gen(1, 2), nc.p_gen(2, 1))


def test_confluence_small_degree():
    rep = nc.confluence_check(4)
    assert rep["passed"], rep["non_joinable"][:3]
    assert rep["branching_words"] > 0


def single_step_reducts(w):
    """Each rewrite of one left-hand side in w, as a flat polynomial."""
    return [{(w[:i] + repl + w[i + 2:], k): c for repl, k, c in nc.RULES[w[i:i + 2]]}
            for i in range(len(w) - 1) if w[i:i + 2] in nc.RULES]


def test_overlap_triples_join():
    # the classic critical pairs: 3-letter words reducible at both positions
    for w in itertools.product(range(6), repeat=3):
        reducts = single_step_reducts(w)
        if len(reducts) < 2:
            continue
        nfs = [nc.normal_form(r) for r in reducts]
        for nf in nfs[1:]:
            assert not nc.poly_sub(nf, nfs[0]), w


def test_critical_pairs_certificate():
    rep = nc.critical_pairs()
    assert rep == {"overlaps": 26, "unresolved": [], "passed": True}
    # every overlap is a 3-letter word with two redexes, and conversely
    words = [w for w in itertools.product(range(6), repeat=3)
             if len(single_step_reducts(w)) == 2]
    assert len(words) == rep["overlaps"]


def test_sweep_and_certificate_report_a_broken_rule(monkeypatch):
    # without its 1 - q^2 correction the z2* z2 rule no longer joins the
    # sphere rule, so both confluence checks must fail with a witness
    broken = {**nc.RULES, (nc.Z2S, nc.Z2): (((nc.Z2, nc.Z2S), 0, 1),)}
    monkeypatch.setattr(nc, "RULES", broken)
    conf = nc.confluence_check(3)
    assert not conf["passed"]
    assert all(len(set(bad["normal_forms"])) > 1 for bad in conf["non_joinable"])
    pairs = nc.critical_pairs()
    assert not pairs["passed"] and pairs["unresolved"]


def test_word_tables_hold_the_memoized_normal_forms():
    # the sweep's tables against the recursion through the memo, which
    # reduces at the first redex too, on every word of 0 to 5 letters
    memo, lengths = {}, []
    for length, masks, (cs, ks, bases), reduct in nc._word_tables(5):
        lengths.append(length)
        for x, w in enumerate(itertools.product(range(6), repeat=length)):
            assert nc._word(x, length) == w
            assert masks[x] == sum(1 << i for i in nc._redexes(w)), w
            assert nc.materialize((cs[x], ks[x], bases[x])) == nc.monomial_normal_form(w, memo), w
            if length <= 4:
                reducts = single_step_reducts(w)
                for i, r in zip(nc._redexes(w), reducts):
                    assert nc.materialize(reduct(x, i)) == nc.normal_form(r, memo), (w, i)
    assert sorted(lengths) == list(range(6))


def test_sweep_memory_stays_bounded():
    import tracemalloc

    tracemalloc.start()
    try:
        assert nc.confluence_check(6)["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


def test_a_rule_that_does_not_decrease_the_order_is_rejected(monkeypatch):
    # z1 z2 -> z2 z1 undoes z2 z1 -> z1 z2, so reduction would cycle
    cycling = {**nc.RULES, (nc.Z1, nc.Z2): (((nc.Z2, nc.Z1), LATTICE, 1),)}
    monkeypatch.setattr(nc, "RULES", cycling)
    with pytest.raises(nc.RewriteBudgetError, match="z1 z2 -> z2 z1"):
        nc.confluence_check(3)
    with pytest.raises(nc.RewriteBudgetError):
        nc.normal_form(word(nc.Z2, nc.Z1))
    # the command line reports it as a verification failure, in a fresh
    # interpreter that must neither hang nor print a traceback
    src = Path(nc.__file__).resolve().parents[1]
    probe = ("import sys\n"
             "from cp2q import cli, ncrewrite as nc\n"
             "nc.RULES[(nc.Z1, nc.Z2)] = (((nc.Z2, nc.Z1), 12, 1),)\n"
             "sys.exit(cli.main(['verify-cp2-relations', '--max-deg', '3']))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == cli.EXIT_VERIFICATION_FAILED and not out.stderr
    report = json.loads(out.stdout)
    assert report["passed"] is False and "does not decrease the order" in report["error"]


@pytest.mark.parametrize("seed", [1, 4])
def test_cross_check_matches_classical_value_bit_for_bit(seed):
    # the worst residual is the per-point scalar path's, to the last bit
    pts = nc.sample_points(60, seed)
    worst = 0.0
    for z in pts:
        for _, lhs, rhs in nc.cp2_relations() + nc.projector_relations():
            worst = max(worst, abs(nc.classical_value(lhs, z) - nc.classical_value(rhs, z)))
    assert nc.classical_cross_check(samples=60, seed=seed)["max_abs_error"].hex() == worst.hex()
    # the points lie on the unit 5-sphere and are the seed's own
    assert len(pts) == 60 and all(len(z) == 3 for z in pts)
    assert all(abs(sum(abs(zi) ** 2 for zi in z) - 1.0) <= 1e-15 for z in pts)
    assert nc.sample_points(60, seed) == pts and nc.sample_points(60, seed + 1) != pts


def test_cross_check_fails_on_a_wrong_coefficient(monkeypatch):
    # a right-hand side scaled by 2 differs from its left-hand side at q = 1
    relations = nc.cp2_relations

    def mutated():
        (name, lhs, rhs), *rest = relations()
        return [(name, lhs, {key: 2 * c for key, c in rhs.items()}), *rest]

    assert nc.classical_cross_check(samples=20, seed=1)["passed"]
    monkeypatch.setattr(nc, "cp2_relations", mutated)
    rep = nc.classical_cross_check(samples=20, seed=1)
    assert not rep["passed"] and rep["max_abs_error"] > 1e-3


def test_classical_cross_check():
    rep = nc.classical_cross_check(samples=30, seed=5)
    assert rep["passed"], rep
    assert rep["max_abs_error"] < 1e-10


def test_classical_value_sums_each_words_coefficient_first():
    # w2's coefficient 1 - q^2 is exactly 0 at q = 1, so w2 adds nothing;
    # summing term by term would leave rounding from + w2 - w2 behind
    w1, w2 = (nc.Z1, nc.Z2, nc.Z3S), (nc.Z2, nc.Z3, nc.Z3, nc.Z1S)
    f = {(w1, 0): 1, (w2, 0): 1, (w2, 2 * LATTICE): -1}
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert nc.classical_value(f, v) == nc.classical_value(word(*w1), v)


def test_poly_parser():
    f = nc.poly_from_string("z2 z1 - q^-1 z1 z2")
    assert not nc.normal_form(f)
    f = nc.poly_from_string("p12 p21")
    expect = nc.poly_mul(nc.p_gen(1, 2), nc.p_gen(2, 1))
    assert not nc.poly_sub(f, expect)
    f = nc.poly_from_string("1/2 z1 z1* + 1/2 z1 z1*")
    assert not nc.poly_sub(f, word(nc.Z1, nc.Z1S))
    with pytest.raises(ValueError):
        nc.poly_from_string("z4")
    # a leading "-" is a sign, not a dangling operator
    assert nc.poly_from_string("- z1") == {((nc.Z1,), 0): -1}
    assert nc.poly_from_string("z1 * z2") == word(nc.Z1, nc.Z2)
    # a non-integral rational keeps its Fraction, an integral one is an int
    half = nc.poly_from_string("1/2 q^-1 z1")
    assert half == {((nc.Z1,), -LATTICE): Fraction(1, 2)}
    assert [type(c) for c in nc.poly_from_string("4/2 z1").values()] == [int]


@pytest.mark.parametrize("expr", ["", "+", "z1 +", "1/0 z1", "z1 - + z2", "* z1"])
def test_rewrite_rejects_malformed_input(expr):
    with pytest.raises(ValueError):
        nc.poly_from_string(expr)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["rewrite", expr])
    assert code == cli.EXIT_CONFIG_ERROR
    report = json.loads(buf.getvalue())
    assert report["passed"] is False and report["error"]


def test_poly_roundtrip_strings():
    f = nc.poly_from_string("q^2 p11 - z2* z2")
    s = nc.poly_to_str(nc.normal_form(f))
    assert "z1" in s or s == "0"


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.dictionaries(st.tuples(st.lists(st.integers(0, 5), max_size=4).map(tuple), st.integers(-40, 40)),
                       st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4)), max_size=6))
@example({((nc.Z1,), 0): Fraction(4, 2), ((nc.Z1,), 12): Fraction(-2, 3), ((), -5): 1})
def test_poly_to_str_prints_each_coefficient_as_its_laurent_scalar(f):
    f = {key: c for key, c in f.items() if c}
    by_word = {}
    for (w, k), c in f.items():
        by_word.setdefault(w, {})[k] = c
    want = " + ".join(f"({LaurentScalar.from_dict(by_word[w])}) {nc.word_to_str(w)}"
                      for w in sorted(by_word, key=lambda w: (len(w), w))) or "0"
    assert nc.poly_to_str(f) == want


def reference_rules():
    """The defining relations of the module docstring, oriented the same
    way, with LaurentScalar coefficients and replacements keyed by word."""
    q, one = LaurentScalar.q_power, LaurentScalar.one()
    corr = one + q(2, -1)
    star = {nc.Z1: nc.Z1S, nc.Z2: nc.Z2S, nc.Z3: nc.Z3S}
    rules = {}
    for i, j in itertools.combinations((nc.Z1, nc.Z2, nc.Z3), 2):
        rules[(j, i)] = {(i, j): q(-1)}
        rules[(star[i], star[j])] = {(star[j], star[i]): q(-1)}
    for a, j in itertools.permutations((nc.Z1, nc.Z2, nc.Z3), 2):
        rules[(star[a], j)] = {(j, star[a]): q(1)}
    rules[(nc.Z1S, nc.Z1)] = {(nc.Z1, nc.Z1S): one}
    rules[(nc.Z2S, nc.Z2)] = {(nc.Z2, nc.Z2S): one, (nc.Z1, nc.Z1S): corr}
    rules[(nc.Z3S, nc.Z3)] = {(nc.Z3, nc.Z3S): one, (nc.Z1, nc.Z1S): corr, (nc.Z2, nc.Z2S): corr}
    rules[(nc.Z3, nc.Z3S)] = {(): one, (nc.Z1, nc.Z1S): q(0, -1), (nc.Z2, nc.Z2S): q(0, -1)}
    return rules


def reference_normal_form(w, rules, memo):
    """{word: LaurentScalar}, reducing at the last redex (the engine takes
    the first, so agreement also rests on confluence)."""
    if w not in memo:
        out = {w: LaurentScalar.one()}
        for i in reversed(range(len(w) - 1)):
            if w[i:i + 2] in rules:
                out = {}
                for repl, c in rules[w[i:i + 2]].items():
                    sub = reference_normal_form(w[:i] + repl + w[i + 2:], rules, memo)
                    for m, cm in sub.items():
                        total = out.get(m, LaurentScalar.zero()) + c * cm
                        if total:
                            out[m] = total
                        else:
                            out.pop(m, None)
                break
        memo[w] = out
    return memo[w]


def test_flat_normal_forms_match_a_laurent_reference():
    rules = reference_rules()
    assert set(rules) == set(nc.RULES)
    ref_memo, memo, checked = {}, {}, 0
    for length in range(5):
        for w in itertools.product(range(6), repeat=length):
            flat = nc.monomial_normal_form(w, memo)
            assert all(type(c) is int and c for c in flat.values()), w
            by_word = {}
            for (m, k), c in flat.items():
                by_word.setdefault(m, {})[k] = c
            got = {m: LaurentScalar.from_dict(d) for m, d in by_word.items()}
            assert got == reference_normal_form(w, rules, ref_memo), w
            checked += 1
    assert checked == 1555


def test_no_module_state_survives_a_sweep_or_a_query():
    # a fresh interpreter, so no earlier test has filled anything
    src = Path(nc.__file__).resolve().parents[1]
    probe = ("from cp2q import ncrewrite as nc\n"
             "def sizes():\n"
             "    return {k: len(v) for k, v in vars(nc).items()\n"
             "            if isinstance(v, (dict, list, set))}\n"
             "before = sizes()\n"
             "assert nc.confluence_check(3)['branching_words'] > 0\n"
             "assert nc.critical_pairs()['passed'] and nc.verify_cp2_relations()['passed']\n"
             "assert nc.normal_form(nc.poly_from_string('p12 p21 p33'))\n"
             "assert nc.monomial_normal_form((nc.Z3S, nc.Z3, nc.Z2S, nc.Z2))\n"
             "print(before == sizes())")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


# -- canonical normal forms -----------------------------------------------------

_SCALAR = st.one_of(st.integers(1, 6), st.integers(-6, -1),
                    st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))
_SHIFT = st.integers(-30, 30)
_KEY = st.tuples(st.lists(st.integers(0, 5), max_size=3).map(tuple), st.integers(-6, 6))
_POLY = st.dictionaries(_KEY, _SCALAR, max_size=5)


@st.composite
def poly_pairs(draw):
    """Two flat polynomials: the second a reordered copy of the first,
    a copy scaled (by a negative, an integer with a common factor or a
    Fraction) and shifted in t, either of those with one term more, or an
    unrelated polynomial."""
    f = draw(_POLY)
    kind = draw(st.sampled_from(("copy", "scaled", "one_more", "unrelated")))
    if kind == "unrelated":
        return f, draw(_POLY)
    c, m = (1, 0) if kind == "copy" else (draw(_SCALAR), draw(_SHIFT))
    g = {(w, e + m): v * c for (w, e), v in reversed(f.items())}
    if kind == "one_more":
        g.setdefault(draw(_KEY), draw(_SCALAR))
    return f, g


@settings(deadline=None, derandomize=True, max_examples=300)
@given(poly_pairs())
@example(({}, {}))
@example(({((0,), 3): 2, ((1,), 5): -4}, {((0,), 0): 1, ((1,), 2): -2}))  # gcd 2 and a t-shift
@example(({((0,), 0): -3, ((1,), 0): 6}, {((0,), 0): 3, ((1,), 0): -6}))  # sign only
@example(({((0,), 0): Fraction(1, 2)}, {((0,), 0): Fraction(1, 3)}))  # Fraction scalars
@example(({((0,), 0): 1}, {((0,), 0): 1, ((1,), 0): 1}))  # one term more
def test_canonical_triples_are_equal_exactly_when_the_dicts_are(pair):
    f, g = pair
    interned = {}
    (cf, kf, bf), (cg, kg, bg) = nc.canon(f, interned), nc.canon(g, interned)
    assert (cf == cg and kf == kg and bf is bg) is (f == g)
    for poly, (c, k, base) in ((f, (cf, kf, bf)), (g, (cg, kg, bg))):
        assert nc.materialize((c, k, base)) == poly
        if base:
            lead = min(base)
            assert lead[1] == 0 and base[lead] > 0
            assert all(type(v) is int for v in base.values())
            assert math.gcd(*base.values()) == 1
        else:
            assert (c, k) == (0, 0)


def test_mutating_results_leaves_the_shared_bases_unchanged():
    memo = {}
    words = [(nc.Z1, nc.Z2), (nc.Z2, nc.Z1), (nc.Z3, nc.Z3S), (nc.Z3S, nc.Z3, nc.Z2S, nc.Z2)]
    first = [nc.normal_form(word(*w), memo) for w in words]
    first += [nc.monomial_normal_form(w, memo) for w in words]
    frozen = {w: (c, k, dict(base)) for w, (c, k, base) in memo.items()}
    bases = [base for _, _, base in memo.values()]
    for f in first:
        assert all(f is not base for base in bases)
        f.clear()
        f[((nc.Z1,), 0)] = 7
    assert {w: (c, k, dict(base)) for w, (c, k, base) in memo.items()} == frozen
    again = [nc.normal_form(word(*w), memo) for w in words]
    assert again == [nc.normal_form(word(*w)) for w in words]
    assert again[0] == word(nc.Z1, nc.Z2) and again[1] == {((nc.Z1, nc.Z2), -LATTICE): 1}


@pytest.mark.parametrize("max_deg, count", [(3, 26), (4, 532), (5, 5636), (6, 44584)])
def test_branching_words_match_a_brute_force_count(max_deg, count):
    # words of 2..max_deg letters holding two or more left-hand sides of the
    # reference rules; counting them needs no reduction
    left_sides = set(reference_rules())
    brute = sum(1 for length in range(2, max_deg + 1)
                for w in itertools.product(range(6), repeat=length)
                if sum(w[i:i + 2] in left_sides for i in range(length - 1)) >= 2)
    assert brute == count
    rep = nc.confluence_check(max_deg)
    assert rep["passed"] and rep["branching_words"] == count


def naive_normal_form(w):
    """Reduction at the first redex with no memo and no sharing."""
    for i in range(len(w) - 1):
        if w[i:i + 2] in nc.RULES:
            out = {}
            for repl, k, c in nc.RULES[w[i:i + 2]]:
                for (m, e), v in naive_normal_form(w[:i] + repl + w[i + 2:]).items():
                    out[(m, e + k)] = out.get((m, e + k), 0) + c * v
            return {key: v for key, v in out.items() if v}
    return {(w, 0): 1}


def test_scaled_memo_carries_the_coefficients_of_one_term_rules(monkeypatch):
    # every one-term rule of the relations has coefficient 1, so rescale
    # them (the rules are no longer confluent, but reduction at the first
    # redex is still defined) to see the scalars travel through the memo
    scaled = {lhs: tuple((repl, k, Fraction(-1, 2) * c if len(terms) == 1 else c)
                         for repl, k, c in terms) for lhs, terms in nc.RULES.items()}
    monkeypatch.setattr(nc, "RULES", scaled)
    memo = {}
    for length in range(5):
        for w in itertools.product(range(6), repeat=length):
            assert nc.monomial_normal_form(w, memo) == naive_normal_form(w), w
    f = {((nc.Z3S, nc.Z2, nc.Z1), 5): 3, ((nc.Z2, nc.Z1), 0): Fraction(1, 3)}
    want = {}
    for (w, k), c in f.items():
        nc.poly_add(want, naive_normal_form(w), k, c)
    assert nc.normal_form(f, memo) == want


BROKEN_RULES = {
    # the z2* z2 rule without its 1 - q^2 correction
    "no_correction": {(nc.Z2S, nc.Z2): (((nc.Z2, nc.Z2S), 0, 1),)},
    # z2 z1 -> 2 q^-1 z1 z2: a one-term rule whose coefficient is not 1
    "coefficient_2": {(nc.Z2, nc.Z1): (((nc.Z1, nc.Z2), -LATTICE, 2),)},
    # z3* z1 -> q^2 z1 z3*: a one-term rule with a shifted exponent
    "shifted_exponent": {(nc.Z3S, nc.Z1): (((nc.Z1, nc.Z3S), 2 * LATTICE, 1),)},
    # z3* z3 -> 2 z3 z3* and z3 z3* -> 1: the reducts of z3 z3* z3 reach z3
    # and 2 z3, normal forms that differ in their scalar alone
    "scalar_only": {(nc.Z3S, nc.Z3): (((nc.Z3, nc.Z3S), 0, 2),), (nc.Z3, nc.Z3S): (((), 0, 1),)},
}


def naive_report(max_deg):
    """The sweep's failure report rebuilt from single_step_reducts and
    naive_normal_form: each word of 2 to max_deg letters with two or more
    redexes whose reducts' normal forms differ, in length and word order."""
    nfs_of = {}

    def nf(w):
        if w not in nfs_of:
            nfs_of[w] = naive_normal_form(w)
        return nfs_of[w]

    report = []
    for length in range(2, max_deg + 1):
        for w in itertools.product(range(6), repeat=length):
            reducts = single_step_reducts(w)
            if len(reducts) < 2:
                continue
            nfs = []
            for r in reducts:
                out = {}
                for (m, k), c in r.items():
                    for (m2, e), v in nf(m).items():
                        out[(m2, e + k)] = out.get((m2, e + k), 0) + c * v
                nfs.append({key: v for key, v in out.items() if v})
            if any(f != nfs[0] for f in nfs[1:]):
                report.append({"word": nc.word_to_str(w), "normal_forms": [nc.poly_to_str(f) for f in nfs]})
    return report


@pytest.mark.parametrize("name, counts", [("no_correction", (4, 68, 756)),
                                          ("coefficient_2", (5, 82, 892)),
                                          ("shifted_exponent", (4, 68, 750)),
                                          ("scalar_only", (2, 32, 338))])
def test_sweep_reports_the_non_joinable_words_of_a_naive_reduction(monkeypatch, name, counts):
    monkeypatch.setattr(nc, "RULES", {**nc.RULES, **BROKEN_RULES[name]})
    want = naive_report(5)
    for max_deg, count in zip((3, 4, 5), counts):
        prefix = [bad for bad in want if len(bad["word"].split()) <= max_deg]
        assert len(prefix) == count
        assert nc.confluence_check(max_deg)["non_joinable"] == prefix
