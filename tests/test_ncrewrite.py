import contextlib
import io
import itertools
import json
import random

import pytest

from cp2q import cli
from cp2q import ncrewrite as nc
from cp2q.qarith import LaurentScalar

Q = LaurentScalar.q_power
ONE = LaurentScalar.one()


def test_basic_rewrites():
    assert nc.normal_form({(nc.Z2, nc.Z1): ONE}) == {(nc.Z1, nc.Z2): Q(-1)}
    assert nc.normal_form({(nc.Z1S, nc.Z1): ONE}) == {(nc.Z1, nc.Z1S): ONE}
    sphere = nc.normal_form({(nc.Z3, nc.Z3S): ONE})
    assert sphere == {(): ONE, (nc.Z1, nc.Z1S): -ONE, (nc.Z2, nc.Z2S): -ONE}


def test_normal_form_shape():
    rng = random.Random(11)
    for _ in range(40):
        w = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 7)))
        nf = nc.normal_form({w: ONE})
        for m in nf:
            assert nc.is_normal(m)
            assert list(m) == sorted(m)  # letters in reduction order
            # min(a3, b3) = 0: no surviving z3 z3* pair
            assert min(m.count(nc.Z3), m.count(nc.Z3S)) == 0


def test_normal_form_idempotent_and_linear():
    rng = random.Random(12)
    for _ in range(25):
        f = {}
        for _ in range(3):
            w = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 7)))
            f = nc.poly_add(f, {w: LaurentScalar.rational(rng.randrange(1, 5))})
        nf = nc.normal_form(f)
        assert not nc.poly_sub(nc.normal_form(nf), nf)
    a = {(nc.Z2, nc.Z1): ONE}
    b = {(nc.Z3S, nc.Z3): ONE}
    lhs = nc.normal_form(nc.poly_add(a, b))
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
        assert all(nc.grade(m) == g for m in nc.normal_form({w: ONE}))


def test_star_poly_on_relations():
    # star of the family-1 relation p22 p13 = q^2 p13 p22 is again an identity
    lhs = nc.poly_mul(nc.p_gen(2, 2), nc.p_gen(1, 3))
    rhs = nc.poly_add({}, nc.poly_mul(nc.p_gen(1, 3), nc.p_gen(2, 2)), Q(2))
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


def test_overlap_triples_join():
    # the classic critical pairs: 3-letter words reducible at both positions
    for word in itertools.product(range(6), repeat=3):
        reducts = nc._single_step_reducts(word)
        if len(reducts) < 2:
            continue
        nfs = [nc.normal_form(r) for r in reducts]
        for nf in nfs[1:]:
            assert not nc.poly_sub(nf, nfs[0]), word


def test_critical_pairs_certificate():
    rep = nc.critical_pairs()
    assert rep == {"overlaps": 26, "unresolved": [], "passed": True}
    # every overlap is a 3-letter word with two redexes, and conversely
    words = [w for w in itertools.product(range(6), repeat=3)
             if len(nc._single_step_reducts(w)) == 2]
    assert len(words) == rep["overlaps"]


def test_budget_guard_raises_cleanly():
    word = tuple([nc.Z3S, nc.Z3] * 6)
    with pytest.raises(nc.RewriteBudgetError):
        nc.monomial_normal_form(word, budget=[1])


def test_classical_cross_check():
    rep = nc.classical_cross_check(samples=30, seed=5)
    assert rep["passed"], rep
    assert rep["max_abs_error"] < 1e-10


def test_poly_parser():
    f = nc.poly_from_string("z2 z1 - q^-1 z1 z2")
    assert not nc.normal_form(f)
    f = nc.poly_from_string("p12 p21")
    expect = nc.poly_mul(nc.p_gen(1, 2), nc.p_gen(2, 1))
    assert not nc.poly_sub(f, expect)
    f = nc.poly_from_string("1/2 z1 z1* + 1/2 z1 z1*")
    assert not nc.poly_sub(f, {(nc.Z1, nc.Z1S): ONE})
    with pytest.raises(ValueError):
        nc.poly_from_string("z4")
    # a leading "-" is a sign, not a dangling operator
    assert nc.poly_from_string("- z1") == {(nc.Z1,): -ONE}
    assert nc.poly_from_string("z1 * z2") == {(nc.Z1, nc.Z2): ONE}


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
