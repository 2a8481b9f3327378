import inspect
import json
import random
import types

import dense
import pytest

from cp2q import irreps, peterweyl as pw, ualg
from cp2q.qarith import qparam_float

P5 = qparam_float(0.5)
Q = 0.5
GEN = ualg.AlgebraElement.gen
K1K22 = ualg.AlgebraElement.word(("K1", "K2", "K2"))


def residual(got, expect):
    d = dict(got)
    pw.add_into(d, expect, -1.0)
    return max((abs(c) for c in d.values()), default=0.0)


def test_black_k1k22_grades_singlets():
    for n1, n2 in ((0, 0), (1, 3), (2, 1)):
        v = pw.pw_vector(n1, n2, irreps.gt_triples((n1, n2))[0], (0, 0, 0))
        got = pw.black_act(K1K22, v, P5)
        assert residual(got, pw.scaled(v, Q ** (n2 - n1))) < 1e-13


def test_black_e1_kills_singlet():
    v = pw.pw_vector(1, 1, (1, 0, 1), (0, 0, 0))
    assert pw.black_act(GEN("E1"), v, P5) == {}


def test_white_black_casimir_coincide():
    cas = ualg.casimir_element(P5)
    for n1, n2, white, black in ((1, 1, (1, 0, 1), (0, 1, 1)),
                                 (2, 1, (1, 1, 0), (2, 0, 2)),
                                 (0, 3, (0, 2, 0), (0, 1, -1))):
        v = pw.pw_vector(n1, n2, white, black)
        val = ualg.casimir_eigenvalue(n1, n2, P5)
        scale = max(abs(val), 1.0)
        assert residual(pw.white_act(cas, v, P5), pw.scaled(v, val)) / scale < 1e-12
        assert residual(pw.black_act(cas, v, P5), pw.scaled(v, val)) / scale < 1e-12


def test_actions_commute():
    rng = random.Random(4)
    gens = list(irreps.GENERATORS)
    v = pw.pw_vector(2, 1, (1, 1, 0), (2, 0, 2))
    for _ in range(12):
        h, g = GEN(rng.choice(gens)), GEN(rng.choice(gens))
        a = pw.white_act(h, pw.black_act(g, v, P5), P5)
        b = pw.black_act(g, pw.white_act(h, v, P5), P5)
        assert residual(a, b) < 1e-12


@pytest.mark.parametrize("leg", ["white", "black"])
def test_an_action_on_two_labels_is_the_union_of_its_one_label_images(leg):
    # a key's image is summed from keys of its own label alone, so the image
    # of a vector spanning V(1,1) and V(2,1) holds each one-label image,
    # key for key and bit for bit, whatever order the labels' keys come in
    act = pw.white_act if leg == "white" else pw.black_act
    rng = random.Random(35)
    parts = []
    for label in ((1, 1), (2, 1)):
        triples = irreps.gt_triples(label)
        part = {}
        for white in triples:
            for black in rng.sample(triples, 3):
                part.update(pw.pw_vector(*label, white, black, rng.uniform(-1.0, 1.0)))
        parts.append(part)
    both = {**parts[0], **parts[1]}
    elems = [GEN(name) for name in irreps.GENERATORS] + [ualg.casimir_element(P5)]
    for elem in elems:
        union = {**act(elem, parts[0], P5), **act(elem, parts[1], P5)}
        got = act(elem, both, P5)
        assert {k: c.hex() for k, c in got.items()} == {k: c.hex() for k, c in union.items()}, elem


def leg_moves(module) -> tuple[int, list]:
    """Each generator's white and black action on seeded Peter-Weyl basis
    vectors of a few labels, through `module`'s white_act and black_act: the
    number of image keys read, and those that left the input key's label or
    moved the leg the action must not touch (black for the white action,
    white for the black one)."""
    rng = random.Random(31)
    legs = ((module.white_act, lambda k: (k.n1, k.n2, k.black)),
            (module.black_act, lambda k: (k.n1, k.n2, k.white)))
    read, moved = 0, []
    for label in ((1, 0), (1, 1), (2, 1), (0, 3), (2, 2)):
        triples = irreps.gt_triples(label)
        for _ in range(4):
            vec = pw.pw_vector(*label, rng.choice(triples), rng.choice(triples), rng.uniform(-1.0, 1.0))
            (key,) = vec
            for name in irreps.GENERATORS:
                for act, kept in legs:
                    image = act(GEN(name), vec, P5)
                    read += len(image)
                    moved += [(name, key, k) for k in image if kept(k) != kept(key)]
    return read, moved


def test_each_action_moves_only_its_own_leg():
    # the premise of dolbeault.verify_equivariance: the white action keeps
    # each key's black leg, on which the differentials act, and the black
    # action keeps its white leg
    read, moved = leg_moves(pw)
    assert read > 0 and moved == []


@pytest.mark.parametrize("built", ["PWBasisVector(key.n1, key.n2, trip, key.black)",
                                   "PWBasisVector(key.n1, key.n2, key.white, trip)"], ids=["white", "black"])
def test_an_action_that_moves_the_other_leg_fails_leg_locality(built):
    # the action's key built with the moved triple on both legs
    src = inspect.getsource(pw)
    assert src.count(built) == 1
    mutant = types.ModuleType("cp2q.peterweyl_mutant")
    mutant.__package__ = "cp2q"
    exec(compile(src.replace(built, "PWBasisVector(key.n1, key.n2, trip, trip)"), pw.__file__, "exec"),
         mutant.__dict__)
    assert leg_moves(mutant)[1]


def test_sphere_subspace():
    basis = pw.subspace_basis(pw.SubspaceSpec("sphere", 2))
    assert len(basis) == sum(irreps.dim((a, b)) for a in range(3) for b in range(3))
    assert all(v.black == (0, 0, 0) for v in basis)
    # every sphere basis vector is killed by the black su(2) ladder
    v = pw.pw_vector(2, 1, (1, 1, 0), (0, 0, 0))
    assert pw.black_act(GEN("E1"), v, P5) == {}
    assert pw.black_act(GEN("F1"), v, P5) == {}


def test_subspace_counts():
    assert len(pw.subspace_basis(pw.SubspaceSpec("cp2", 2))) == 1 + 8 + 27
    assert len(pw.subspace_basis(pw.SubspaceSpec("line_bundle", 1, 3))) == 10 + 35
    assert pw.subspace_basis(pw.SubspaceSpec("line_bundle", 2, 0)) == \
        pw.subspace_basis(pw.SubspaceSpec("cp2", 2))
    # negative charge bundles mirror to V(n-N, n)
    assert len(pw.subspace_basis(pw.SubspaceSpec("line_bundle", 1, -2))) == \
        irreps.dim((2, 0)) + irreps.dim((3, 1))
    pairs = pw.subspace_basis(pw.SubspaceSpec("form1_doublet", 1))
    assert len(pairs) == irreps.dim((1, 1)) + irreps.dim((0, 3)) + irreps.dim((1, 4))


def test_subspace_deterministic_order():
    a = pw.subspace_basis(pw.SubspaceSpec("cp2", 3))
    b = pw.subspace_basis(pw.SubspaceSpec("cp2", 3))
    assert a == b
    ns = [v.n1 for v in a]
    assert ns == sorted(ns)


def test_basis_dump_schema():
    spec = pw.SubspaceSpec("cp2", 1)
    lines = pw.basis_dump_lines(spec, pw.subspace_basis(spec))
    assert len(lines) == 9
    row = json.loads(lines[0])
    assert set(row) == {"n1", "n2", "white", "black"}
    assert row["black"] == [0, 0, 0]


def test_gt_lowering_at_highest_weight_is_unit():
    for label in ((1, 1), (3, 0), (2, 1)):
        hw = irreps.highest_weight_triple(label)
        elem = pw.gt_lowering_elements(label, P5)[irreps.gt_index(label)[hw]]
        assert set(elem.terms) == {()}
        assert elem.terms[()] == pytest.approx(1.0, abs=1e-12)


def test_gt_lowering_single_state():
    # (1,1,1,0,-1/2): reproduce one basis vector explicitly
    import numpy as np

    index = irreps.gt_index((1, 1))
    elem = pw.gt_lowering_elements((1, 1), P5)[index[(1, 0, -1)]]
    mat = dense.dense(ualg.evaluate(elem, (1, 1), P5))
    got = mat[:, index[(1, 0, 1)]]
    expect = np.zeros(8)
    expect[index[(1, 0, -1)]] = 1.0
    assert np.abs(got - expect).max() < 1e-10


@pytest.mark.parametrize("label", [(1, 1), (0, 2), (2, 1)])
def test_gt_lowering_full_sweep(label):
    rep = pw.verify_gt_lowering(label, P5, 1e-10)
    assert rep["passed"], rep


def coefficient_mass(label, t, p) -> float:
    """sum |c| |column of word| over the lowering element of triple t, at the
    highest-weight column: the scale of its residual's rounding."""
    label = irreps.check_label(label)
    index = irreps.gt_index(label)
    hw_idx = index[irreps.highest_weight_triple(label)]
    elem = pw.gt_lowering_elements(label, p)[index[tuple(t)]]
    columns = dense.word_columns(elem.terms, label, p, hw_idx, {})
    return sum(abs(c) * abs(columns[w]).max() for w, c in elem.terms.items())


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_gt_lowering_matches_the_full_matrix_reference(q):
    # the words act on the highest-weight vector, rightmost letter first, where
    # the oracle forms each word's matrix left to right: same verdicts, and
    # every residual within 1e-15 of its element's coefficient mass
    p = qparam_float(q)
    for label in irreps.labels_up_to(5):
        rep, ref = pw.verify_gt_lowering(label, p), dense.verify_gt_lowering(label, p)
        assert rep.keys() == ref.keys() and rep["passed"] == ref["passed"] and not rep["failures"], label
        # at tol 0 every triple fails, so the failure lists hold every residual
        rep, ref = pw.verify_gt_lowering(label, p, 0.0), dense.verify_gt_lowering(label, p, 0.0)
        assert [f["triple"] for f in rep["failures"]] == [f["triple"] for f in ref["failures"]]
        for f, g in zip(rep["failures"], ref["failures"]):
            band = 1e-15 * coefficient_mass(label, f["triple"], p)
            assert abs(f["residual"] - g["residual"]) <= band, (f, g)


def test_gt_lowering_sees_a_changed_word_coefficient(monkeypatch):
    # a 1e-6 relative change to the coefficient of one word of one element
    lowering = pw.gt_lowering_elements
    target = irreps.gt_index((2, 1))[(1, 0, -1)]

    def perturbed(label, p):
        elems = lowering(label, p)
        if tuple(label) == (2, 1):
            terms = elems[target].terms
            w = max(terms, key=lambda w: abs(terms[w]))
            elems[target] = ualg.AlgebraElement({**terms, w: terms[w] * (1.0 + 1e-6)})
        return elems

    assert pw.verify_gt_lowering((2, 1), P5)["passed"]
    monkeypatch.setattr(pw, "gt_lowering_elements", perturbed)
    rep = pw.verify_gt_lowering((2, 1), P5)
    assert not rep["passed"] and [f["triple"] for f in rep["failures"]] == [[1, 0, -1]]
    assert pw.verify_gt_lowering((1, 2), P5)["passed"]


def test_gt_lowering_rejects_invalid():
    with pytest.raises(irreps.LabelError):
        pw.gt_lowering_elements((1, -1), P5)


@pytest.mark.parametrize("q", [1e-5, 0.3, 0.53, 0.9, 0.999])
def test_gt_lowering_elements_match_the_reference_bit_for_bit(q):
    # one pass per label against the elements built triple by triple: the
    # same words in the same order, each coefficient the same float
    p = qparam_float(q)
    for label in irreps.labels_up_to(6):
        pieces: dict = {}
        ref = [dense.reference_lowering_word(label, t, p, pieces) for t in irreps.gt_triples(label)]
        got = pw.gt_lowering_elements(label, p)
        assert len(got) == len(ref), label
        for e, r in zip(got, ref):
            assert list(e.terms) == list(r.terms), label
            assert [c.hex() for c in e.terms.values()] == [c.hex() for c in r.terms.values()], label


@pytest.mark.parametrize("label,npow,q,tol", [
    ((1, 1), 3, 0.5, 1e-11),
    ((2, 1), 2, 0.9, 1e-11),
])
def test_lemma_commutators(label, npow, q, tol):
    rep = pw.verify_lemma_commutators(label, npow, qparam_float(q), tol)
    assert rep["passed"], rep


def test_lemma_commutators_n1_reduce_to_defining_relations():
    rep = pw.verify_lemma_commutators((1, 1), 1, P5, 1e-12)
    assert rep["passed"]


def test_form1_membership():
    vp = pw.pw_vector(2, 2, (1, 0, 1), (1, 0, 1))
    vm = pw.pw_vector(2, 2, (1, 0, 1), (1, 0, -1))
    assert pw.check_form1_membership(vp, vm, P5)
    assert pw.check_form1_membership({}, {}, P5)
    rep = pw.form1_membership_report(vm, vp, P5)
    assert not rep["passed"]
    assert rep["first_violation"] == "E1 v+ = 0"
    # off-diagonal family doublet
    vo = pw.pw_vector(1, 4, (0, 2, 0), (0, 1, 1))
    vo2 = pw.pw_vector(1, 4, (0, 2, 0), (0, 1, -1))
    assert pw.check_form1_membership(vo, vo2, P5)


def test_k1k22_black_eigenvalue_bookkeeping():
    # q^((3/2)(l1-l2) + n2-n1) on the black triple; the 1-form families
    # give q^(n2-n1 +- 3/2)
    v = pw.pw_vector(2, 2, (0, 0, 0), (1, 0, -1))
    got = pw.black_act(K1K22, v, P5)
    assert residual(got, pw.scaled(v, Q**1.5)) < 1e-13
