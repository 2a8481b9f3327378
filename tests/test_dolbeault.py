import functools
import json
import math
import random
from math import sqrt

import numpy as np
import pytest

from cp2q import cli, dolbeault as db, irreps, peterweyl as pw, ualg
from cp2q.qarith import qint, qparam_float

P5 = qparam_float(0.5)


def const_form():
    return pw.pw_vector(0, 0, (0, 0, 0), (0, 0, 0))


def restrict(f, *parts):
    return {k: c for k, c in f.items() if db.part(k) in parts}


def block_spans(nmax):
    """Each block, as (family, n, white), with the range of its slots in
    form_basis order, where the blocks own consecutive slots."""
    out, start = {}, 0
    for family, n, *_ in db.families(nmax):
        for w in irreps.gt_triples(db.family_label(family, n)):
            out[family, n, w] = range(start, start + len(db.block_slots(family, n, w)))
            start += len(out[family, n, w])
    return out


def block_dbar_matrices(nmax, p):
    """The raising differential restricted to each block's slots, read off
    the assembled slot operator."""
    mat = db.slot_operator("dbar", nmax, p).dense()
    return {b: mat[np.ix_(span, span)] for b, span in block_spans(nmax).items()}


def test_dbar_kills_constants():
    assert db.form_norm(db.dbar(const_form(), P5)) == 0.0


def test_dbar_squared_on_random_deg0():
    rng = random.Random(1)
    f = {}
    for v in pw.subspace_basis(pw.SubspaceSpec("cp2", 3)):
        f[v] = rng.uniform(-1, 1)
    img = db.dbar(db.dbar(f, P5), P5)
    assert db.form_norm(img) < 1e-11 * db.form_norm(f)


def test_dbar_diag_slot_coefficient_nonzero():
    mats = block_dbar_matrices(3, P5)
    for n in (1, 2, 3):
        block = ("diag", n, irreps.gt_triples((n, n))[0])
        d = mats[block][1, 0]
        expect = sqrt(2 * qint(n, P5) * qint(n + 2, P5) / qint(2, P5))
        assert d == pytest.approx(expect, rel=1e-13)
        assert d > 0


def test_dbar_image_passes_membership():
    f = pw.pw_vector(2, 2, (1, 1, 0), (0, 0, 0))
    img = db.dbar(f, P5)
    assert pw.check_form1_membership(restrict(img, "+"), restrict(img, "-"), P5)


def test_dbar_dag_on_deg0_is_zero():
    assert db.form_norm(db.dbar_dag(const_form(), P5)) == 0.0


def test_adjointness_random():
    rng = random.Random(2)
    for _ in range(10):
        f, g = db.random_form(2, rng), db.random_form(2, rng)
        lhs = db.inner_product(db.dbar(f, P5), g)
        rhs = db.inner_product(f, db.dbar_dag(g, P5))
        assert abs(lhs - rhs) < 1e-11 * max(db.form_norm(f) * db.form_norm(g), 1.0)


def test_dbar_dag_squared_on_deg2():
    rng = random.Random(3)
    f = {}
    for v in pw.subspace_basis(pw.SubspaceSpec("line_bundle", 3, 3)):
        f[v] = rng.uniform(-1, 1)
    img = db.dbar_dag(db.dbar_dag(f, P5), P5)
    assert db.form_norm(img) < 1e-11 * db.form_norm(f)


def test_inner_product_structure():
    t = pw.pw_vector(1, 1, (0, 0, 0), (0, 0, 0))
    assert db.inner_product(t, t) == 1.0
    doublet = {**pw.pw_vector(1, 1, (0, 0, 0), (1, 0, 1)),
               **pw.pw_vector(1, 1, (0, 0, 0), (1, 0, -1))}
    assert db.inner_product(doublet, doublet) == 2.0
    assert db.inner_product(t, doublet) == 0.0
    slot = pw.scaled(doublet, 1 / sqrt(2))
    assert db.inner_product(slot, slot) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_complex_structure(q):
    rep = db.verify_complex(2, qparam_float(q), 1e-10, trials=6)
    assert rep["passed"], rep


def test_equivariance():
    rep = db.verify_equivariance(2, P5, 1e-10, trials=3)
    assert rep["passed"], rep


def test_equivariance_on_zero_form():
    h = ualg.AlgebraElement.gen("E2")
    assert db.form_norm(pw.white_act(h, {}, P5)) == 0.0


def test_block_slot_counts():
    mats = block_dbar_matrices(0, P5)
    assert len(mats) == 1 + irreps.dim((0, 3))
    assert sum(len(m) for m in mats.values()) == db.slot_operator("dbar", 0, P5).size
    diag1 = [m for (family, n, _), m in block_dbar_matrices(1, P5).items() if (family, n) == ("diag", 1)]
    assert len(diag1) == 8
    for m in diag1:
        assert m.shape == (2, 2)


def test_cross_block_elements_vanish():
    basis = db.form_basis(1)
    mat = db.slot_operator("dbar", 1, P5).dense()
    for span in block_spans(1).values():
        outside = [i for i in range(len(basis)) if i not in span]
        assert np.abs(mat[np.ix_(outside, span)]).max(initial=0.0) < 1e-12
        for j in span:
            img, junk = db.dbar_raw(basis[j], P5)
            assert junk < 1e-12
            resid = dict(img)
            for i in span:
                pw.add_into(resid, basis[i], -mat[i, j])
            assert db.form_norm(resid) < 1e-12


def test_block_dbar_matrix_is_strictly_raising():
    for mat in block_dbar_matrices(2, P5).values():
        assert np.abs(np.triu(mat)).max() == 0.0  # structural zeros on and above the diagonal


def test_spectrum_invariant_under_slot_normalization():
    # recompute one block with unnormalized doublets: the operator's
    # singular value is unchanged
    n = 2
    w = irreps.gt_triples((n, n))[0]
    slots = db.block_slots("diag", n, w)
    normalized = abs(db.inner_product(slots[1], db.dbar_raw(slots[0], P5)[0]))
    raw_doublet = pw.scaled(slots[1], sqrt(2))
    img = db.dbar_raw(slots[0], P5)[0]
    unnormalized = abs(db.inner_product(raw_doublet, img) / db.inner_product(raw_doublet, raw_doublet) ** 0.5)
    assert normalized == pytest.approx(unnormalized, rel=1e-13)


def test_membership_error_raised_on_corrupt_input():
    # a degree-1 vector violating the doublet conditions must be caught when
    # the image validation runs
    bad = pw.pw_vector(2, 2, (1, 0, 1), (1, 0, -1))
    with pytest.raises(db.MembershipError):
        db.dbar(bad, P5)


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.95])
@pytest.mark.parametrize("family, plus", [("diag", (1, 0, 1)), ("offdiag", (0, 1, 1))])
def test_membership_check_sees_a_changed_black_coefficient(monkeypatch, family, plus, q):
    # the junk is measured against the largest black image before the sum,
    # which grows like q^-n: a 1e-6 relative change to E2's first coefficient
    # on the doublet's v+ breaks the cancellation of -E2 v+ against -Y v- at
    # every n where the two meet (not on V(1,1) or V(0,3), where both vanish)
    p = qparam_float(q)
    row = irreps.action_row

    def perturbed(label, gen, triple, p):
        out = row(label, gen, triple, p)
        if gen == "E2" and triple == plus and tuple(label) == db.family_label(family, label[0]) and out:
            (t, c), *rest = out
            out = ((t, c * (1.0 + 1e-6)), *rest)
        return out

    monkeypatch.setattr(pw, "_ROW_MEMO", {})
    monkeypatch.setattr(irreps, "action_row", perturbed)
    first = 2 if family == "diag" else 1
    for n in range(first - 1, 9):
        doublet = db.block_slots(family, n)[1 if family == "diag" else 0]
        if n < first:
            assert db.dbar_raw(doublet, p)[1] == 0.0
            continue
        with pytest.raises(db.MembershipError):
            db.dbar(doublet, p)


def test_part_classifies_every_form_basis_key():
    # the subspace bases of the Peter-Weyl model are an independent oracle
    expect = {k: "0" for k in pw.subspace_basis(pw.SubspaceSpec("cp2", 3))}
    expect.update({k: "2" for k in pw.subspace_basis(pw.SubspaceSpec("line_bundle", 3, 3))})
    for plus, minus in pw.subspace_basis(pw.SubspaceSpec("form1_doublet", 3)):
        expect[plus], expect[minus] = "+", "-"
    keys = [k for s in db.form_basis(3) for k in s]
    assert len(keys) == len(set(keys)) == len(expect)
    assert {k: db.part(k) for k in keys} == expect


def test_part_is_none_off_the_form_spaces():
    off = [k for k in pw.subspace_basis(pw.SubspaceSpec("sphere", 3)) if k.n2 - k.n1 not in (0, 3)]
    assert off
    assert all(db.part(k) is None for k in off)
    # inside a form-space irrep, but with a black triple of the other family
    assert db.part(pw.PWBasisVector(1, 1, (0, 0, 0), (0, 1, 1))) is None
    assert db.part(pw.PWBasisVector(0, 3, (0, 0, 0), (1, 0, -1))) is None


def test_slot_matrix_of_identity_is_identity():
    for nmax in range(4):
        for family, n, w in block_spans(nmax):
            slots = db.block_slots(family, n, w)
            mat = db.slot_matrix(lambda s: s, slots)
            assert len(mat) == len(slots) and all(len(row) == len(slots) for row in mat)
            assert np.abs(np.array(mat) - np.eye(len(slots))).max() < 1e-15


def test_slot_degrees_match_the_parts_of_the_slot_vectors():
    degree = {"0": 0, "+": 1, "-": 1, "2": 2}
    for nmax in range(5):
        slots, degrees = db.slot_vectors(nmax), db.slot_degrees(nmax)
        assert len(degrees) == len(slots)
        for s, d in zip(slots, degrees):
            assert {degree[db.part(k)] for k in s} == {d}


def test_random_form_draws_one_uniform_per_slot():
    nmax = 2
    basis = db.form_basis(nmax)
    f = db.random_form(nmax, random.Random(5))
    rng = random.Random(5)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in basis]
    for s, c in zip(basis, coeffs):
        for k, v in s.items():
            assert f[k] == c * v
    assert len(f) == sum(len(s) for s in basis)


def column_assembly(name, nmax, p):
    """The operator assembled column by column from the dict path: column j
    holds the slot coordinates of the checked image of slot j, read off the
    slots that hold its keys, which must span the image."""
    if name in ("dbar", "dbar_dag"):
        apply = functools.partial(db.dbar if name == "dbar" else db.dbar_dag, p=p)
    else:
        apply = functools.partial(pw.white_act, ualg.AlgebraElement.gen(name), p=p)
    slots = db.slot_vectors(nmax)
    slot_of = {k: j for j, s in enumerate(slots) for k in s}
    triplets = []
    for j, s in enumerate(slots):
        img = apply(s)
        coords = {}
        for k in img:
            i = slot_of.get(k)
            if i is not None and i not in coords:
                coords[i] = db.inner_product(slots[i], img)
        resid = dict(img)
        for i, c in coords.items():
            pw.add_into(resid, slots[i], -c)
        assert max(map(abs, resid.values()), default=0.0) <= 1e-9 * max(max(map(abs, img.values()), default=0.0), 1.0)
        triplets += [(i, j, c) for i, c in coords.items() if c != 0.0]
    rows, cols, vals = zip(*triplets)
    return db.SlotOperator(np.array(rows), np.array(cols), np.array(vals), len(slots))


def product(op, u):
    """A slot operator times a vector, each row summed in the triplets' column order."""
    return np.bincount(op.rows, weights=op.vals * u[op.cols], minlength=op.size)


def oracle_mismatches(name, nmax, p):
    """What differs between slot_operator and the column-by-column oracle:
    the triplet sets, bit for bit (order within a column may differ), the
    bits of a product, or the column order of the triplets."""
    got, ref = db.slot_operator(name, nmax, p), column_assembly(name, nmax, p)

    def triplets(op):
        return sorted(zip(op.rows.tolist(), op.cols.tolist(), op.vals.tolist()))

    u = np.random.default_rng(nmax).uniform(-1.0, 1.0, ref.size)
    return [what for what, same in (
        ("triplets", triplets(got) == triplets(ref)),
        ("matmul", got.size == ref.size and product(got, u).tobytes() == product(ref, u).tobytes()),
        ("column order", bool(np.all(np.diff(got.cols) >= 0))),
    ) if not same]


SLOT_OPERATORS = ("dbar", "dbar_dag")


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_slot_operators_match_the_dict_path(q):
    p = qparam_float(q)
    for nmax in range(5):
        for name in SLOT_OPERATORS:
            assert oracle_mismatches(name, nmax, p) == [], (name, nmax)


def test_slot_operators_match_the_dict_path_at_nmax_6():
    p = qparam_float(0.72)
    for name in SLOT_OPERATORS:
        assert oracle_mismatches(name, 6, p) == [], name


def test_oracle_catches_a_perturbed_black_block_entry(monkeypatch, fresh_operators):
    block = db.black_block

    def perturbed(name, family, n, p):
        b = block(name, family, n, p)
        if (name, family, n) == ("dbar", "diag", 1):
            b[1][0] = math.nextafter(b[1][0], math.inf)
        return b

    monkeypatch.setattr(db, "black_block", perturbed)
    assert oracle_mismatches("dbar", 2, P5) == ["triplets", "matmul"]
    assert oracle_mismatches("dbar_dag", 2, P5) == []


def test_assembly_rejects_images_off_the_slot_span(monkeypatch):
    # a doubled leg keeps the image inside the form spaces, but its v+ and v-
    # no longer match, so it leaves the span of the doublet slots
    monkeypatch.setitem(db._DBAR, "-", (("0", "E2", 2.0),))
    db.slot_operator.cache_clear()
    with pytest.raises(db.MembershipError, match="span"):
        db.slot_operator("dbar", 1, P5)


def test_slot_operator_is_cached_read_only_and_bounded():
    op = db.slot_operator("dbar", 1, P5)
    assert db.slot_operator("dbar", 1, P5) is op
    with pytest.raises(ValueError):
        op.vals[0] = 0.0
    maxsize = db.slot_operator.cache_info().maxsize
    assert maxsize is not None
    for i in range(maxsize + 1):
        db.slot_operator("dbar", 0, qparam_float(0.3 + 0.01 * i))
    with pytest.raises(ValueError, match="K1"):  # the white actions are the tests' column_assembly
        db.slot_operator("K1", 0, P5)
    assert db.slot_operator.cache_info().currsize == maxsize
    assert db.slot_vectors.cache_info().maxsize is not None


def random_coordinates(n, rng):
    """The draws of random_form, formed from rng.random() as rng.uniform does."""
    return -1.0 + 2.0 * np.array([rng.random() for _ in range(n)])


def assembled_verify_complex(nmax, p, tol=1e-10, trials=20, seed=7):
    """The complex checks on random vectors in slot coordinates, through the
    assembled slot operators: the oracle the block verdicts answer to."""
    rng = random.Random(seed)
    d, dd = db.slot_operator("dbar", nmax, p), db.slot_operator("dbar_dag", nmax, p)
    n = d.size
    worst_d2 = worst_dd2 = worst_adj = 0.0
    for u in [random_coordinates(n, rng) for _ in range(trials)]:
        scale = max(float(np.linalg.norm(u)), 1.0)
        worst_d2 = max(worst_d2, float(np.linalg.norm(product(d, product(d, u)))) / scale)
        worst_dd2 = max(worst_dd2, float(np.linalg.norm(product(dd, product(dd, u)))) / scale)
    for _ in range(trials):
        u, v = random_coordinates(n, rng), random_coordinates(n, rng)
        scale = max(float(np.linalg.norm(u) * np.linalg.norm(v)), 1.0)
        worst_adj = max(worst_adj, abs(float(product(d, u) @ v - u @ product(dd, v))) / scale)
    return {"nmax": nmax, "q": p.q, "dbar_squared": worst_d2, "dbar_dag_squared": worst_dd2,
            "adjointness": worst_adj, "passed": max(worst_d2, worst_dd2, worst_adj) < tol}


def assembled_verify_equivariance(nmax, p, tol=1e-10, trials=5, seed=11):
    rng = random.Random(seed)
    ops = (db.slot_operator("dbar", nmax, p), db.slot_operator("dbar_dag", nmax, p))
    n = ops[0].size
    residuals = {}
    for gname in db.WHITE_GENERATORS:
        h = column_assembly(gname, nmax, p)
        worst = 0.0
        for _ in range(trials):
            u = random_coordinates(n, rng)
            scale = max(float(np.linalg.norm(u)), 1.0)
            for op in ops:
                worst = max(worst, float(np.linalg.norm(product(h, product(op, u)) - product(op, product(h, u)))) / scale)
        residuals[gname] = worst
    worst = max(residuals.values())
    return {"nmax": nmax, "q": p.q, "residuals": residuals, "max_residual": worst, "passed": worst < tol}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_block_verdicts_match_the_assembled_oracle(q):
    p = qparam_float(q)
    for nmax in range(5):
        rep, ref = db.verify_complex(nmax, p, trials=3), assembled_verify_complex(nmax, p, trials=3)
        eq, ref_eq = db.verify_equivariance(nmax, p, trials=2), assembled_verify_equivariance(nmax, p, trials=2)
        assert rep.keys() == ref.keys() and eq.keys() == ref_eq.keys()
        assert eq["residuals"].keys() == ref_eq["residuals"].keys()
        assert all(type(rep[k]) is float for k in ("dbar_squared", "dbar_dag_squared", "adjointness"))
        assert (rep["passed"], eq["passed"]) == (ref["passed"], ref_eq["passed"]) == (True, True), nmax


def test_block_checks_see_a_block_that_differs_at_other_white_indices(monkeypatch, capsys, fresh_operators):
    # a 1e-9 relative change to one black coefficient, the degree-0 slot's
    # image in (diag, 2), at every white index but the first: the assembled
    # operators copy the first index's block and cannot see it
    first = irreps.gt_triples((2, 2))[0]
    raw = db.dbar_raw

    def perturbed(f, p):
        img, junk = raw(f, p)
        if all((k.n1, k.n2) == (2, 2) and k.white != first and db.part(k) == "0" for k in f):
            img = {k: c * (1.0 + 1e-9) for k, c in img.items()}
        return img, junk

    monkeypatch.setattr(db, "dbar_raw", perturbed)
    assert assembled_verify_complex(2, P5)["passed"] and assembled_verify_equivariance(2, P5)["passed"]
    for trials in ((8, 2), (20, 5)):
        rep, eq = db.verify_complex(2, P5, trials=trials[0]), db.verify_equivariance(2, P5, trials=trials[1])
        assert not (rep["passed"] and eq["passed"]), trials
    assert cli.main(["verify-complex", "--q", "0.5", "--nmax", "2"]) == cli.EXIT_VERIFICATION_FAILED
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_equivariance_sees_a_white_action_that_reads_the_black_leg(monkeypatch):
    # a 1e-9 relative change to the white action on black singlets alone
    white_act = pw.white_act

    def perturbed(elem, vec, p):
        return {k: c * (1.0 + 1e-9) if k.black == (0, 0, 0) else c for k, c in white_act(elem, vec, p).items()}

    monkeypatch.setattr(pw, "white_act", perturbed)
    eq = db.verify_equivariance(2, P5, trials=2)
    assert not eq["passed"] and all(r > 1e-10 for r in eq["residuals"].values())
    assert db.verify_complex(2, P5, trials=2)["passed"]


def test_block_checks_see_a_flipped_doublet_sign(monkeypatch, fresh_operators):
    # the degree-0 image of the doublet changes sign in dbar_dag alone
    monkeypatch.setitem(db._DBAR_DAG, "0", (("+", "X", -1.0), ("-", "F2", -1.0)))
    rep = db.verify_complex(2, P5)
    assert rep["adjointness"] > 1e-10 and not rep["passed"]
    assert rep["dbar_squared"] == rep["dbar_dag_squared"] == 0.0
    assert not assembled_verify_complex(2, P5)["passed"]


def test_block_checks_see_a_diagonal_entry(monkeypatch, fresh_operators):
    block = db.black_block

    def with_diagonal(name, family, n, p):
        b = block(name, family, n, p)
        if (name, family, n) == ("dbar", "diag", 1):
            b[0][0] = b[1][0]
        return b

    monkeypatch.setattr(db, "black_block", with_diagonal)
    rep = db.verify_complex(2, P5)
    assert rep["dbar_squared"] > 1e-10 and not rep["passed"]
    assert not assembled_verify_complex(2, P5)["passed"]


def test_mutating_returned_forms_leaves_the_basis_unchanged():
    expect = [s for block in block_spans(2) for s in db.block_slots(*block)]
    basis = db.form_basis(2)
    key = next(iter(basis[0]))
    basis[0][key] = 99.0
    basis[1].clear()
    db.random_form(2, random.Random(1)).clear()
    assert db.form_basis(2) == expect
    with pytest.raises(TypeError):
        db.slot_vectors(2)[0][key] = 99.0
