import dense
import numpy as np
import pytest

from cp2q import irreps
from cp2q.qarith import qparam_float

P5 = qparam_float(0.5)

# paper ordering of the fundamental representation basis
FUND_PERM = [1, 2, 0]  # (0,1,-1/2), (0,1,+1/2), (0,0,0)


def test_basis_enumeration():
    assert irreps.gt_triples((0, 0)) == [(0, 0, 0)]
    assert irreps.gt_triples((0, 1)) == [(0, 0, 0), (0, 1, -1), (0, 1, 1)]


def test_dim_formula_matches_enumeration():
    for label in irreps.labels_up_to(6):
        assert irreps.dim(label) == len(irreps.gt_triples(label))


def test_dim_cubes_on_diagonal():
    for n in range(7):
        assert irreps.dim((n, n)) == (n + 1) ** 3


def test_dim_examples():
    assert irreps.dim((0, 1)) == 3
    assert irreps.dim((1, 1)) == 8


def test_invalid_labels_rejected():
    with pytest.raises(irreps.LabelError):
        irreps.dim((-1, 0))


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_fundamental_representation_matches_paper(q):
    p = qparam_float(q)
    expected = {
        "K1": np.diag([q**-0.5, q**0.5, 1.0]),
        "K2": np.diag([1.0, q**-0.5, q**0.5]),
        "E1": np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], float),
        "E2": np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], float),
    }
    for gen, mat in expected.items():
        got = dense.generator_matrix((0, 1), gen, p)[np.ix_(FUND_PERM, FUND_PERM)]
        assert np.allclose(got, mat, atol=1e-14), gen


def test_k1_on_trivial_irrep():
    assert np.allclose(dense.generator_matrix((0, 0), "K1", P5), np.eye(1))


@pytest.mark.parametrize("label,q,tol", [
    ((1, 1), 0.5, 1e-12),
    ((0, 1), 0.5, 1e-12),
    ((2, 1), 0.9, 1e-12),
])
def test_hopf_relations(label, q, tol):
    rep = irreps.verify_hopf_relations(label, qparam_float(q), tol)
    assert rep["passed"], rep


def test_unitarity_contract():
    # lowering matrices built from their own ladder formulas match the
    # transposes of the raising ones; K/H diagonals positive
    for label in irreps.labels_up_to(6):
        for i in "12":
            e = dense.generator_matrix(label, "E" + i, P5)
            f = dense.generator_matrix(label, "F" + i, P5)
            assert np.abs(f - e.T).max() < 1e-13
        for gen in irreps.DIAGONAL_GENERATORS:
            k = dense.generator_matrix(label, gen, P5)
            assert np.allclose(k, np.diag(np.diag(k)))
            assert (np.diag(k) > 0).all()


def test_weight_bookkeeping_k1k2sq():
    q = 0.5
    for label in ((1, 1), (2, 1), (1, 4)):
        k1 = dense.generator_matrix(label, "K1", P5)
        k2 = dense.generator_matrix(label, "K2", P5)
        mat = k1 @ k2 @ k2
        for idx, (j1, j2, mm) in enumerate(irreps.gt_triples(label)):
            expect = q ** (1.5 * (j1 - j2) + (label[1] - label[0]))
            assert mat[idx, idx] == pytest.approx(expect, rel=1e-13)


def test_highest_weight_vector():
    q = 0.5
    for label in ((1, 1), (2, 1), (0, 3)):
        idx = irreps.gt_index(label)[irreps.highest_weight_triple(label)]
        for gen in ("E1", "E2"):
            col = dense.generator_matrix(label, gen, P5)[:, idx]
            assert np.abs(col).max() < 1e-14
        for i, gen in ((0, "K1"), (1, "K2")):
            k = dense.generator_matrix(label, gen, P5)
            assert k[idx, idx] == pytest.approx(q ** (label[i] / 2.0), rel=1e-13)


def test_exact_diagonals_match_float():
    # the K/H generators scale each basis vector by q^(w/12), with the
    # integer weight w exact
    for label in ((2, 1), (0, 3), (3, 3)):
        for gen in irreps.DIAGONAL_GENERATORS:
            flt = dense.generator_matrix(label, gen, P5)
            assert np.array_equal(flt, np.diag(np.diag(flt)))
            for i, t in enumerate(irreps.gt_triples(label)):
                w = irreps.weight_twelfths(gen, label, t)
                assert type(w) is int
                assert 0.5 ** (w / 12) == pytest.approx(flt[i, i], rel=1e-14)


def test_exact_mode_rejects_ladder_generators():
    # exact weights exist for the diagonal generators only; a ladder
    # generator has none, and its matrix has no diagonal
    for gen in ("E1", "E2", "F1", "F2"):
        with pytest.raises(irreps.LabelError):
            irreps.weight_twelfths(gen, (1, 1), (0, 0, 0))
        assert not np.diag(dense.generator_matrix((1, 1), gen, P5)).any()


def test_sparsity_pattern_of_ladder_actions():
    # E1 shifts m by +1 within (j1,j2); E2 moves (j1,m)->(j1+1,m-1/2) or
    # (j2,m)->(j2-1,m-1/2); K/H are diagonal
    label = (2, 2)
    triples = irreps.gt_triples(label)
    columns = irreps.action_columns(label, P5)
    for src, targets in enumerate(columns["E1"]):
        j1, j2, mm = triples[src]
        for tgt, _ in targets:
            assert triples[tgt] == (j1, j2, mm + 2)
    for src, targets in enumerate(columns["E2"]):
        j1, j2, mm = triples[src]
        for tgt, _ in targets:
            assert triples[tgt] in ((j1 + 1, j2, mm - 1), (j1, j2 - 1, mm - 1))
        assert len(targets) <= 2


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.95])
def test_generator_matrix_is_dense_assembly_of_action_rows(q):
    # bit for bit: the tests' dense oracle scatters the whole-irrep columns,
    # which repeat action_row's float operations in action_row's order
    p = qparam_float(q)
    for label in irreps.labels_up_to(8):
        index = irreps.gt_index(label)
        for gen in irreps.GENERATORS:
            expect = np.zeros((len(index), len(index)))
            for src, i in index.items():
                for tgt, c in irreps.action_row(label, gen, src, p):
                    expect[index[tgt], i] += c
            assert np.array_equal(expect, dense.generator_matrix(label, gen, p)), (label, gen)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.72, 0.95, 0.999])
def test_action_columns_are_action_rows_bit_for_bit(q):
    # the whole-irrep builder repeats action_row's float operations in
    # action_row's order, so each column is the row, term by term
    p = qparam_float(q)
    for label in irreps.labels_up_to(8):
        index = irreps.gt_index(label)
        columns = irreps.action_columns(label, p)
        assert set(columns) == set(irreps.GENERATORS)
        for gen in irreps.GENERATORS:
            assert len(columns[gen]) == len(index)
            for src, j in index.items():
                expect = [(index[tgt], c.hex()) for tgt, c in irreps.action_row(label, gen, src, p)]
                assert [(i, c.hex()) for i, c in columns[gen][j]] == expect, (label, gen, src)


# the benchmark's battery and forms commands at seed 1, how often each builds
# a label's columns and how many (label, q) pairs it builds them for: the
# checks build each label they read once, and classical-check reads the
# fundamental's columns once at each of its two q
ASSEMBLIES = [
    (["verify-hopf", "--q", "0.79", "--total-degree", "8"], 45, 45),
    (["verify-casimir", "--q", "0.44", "--total-degree", "8"], 45, 45),
    (["verify-gt", "--q", "0.53", "--total-degree", "6"], 28, 28),
    (["verify-coproduct", "--q", "0.53"], 1, 1),
    (["classical-check", "--samples", "1000", "--seed", "716"], 2, 2),
    (["evaluate", "q^1 E1 F1 - q^1 F1 E1 - q^-1 E1 F1 + q^-1 F1 E1 - K1 K1 + K1' K1' + K2 K2'",
      "--q", "0.67", "--n1", "3", "--n2", "3"], 1, 1),
    # decided on the black blocks and the dict path, with no white matrix
    (["verify-complex", "--q", "0.72", "--nmax", "4"], 0, 0),
]


@pytest.mark.parametrize("argv,calls,labels", ASSEMBLIES, ids=[a[0] for a, _, _ in ASSEMBLIES])
def test_each_generator_matrix_is_assembled_once_per_command(monkeypatch, argv, calls, labels, capsys,
                                                             fresh_operators):
    from collections import Counter

    from cp2q import cli

    built = Counter()
    columns = irreps.action_columns

    def spy(label, p):
        built[(tuple(label), p.q)] += 1
        return columns(label, p)

    monkeypatch.setattr(irreps, "action_columns", spy)
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert (sum(built.values()), len(built)) == (calls, labels)


@pytest.mark.parametrize("check", ["hopf", "casimir"])
def test_checks_hold_one_label_of_matrices_at_a_time(check):
    # over labels up to degree 7 the peak is one label's columns and one
    # relation's products (0.4-0.6 MB), where keeping every label's columns
    # alone takes 1.3 MB
    import tracemalloc

    from cp2q import ualg

    verify = irreps.verify_hopf_relations if check == "hopf" else ualg.verify_casimir_scalar
    p = qparam_float(0.79)
    tracemalloc.start()
    try:
        for label in irreps.labels_up_to(7):
            assert verify(label, p)["passed"], label
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_hopf_relations_match_the_dense_oracle(q):
    # same relations and verdicts; each residual is relative to its scale,
    # and moves at most where BLAS sums several products in another order
    p = qparam_float(q)
    for label in irreps.labels_up_to(6):
        got, ref = irreps.verify_hopf_relations(label, p), dense.verify_hopf_relations(label, p)
        assert got.keys() == ref.keys() and got["passed"] == ref["passed"], label
        assert [e["relation"] for e in got["relations"]] == [e["relation"] for e in ref["relations"]]
        for e, f in zip(got["relations"], ref["relations"]):
            assert e["passed"] == f["passed"] and abs(e["residual"] - f["residual"]) <= 1e-15, (label, e, f)


def perturb_e2(monkeypatch, label, rel):
    """A relative change `rel` to the first E2 coefficient of `label`."""
    columns = irreps.action_columns

    def perturbed(lab, p):
        out = columns(lab, p)
        if tuple(lab) == label:
            col = next(j for j, c in enumerate(out["E2"]) if c)
            (i, c), *rest = out["E2"][col]
            out["E2"][col] = ((i, c * (1.0 + rel)), *rest)
        return out

    monkeypatch.setattr(irreps, "action_columns", perturbed)


def test_hopf_relations_see_a_changed_e2_coefficient(monkeypatch):
    from cp2q import ualg

    p = qparam_float(0.5)
    for label in ((1, 1), (2, 1)):
        assert irreps.verify_hopf_relations(label, p)["passed"]
        assert ualg.verify_casimir_scalar(label, p)["passed"]
    perturb_e2(monkeypatch, (2, 1), 1e-9)
    assert irreps.verify_hopf_relations((1, 1), p)["passed"]
    assert not irreps.verify_hopf_relations((2, 1), p)["passed"]
    assert not ualg.verify_casimir_scalar((2, 1), p)["passed"]
