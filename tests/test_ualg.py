import random

import dense
import numpy as np
import pytest

from cp2q import irreps, ualg
from cp2q.qarith import qint, qparam_float

P5 = qparam_float(0.5)
Q = 0.5
GEN = ualg.AlgebraElement.gen
WORD = ualg.AlgebraElement.word

# identity-certification battery: all irreps with n1+n2 <= 4, three q values
BATTERY_LABELS = irreps.labels_up_to(4)
BATTERY_QS = (0.3, 0.5, 0.9)


def evaluate(elem, label, p):
    """ualg.evaluate's columns as a dense matrix."""
    return dense.dense(ualg.evaluate(elem, label, p))


def test_evaluate_unit():
    assert np.allclose(evaluate(ualg.AlgebraElement.unit(), (1, 1), P5), np.eye(8))


def test_ef_commutator_defining_relation():
    e1, f1 = GEN("E1"), GEN("F1")
    lhs = evaluate(e1 * f1 - f1 * e1, (0, 1), P5)
    k1 = dense.generator_matrix((0, 1), "K1", P5)
    k1i = dense.generator_matrix((0, 1), "K1inv", P5)
    rhs = (k1 @ k1 - k1i @ k1i) / (Q - 1 / Q)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_x_on_fundamental():
    x = evaluate(ualg.x_element(P5), (0, 1), P5)
    f1 = dense.generator_matrix((0, 1), "F1", P5)
    f2 = dense.generator_matrix((0, 1), "F2", P5)
    expect = f2 @ f1 - (2.0 / qint(2, P5)) * (f1 @ f2)
    assert np.abs(x - expect).max() < 1e-14


def test_qcommutator_bilinear_and_self():
    a, b = GEN("E1"), GEN("F2")
    lhs = ualg.qcommutator(a + b, a, P5)
    rhs = ualg.qcommutator(a, a, P5) + ualg.qcommutator(b, a, P5)
    assert lhs == rhs
    self_comm = ualg.qcommutator(a, a, P5)
    expect = (1.0 - 1.0 / Q) * (a * a)
    assert self_comm == expect


def test_serre_qcommutator_vanishes():
    for i, j in (("E1", "E2"), ("E2", "E1")):
        elem = ualg.qcommutator(GEN(i), ualg.qcommutator(GEN(j), GEN(i), P5), P5)
        assert np.abs(evaluate(elem, (1, 1), P5)).max() < 1e-13


@pytest.mark.parametrize("label,expect", [((0, 0), 2.0), ((1, 1), 12.5)])
def test_casimir_scalar_values(label, expect):
    cas = evaluate(ualg.casimir_element(P5), label, P5)
    assert np.abs(cas - expect * np.eye(cas.shape[0])).max() < 1e-12
    assert ualg.casimir_eigenvalue(*label, P5) == pytest.approx(expect, rel=1e-13)


def test_casimir_scalar_reads_its_thirds_in_twelfths():
    # bit for bit the closed form over Fraction thirds
    from fractions import Fraction

    for q in (0.3, 0.44, 0.5, 0.79, 0.99999):
        for n1, n2 in irreps.labels_up_to(12):
            a, b, c = ((q ** float(z) - q ** float(-z)) / (q - 1.0 / q)
                       for z in (Fraction(n1 - n2, 3), Fraction(2 * n1 + n2, 3) + 1, Fraction(n1 + 2 * n2, 3) + 1))
            got = ualg.casimir_eigenvalue(n1, n2, qparam_float(q))
            assert got.hex() == (a * a + b * b + c * c).hex(), (q, n1, n2)


def test_casimir_classical_limit():
    # (0,1) at q -> 1 approaches (1 + 16 + 25)/9
    p = qparam_float(0.999)
    assert ualg.casimir_eigenvalue(0, 1, p) == pytest.approx(14.0 / 3.0, abs=1e-2)


@pytest.mark.parametrize("label,q", [((1, 0), 0.5), ((0, 0), 0.5), ((2, 2), 0.9), ((2, 1), 0.5)])
def test_verify_casimir_scalar(label, q):
    p = qparam_float(q)
    rep = ualg.verify_casimir_scalar(label, p, 1e-10)
    assert rep["passed"], rep
    if label == (2, 2):
        assert rep["scalar"] == pytest.approx(2 * qint(3, p) ** 2, rel=1e-13)


def test_star_word_swap():
    # antimultiplicative: the word reverses as its letters swap
    assert ualg.star(WORD(("E1", "F2"))) == WORD(("E2", "F1"))


def test_star_squares_to_identity():
    elem = ualg.casimir_element(P5) + 3.0 * WORD(("E1", "K2", "F1"))
    assert ualg.star(ualg.star(elem)) == elem


def test_theta_fixes_casimir_by_evaluation():
    # theta, the involution onto the opposite algebra, is star over real
    # coefficients.  Word-level normal forms differ; equality certified on
    # two irreps.
    cas = ualg.casimir_element(P5)
    tcas = ualg.star(cas)
    assert tcas != cas
    for label in ((1, 1), (2, 1)):
        d = evaluate(tcas - cas, label, P5)
        scale = max(abs(ualg.casimir_eigenvalue(*label, P5)), 1.0)
        assert np.abs(d).max() / scale < 1e-12, label


def test_star_of_x():
    assert ualg.star(ualg.x_element(P5)) == ualg.x_star_element(P5)
    assert ualg.star(ualg.y_element(P5)) == ualg.y_star_element(P5)


def test_star_fixes_casimir_by_evaluation():
    cas = ualg.casimir_element(P5)
    d = evaluate(ualg.star(cas) - cas, (1, 1), P5)
    assert np.abs(d).max() < 1e-12


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_coproduct_identities(q):
    rep = ualg.verify_coproduct_identity(qparam_float(q), 1e-12)
    assert rep["passed"], rep


def test_counit():
    assert ualg.counit(ualg.x_element(P5)) == 0.0
    assert ualg.counit(WORD(("K1", "Hinv"))) == 1.0


def test_evaluate_is_homomorphism_on_random_words():
    rng = random.Random(9)
    gens = list(irreps.GENERATORS)
    for _ in range(10):
        w1 = tuple(rng.choice(gens) for _ in range(rng.randrange(1, 4)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randrange(1, 4)))
        for label in ((1, 1), (0, 2)):
            a = evaluate(WORD(w1), label, P5)
            b = evaluate(WORD(w2), label, P5)
            ab = evaluate(WORD(w1 + w2), label, P5)
            assert np.abs(ab - a @ b).max() < 1e-11 * max(np.abs(ab).max(), 1.0)


@pytest.mark.parametrize("label", [(1, 1), (1, 4)])
def test_k_scaling_identities(label):
    # K1K2^2 X* = q^(3/2) X* K1K2^2 and companions, as matrices
    xs = ualg.x_star_element(P5)
    e2 = GEN("E2")
    k1 = GEN("K1")
    k1k22 = WORD(("K1", "K2", "K2"))
    for name, lhs, rhs in (
        ("K1K2^2 X*", k1k22 * xs, Q**1.5 * (xs * k1k22)),
        ("K1 X*", k1 * xs, Q**0.5 * (xs * k1)),
        ("K1K2^2 E2", k1k22 * e2, Q**1.5 * (e2 * k1k22)),
        ("K1 E2", k1 * e2, Q**-0.5 * (e2 * k1)),
    ):
        d = evaluate(lhs - rhs, label, P5)
        assert np.abs(d).max() < 1e-12, name


@pytest.mark.parametrize("label", [(1, 1), (1, 4)])
def test_serre_in_xy_form(label):
    # E1 Y + X* E1 = 0 and E2 X* + Y E2 = 0
    x_star, y = ualg.x_star_element(P5), ualg.y_element(P5)
    e1, e2 = GEN("E1"), GEN("E2")
    assert np.abs(evaluate(e1 * y + x_star * e1, label, P5)).max() < 1e-12
    assert np.abs(evaluate(e2 * x_star + y * e2, label, P5)).max() < 1e-12


def test_identity_battery_casimir_central():
    # commutation with every generator across the certification battery
    for q in BATTERY_QS:
        p = qparam_float(q)
        cas = ualg.casimir_element(p)
        for label in BATTERY_LABELS:
            cmat = evaluate(cas, label, p)
            for g in ("E1", "F2"):
                gm = evaluate(GEN(g), label, p)
                scale = max(np.abs(cmat @ gm).max(), 1.0)
                assert np.abs(cmat @ gm - gm @ cmat).max() / scale < 1e-11


def test_exact_diagonal_evaluation():
    label = (2, 1)
    flt = evaluate(ualg.element_from_string("K1 K2 K2 + 1/2 H H'", P5), label, P5)
    assert np.array_equal(flt, np.diag(np.diag(flt)))
    for i, t in enumerate(irreps.gt_triples(label)):
        # a diagonal word scales by q^(w/12), w the sum of its letters' weights
        w = sum(irreps.weight_twelfths(g, label, t) for g in ("K1", "K2", "K2"))
        assert irreps.weight_twelfths("H", label, t) + irreps.weight_twelfths("Hinv", label, t) == 0
        # exact weight bookkeeping: K1 K2^2 scales |j1,j2,m> by q^((3/2)(j1-j2)+(n2-n1))
        j1, j2, _ = t
        assert w == 18 * (j1 - j2) - 12
        assert flt[i, i] == pytest.approx(0.5 ** (w / 12) + 0.5, rel=1e-14)


def test_exact_diagonal_rejects_ladder_words():
    # a word with a ladder letter has no exact weight, and moves every
    # basis vector off itself
    label = (1, 1)
    t = irreps.gt_triples(label)[0]
    with pytest.raises(irreps.LabelError):
        sum(irreps.weight_twelfths(g, label, t) for g in ("K1", "E1"))
    assert not np.diag(evaluate(WORD(("K1", "E1")), label, P5)).any()


def test_element_parser():
    elem = ualg.element_from_string("E1 F1 - q^-1 F1 E1", P5)
    expect = ualg.qcommutator(GEN("E1"), GEN("F1"), P5)
    assert np.abs(evaluate(elem - expect, (1, 1), P5)).max() < 1e-14
    elem = ualg.element_from_string("3/2 K1 K1' + 2 H H'", P5)
    assert np.abs(evaluate(elem, (1, 1), P5) - 3.5 * np.eye(8)).max() < 1e-14
    with pytest.raises(ValueError):
        ualg.element_from_string("E1 + bogus", P5)
    assert ualg.element_from_string("- E1", P5) == -GEN("E1")
    assert ualg.element_from_string("E1 * F1", P5) == WORD(("E1", "F1"))


@pytest.mark.parametrize("expr", ["", "  ", "E1 +", "+ E1", "E1 - + F1", "* E1", "1/0 E1"])
def test_element_parser_rejects_malformed_input(expr):
    import contextlib
    import io
    import json

    from cp2q import cli

    with pytest.raises(ValueError):
        ualg.element_from_string(expr, P5)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["evaluate", expr])
    assert code == cli.EXIT_CONFIG_ERROR
    report = json.loads(buf.getvalue())
    assert report["passed"] is False and report["error"]


@pytest.mark.parametrize("argv", [
    ["q^-9999 E1", "--n1", "0", "--n2", "1"],  # the power overflows
    ["1" * 401 + " E1", "--n1", "0", "--n2", "1"],  # the rational overflows
    # the product of two finite factors overflows
    ["q^-1000 q^-1000 E1", "--n1", "0", "--n2", "1"],
    # finite coefficients whose matrix leaves the float range
    ["q^-580 E1 F1", "--q", "0.3", "--n1", "9", "--n2", "9"],
    # unit coefficients: the word products overflow, and their difference is nan
    ["E1 F1 E1 F1 - F1 E1 F1 E1", "--q", "1e-12", "--n1", "9", "--n2", "9"],
], ids=("power", "rational", "product", "matrix", "word"))
def test_evaluate_refuses_values_outside_the_float_range(argv):
    import contextlib
    import io
    import json
    import warnings

    from cp2q import cli

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["evaluate", *argv])
    assert code == cli.EXIT_CONFIG_ERROR
    report = json.loads(buf.getvalue(), parse_constant=reject)
    assert report["passed"] is False and "float range" in report["error"]
    if argv[-1] == "9":  # every term coefficient is finite: the matrix is refused
        assert report["error"] == "the matrix on (9,9) has entries outside the float range"


def random_element(rng, terms):
    gens = list(irreps.GENERATORS)
    words = [tuple(rng.choice(gens) for _ in range(rng.randrange(0, 5))) for _ in range(terms)]
    return ualg.AlgebraElement({w: rng.uniform(-2.0, 2.0) for w in words})


@pytest.mark.parametrize("q", BATTERY_QS)
def test_evaluate_matches_the_dense_oracle(q):
    # each entry within 1e-15 of the largest c * word entry summed into the
    # matrix; bit for bit where no entry sums several products
    p = qparam_float(q)
    rng = random.Random(13)
    for _ in range(40):
        elem = random_element(rng, rng.randrange(1, 6))
        label = rng.choice(BATTERY_LABELS)
        got, ref = evaluate(elem, label, p), dense.evaluate(elem, label, p)
        scale = max(abs(c) * np.abs(dense.evaluate(ualg.AlgebraElement({w: 1.0}), label, p)).max()
                    for w, c in elem.terms.items())
        assert np.abs(got - ref).max() <= 1e-15 * scale, (elem, label)
    # the golden file's element and the benchmark's keep their bytes
    for expr in ("E1 F1 - q^-1 F1 E1",
                 "q^1 E1 F1 - q^1 F1 E1 - q^-1 E1 F1 + q^-1 F1 E1 - K1 K1 + K1' K1' + K2 K2'"):
        elem = ualg.element_from_string(expr, p)
        assert np.array_equal(evaluate(elem, (3, 3), p), dense.evaluate(elem, (3, 3), p)), expr


@pytest.mark.parametrize("q", BATTERY_QS)
def test_casimir_check_matches_the_dense_oracle(q):
    p = qparam_float(q)
    for label in irreps.labels_up_to(5):
        got, ref = ualg.verify_casimir_scalar(label, p), dense.verify_casimir_scalar(label, p)
        assert got.keys() == ref.keys() and got["passed"] == ref["passed"] and got["scalar"] == ref["scalar"]
        for key in ("off_scalar_residual", "commutator_residual"):
            assert abs(got[key] - ref[key]) <= 1e-15, (label, key)
