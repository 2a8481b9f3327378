import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cp2q.qarith import (
    LaurentScalar,
    QArithError,
    UnsupportedModeError,
    qbinom,
    qfact,
    qint,
    qparam_exact,
    qparam_float,
    qpow,
)

P5 = qparam_float(0.5)
PE = qparam_exact()
QS = (0.3, 0.5, 0.9)


def test_qint_trivial_cases():
    assert qint(1, P5) == pytest.approx(1.0)
    assert qint(0, P5) == 0.0


def test_qint_direct_value():
    # (q^2 - q^-2)/(q - q^-1) = q + q^-1
    assert qint(2, P5) == pytest.approx(2.5, abs=1e-14)


def test_qint_odd_on_lattice():
    for q in QS:
        p = qparam_float(q)
        for tw in range(-24, 25):
            z = Fraction(tw, 12)
            assert qint(-z, p) == pytest.approx(-qint(z, p), abs=1e-12)


def test_qint_rejects_off_lattice():
    with pytest.raises(QArithError):
        qint(Fraction(1, 7), P5)


def test_qint_exact_matches_float_on_integers():
    for q in QS:
        p = qparam_float(q)
        for n in range(-8, 9):
            exact = qint(n, PE).evaluate(q)
            flt = qint(n, p)
            assert exact == pytest.approx(flt, rel=1e-12, abs=1e-12)


def test_qint_exact_rejects_fractional():
    with pytest.raises(UnsupportedModeError):
        qint(Fraction(1, 2), PE)


def test_qfact_values():
    assert qfact(0, P5) == 1.0
    assert qfact(1, P5) == 1.0
    assert qfact(3, P5) == pytest.approx(13.125, abs=1e-12)  # [3][2][1] = 5.25*2.5*1
    with pytest.raises(QArithError):
        qfact(-1, P5)


def test_qbinom_values():
    for n in range(5):
        assert qbinom(n, 0, P5) == pytest.approx(1.0)
    assert qbinom(2, 1, P5) == pytest.approx(2.5, abs=1e-13)
    # classical limit
    p = qparam_float(1 - 1e-7)
    assert qbinom(4, 2, p) == pytest.approx(6.0, abs=1e-4)
    assert qbinom(4, 2, PE).evaluate_at_one() == Fraction(6)
    with pytest.raises(QArithError):
        qbinom(2, 3, P5)


def test_qbinom_symmetry():
    for n in range(7):
        for m in range(n + 1):
            assert qbinom(n, m, P5) == pytest.approx(qbinom(n, n - m, P5), rel=1e-12)
            assert qbinom(n, m, PE) == qbinom(n, n - m, PE)


def test_qbinom_exact_times_factorials_is_factorial():
    for n in range(8):
        for m in range(n + 1):
            assert qbinom(n, m, PE) * qfact(m, PE) * qfact(n - m, PE) == qfact(n, PE)


def test_spectrum_lemma_identities_exact():
    # [n+1]^2 - 1 = [n][n+2], used to rewrite the Casimir gap on V(n,n)
    one = LaurentScalar.one()
    for n in range(9):
        lhs = qint(n + 1, PE) * qint(n + 1, PE) - one
        rhs = qint(n, PE) * qint(n + 2, PE)
        assert lhs == rhs
    # [a]^2 + [a+1]^2 - 1 = [2][a][a+1], the off-diagonal family rewrite
    for a in range(9):
        lhs = qint(a, PE) * qint(a, PE) + qint(a + 1, PE) * qint(a + 1, PE) - one
        rhs = qint(2, PE) * qint(a, PE) * qint(a + 1, PE)
        assert lhs == rhs


def _random_scalar(rng) -> LaurentScalar:
    out = LaurentScalar.zero()
    for _ in range(rng.randrange(1, 5)):
        out = out + LaurentScalar.t_power(rng.randrange(-20, 21),
                                          Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
    return out


def test_evaluation_homomorphism():
    rng = random.Random(42)
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        for q in QS:
            prod = (a * b).evaluate(q)
            sum_ = (a + b).evaluate(q)
            scale = max(abs(prod), abs(sum_), 1.0)
            assert abs(prod - a.evaluate(q) * b.evaluate(q)) < 1e-12 * scale
            assert abs(sum_ - (a.evaluate(q) + b.evaluate(q))) < 1e-12 * scale


def test_laurent_no_zero_coeffs_stored():
    a = LaurentScalar.t_power(3) - LaurentScalar.t_power(3)
    assert not a.coeffs
    assert a == LaurentScalar.zero()


def test_qpow_both_modes():
    assert qpow(Fraction(1, 2), P5) == pytest.approx(0.5**0.5)
    assert qpow(Fraction(1, 12), PE).evaluate(0.5) == pytest.approx(0.5 ** (1 / 12))


def test_qparam_validation():
    with pytest.raises(QArithError):
        qparam_float(1.5)
    with pytest.raises(QArithError):
        qparam_float(0.0)


# -- integer storage against a dict-of-Fraction reference ---------------------

_COEFF = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
_TERMS = st.dictionaries(st.integers(-30, 30), _COEFF, max_size=5)


def _ref(d: dict) -> dict:
    return {e: Fraction(c) for e, c in d.items() if c != 0}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _agrees(x: LaurentScalar, ref: dict) -> bool:
    """Same value as the reference, stored as int unless not integral."""
    for _, c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    return x.coeffs == tuple(sorted(ref.items()))


@settings(deadline=None, derandomize=True)
@given(_TERMS, _TERMS, st.integers(0, 3))
@example({0: 1, 3: 2}, {0: -3}, 2)  # scaling by a constant term
@example({0: Fraction(1, 2)}, {4: 2, 5: 1}, 1)  # single-term left factor
def test_laurent_ring_ops_match_fraction_reference(da, db, n):
    a, b = LaurentScalar.from_dict(da), LaurentScalar.from_dict(db)
    ra, rb = _ref(da), _ref(db)
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, _ref_add(ra, rb))
    assert _agrees(a - b, _ref_add(ra, {e: -c for e, c in rb.items()}))
    assert _agrees(-a, {e: -c for e, c in ra.items()})
    assert _agrees(a * b, _ref_mul(ra, rb))
    power = {0: Fraction(1)}
    for _ in range(n):
        power = _ref_mul(power, ra)
    assert _agrees(a**n, power)


@settings(deadline=None, derandomize=True)
@given(st.integers(-30, 30), _COEFF.filter(bool), st.integers(-4, -1))
@example(5, 2, -1)
@example(-7, -3, -2)
@example(0, 1, -3)
def test_laurent_negative_power_of_monomial(e, c, n):
    m = LaurentScalar.t_power(e, c)
    assert _agrees(m**n, {e * n: Fraction(c) ** n})
    assert m**n * m**-n == LaurentScalar.one()


def test_laurent_constructors_store_int_coefficients():
    for x, want in ((LaurentScalar.one(), {0: 1}),
                    (LaurentScalar.rational(Fraction(4, 2)), {0: 2}),
                    (LaurentScalar.q_power(-1, Fraction(-6, 3)), {-12: -2}),
                    (LaurentScalar.t_power(5, Fraction(1, 2)), {5: Fraction(1, 2)}),
                    (qint(3, PE), {-24: 1, 0: 1, 24: 1}),
                    (qint(-2, PE), {-12: -1, 12: -1}),
                    (qbinom(4, 2, PE), {-48: 1, -24: 1, 0: 2, 24: 1, 48: 1})):
        assert _agrees(x, _ref(want))


def test_laurent_int_and_fraction_storage_are_one_value():
    as_fraction = LaurentScalar(((0, Fraction(1)),))
    assert as_fraction == LaurentScalar.one()
    assert hash(as_fraction) == hash(LaurentScalar.one())
    assert repr(as_fraction) == repr(LaurentScalar.one()) == "1"


def test_laurent_repr():
    assert repr(LaurentScalar.rational(Fraction(1, 2))) == "1/2"
    assert repr(LaurentScalar.q_power(-2, -1)) == "-1*q^-2"
    assert repr(qint(3, PE)) == "1*q^-2 + 1 + 1*q^2"
    assert repr(LaurentScalar.t_power(3, Fraction(-2, 3))) == "-2/3*t^3"
