import random
from fractions import Fraction
from functools import lru_cache, reduce
import math
from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cp2q.qarith import (
    LATTICE,
    QArithError,
    QParam,
    largest,
    qfactorials,
    qint,
    qint_twelfths,
    qparam_float,
    relative,
)
from laurent import LaurentScalar, _coerce

P5 = qparam_float(0.5)
QS = (0.3, 0.5, 0.9)


# LaurentScalar keeps only the ring operations the engine uses; these
# test-local helpers stand in for the rest

def t_power(k: int, coeff=1) -> LaurentScalar:
    return LaurentScalar.from_dict({k: coeff})


def sub(a: LaurentScalar, b) -> LaurentScalar:
    return a + b * -1


def evaluate(x: LaurentScalar, q: float) -> float:
    """Numeric value at q."""
    t = q ** (1.0 / LATTICE)
    return sum(float(c) * t**e for e, c in x.coeffs)


# -- exact q-numbers, as Laurent polynomials in t = q^(1/12) --------------------

def exact_qint(n: int) -> LaurentScalar:
    """[n] as the geometric sum q^(n-1) + q^(n-3) + ... + q^(1-n), odd in n."""
    sign = 1 if n >= 0 else -1
    return LaurentScalar.from_dict({LATTICE * (abs(n) - 1 - 2 * i): sign for i in range(abs(n))})


def exact_qfact(n: int) -> LaurentScalar:
    return reduce(mul, (exact_qint(i) for i in range(2, n + 1)), LaurentScalar.one())


@lru_cache(maxsize=None)
def exact_qbinom(n: int, m: int) -> LaurentScalar:
    """The symmetric q-Pascal recurrence B(n,m) = q^-m B(n-1,m) + q^(n-m) B(n-1,m-1);
    no division, so the value stays a Laurent polynomial."""
    if m == 0 or m == n:
        return LaurentScalar.one()
    return (LaurentScalar.q_power(-m) * exact_qbinom(n - 1, m)
            + LaurentScalar.q_power(n - m) * exact_qbinom(n - 1, m - 1))


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


def test_qint_on_the_lattice_rounds_as_the_fraction_formula():
    # a lattice exponent is converted once, bit for bit as float(Fraction(z))
    for q in QS + (0.72, 0.999):
        p = qparam_float(q)
        for tw in range(-300, 301):
            z = Fraction(tw, 12)
            want = (q ** float(z) - q ** float(-z)) / (q - 1.0 / q)
            assert qint(z, p).hex() == want.hex(), (q, z)
    assert qint(0.5, P5) == qint(Fraction(1, 2), P5)


def test_qint_twelfths_rounds_as_the_fraction_formula():
    # integer twelfths reach the same float exponent as float(Fraction) does,
    # so an exponent needs no Fraction to keep its bits
    for q in QS + (0.44, 0.999, 1e-6):
        p = qparam_float(q)
        for tw in range(-200, 201):
            z = Fraction(tw, 12)
            want = (q ** float(z) - q ** float(-z)) / (q - 1.0 / q)
            assert qint_twelfths(tw, p).hex() == want.hex(), (q, tw)


def test_qint_rejects_off_lattice():
    with pytest.raises(QArithError):
        qint(Fraction(1, 7), P5)


def test_qint_exact_matches_float_on_integers():
    for q in QS:
        p = qparam_float(q)
        for n in range(-8, 9):
            exact = evaluate(exact_qint(n), q)
            flt = qint(n, p)
            assert exact == pytest.approx(flt, rel=1e-12, abs=1e-12)


def qbinom(n: int, m: int, p: QParam) -> float:
    """The q-binomial as the engine forms it, from one list of q-factorials."""
    fact = qfactorials(n, p)
    return fact[n] / (fact[m] * fact[n - m])


def test_qfact_values():
    assert qfactorials(0, P5) == [1.0]
    assert qfactorials(1, P5) == [1.0, 1.0]
    assert qfactorials(3, P5)[3] == pytest.approx(13.125, abs=1e-12)  # [3][2][1] = 5.25*2.5*1
    for q in QS:
        fact = qfactorials(9, qparam_float(q))
        assert len(fact) == 10
        for n, f in enumerate(fact):
            assert evaluate(exact_qfact(n), q) == pytest.approx(f, rel=1e-12)
    with pytest.raises(QArithError):
        qfactorials(-1, P5)


def test_qbinom_values():
    for n in range(5):
        assert qbinom(n, 0, P5) == pytest.approx(1.0)
    assert qbinom(2, 1, P5) == pytest.approx(2.5, abs=1e-13)
    # classical limit
    p = qparam_float(1 - 1e-7)
    assert qbinom(4, 2, p) == pytest.approx(6.0, abs=1e-4)
    for n in range(7):
        for m in range(n + 1):
            at_one = sum(c for _, c in exact_qbinom(n, m).coeffs)
            assert at_one == comb(n, m)
            for q in QS:
                assert evaluate(exact_qbinom(n, m), q) == pytest.approx(qbinom(n, m, qparam_float(q)),
                                                                       rel=1e-12)


def test_qbinom_symmetry():
    for n in range(7):
        for m in range(n + 1):
            assert qbinom(n, m, P5) == pytest.approx(qbinom(n, n - m, P5), rel=1e-12)
            assert exact_qbinom(n, m) == exact_qbinom(n, n - m)


def test_exact_qbinom_times_factorials_is_factorial():
    for n in range(8):
        for m in range(n + 1):
            assert exact_qbinom(n, m) * exact_qfact(m) * exact_qfact(n - m) == exact_qfact(n)
    for q in QS:
        # each entry is the sequential product, and a prefix of any longer list
        fact = qfactorials(7, qparam_float(q))
        for n in range(8):
            assert qfactorials(n, qparam_float(q)) == fact[:n + 1]
            assert evaluate(exact_qfact(n), q) == pytest.approx(fact[n], rel=1e-12)


def test_spectrum_lemma_identities_exact():
    # [n+1]^2 - 1 = [n][n+2], used to rewrite the Casimir gap on V(n,n)
    one = LaurentScalar.one()
    for n in range(9):
        lhs = sub(exact_qint(n + 1) * exact_qint(n + 1), one)
        rhs = exact_qint(n) * exact_qint(n + 2)
        assert lhs == rhs
    # [a]^2 + [a+1]^2 - 1 = [2][a][a+1], the off-diagonal family rewrite
    for a in range(9):
        lhs = sub(exact_qint(a) * exact_qint(a) + exact_qint(a + 1) * exact_qint(a + 1), one)
        rhs = exact_qint(2) * exact_qint(a) * exact_qint(a + 1)
        assert lhs == rhs


def _random_scalar(rng) -> LaurentScalar:
    out = LaurentScalar.zero()
    for _ in range(rng.randrange(1, 5)):
        out = out + t_power(rng.randrange(-20, 21),
                            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
    return out


def test_evaluation_homomorphism():
    rng = random.Random(42)
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        for q in QS:
            prod = evaluate(a * b, q)
            sum_ = evaluate(a + b, q)
            scale = max(abs(prod), abs(sum_), 1.0)
            assert abs(prod - evaluate(a, q) * evaluate(b, q)) < 1e-12 * scale
            assert abs(sum_ - (evaluate(a, q) + evaluate(b, q))) < 1e-12 * scale


def test_laurent_no_zero_coeffs_stored():
    a = sub(t_power(3), t_power(3))
    assert not a.coeffs
    assert a == LaurentScalar.zero()


@pytest.mark.parametrize("diff, scale, expect", [(0.0, 0.0, 0.0), (0.0, 2.0, 0.0), (3e-17, 1.0, 3e-17),
                                                 (2.5e-13, 7.3, 2.5e-13 / 7.3), (1.0, 3.0, 1.0 / 3.0)])
def test_relative_is_the_plain_quotient_or_zero(diff, scale, expect):
    # no difference reads 0.0, even against a zero scale
    assert relative(diff, scale).hex() == expect.hex()


@pytest.mark.parametrize("diff, scale", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                                         (0.0, math.nan), (0.0, math.inf), (math.inf, math.inf)])
def test_relative_refuses_a_nan_or_inf(diff, scale):
    with pytest.raises(OverflowError):
        relative(diff, scale)


def test_largest_of_nothing_is_zero():
    assert largest([]).hex() == (0.0).hex()
    assert largest(iter(())).hex() == (0.0).hex()


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
                                    [math.inf, math.nan], [complex(math.nan, 0.0), 1.0]],
                         ids=["first", "middle", "last", "after-inf", "complex"])
def test_largest_keeps_a_nan_wherever_it_comes(values):
    # Python's max keeps a nan only when it comes first
    assert math.isnan(largest(values))
    assert math.isnan(largest(iter(values)))


@pytest.mark.parametrize("values, expect", [([-3.0, 2.0], 3.0), ([3 + 4j, -1.0], 5.0),
                                            ([-0.0], 0.0), ([-2, 1.5], 2), ([1.0, -math.inf], math.inf)])
def test_largest_reads_the_absolute_value(values, expect):
    assert largest(values) == expect and math.copysign(1.0, largest(values)) == 1.0


@given(st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1))
def test_largest_of_non_negative_floats_is_max(values):
    assert largest(values).hex() == max(values).hex()


def test_qparam_validation():
    with pytest.raises(QArithError):
        qparam_float(1.5)
    with pytest.raises(QArithError):
        qparam_float(0.0)
    with pytest.raises(QArithError):
        QParam(1.0)
    # a QParam keys the operator caches: equal q, equal and hash-equal params
    assert QParam(0.5) == qparam_float(0.5) == P5
    assert hash(QParam(0.5)) == hash(P5)
    assert QParam(0.5).q == 0.5 and QParam(q=0.5) == P5
    assert QParam(0.3) != P5
    assert repr(P5) == "QParam(q=0.5)"
    with pytest.raises(AttributeError):
        P5.q = 0.3


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
    assert _agrees(sub(a, b), _ref_add(ra, {e: -c for e, c in rb.items()}))
    assert _agrees(a * -1, {e: -c for e, c in ra.items()})
    assert _agrees(a * Fraction(1, 2), {e: c / 2 for e, c in ra.items()})
    assert _agrees(a * b, _ref_mul(ra, rb))
    power, ref_power = LaurentScalar.one(), {0: Fraction(1)}
    for _ in range(n):
        power, ref_power = power * a, _ref_mul(ref_power, ra)
    assert _agrees(power, ref_power)


def test_laurent_constructors_store_int_coefficients():
    for x, want in ((LaurentScalar.one(), {0: 1}),
                    (_coerce(Fraction(4, 2)), {0: 2}),
                    (LaurentScalar.q_power(-1, Fraction(-6, 3)), {-12: -2}),
                    (t_power(5, Fraction(1, 2)), {5: Fraction(1, 2)}),
                    (exact_qint(3), {-24: 1, 0: 1, 24: 1}),
                    (exact_qint(-2), {-12: -1, 12: -1}),
                    (exact_qbinom(4, 2), {-48: 1, -24: 1, 0: 2, 24: 1, 48: 1})):
        assert _agrees(x, _ref(want))


def test_laurent_int_and_fraction_storage_are_one_value():
    as_fraction = LaurentScalar(((0, Fraction(1)),))
    assert as_fraction == LaurentScalar.one()
    assert hash(as_fraction) == hash(LaurentScalar.one())
    assert repr(as_fraction) == repr(LaurentScalar.one()) == "1"


def test_laurent_repr():
    assert repr(_coerce(Fraction(1, 2))) == "1/2"
    assert repr(LaurentScalar.q_power(-2, -1)) == "-1*q^-2"
    assert repr(exact_qint(3)) == "1*q^-2 + 1 + 1*q^2"
    assert repr(t_power(3, Fraction(-2, 3))) == "-2/3*t^3"
