"""Exact and floating arithmetic for q-deformed quantities.

Two modes share one interface.  Float mode fixes a numeric deformation
parameter q in (0,1) and returns ordinary floats; it is the workhorse for
everything involving square roots.  Exact mode works in the Laurent ring
Q[t, t^-1] with t^12 = q, the smallest power lattice on which every
diagonal weight occurring in the representation theory (halves, quarters,
sixths and twelfths of q-exponents) is an integer power of t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


class QArithError(ValueError):
    """Argument outside the admissible q-power lattice or range."""


class UnsupportedModeError(TypeError):
    """Operation not representable in the requested arithmetic mode."""


#: exponent lattice denominator: t = q^(1/12)
LATTICE = 12


@dataclass(frozen=True)
class QParam:
    """Deformation parameter: numeric q in (0,1), or the formal variable t.

    In exact mode no numeric value is carried; scalars are LaurentScalar.
    """

    mode: str  # "float" | "exact"
    q: float | None = None

    def __post_init__(self):
        if self.mode == "float":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise QArithError(f"float mode needs q strictly inside (0,1), got {self.q}")
        elif self.mode == "exact":
            if self.q is not None:
                raise QArithError("exact mode carries no numeric value")
        else:
            raise QArithError(f"unknown mode {self.mode!r}")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"


def qparam_float(q: float) -> QParam:
    return QParam("float", float(q))


def qparam_exact() -> QParam:
    return QParam("exact")


def _as_twelfths(z) -> int:
    """Convert a rational exponent to units of 1/12; reject off-lattice input."""
    zf = Fraction(z)
    tw = zf * LATTICE
    if tw.denominator != 1:
        raise QArithError(f"exponent {z} is outside the 1/12 lattice")
    return int(tw)


def _coeff(c):
    """Stored form of a rational coefficient: an int when it is integral,
    otherwise a Fraction.  Both compare and hash alike, and print alike."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class LaurentScalar:
    """Laurent polynomial in t = q^(1/12) with rational coefficients.

    Exponents are stored in t-units (integers); zero coefficients are never
    stored.  A coefficient is an int whenever it is integral and a Fraction
    only otherwise (see _coeff).  Instances are immutable value objects.
    """

    coeffs: tuple = field(default_factory=tuple)  # sorted ((exp, int | Fraction), ...)

    @staticmethod
    def from_dict(d: dict) -> "LaurentScalar":
        items = tuple(sorted((e, _coeff(c)) for e, c in d.items() if c != 0))
        return LaurentScalar(items)

    @staticmethod
    def zero() -> "LaurentScalar":
        return LaurentScalar(())

    @staticmethod
    def one() -> "LaurentScalar":
        return LaurentScalar(((0, 1),))

    @staticmethod
    def rational(c) -> "LaurentScalar":
        c = _coeff(c)
        return LaurentScalar(((0, c),) if c else ())

    @staticmethod
    def q_power(z, coeff=1) -> "LaurentScalar":
        """coeff * q^z for a lattice exponent z (12z integral)."""
        c = _coeff(coeff)
        if not c:
            return LaurentScalar.zero()
        return LaurentScalar(((_as_twelfths(z), c),))

    @staticmethod
    def t_power(k: int, coeff=1) -> "LaurentScalar":
        c = _coeff(coeff)
        if not c:
            return LaurentScalar.zero()
        return LaurentScalar(((int(k), c),))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "LaurentScalar":
        other = _coerce(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            nc = d.get(e, 0) + c
            if nc:
                d[e] = nc
            else:
                d.pop(e, None)
        return LaurentScalar.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other) -> "LaurentScalar":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LaurentScalar":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentScalar":
        other = _coerce(other)
        d: dict = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                nc = d.get(e, 0) + c1 * c2
                if nc:
                    d[e] = nc
                else:
                    d.pop(e, None)
        return LaurentScalar.from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentScalar":
        if n < 0:
            if len(self.coeffs) == 1:
                e, c = self.coeffs[0]
                # int ** -n is a float; the power is taken in Q
                return LaurentScalar(((e * n, _coeff(Fraction(c) ** n)),))
            raise QArithError("negative powers only for monomials")
        out = LaurentScalar.one()
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, q: float) -> float:
        """Numeric value at q; exact/float agreement is a tested invariant."""
        t = q ** (1.0 / LATTICE)
        return sum(float(c) * t**e for e, c in self.coeffs)

    def evaluate_at_one(self) -> Fraction:
        return sum((c for _, c in self.coeffs), Fraction(0))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(f"{c}")
            elif e % LATTICE == 0:
                parts.append(f"{c}*q^{e // LATTICE}")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)


def _coerce(x) -> LaurentScalar:
    if isinstance(x, LaurentScalar):
        return x
    return LaurentScalar.rational(x)


def qint(z, p: QParam):
    """q-number [z] = (q^z - q^-z)/(q - q^-1), for 12z integral.

    Exact mode supports integer z only: for fractional lattice exponents
    [z] is not a Laurent polynomial in t (the denominator does not divide).
    """
    if isinstance(z, int):
        tw = LATTICE * z
    else:
        z = Fraction(z)
        tw = _as_twelfths(z)
    if not p.is_exact:
        q = p.q
        return (q ** float(z) - q ** float(-z)) / (q - 1.0 / q)
    if tw % LATTICE != 0:
        raise UnsupportedModeError(f"[{z}] is not a Laurent polynomial in t; use float mode")
    n = tw // LATTICE
    sign = 1 if n >= 0 else -1
    n = abs(n)
    # geometric form [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)
    d = {LATTICE * (n - 1 - 2 * i): sign for i in range(n)}
    return LaurentScalar.from_dict(d)


def qfact(n: int, p: QParam):
    """q-factorial [n]! with [0]! = 1."""
    if n < 0:
        raise QArithError(f"q-factorial needs n >= 0, got {n}")
    out = LaurentScalar.one() if p.is_exact else 1.0
    for i in range(2, n + 1):
        out = out * qint(i, p)
    return out


def qbinom(n: int, m: int, p: QParam):
    """q-binomial [n]! / ([m]! [n-m]!)."""
    if not (0 <= m <= n):
        raise QArithError(f"q-binomial needs 0 <= m <= n, got ({n},{m})")
    if not p.is_exact:
        return qfact(n, p) / (qfact(m, p) * qfact(n - m, p))
    return _qbinom_exact(n, m)


@lru_cache(maxsize=None)
def _qbinom_exact(n: int, m: int) -> LaurentScalar:
    # symmetric q-Pascal recurrence: B(n,m) = q^-m B(n-1,m) + q^(n-m) B(n-1,m-1)
    if m == 0 or m == n:
        return LaurentScalar.one()
    a = LaurentScalar.q_power(-m) * _qbinom_exact(n - 1, m)
    b = LaurentScalar.q_power(n - m) * _qbinom_exact(n - 1, m - 1)
    return a + b


def qpow(z, p: QParam):
    """q^z on the 1/12 lattice, available in both modes."""
    zf = Fraction(z)
    tw = _as_twelfths(zf)
    if p.is_exact:
        return LaurentScalar.t_power(tw)
    return p.q ** float(zf)
