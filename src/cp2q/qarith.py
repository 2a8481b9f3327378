"""Arithmetic for q-deformed quantities.

The q-numbers, q-factorials and q-binomials take a numeric deformation
parameter q in (0,1) and return ordinary floats.  Exponents live on the
1/12 lattice: t = q^(1/12) is the smallest power on which every diagonal
weight occurring in the representation theory (halves, quarters, sixths
and twelfths of q-exponents) is an integer power of t.  LaurentScalar, a
Laurent polynomial in t with rational coefficients, prints the exact
coefficients of the rewriting engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class QArithError(ValueError):
    """Argument outside the admissible q-power lattice or range."""


class VerificationError(Exception):
    """A check failed while it ran; the command line reports it and exits 1.
    The failures named by the engine derive from it, so the command line
    needs none of their modules to catch them."""


#: exponent lattice denominator: t = q^(1/12)
LATTICE = 12


@dataclass(frozen=True)
class QParam:
    """Deformation parameter: a numeric q in (0,1)."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise QArithError(f"q must lie strictly inside (0,1), got {self.q}")


def qparam_float(q: float) -> QParam:
    return QParam(float(q))


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
    def q_power(z, coeff=1) -> "LaurentScalar":
        """coeff * q^z for a lattice exponent z (12z integral)."""
        c = _coeff(coeff)
        if not c:
            return LaurentScalar.zero()
        return LaurentScalar(((_as_twelfths(z), c),))

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
    """x itself, or the constant LaurentScalar of a rational x."""
    if isinstance(x, LaurentScalar):
        return x
    c = _coeff(x)
    return LaurentScalar(((0, c),) if c else ())


def qint(z, p: QParam) -> float:
    """q-number [z] = (q^z - q^-z)/(q - q^-1), for 12z integral."""
    if not isinstance(z, int):
        z = Fraction(z)
        _as_twelfths(z)  # rejects an exponent off the 1/12 lattice
    q = p.q
    return (q ** float(z) - q ** float(-z)) / (q - 1.0 / q)


def qfact(n: int, p: QParam) -> float:
    """q-factorial [n]! with [0]! = 1."""
    if n < 0:
        raise QArithError(f"q-factorial needs n >= 0, got {n}")
    out = 1.0
    for i in range(2, n + 1):
        out = out * qint(i, p)
    return out


def qbinom(n: int, m: int, p: QParam) -> float:
    """q-binomial [n]! / ([m]! [n-m]!)."""
    if not (0 <= m <= n):
        raise QArithError(f"q-binomial needs 0 <= m <= n, got ({n},{m})")
    return qfact(n, p) / (qfact(m, p) * qfact(n - m, p))
