"""Arithmetic for q-deformed quantities.

The q-numbers, q-factorials and q-binomials take a numeric deformation
parameter q in (0,1) and return ordinary floats.  Exponents live on the
1/12 lattice: t = q^(1/12) is the smallest power on which every diagonal
weight occurring in the representation theory (halves, quarters, sixths
and twelfths of q-exponents) is an integer power of t.  The rewriting
engine's exact coefficients are Laurent polynomials in t.

Only a non-integral rational needs `fractions`, so it is imported where
one is built; an integer exponent or coefficient never loads it.
"""

from __future__ import annotations

from typing import NamedTuple


class QArithError(ValueError):
    """Argument outside the admissible q-power lattice or range."""


class VerificationError(Exception):
    """A check failed while it ran; the command line reports it and exits 1.
    The failures named by the engine derive from it, so the command line
    needs none of their modules to catch them."""


#: exponent lattice denominator: t = q^(1/12)
LATTICE = 12


class _QFields(NamedTuple):
    q: float


class QParam(_QFields):
    """Deformation parameter: a numeric q in (0,1).  An immutable value:
    equal q, equal and hash-equal params."""

    __slots__ = ()

    def __new__(cls, q: float):
        if not (0.0 < q < 1.0):
            raise QArithError(f"q must lie strictly inside (0,1), got {q}")
        return super().__new__(cls, q)


def qparam_float(q: float) -> QParam:
    return QParam(float(q))


def _as_twelfths(z) -> int:
    """Convert a rational exponent to units of 1/12; reject off-lattice input."""
    from fractions import Fraction

    tw = Fraction(z) * LATTICE
    if tw.denominator != 1:
        raise QArithError(f"exponent {z} is outside the 1/12 lattice")
    return int(tw)


def _coeff(c):
    """Stored form of a rational coefficient: an int when it is integral,
    otherwise a Fraction.  Both compare and hash alike, and print alike."""
    if type(c) is int:
        return c
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def qint(z, p: QParam) -> float:
    """q-number [z] = (q^z - q^-z)/(q - q^-1), for 12z integral."""
    if not isinstance(z, int):
        # rejects an exponent off the 1/12 lattice; the quotient of two
        # ints rounds once, as float(Fraction(z)) does
        z = _as_twelfths(z) / LATTICE
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
