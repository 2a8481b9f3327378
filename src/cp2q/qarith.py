"""Arithmetic for q-deformed quantities.

The q-numbers and the list of q-factorials take a numeric deformation
parameter q in (0,1) and return ordinary floats.  Exponents live on the
1/12 lattice: t = q^(1/12) is the smallest power on which every diagonal
weight occurring in the representation theory (halves, quarters, sixths
and twelfths of q-exponents) is an integer power of t.  The rewriting
engine's exact coefficients are Laurent polynomials in t.

The module also holds the syntax the command line's two term grammars
share (term_tokens): `evaluate`'s algebra elements and `rewrite`'s
coordinate polynomials differ only in their factors and in what they
fold the tokens into.

Only a non-integral rational needs `fractions`, so it is imported where
one is built; an integer exponent or coefficient never loads it.
"""

from __future__ import annotations

import re
from math import isfinite, isnan, nan
from typing import NamedTuple


class QArithError(ValueError):
    """Argument outside the admissible q-power lattice or range."""


class VerificationError(Exception):
    """A check failed while it ran; the command line reports it and exits 1.
    The failures named by the engine derive from it, so the command line
    needs none of their modules to catch them."""


def relative(diff: float, scale: float) -> float:
    """A residual, diff / scale, or 0.0 when diff is 0.  A nan or inf on either
    side means the q-numbers left the float range: it raises OverflowError."""
    if not (isfinite(diff) and isfinite(scale)):
        raise OverflowError(f"residual {diff} against scale {scale}")
    return diff / scale if diff else 0.0


def largest(values) -> float:
    """The largest |x| of values, 0.0 for none, and nan if any x is nan, where
    max would keep a nan only when it comes first: the worst entry a residual
    hands to relative, or a check compares with its tol."""
    vals = list(map(abs, values))
    return nan if any(map(isnan, vals)) else max(vals, default=0.0)


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
        # rejects an exponent off the 1/12 lattice
        return qint_twelfths(_as_twelfths(z), p)
    # an int exponent, the hot case, is exact as a float and skips the call
    q = p.q
    return (q ** float(z) - q ** float(-z)) / (q - 1.0 / q)


def qint_twelfths(tw: int, p: QParam) -> float:
    """qint of tw/12, by qint's expression.  The exponent is the quotient of
    two ints, rounded once as float(Fraction(tw, 12)) is."""
    z = tw / LATTICE
    q = p.q
    return (q ** z - q ** -z) / (q - 1.0 / q)


def qfactorials(n: int, p: QParam) -> list[float]:
    """The q-factorials [0]!, ..., [n]!: [0]! = [1]! = 1, and each next one
    the one before times [i].  A q-binomial is fact[n] / (fact[m] * fact[n - m])."""
    if n < 0:
        raise QArithError(f"q-factorial needs n >= 0, got {n}")
    out = [1.0, 1.0][:n + 1]
    for i in range(2, n + 1):
        out.append(out[-1] * qint(i, p))
    return out


def term_tokens(text: str, factor: str, noun: str):
    """Read a sum of terms, each a product of juxtaposed tokens (a "*"
    between two is optional): factors, which match the grammar's pattern
    `factor`, powers q^k and rationals, e.g. "E1 F1 - q^-1 F1 E1".  Yield,
    one token at a time, ("factor", its text), ("q", k), ("rat", an int or
    a Fraction), and ("end", the term's sign, 1 or -1) after each term.

    Raises ValueError, naming the grammar's noun, on text no token matches,
    on empty input, on an operator without an operand on either side (a
    leading "-" is a sign) and on a zero denominator, each where it is read.
    A "-" glued to a number is its sign only where an operand is due, so
    "z1 -2 z2" reads as "z1 - 2 z2" and "z1 * -2 z2" as a product."""
    # compiled once per pattern: re keeps the compiled patterns it has seen;
    # the first reads a signed rational, the second one after an operand
    signed, unsigned = (re.compile(rf"\s*(?:(?P<factor>{factor})|q\^(?P<q>-?\d+)|"
                                   rf"(?P<rat>{minus}\d+(?:/\d+)?)|(?P<op>[+\-*]))") for minus in ("-?", ""))
    pos, sign, operand_due = 0, 1, True  # no operand since the start or the last operator
    while pos < len(text):
        m = (signed if operand_due else unsigned).match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse {noun} at {text[pos:]!r}")
        start, pos = m.start(), m.end()
        op = m["op"]
        leading_sign = op == "-" and not text[:start].strip()
        if op and operand_due and not leading_sign:
            raise ValueError(f"operator {op!r} without a left operand at {text[start:].strip()!r}")
        operand_due = bool(op)
        if m["factor"]:
            yield "factor", m["factor"]
        elif m["q"]:
            yield "q", int(m["q"])
        elif m["rat"]:
            yield "rat", _rational(m["rat"])
        elif op != "*":
            if not leading_sign:
                yield "end", sign
            sign = -1 if op == "-" else 1
    if operand_due:
        raise ValueError(f"dangling operator in {text!r}" if text.strip() else f"empty {noun}")
    yield "end", sign


def _rational(text: str):
    """A rational token's value: an int, or a Fraction when it has a "/"."""
    if "/" not in text:
        return int(text)
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
