"""LaurentScalar: a Laurent polynomial in t = q^(1/12) with rational
coefficients, with the ring operations the tests need.

It is the independent ring oracle of the exact path: `test_qarith.py`
checks the q-number identities with it, and `test_ncrewrite.py`'s
reference rewriter and printer carry their coefficients in it, against
the engine's flat integer dicts and its `poly_to_str`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cp2q.qarith import LATTICE, _as_twelfths, _coeff


@dataclass(frozen=True)
class LaurentScalar:
    """Laurent polynomial in t = q^(1/12) with rational coefficients.

    Exponents are stored in t-units (integers); zero coefficients are never
    stored.  A coefficient is an int whenever it is integral and a Fraction
    only otherwise (see qarith._coeff).  Instances are immutable value
    objects.
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
