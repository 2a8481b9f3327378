"""Error table of the float q-numbers against mpmath at 50 digits.

For each q of the grid, the largest relative error of
- `qint` at the half-integers z = 1/2 .. 35,
- the closed-form Casimir scalar `ualg.casimir_eigenvalue` for n1 + n2 <= 8,
- the closed-form Dirac eigenvalues `dirac.closed_form_eigenvalue` of both
  families for n <= 32, the range the spectral commands would need past
  their present nmax cap of 8.
The reference evaluates the same formulas at the same binary q.  Run with
`-s` to print the table.
"""

from fractions import Fraction

import mpmath
import pytest

from cp2q import dirac, ualg
from cp2q.qarith import qint, qparam_float

QS = (0.3, 0.5, 0.72, 0.95, 0.999)
NMAX = 8  # Casimir labels
EIGEN_NMAX = 32
QINT_ZMAX = 35


def ceiling(q: float) -> float:
    """Cancellation in q^z - q^-z over q - 1/q grows as q nears 1."""
    return 1e-14 if q <= 0.95 else 1e-12


def ref_qint(z, q):
    return (q ** z - q ** -z) / (q - 1 / q)


def ref_casimir(n1: int, n2: int, q):
    third = mpmath.mpf(1) / 3
    return (ref_qint((n1 - n2) * third, q) ** 2 + ref_qint((2 * n1 + n2) * third + 1, q) ** 2
            + ref_qint((n1 + 2 * n2) * third + 1, q) ** 2)


def ref_eigenvalue(family: str, n: int, q):
    if family == "alpha":
        return mpmath.sqrt(2 * ref_qint(n, q) * ref_qint(n + 2, q) / ref_qint(2, q))
    return mpmath.sqrt(ref_qint(n + 2, q) * ref_qint(n + 3, q))


def cases(q: float):
    """(quantity, float value, reference) over the grid at one q."""
    p = qparam_float(q)
    for k in range(1, 2 * QINT_ZMAX + 1):
        yield "qint", qint(Fraction(k, 2), p), ref_qint(mpmath.mpf(k) / 2, mpmath.mpf(q))
    for n1 in range(NMAX + 1):
        for n2 in range(NMAX + 1 - n1):
            yield "casimir", ualg.casimir_eigenvalue(n1, n2, p), ref_casimir(n1, n2, mpmath.mpf(q))
    for family, first in (("alpha", 1), ("beta", 0)):  # alpha at n = 0 is the zero row
        for n in range(first, EIGEN_NMAX + 1):
            yield "eigenvalue", dirac.closed_form_eigenvalue(family, n, p), \
                ref_eigenvalue(family, n, mpmath.mpf(q))


def error_table() -> dict:
    """{(quantity, q): (worst relative error, cases)}."""
    table = {}
    with mpmath.workdps(50):
        for q in QS:
            for name, value, ref in cases(q):
                rel = float(abs((mpmath.mpf(value) - ref) / ref))
                worst, count = table.get((name, q), (0.0, 0))
                table[name, q] = max(worst, rel), count + 1
    return table


@pytest.fixture(scope="module")
def table():
    table = error_table()
    print("\nrelative error against mpmath at 50 digits (worst of the cases)")
    print(f"{'quantity':<11}" + "".join(f"{'q=' + str(q):>14}" for q in QS))
    for name in ("qint", "casimir", "eigenvalue"):
        print(f"{name:<11}" + "".join(f"{table[name, q][0]:>14.2e}" for q in QS))
    return table


@pytest.mark.parametrize("name", ("qint", "casimir", "eigenvalue"))
@pytest.mark.parametrize("q", QS)
def test_relative_error_below_ceiling(table, name, q):
    worst, count = table[name, q]
    assert count > 0
    assert worst <= ceiling(q), f"{name} at q={q}: {worst:.3e}"


def test_grid_covers_the_stated_cases(table):
    # 70 half-integers, 45 labels with n1 + n2 <= 8, 32 + 33 eigenvalues
    assert {name: table[name, 0.5][1] for name in ("qint", "casimir", "eigenvalue")} == \
        {"qint": 70, "casimir": 45, "eigenvalue": 65}
