"""The precision oracle: each pinned line that fails on rounding passes its
engine checks at 40 digits.

Every failing check of precision.ROUNDING_FAILURES runs again, through the
same engine code, on an mpmath q at 40 digits, with the square roots taken by
mpmath; each residual must fall below 1e-20, where the float run's are 1e-11
or more.  A skewed E2 column shows that the 40-digit residual still sees an
error of one part in 1e9.
"""

import mpmath
import pytest

from cp2q import irreps, peterweyl
from cp2q.qarith import QParam
from precision import ROUNDING_FAILURES, engine_residuals, label_of, line_q

DPS = 40
TOL = 1e-20


@pytest.fixture
def digits40(monkeypatch):
    """mpmath at 40 digits, its square root in the engine, and no row or
    ladder table cached on either side: QParam(mpf(q)) equals QParam(q) and
    hashes alike, so a cache would serve a float table to the 40-digit run,
    or a 40-digit one to a later float test."""
    for module in (irreps, peterweyl):
        monkeypatch.setattr(module, "sqrt", mpmath.sqrt)
    irreps.ladder_table.cache_clear()
    peterweyl._ROW_MEMO.clear()
    with mpmath.workdps(DPS):
        yield
    irreps.ladder_table.cache_clear()
    peterweyl._ROW_MEMO.clear()


def _is_mpf_table(table) -> bool:
    qi, root, a, b = table
    entries = qi + root + [x for row in a + b for x in row if x is not None]
    return all(isinstance(x, mpmath.mpf) for x in entries)


@pytest.mark.parametrize("line, failed", ROUNDING_FAILURES, ids=[line for line, _ in ROUNDING_FAILURES])
def test_a_rounding_failure_passes_at_40_digits(digits40, line, failed):
    p = QParam(mpmath.mpf(line_q(line)))
    residuals = engine_residuals(line, failed, p)
    assert {label for label, _ in residuals} == set(failed)
    assert max(residuals.values()) < TOL, residuals
    # the run built its own ladder tables, at 40 digits
    for label in failed:
        assert _is_mpf_table(irreps.ladder_table(label_of(label), p)), label


@pytest.mark.parametrize("q", [1e-5, 0.3, 0.99999])
def test_a_skewed_e2_column_shows_at_40_digits(digits40, monkeypatch, q):
    # E2's first move scaled by 1 + 1e-9 breaks the relations by about as
    # much, which no 40-digit rounding hides
    moves = irreps.ladder_moves

    def skewed(label, gen, triple, table):
        out = moves(label, gen, triple, table)
        if gen == "E2" and out:
            (target, c), *rest = out
            out = ((target, c * (1 + 1e-9)), *rest)
        return out

    monkeypatch.setattr(irreps, "ladder_moves", skewed)
    assert irreps.verify_hopf_relations((1, 1), QParam(mpmath.mpf(q)))["max_residual"] >= 1e-10
