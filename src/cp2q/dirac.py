"""The Dirac operator of the quantum projective plane and its spectrum.

The operator mixes the antiholomorphic differential and its adjoint with a
weight s on the degree 1 <-> 2 legs; at s^2 = [2]/2 its square equals
[2]^-1 (C_q - 2) acting blackly, with C_q the central Casimir, so the
spectrum is read off block by block: every (family, n, white index) block
is [[0, d], [d, 0]] in the orthonormal slot basis with

    |d| = sqrt(2 [n][n+2] / [2])         on V(n,n)   blocks (n >= 1),
    |d| = sqrt([m+2][m+3])               on V(m,m+3) blocks (m >= 0),

plus the one-dimensional kernel of constants.  Blocks are exact:
truncation only limits which n appear, it never perturbs an included
eigenvalue.  Each block is checked to be symmetric with a zero diagonal,
and its eigenvalues +-|d| are then read off its lower entry, in plain
Python.  The tests keep two oracles: numpy's eigvalsh of each block, and a
dense diagonalization of the assembled operator at small truncation; the
oracle functions here import numpy inside the function.
"""

from __future__ import annotations

from math import isfinite, sqrt
from sys import float_info
from typing import NamedTuple

from . import dolbeault as db, irreps, peterweyl as pw, ualg
from .qarith import QParam, VerificationError, largest, qint, relative


def default_s(p: QParam) -> float:
    return sqrt(qint(2, p) / 2.0)


class _DiracFields(NamedTuple):
    p: QParam
    nmax: int = 3
    s: float | None = None  # None: the canonical sqrt([2]/2)
    tol: float = 1e-10


class DiracConfig(_DiracFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.s is not None and self.s <= 0:
            raise ValueError("mixing parameter must be positive")
        if self.nmax < 0:
            raise ValueError("nmax must be >= 0")
        return self

    @property
    def s_value(self) -> float:
        return default_s(self.p) if self.s is None else self.s


class SpectrumSymmetryError(VerificationError, ArithmeticError):
    """A block is not symmetric with a zero diagonal: its spectrum is not +-d."""


class SpectrumRow(NamedTuple):
    family: str  # "zero" | "alpha" (V(n,n)) | "beta" (V(m,m+3))
    n: int
    eigenvalue: float
    multiplicity: int


class SpectrumTable(NamedTuple):
    q: float
    s: float
    nmax: int
    rows: list

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "s": self.s,
            "nmax": self.nmax,
            "truncation_note": "families with n <= nmax only; the spectrum continues for larger n",
            "rows": [
                {"family": r.family, "n": r.n,
                 "eigenvalue": r.eigenvalue, "multiplicity": r.multiplicity}
                for r in self.rows
            ],
        }


def dirac_apply(f: db.FormVector, cfg: DiracConfig) -> db.FormVector:
    """(a, v, b) -> (dbar^+ v, dbar a + s dbar^+ b, s dbar v), with both
    differentials checked for membership of their images."""
    p, s = cfg.p, cfg.s_value
    out: db.FormVector = {}
    for img, weight in ((db.dbar(f, p), {"+": 1.0, "-": 1.0, "2": s}),
                        (db.dbar_dag(f, p), {"0": 1.0, "+": s, "-": s})):
        for k, c in img.items():
            pw.add_into(out, {k: c}, weight[db.part(k)])
    return out


def _row_weights(deg, s: float) -> tuple[list, list]:
    """Weights of the rows of dbar's and dbar_dag's matrices in slot
    coordinates, by each row's slot degree, as dirac_apply weights image
    parts: s on the degree 1 <-> 2 legs."""
    return [s if k == 2 else 1.0 for k in deg], [s if k == 1 else 1.0 for k in deg]


def _weighted(d: list, dd: list, deg, s: float) -> list[list[float]]:
    """The operator on one block from the differentials' black blocks."""
    return [[a * x + b * y for x, y in zip(rd, rdd)] for a, b, rd, rdd in zip(*_row_weights(deg, s), d, dd)]


def _black_blocks(family: str, n: int, p: QParam) -> tuple:
    return tuple(db.black_block(name, family, n, p) for name in ("dbar", "dbar_dag"))


def _family_block(family: str, n: int, cfg: DiracConfig) -> list[list[float]]:
    """Matrix of the operator on one block, from the black blocks."""
    return _weighted(*_black_blocks(family, n, cfg.p), db.block_degrees(family, n), cfg.s_value)


def closed_form_eigenvalue(family: str, n: int, p: QParam) -> float:
    if family in ("diag", "alpha"):
        return sqrt(2.0 * qint(n, p) * qint(n + 2, p) / qint(2, p))
    return sqrt(qint(n + 2, p) * qint(n + 3, p))


def family_multiplicity(family: str, n: int) -> int:
    if family in ("diag", "alpha"):
        return irreps.dim((n, n))
    return irreps.dim((n, n + 3))


def spectrum(cfg: DiracConfig) -> SpectrumTable:
    """Spectrum read off the checked 2x2 blocks, to be verified against the
    closed forms; rows sorted (family, n, sign), multiplicities per sign."""
    p = cfg.p
    table = SpectrumTable(q=p.q, s=cfg.s_value, nmax=cfg.nmax, rows=[SpectrumRow("zero", 0, 0.0, 1)])

    for family, n, _, mult, _ in db.families(cfg.nmax):
        if (family, n) == ("diag", 0):
            continue  # the constants: the zero row
        block = _family_block(family, n, cfg)
        (b00, b01), (b10, b11) = block
        if not all(map(isfinite, (b00, b01, b10, b11))):
            raise OverflowError(f"block ({family},{n}) has an entry that is not finite: {block}")
        if b00 or b11 or abs(b01 - b10) > cfg.tol * max(abs(b10), 1.0):
            raise SpectrumSymmetryError(f"block ({family},{n}) not symmetric with zero diagonal: {block}")
        lam = abs(b10)
        name = "alpha" if family == "diag" else "beta"
        table.rows.append(SpectrumRow(name, n, -lam, mult))
        table.rows.append(SpectrumRow(name, n, +lam, mult))
    return table


def verify_spectrum_closed_form(table: SpectrumTable, p: QParam, rtol: float = 1e-9) -> dict:
    """Computed rows against the closed-form eigenvalues and multiplicities."""
    failures = []
    worst = 0.0
    for r in table.rows:
        if r.family == "zero":
            ok = r.eigenvalue == 0.0 and r.multiplicity == 1
            if not ok:
                failures.append({"row": r._asdict(), "reason": "zero row"})
            continue
        expect = closed_form_eigenvalue(r.family, r.n, p)
        expect_mult = family_multiplicity(r.family, r.n)
        rel = relative(abs(abs(r.eigenvalue) - expect), expect)
        worst = max(worst, rel)
        if rel >= rtol or r.multiplicity != expect_mult:
            failures.append({"row": r._asdict(), "expect": expect, "expect_mult": expect_mult})
    return {"passed": not failures, "max_rel_error": worst, "failures": failures}


def dense_spectrum(cfg: DiracConfig) -> np.ndarray:
    """Brute-force oracle: assemble the operator on the full truncated slot
    basis, ignoring the block structure, and diagonalize densely."""
    import numpy as np

    nmax, p = cfg.nmax, cfg.p
    wd, wdd = (np.array(w)[:, None] for w in _row_weights(db.slot_degrees(nmax), cfg.s_value))
    mat = wd * db.slot_operator("dbar", nmax, p).dense() + wdd * db.slot_operator("dbar_dag", nmax, p).dense()
    if np.abs(mat - mat.T).max() > 1e-10:
        raise ArithmeticError("assembled operator is not symmetric")
    return np.linalg.eigvalsh(mat)


def spectrum_as_sorted_list(table: SpectrumTable) -> np.ndarray:
    import numpy as np

    vals = []
    for r in table.rows:
        vals.extend([r.eigenvalue] * r.multiplicity)
    return np.sort(np.array(vals))


def verify_laplacian_identity(cfg: DiracConfig, trials: int = 6) -> dict:
    """D^2 = [2]^-1 (C_q - 2) by the black action: per block against the
    closed-form Casimir scalar, and on random vectors of the truncated
    complex against the word-level Casimir element itself."""
    import random

    p = cfg.p
    two = qint(2, p)
    per_block = []
    worst = 0.0
    for n in range(cfg.nmax + 1):
        for family in ("diag", "offdiag"):
            block = _family_block(family, n, cfg)
            expect = (ualg.casimir_eigenvalue(*db.family_label(family, n), p) - 2.0) / two
            k = range(len(block))  # largest entry of block @ block - expect * I
            resid = relative(largest([sum(block[i][m] * block[m][j] for m in k) - (expect if i == j else 0.0)
                                      for i in k for j in k]), max(abs(expect), 1.0))
            worst = max(worst, resid)
            per_block.append({"family": family, "n": n, "expect": expect, "residual": resid})

    rng = random.Random(3)
    cas = ualg.casimir_element(p)
    worst_vec = 0.0
    for _ in range(trials):
        f = db.random_form(cfg.nmax, rng)
        shifted = pw.black_act(cas, f, p)  # (C_q - 2) f
        pw.add_into(shifted, f, -2.0)
        diff = dirac_apply(dirac_apply(f, cfg), cfg)
        pw.add_into(diff, shifted, -1.0 / two)
        worst_vec = max(worst_vec, relative(db.form_norm(diff), max(db.form_norm(f), 1.0)))
    passed = worst < cfg.tol and worst_vec < cfg.tol
    return {"q": p.q, "s": cfg.s_value, "nmax": cfg.nmax,
            "block_residual": worst, "vector_residual": worst_vec,
            "per_block": per_block, "passed": passed}


def _rank(b: list, tol: float) -> int:
    """Number of singular values above tol of a block of at most 2x2."""
    # in closed form, so cohomology needs no numpy
    (b00, b01), (b10, b11) = b if len(b) == 2 else ((b[0][0], 0.0), (0.0, 0.0))
    f, det = b00 * b00 + b01 * b01 + b10 * b10 + b11 * b11, abs(b00 * b11 - b01 * b10)
    top = sqrt((f + sqrt(max(f * f - 4.0 * det * det, 0.0))) / 2.0)
    return int(top > tol) + int(top > tol and det > tol * top)


def cohomology(cfg: DiracConfig) -> dict:
    """Harmonic dimensions per degree from the kernels of the operator's
    blocks, and the harmonic + exact + coexact = dim bookkeeping, with exact
    and coexact counted as black-block ranks times the irrep's dimension."""
    p = cfg.p
    harmonic, exact, coexact, dims = ([0, 0, 0] for _ in range(4))
    for family, n, _, size, deg in db.families(cfg.nmax):
        d, dd = _black_blocks(family, n, p)
        block = _weighted(d, dd, deg, cfg.s_value)
        for i, k in enumerate(deg):
            dims[k] += size
            # a slot is harmonic iff the block's operator vanishes on it
            if relative(largest([row[i] for row in block]), 1.0) < cfg.tol:
                harmonic[k] += size
        exact[deg[-1]] += size * _rank(d, cfg.tol)
        coexact[deg[0]] += size * _rank(dd, cfg.tol)
    ranks = {f"deg{k}": {"harmonic": harmonic[k], "exact": exact[k], "coexact": coexact[k], "dim": dims[k]}
             for k in range(3)}
    bookkeeping_ok = all(
        r["harmonic"] + r["exact"] + r["coexact"] == r["dim"] for r in ranks.values()
    )
    return {
        "q": p.q, "nmax": cfg.nmax,
        "harmonic_dimensions": tuple(harmonic),
        "ranks": ranks,
        "bookkeeping_exact": bookkeeping_ok,
        "passed": tuple(harmonic) == (1, 0, 0) and bookkeeping_ok,
    }


def verify_hodge_projectors(cfg: DiracConfig, degree: int = 1) -> float:
    """The projectors onto the harmonic, exact and coexact summands of one
    degree, from SVD bases of the assembled differentials, must sum to the
    identity there; returns the largest column norm of the residual."""
    import numpy as np

    nmax, p, tol = cfg.nmax, cfg.p, cfg.tol
    on = np.flatnonzero(np.array(db.slot_degrees(nmax)) == degree)
    d, dd = (db.slot_operator(name, nmax, p).dense() for name in ("dbar", "dbar_dag"))

    def image_basis(mat):
        u, sv, _ = np.linalg.svd(mat)
        return u[:, :np.count_nonzero(sv > tol)]

    _, sv, vt = np.linalg.svd(np.vstack([d[:, on], dd[:, on]]))
    kernel = vt[np.count_nonzero(sv > tol):].T
    basis = np.hstack([kernel, image_basis(d[on]), image_basis(dd[on])])
    return float(np.linalg.norm(basis @ basis.T - np.eye(len(on)), axis=0).max())


def summability_probe(cfg: DiracConfig, epsilons) -> dict:
    """Shell-resolved probe of Tr (1 + D^2)^(-eps/2).

    Shell n collects the distinct eigenvalue magnitudes entering at level n
    (the V(n,n) family and the V(n-1,n+2) family).  For each eps the table
    reports the trace increment of the shell (multiplicity-weighted), the
    per-eigenvalue factor sum (multiplicity-free), and the running trace.
    The geometric-decay signature of 0+ summability lives in the
    multiplicity-free factors: lambda ~ q^-n makes them fall like q^(eps n);
    the weighted increments carry an extra polynomial multiplicity that a
    desk-scale shell range need not have beaten yet.
    """
    p = cfg.p
    # shell n: (eigenvalue, multiplicity) of V(n,n) and of V(n-1,n+2)
    shells = [[(closed_form_eigenvalue(family, m, p), family_multiplicity(family, m))
               for family, m in (("diag", n), ("offdiag", n - 1))] for n in range(1, cfg.nmax + 1)]

    out = {"q": p.q, "nmax": cfg.nmax, "epsilons": list(epsilons), "shells": []}
    for eps in epsilons:
        running = 1.0  # the zero mode
        rows = []
        for n, entries in enumerate(shells, 1):
            factor = sum((1.0 + lam * lam) ** (-eps / 2.0) for lam, _ in entries)
            if factor < float_info.min:  # its decay ratios would be rounding, or divide by 0.0
                raise FloatingPointError(f"the factor of shell {n} at eps {eps} is 0.0 or subnormal")
            increment = sum(2 * mult * (1.0 + lam * lam) ** (-eps / 2.0) for lam, mult in entries)
            running += increment
            rows.append({"shell": n, "factor": factor, "trace_increment": increment,
                         "partial_trace": running})
        ratios = [b["factor"] / a["factor"] for a, b in zip(rows, rows[1:])]
        geometric = bool(ratios) and all(r < 1.0 for r in ratios)
        out["shells"].append({
            "eps": eps, "rows": rows, "factor_ratios": ratios,
            "factors_decrease_geometrically": geometric,
        })
    return out


def classical_limit_scan(nmax: int, q_list) -> dict:
    """Eigenvalues against their commutative limits as q approaches 1."""
    rows = []
    for family in ("diag", "offdiag"):
        for n in range(1 if family == "diag" else 0, nmax + 1):
            classical = sqrt(n * (n + 2)) if family == "diag" else sqrt((n + 2) * (n + 3))
            deltas = []
            for q in q_list:
                p = QParam(q)
                deltas.append(abs(closed_form_eigenvalue(family, n, p) - classical))
            rows.append({
                "family": family, "n": n, "classical": classical,
                "q_list": list(q_list), "abs_errors": deltas,
                "monotone": all(a >= b for a, b in zip(deltas, deltas[1:])),
            })
    return {"nmax": nmax, "rows": rows,
            "all_monotone": all(r["monotone"] for r in rows)}
