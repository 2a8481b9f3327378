"""Numerical verification of the commutative (q = 1) picture: seeded
special-unitary 3x3 samples drive identity checks for the chart geometry
of the projective plane (the comparison matrices P^(j), their transition
functions and determinants) and for the local form of the antiholomorphic
differential.  Plain Python, one sample at a time, on tuples of rows read
as m[i][j], as a numpy array reads; only sample_su3 imports numpy."""

from __future__ import annotations

import functools
import random
from math import sqrt

from . import irreps
from .qarith import QParam, largest, relative


def _matrix(entries: dict) -> tuple:
    """The 3x3 matrix with the given {(row, col): value} entries."""
    return tuple(tuple(entries.get((i, j), 0.0) for j in range(3)) for i in range(3))


# classical generator matrices in the defining representation
SIGMA = {"H1": _matrix({(0, 0): -1.0, (1, 1): 1.0}), "H2": _matrix({(1, 1): -1.0, (2, 2): 1.0}),
         "E1": _matrix({(1, 0): 1.0}), "E2": _matrix({(2, 1): 1.0}),
         "F1": _matrix({(0, 1): 1.0}), "F2": _matrix({(1, 2): 1.0})}
_IDENTITY = _matrix({(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0})
BATTERY_FAMILIES = ("transition", "determinant", "row_orthogonality",
                    "transition_inverse", "projector")
EXP_DEGREE = 10  # of the Taylor sum for the group flows; see expm_series
ACTIVE_CHART = 0.1  # chart j is active where |z_j| > ACTIVE_CHART


def _mul(a, b) -> tuple:  # a b, for b 3x3
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return tuple((r[0] * b00 + r[1] * b10 + r[2] * b20, r[0] * b01 + r[1] * b11 + r[2] * b21,
                  r[0] * b02 + r[1] * b12 + r[2] * b22) for r in a)


def _scaled(c, a) -> tuple:
    return tuple(tuple(c * x for x in row) for row in a)


def _add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _adjoint(a) -> tuple:
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def _dot(u, v) -> complex:  # sum_i conj(u_i) v_i over three entries
    return u[0].conjugate() * v[0] + u[1].conjugate() * v[1] + u[2].conjugate() * v[2]


def _gap(a, b) -> float:  # the largest entrywise |a - b|
    return largest([x - y for ra, rb in zip(a, b) for x, y in zip(ra, rb)])


def _det2(m) -> complex:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _product_gaps(a, b, c) -> list:  # the entrywise a b - c of 2x2 matrices
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    (c00, c01), (c10, c11) = c
    return [a00 * b00 + a01 * b10 - c00, a00 * b01 + a01 * b11 - c01,
            a10 * b00 + a11 * b10 - c10, a10 * b01 + a11 * b11 - c11]


def _det3(m) -> complex:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _orthonormal_columns(cols) -> list:
    """Q's columns in a = QR, diag(R) > 0, from a's: classical Gram-Schmidt run twice
    on each column ("twice is enough": Giraud, Langou and Rozloznik, 2005)."""
    q = []
    for v in cols:
        for _ in range(2):
            for c, u in [(_dot(u, v), u) for u in q]:
                v = (v[0] - c * u[0], v[1] - c * u[1], v[2] - c * u[2])
        norm = sqrt(abs(_dot(v, v)))
        q.append((v[0] / norm, v[1] / norm, v[2] / norm))
    return q


def sample(seed: int) -> tuple:
    """Haar-ish special unitary sample as a tuple of rows: Q of a complex Gaussian
    matrix (random.Random(seed).gauss: nine real parts, then nine imaginary,
    row-major), over a cube root of det Q.  Seed 0 returns the identity."""
    if seed == 0:
        return tuple(tuple(complex(x) for x in row) for row in _IDENTITY)
    gauss = random.Random(seed).gauss
    d = [gauss(0.0, 1.0) for _ in range(18)]
    qmat = tuple(zip(*_orthonormal_columns(
        [(complex(d[j], d[9 + j]), complex(d[3 + j], d[12 + j]), complex(d[6 + j], d[15 + j]))
         for j in range(3)])))
    root = _det3(qmat) ** (1.0 / 3.0)
    return tuple((x / root, y / root, w / root) for x, y, w in qmat)


def sample_su3(seed: int):
    """sample(seed) as a complex 3x3 numpy array."""
    import numpy as np

    return np.array(sample(seed), dtype=complex)


def check_group_sample(g) -> dict:
    # g g^H on and above the diagonal: each entry below is the conjugate of one above
    uni = relative(largest([_dot(g[j], g[i]) - (i == j) for i in range(3) for j in range(i, 3)]), 1.0)
    det = relative(abs(_det3(g) - 1.0), 1.0)
    return {"unitarity": uni, "det": det, "passed": uni < 1e-12 and det < 1e-12}


def projector_of(z) -> tuple:
    return tuple(tuple(a.conjugate() * b for b in z) for a in z)


_CHART_COLS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}  # k < l with {j,k,l} = {1,2,3}
_FORMULA_PAIRS = ((1, 2), (2, 3), (3, 1))  # the transitions with explicit formulas


def comparison_matrix(g, chart: int) -> tuple:
    """P^(j) = conj(z_j) [[u^1_k, u^1_l], [-u^2_k, -u^2_l]]."""
    k, l = _CHART_COLS[chart]
    c = g[2][chart - 1].conjugate()
    return ((c * g[0][k - 1], c * g[0][l - 1]), (c * -g[1][k - 1], c * -g[1][l - 1]))


def _inverse2(m) -> tuple:
    (a, b), (c, d) = m
    det = _det2(m)
    return ((d / det, -b / det), (-c / det, a / det))


def transition_matrix(z, j: int, k: int) -> tuple:
    """Chart transition g_jk on the overlap, from the explicit formulas."""
    if (k, j) in _FORMULA_PAIRS:
        return _inverse2(transition_matrix(z, k, j))
    z1, z2, z3 = z[0].conjugate(), z[1].conjugate(), z[2].conjugate()
    if (j, k) == (1, 2):
        s = z2 / z1 ** 2
        return ((s * -z2, 0.0), (s * -z3, s * z1))
    if (j, k) == (2, 3):
        s = z3 / z2 ** 2
        return ((s * z2, s * -z1), (0.0, s * -z3))
    s = z1 / z3 ** 2  # (3, 1)
    return ((0.0, s * -z1), (s * z3, s * -z2))


def active_charts(z) -> list[int]:
    return [j for j in (1, 2, 3) if abs(z[j - 1]) > ACTIVE_CHART]


def transition_check(g, tol: float = 1e-10) -> dict:
    """The Appendix-style identity families at one sample: transition
    compatibility of the P^(j), their determinants, row orthogonality,
    inverse consistency of the transitions, and the projector properties,
    each the maximum over the active charts alone."""
    g0, g1, z = g
    zb = [x.conjugate() for x in z]
    pmat = {j: comparison_matrix(g, j) for j in active_charts(z)}
    transition, inverse = [], []
    for j, k in _FORMULA_PAIRS:
        if j in pmat and k in pmat:
            t, ti = transition_matrix(z, j, k), transition_matrix(z, k, j)
            transition += _product_gaps(pmat[j], t, pmat[k]) + _product_gaps(pmat[k], ti, pmat[j])
            inverse += _product_gaps(*((t, ti) if j < k else (ti, t)), ((1.0, 0.0), (0.0, 1.0)))
    p = [a * b for a in zb for b in z]  # the projector, row-major
    pp = [p[i] * p[j] + p[i + 1] * p[j + 3] + p[i + 2] * p[j + 6] for i in (0, 3, 6) for j in (0, 1, 2)]
    res = {
        "transition": largest(transition),
        "determinant": largest([_det2(m) - (-1.0) ** j * zb[j - 1] ** 3 for j, m in pmat.items()]),
        # rows 1 and 2 against the conjugated third row
        "row_orthogonality": largest([_dot(z, g0), _dot(z, g1)]),
        "transition_inverse": largest(inverse),
        "projector": largest([x - y for x, y in zip(pp, p)]
                             + [p[3 * i + j] - p[3 * j + i].conjugate() for i in range(3)
                                for j in range(3)] + [p[0] + p[4] + p[8] - 1.0]),
    }
    res["max_residual"] = relative(largest(res.values()), 1.0)
    res["passed"] = res["max_residual"] < tol
    return res


# -- local form of the antiholomorphic differential ---------------------------

def _chart_point(z, chart: int) -> tuple:
    k, l = _CHART_COLS[chart]
    return (z[k - 1] / z[chart - 1], z[l - 1] / z[chart - 1])


def _projector_from_chart(chart: int, w) -> tuple:
    v = [0j] * 3
    k, l = _CHART_COLS[chart]
    v[chart - 1] = 1.0
    v[k - 1], v[l - 1] = w
    norm = sqrt(abs(_dot(v, v)))
    return projector_of([x / norm for x in v])


def expm_series(a) -> tuple:
    """exp(a) as its Taylor sum to degree EXP_DEGREE; at ||a|| <= 2e-2 (the
    local check's h_step guard) the remainder is below 1e-25."""
    out = term = _IDENTITY
    for n in range(1, EXP_DEGREE + 1):
        term = _scaled(1.0 / n, _mul(term, a))
        out = _add(out, term)
    return out


@functools.lru_cache(maxsize=4)
def flow_steps(h_step: float) -> tuple:
    """The black flows theta([E1,E2]) = [F2,F1] and theta(E2) = F2 in the
    defining matrices, each h split into the antihermitian pair a, b with
    h = a + i b that generates group curves, as exp(+-h_step a), exp(+-h_step b)."""
    f1, f2 = SIGMA["F1"], SIGMA["F2"]
    pairs = [(_scaled(0.5, _add(h, _scaled(-1.0, _adjoint(h)))), _scaled(-0.5j, _add(h, _adjoint(h))))
             for h in (_add(_mul(f2, f1), _scaled(-1.0, _mul(f1, f2))), f2)]
    return tuple(tuple((expm_series(_scaled(h_step, s)), expm_series(_scaled(-h_step, s)))
                       for s in pair) for pair in pairs)


def dbar_local_check(a, g, chart: int, h_step: float = 1e-5,
                     tol: float = 1e-6) -> dict:
    """Local identity for the differential of a function a(p) of the
    projector entries p[i][j] at g (read as g[i][j]): the group-side
    derivative pair assembled through the comparison matrix equals the
    chart-coordinate antiholomorphic derivatives.

    Group side: the black action of h is the right canonical action by the
    swapped-ladder image of h, realized as the left-translation flow of
    sigma(theta(h)); central differences run along antihermitian group
    curves and combine complex-linearly (the complexified generators are
    not tangent to the group, so naive off-group curves would corrupt the
    conjugations inside a).  Chart side: central differences of a in the
    conjugated local coordinates."""
    g = tuple(tuple(complex(x) for x in row) for row in g)
    z = g[2]
    if abs(z[chart - 1]) <= ACTIVE_CHART:
        raise ValueError(f"chart {chart} inactive at this sample")
    if not (1e-8 < h_step < 1e-2):
        raise ValueError(f"step {h_step} outside the trustworthy central-difference range")

    def real_derivative(plus, minus) -> complex:
        # along exp(+-h sigma) g, sigma antihermitian: the curve stays on the
        # group, and a reads the third row of each end point
        fp, fm = (a(projector_of(_mul((u[2],), g)[0])) for u in (plus, minus))
        return (fp - fm) / (2.0 * h_step)

    vplus, vminus = (real_derivative(*amat) + 1j * real_derivative(*bmat)
                     for amat, bmat in flow_steps(h_step))
    pmat = comparison_matrix(g, chart)
    lhs = [vplus * pmat[0][c] + vminus * pmat[1][c] for c in range(2)]

    w0 = _chart_point(z, chart)

    def chart_difference(i: int, step: complex) -> complex:  # central, along W_i
        fp, fm = (a(_projector_from_chart(chart, [w + d * (n == i) for n, w in enumerate(w0)]))
                  for d in (step, -step))
        return (fp - fm) / (2 * h_step)

    # d/d(conj W_i) = (d/dx + i d/dy) / 2
    rhs = [0.5 * (chart_difference(i, h_step) + 1j * chart_difference(i, 1j * h_step)) for i in range(2)]
    resid = relative(largest([x - y for x, y in zip(lhs, rhs)]), 1.0)
    return {"chart": chart, "lhs": lhs, "rhs": rhs,
            "residual": resid, "passed": resid < tol}


def p_entry(i: int, j: int):
    """Convenience observable a = p_ij for the local check."""
    return lambda p: p[i - 1][j - 1]


def classical_rep_check() -> dict:
    """Serre-presentation relations for the classical generator matrices,
    plus their match with the q-deformed fundamental representation."""
    s, zero, tol = SIGMA, _matrix({}), 1e-12

    def comm(a, b):
        return _add(_mul(a, b), _scaled(-1.0, _mul(b, a)))

    checks = []  # (relation, left side, right side)
    for k in (1, 2):
        h, e, f = s[f"H{k}"], s[f"E{k}"], s[f"F{k}"]
        checks += [(f"[H{k},E{k}] = 2E{k}", comm(h, e), _scaled(2.0, e)),
                   (f"[H{k},F{k}] = -2F{k}", comm(h, f), _scaled(-2.0, f)),
                   (f"[E{k},F{k}] = H{k}", comm(e, f), h)]
    checks.append(("[H1,H2] = 0", comm(s["H1"], s["H2"]), zero))
    for k, j in ((1, 2), (2, 1)):
        h, e, f, ej, fj = s[f"H{k}"], s[f"E{k}"], s[f"F{k}"], s[f"E{j}"], s[f"F{j}"]
        checks += [(f"[E{k},F{j}] = 0", comm(e, fj), zero),
                   (f"[H{k},E{j}] = -E{j}", comm(h, ej), _scaled(-1.0, ej)),
                   (f"[H{k},F{j}] = F{j}", comm(h, fj), fj),
                   (f"(adE{k})^2 E{j} = 0", comm(e, comm(e, ej)), zero),
                   (f"(adF{k})^2 F{j} = 0", comm(f, comm(f, fj)), zero)]
    report = [{"relation": name, "residual": (res := relative(_gap(lhs, rhs), 1.0)), "passed": res < tol}
              for name, lhs, rhs in checks]
    worst = largest([r["residual"] for r in report])

    # q-side fundamental matrices (V(0,1) in the paper's basis order) against
    # the classical limit: the ladder matrices agree exactly, the K's are
    # q^(H/2) entrywise
    limit = {}
    perm = (1, 2, 0)
    for q in (0.9, 0.999):
        cols = irreps.action_columns((0, 1), QParam(q))
        want = {"E1": s["E1"], "E2": s["E2"],
                **{f"K{k}": _matrix({(i, i): q ** (s[f"H{k}"][i][i] / 2.0) for i in range(3)})
                   for k in (1, 2)}}
        limit[q] = largest([_gap(_matrix({(perm.index(i), perm.index(j)): c
                                          for j, col in enumerate(cols[gen]) for i, c in col}), m)
                            for gen, m in want.items()])
    return {"relations": report, "max_residual": worst,
            "fundamental_match": limit,
            "passed": worst < tol and relative(largest(limit.values()), 1.0) < tol}


def run_sample_battery(samples: int = 100, seed: int = 1, tol: float = 1e-10) -> dict:
    """The max residual per identity family of transition_check over the
    samples of seeds seed, ..., seed + samples - 1, one at a time.  A sample
    that is not special unitary stops it, reported by seed as bad_sample."""
    worst = dict.fromkeys(BATTERY_FAMILIES, 0.0)
    for s in range(seed, seed + samples):
        g = sample(s)
        ok = check_group_sample(g)
        if not ok["passed"]:
            return {"samples": samples, "seed": seed, "passed": False, "bad_sample": s,
                    "detail": {"unitarity": ok["unitarity"], "det": ok["det"]}}
        rep = transition_check(g, tol)
        for k in BATTERY_FAMILIES:
            worst[k] = largest((worst[k], rep[k]))
    top = relative(largest(worst.values()), 1.0)
    return {"samples": samples, "seed": seed, "residuals": worst,
            "max_residual": top, "passed": top < tol}
