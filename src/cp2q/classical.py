"""Numerical verification of the commutative (q = 1) picture.

Random special-unitary 3x3 samples drive identity checks for the chart
geometry of the projective plane: the two-by-two comparison matrices
P^(j), their transition functions, determinant formula, and the local
form of the antiholomorphic differential as finite-difference derivatives
in chart coordinates.  Everything is numeric-at-samples; seeds make runs
reproducible.
"""

from __future__ import annotations

import numpy as np

from . import irreps
from .qarith import QParam

# classical generator matrices in the defining representation
SIGMA_H1 = np.diag([-1.0, 1.0, 0.0])
SIGMA_H2 = np.diag([0.0, -1.0, 1.0])
SIGMA_E1 = np.zeros((3, 3)); SIGMA_E1[1, 0] = 1.0
SIGMA_E2 = np.zeros((3, 3)); SIGMA_E2[2, 1] = 1.0
SIGMA_F1 = SIGMA_E1.T.copy()
SIGMA_F2 = SIGMA_E2.T.copy()


def sample_su3(seed: int) -> np.ndarray:
    """Haar-ish special unitary sample: QR of a complex Gaussian matrix with
    phase-fixed diagonal, then the determinant phase spread over a cube
    root.  Deterministic per seed; seed 0 returns the identity."""
    if seed == 0:
        return np.eye(3, dtype=complex)
    rng = np.random.default_rng(seed)
    gin = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    qmat, r = np.linalg.qr(gin)
    ph = np.diag(r).copy()
    qmat = qmat @ np.diag(ph / np.abs(ph))
    det = np.linalg.det(qmat)
    return qmat / det ** (1.0 / 3.0)


def check_group_sample(g: np.ndarray, tol: float = 1e-12) -> dict:
    uni = float(np.abs(g @ g.conj().T - np.eye(3)).max())
    det = abs(np.linalg.det(g) - 1.0)
    return {"unitarity": uni, "det": det, "passed": uni < tol and det < tol}


def _z_of(g: np.ndarray) -> np.ndarray:
    # sphere coordinates are the last row of the group matrix
    return g[2, :].copy()


def projector_of(z: np.ndarray) -> np.ndarray:
    return np.outer(z.conj(), z)


_CHART_COLS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}  # k < l with {j,k,l} = {1,2,3}


def comparison_matrix(g: np.ndarray, chart: int) -> np.ndarray:
    """P^(j) = conj(z_j) [[u^1_k, u^1_l], [-u^2_k, -u^2_l]]."""
    z = _z_of(g)
    k, l = _CHART_COLS[chart]
    top = [g[0, k - 1], g[0, l - 1]]
    bot = [-g[1, k - 1], -g[1, l - 1]]
    return z[chart - 1].conjugate() * np.array([top, bot])


def transition_matrix(z: np.ndarray, j: int, k: int) -> np.ndarray:
    """Chart transition g_jk on the overlap, from the explicit formulas."""
    zb = z.conj()
    if (j, k) == (1, 2):
        return (zb[1] / zb[0] ** 2) * np.array([[-zb[1], 0.0], [-zb[2], zb[0]]])
    if (j, k) == (2, 3):
        return (zb[2] / zb[1] ** 2) * np.array([[zb[1], -zb[0]], [0.0, -zb[2]]])
    if (j, k) == (3, 1):
        return (zb[0] / zb[2] ** 2) * np.array([[0.0, -zb[0]], [zb[2], -zb[1]]])
    return np.linalg.inv(transition_matrix(z, k, j))


def active_charts(z: np.ndarray, threshold: float = 0.1) -> list[int]:
    return [j for j in (1, 2, 3) if abs(z[j - 1]) > threshold]


def transition_check(g: np.ndarray, tol: float = 1e-10, threshold: float = 0.1) -> dict:
    """The three Appendix-style identity families at one sample: transition
    compatibility of the P^(j), their determinants, row orthogonality,
    inverse consistency of the transitions, and the projector properties."""
    z = _z_of(g)
    charts = active_charts(z, threshold)
    res: dict = {"charts": charts}
    worst = 0.0

    r = 0.0
    for j in charts:
        for k in charts:
            if j == k:
                continue
            lhs = comparison_matrix(g, j) @ transition_matrix(z, j, k)
            r = max(r, float(np.abs(lhs - comparison_matrix(g, k)).max()))
    res["transition"] = r
    worst = max(worst, r)

    r = 0.0
    for j in charts:
        det = np.linalg.det(comparison_matrix(g, j))
        r = max(r, abs(det - (-1.0) ** j * z[j - 1].conjugate() ** 3))
    res["determinant"] = r
    worst = max(worst, r)

    r = 0.0
    for j in (1, 2):  # rows 1 and 2 against the conjugated third row
        r = max(r, abs(np.sum(z.conj() * g[j - 1, :])))
    res["row_orthogonality"] = r
    worst = max(worst, r)

    r = 0.0
    for j in charts:
        for k in charts:
            if j < k:
                prod = transition_matrix(z, j, k) @ transition_matrix(z, k, j)
                r = max(r, float(np.abs(prod - np.eye(2)).max()))
    res["transition_inverse"] = r
    worst = max(worst, r)

    p = projector_of(z)
    r = max(
        float(np.abs(p @ p - p).max()),
        float(np.abs(p - p.conj().T).max()),
        abs(np.trace(p) - 1.0),
    )
    res["projector"] = r
    worst = max(worst, r)

    res["max_residual"] = worst
    res["passed"] = worst < tol
    return res


# -- local form of the antiholomorphic differential ---------------------------

def _chart_point(z: np.ndarray, chart: int) -> np.ndarray:
    k, l = _CHART_COLS[chart]
    return np.array([z[k - 1] / z[chart - 1], z[l - 1] / z[chart - 1]])


def _projector_from_chart(chart: int, w: np.ndarray) -> np.ndarray:
    v = np.zeros(3, dtype=complex)
    k, l = _CHART_COLS[chart]
    v[chart - 1] = 1.0
    v[k - 1], v[l - 1] = w[0], w[1]
    v = v / np.linalg.norm(v)
    return projector_of(v)


def dbar_local_check(a, g: np.ndarray, chart: int, h_step: float = 1e-5,
                     tol: float = 1e-6) -> dict:
    """Local identity for the differential of a function a(p) of the
    projector entries: the group-side derivative pair assembled through
    the comparison matrix equals the chart-coordinate antiholomorphic
    derivatives.

    Group side: the black action of h is the right canonical action by the
    swapped-ladder image of h, realized as the left-translation flow of
    sigma(theta(h)); central differences run along antihermitian group
    curves and combine complex-linearly (the complexified generators are
    not tangent to the group, so naive off-group curves would corrupt the
    conjugations inside a).  Chart side: central differences of a in the
    conjugated local coordinates.
    """
    from scipy.linalg import expm  # deferred: scipy.linalg dominates import time

    z = _z_of(g)
    if abs(z[chart - 1]) <= 0.1:
        raise ValueError(f"chart {chart} inactive at this sample")
    if not (1e-8 < h_step < 1e-2):
        raise ValueError(f"step {h_step} outside the trustworthy central-difference range")

    def func_of_group(gg: np.ndarray) -> complex:
        return a(projector_of(gg[2, :]))

    def real_derivative(sigma: np.ndarray) -> complex:
        # sigma antihermitian: the curve stays on the group
        gp = expm(h_step * sigma) @ g
        gm = expm(-h_step * sigma) @ g
        return (func_of_group(gp) - func_of_group(gm)) / (2.0 * h_step)

    def black_derivative(h_flow: np.ndarray) -> complex:
        amat = (h_flow - h_flow.conj().T) / 2.0
        bmat = (h_flow + h_flow.conj().T) / 2.0j
        return real_derivative(amat) + 1j * real_derivative(bmat)

    # theta([E1,E2]) = [F2,F1] and theta(E2) = F2 in the defining matrices
    flow_plus = SIGMA_F2 @ SIGMA_F1 - SIGMA_F1 @ SIGMA_F2
    vplus = black_derivative(flow_plus)
    vminus = black_derivative(SIGMA_F2)
    lhs = np.array([vplus, vminus]) @ comparison_matrix(g, chart)

    w0 = _chart_point(z, chart)

    def func_of_chart(w: np.ndarray) -> complex:
        return a(_projector_from_chart(chart, w))

    rhs = np.zeros(2, dtype=complex)
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        dx = (func_of_chart(w0 + h_step * e) - func_of_chart(w0 - h_step * e)) / (2 * h_step)
        dy = (func_of_chart(w0 + 1j * h_step * e) - func_of_chart(w0 - 1j * h_step * e)) / (2 * h_step)
        rhs[i] = 0.5 * (dx + 1j * dy)  # d/d(conj W_i)

    resid = float(np.abs(lhs - rhs).max())
    return {"chart": chart, "lhs": lhs.tolist(), "rhs": rhs.tolist(),
            "residual": resid, "passed": resid < tol}


def p_entry(i: int, j: int):
    """Convenience observable a = p_ij for the local check."""
    return lambda p: p[i - 1, j - 1]


def classical_rep_check(tol: float = 1e-12) -> dict:
    """Serre-presentation relations for the classical generator matrices,
    plus their match with the q-deformed fundamental representation."""
    h = {1: SIGMA_H1, 2: SIGMA_H2}
    e = {1: SIGMA_E1, 2: SIGMA_E2}
    f = {1: SIGMA_F1, 2: SIGMA_F2}

    def comm(a, b):
        return a @ b - b @ a

    checks = []
    for k in (1, 2):
        checks.append((f"[H{k},E{k}] = 2E{k}", comm(h[k], e[k]) - 2 * e[k]))
        checks.append((f"[H{k},F{k}] = -2F{k}", comm(h[k], f[k]) + 2 * f[k]))
        checks.append((f"[E{k},F{k}] = H{k}", comm(e[k], f[k]) - h[k]))
    checks.append(("[H1,H2] = 0", comm(h[1], h[2])))
    for k, j in ((1, 2), (2, 1)):
        checks.append((f"[E{k},F{j}] = 0", comm(e[k], f[j])))
        checks.append((f"[H{k},E{j}] = -E{j}", comm(h[k], e[j]) + e[j]))
        checks.append((f"[H{k},F{j}] = F{j}", comm(h[k], f[j]) - f[j]))
        checks.append((f"(adE{k})^2 E{j} = 0", comm(e[k], comm(e[k], e[j]))))
        checks.append((f"(adF{k})^2 F{j} = 0", comm(f[k], comm(f[k], f[j]))))

    report = []
    worst = 0.0
    for name, resid in checks:
        r = float(np.abs(resid).max())
        worst = max(worst, r)
        report.append({"relation": name, "residual": r, "passed": r < tol})

    # q-side fundamental matrices against the classical limit: the ladder
    # matrices agree exactly, the K's are q^(H/2) entrywise
    limit = {}
    for q in (0.9, 0.999):
        p = QParam(q)
        perm = [1, 2, 0]  # paper basis order of V(0,1)
        r = 0.0
        for gen, sig in (("E1", SIGMA_E1), ("E2", SIGMA_E2)):
            m = irreps.generator_matrix((0, 1), gen, p)[np.ix_(perm, perm)]
            r = max(r, float(np.abs(m - sig).max()))
        for gen, hmat in (("K1", SIGMA_H1), ("K2", SIGMA_H2)):
            m = irreps.generator_matrix((0, 1), gen, p)[np.ix_(perm, perm)]
            r = max(r, float(np.abs(m - np.diag(q ** (np.diag(hmat) / 2.0))).max()))
        limit[q] = r
    worst_limit = max(limit.values())

    return {"relations": report, "max_residual": worst,
            "fundamental_match": limit,
            "passed": worst < tol and worst_limit < 1e-12}


def run_sample_battery(samples: int = 100, seed: int = 1, tol: float = 1e-10) -> dict:
    """Transition/determinant/orthogonality battery over random samples;
    reports the max residual per identity family."""
    keys = ("transition", "determinant", "row_orthogonality",
            "transition_inverse", "projector")
    worst = {k: 0.0 for k in keys}
    for i in range(samples):
        g = sample_su3(seed + i)
        ok = check_group_sample(g)
        if not ok["passed"]:
            return {"passed": False, "bad_sample": i, "detail": ok}
        rep = transition_check(g, tol=tol)
        for k in keys:
            worst[k] = max(worst[k], rep[k])
    return {"samples": samples, "seed": seed, "residuals": worst,
            "max_residual": max(worst.values()),
            "passed": max(worst.values()) < tol}
