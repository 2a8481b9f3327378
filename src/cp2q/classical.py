"""Numerical verification of the commutative (q = 1) picture.

Random special-unitary 3x3 samples drive identity checks for the chart
geometry of the projective plane: the two-by-two comparison matrices
P^(j), their transition functions, determinant formula, and the local
form of the antiholomorphic differential as finite-difference derivatives
in chart coordinates.  Everything is numeric-at-samples; seeds make runs
reproducible.  The sample battery works on stacks: group samples are
(..., 3, 3) arrays, and the chart functions broadcast over the leading
axes, a single sample being the unstacked case.
"""

from __future__ import annotations

import random
from itertools import permutations

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

# samples per stacked block of the battery: its memory stays the same
# whatever the sample count
SAMPLE_BLOCK = 512
BATTERY_FAMILIES = ("transition", "determinant", "row_orthogonality",
                    "transition_inverse", "projector")


def _gaussian(seed: int) -> np.ndarray:
    """A complex Gaussian 3x3 matrix from the standard library's stream of
    the seed: nine real parts, then nine imaginary parts, row-major."""
    rng = random.Random(seed)
    draws = np.array([rng.gauss(0.0, 1.0) for _ in range(18)]).reshape(2, 3, 3)
    return draws[0] + 1j * draws[1]


def sample_stack(seed: int, n: int) -> np.ndarray:
    """The samples sample_su3(seed), ..., sample_su3(seed + n - 1) as one
    (n, 3, 3) stack: per-seed draws, then one batched QR, phase fix and
    determinant."""
    qmat, r = np.linalg.qr(np.array([_gaussian(s) for s in range(seed, seed + n)]))
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    qmat = qmat * (ph / np.abs(ph))[:, None, :]
    det = np.linalg.det(qmat)
    out = qmat / (det ** (1.0 / 3.0))[:, None, None]
    if seed == 0:
        out[0] = np.eye(3)
    return out


def sample_su3(seed: int) -> np.ndarray:
    """Haar-ish special unitary sample: QR of a complex Gaussian matrix with
    phase-fixed diagonal, then the determinant phase spread over a cube
    root.  Deterministic per seed; seed 0 returns the identity."""
    return sample_stack(seed, 1)[0]


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _entry_max(a: np.ndarray) -> np.ndarray:
    return np.abs(a).max(axis=(-2, -1))


def check_group_sample(g: np.ndarray, tol: float = 1e-12) -> dict:
    uni = _entry_max(g @ _adjoint(g) - np.eye(3))
    det = np.abs(np.linalg.det(g) - 1.0)
    return {"unitarity": uni, "det": det, "passed": (uni < tol) & (det < tol)}


def _z_of(g: np.ndarray) -> np.ndarray:
    # sphere coordinates are the last row of the group matrix
    return g[..., 2, :]


def projector_of(z: np.ndarray) -> np.ndarray:
    return np.conj(z)[..., :, None] * z[..., None, :]


_CHART_COLS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}  # k < l with {j,k,l} = {1,2,3}
_ROW_SIGNS = np.array([[1.0], [-1.0]])


def comparison_matrix(g: np.ndarray, chart: int) -> np.ndarray:
    """P^(j) = conj(z_j) [[u^1_k, u^1_l], [-u^2_k, -u^2_l]]."""
    k, l = _CHART_COLS[chart]
    rows = g[..., :2, [k - 1, l - 1]] * _ROW_SIGNS
    return np.conj(_z_of(g)[..., chart - 1])[..., None, None] * rows


def _matrix2(a, b, c, d) -> np.ndarray:
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def transition_matrix(z: np.ndarray, j: int, k: int) -> np.ndarray:
    """Chart transition g_jk on the overlap, from the explicit formulas."""
    zb = np.conj(z)
    z1, z2, z3 = zb[..., 0], zb[..., 1], zb[..., 2]
    zero = np.zeros_like(z1)
    if (j, k) == (1, 2):
        return (z2 / z1 ** 2)[..., None, None] * _matrix2(-z2, zero, -z3, z1)
    if (j, k) == (2, 3):
        return (z3 / z2 ** 2)[..., None, None] * _matrix2(z2, -z1, zero, -z3)
    if (j, k) == (3, 1):
        return (z1 / z3 ** 2)[..., None, None] * _matrix2(zero, -z1, z3, -z2)
    return np.linalg.inv(transition_matrix(z, k, j))


def active_charts(z: np.ndarray, threshold: float = 0.1) -> list[int]:
    return [j for j in (1, 2, 3) if abs(z[j - 1]) > threshold]


def transition_check(g: np.ndarray, tol: float = 1e-10, threshold: float = 0.1) -> dict:
    """The three Appendix-style identity families at each sample of a
    stack: transition compatibility of the P^(j), their determinants, row
    orthogonality, inverse consistency of the transitions, and the
    projector properties.  A chart is active where |z_j| > threshold; a
    family's residual at a sample is its maximum over the active charts."""
    z = _z_of(g)
    active = np.abs(z) > threshold
    pmat = {j: comparison_matrix(g, j) for j in (1, 2, 3)}
    overlap, trans = {}, {}
    for j, k in permutations((1, 2, 3), 2):
        overlap[j, k] = active[..., j - 1] & active[..., k - 1]
        # an inactive overlap gets the point (1, 1, 1), where every transition
        # is invertible, so no division or inverse can fail; it is masked out
        trans[j, k] = transition_matrix(np.where(overlap[j, k][..., None], z, 1.0), j, k)

    def masked(mask, resid):
        return np.where(mask, resid, 0.0)

    res = {"transition": [masked(overlap[j, k], _entry_max(pmat[j] @ trans[j, k] - pmat[k]))
                          for j, k in trans]}
    res["determinant"] = [
        masked(active[..., j - 1],
               np.abs(np.linalg.det(pmat[j]) - (-1.0) ** j * np.conj(z[..., j - 1]) ** 3))
        for j in (1, 2, 3)]
    # rows 1 and 2 against the conjugated third row
    res["row_orthogonality"] = [
        np.abs(np.sum(np.conj(z)[..., None, :] * g[..., :2, :], axis=-1)).max(axis=-1)]
    res["transition_inverse"] = [
        masked(overlap[j, k], _entry_max(trans[j, k] @ trans[k, j] - np.eye(2)))
        for j, k in trans if j < k]
    p = projector_of(z)
    res["projector"] = [_entry_max(p @ p - p), _entry_max(p - _adjoint(p)),
                        np.abs(np.trace(p, axis1=-2, axis2=-1) - 1.0)]
    res = {name: np.max(rs, axis=0) for name, rs in res.items()}
    res["max_residual"] = np.max(list(res.values()), axis=0)
    res["passed"] = res["max_residual"] < tol
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


def expm_antihermitian(a: np.ndarray) -> np.ndarray:
    """exp(a) for antihermitian a, from the Hermitian eigendecomposition
    -i a = v diag(w) v^H as v diag(exp(i w)) v^H: unitary up to rounding,
    with no scaling and squaring."""
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)) @ _adjoint(v)


def _antihermitian_parts(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # h = a + i b with a and b antihermitian
    return (h - h.conj().T) / 2.0, (h + h.conj().T) / 2.0j


def black_flows() -> tuple:
    """The black flows theta([E1,E2]) = [F2,F1] and theta(E2) = F2 in the
    defining matrices, each split into the antihermitian pair that
    generates group curves.  Built per call: a matrix product at import
    would start the BLAS library in every command."""
    return (_antihermitian_parts(SIGMA_F2 @ SIGMA_F1 - SIGMA_F1 @ SIGMA_F2),
            _antihermitian_parts(SIGMA_F2))


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
    z = _z_of(g)
    if abs(z[chart - 1]) <= 0.1:
        raise ValueError(f"chart {chart} inactive at this sample")
    if not (1e-8 < h_step < 1e-2):
        raise ValueError(f"step {h_step} outside the trustworthy central-difference range")

    def func_of_group(gg: np.ndarray) -> complex:
        return a(projector_of(gg[2, :]))

    def real_derivative(sigma: np.ndarray) -> complex:
        # sigma antihermitian: the curve stays on the group
        gp = expm_antihermitian(h_step * sigma) @ g
        gm = expm_antihermitian(-h_step * sigma) @ g
        return (func_of_group(gp) - func_of_group(gm)) / (2.0 * h_step)

    vplus, vminus = (real_derivative(amat) + 1j * real_derivative(bmat)
                     for amat, bmat in black_flows())
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
    """Transition/determinant/orthogonality battery over random samples,
    checked in stacked blocks of SAMPLE_BLOCK; reports the max residual per
    identity family.  A sample that is not special unitary stops the
    battery and is reported by its seed as bad_sample."""
    worst = dict.fromkeys(BATTERY_FAMILIES, 0.0)
    for start in range(0, samples, SAMPLE_BLOCK):
        g = sample_stack(seed + start, min(SAMPLE_BLOCK, samples - start))
        ok = check_group_sample(g)
        if not ok["passed"].all():
            i = int(np.argmin(ok["passed"]))
            return {"samples": samples, "seed": seed, "passed": False,
                    "bad_sample": seed + start + i,
                    "detail": {"unitarity": float(ok["unitarity"][i]),
                               "det": float(ok["det"][i])}}
        rep = transition_check(g, tol=tol)
        for k in BATTERY_FAMILIES:
            worst[k] = max(worst[k], float(rep[k].max()))
    return {"samples": samples, "seed": seed, "residuals": worst,
            "max_residual": max(worst.values()),
            "passed": max(worst.values()) < tol}
