import random

import numpy as np
import pytest

from cp2q import classical as cl
from cp2q import irreps
from cp2q.qarith import qparam_float


def test_samples_are_special_unitary():
    for seed in (0, 1, 17):
        rep = cl.check_group_sample(cl.sample_su3(seed))
        assert rep["passed"], (seed, rep)


def test_sampling_deterministic():
    assert np.array_equal(cl.sample_su3(5), cl.sample_su3(5))


def test_identity_sample_chart3():
    g = cl.sample_su3(0)
    z = g[2, :]
    assert cl.active_charts(z) == [3]
    assert np.linalg.det(cl.comparison_matrix(g, 3)) == pytest.approx(-1.0)


def test_transition_identities_random_sample():
    rep = cl.transition_check(cl.sample_su3(7), tol=1e-10)
    assert rep["passed"], rep


def test_row_orthogonality_is_unitarity():
    g = cl.sample_su3(3)
    z = g[2, :]
    for j in (1, 2):
        assert abs(np.sum(z.conj() * g[j - 1, :])) < 1e-13


def test_sample_battery():
    rep = cl.run_sample_battery(samples=30, seed=2, tol=1e-10)
    assert rep["passed"], rep


# -- per-sample reference for the stacked battery ------------------------------
# The loop the battery ran before it worked on stacks, one sample and one
# chart pair at a time, kept here as its independent oracle.

def _ref_sample(seed):
    if seed == 0:
        return np.eye(3, dtype=complex)
    rng = random.Random(seed)
    re = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)]
    im = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)]
    gin = np.array(re) + 1j * np.array(im)
    qmat, r = np.linalg.qr(gin)
    ph = np.diag(r).copy()
    qmat = qmat @ np.diag(ph / np.abs(ph))
    det = np.linalg.det(qmat)
    return qmat / det ** (1.0 / 3.0)


_REF_COLS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def _ref_comparison(g, chart):
    z = g[2, :]
    k, l = _REF_COLS[chart]
    top = [g[0, k - 1], g[0, l - 1]]
    bot = [-g[1, k - 1], -g[1, l - 1]]
    return z[chart - 1].conjugate() * np.array([top, bot])


def _ref_transition(z, j, k):
    zb = z.conj()
    if (j, k) == (1, 2):
        return (zb[1] / zb[0] ** 2) * np.array([[-zb[1], 0.0], [-zb[2], zb[0]]])
    if (j, k) == (2, 3):
        return (zb[2] / zb[1] ** 2) * np.array([[zb[1], -zb[0]], [0.0, -zb[2]]])
    if (j, k) == (3, 1):
        return (zb[0] / zb[2] ** 2) * np.array([[0.0, -zb[0]], [zb[2], -zb[1]]])
    return np.linalg.inv(_ref_transition(z, k, j))


def _ref_transition_check(g):
    z = g[2, :]
    charts = [j for j in (1, 2, 3) if abs(z[j - 1]) > 0.1]
    res = dict.fromkeys(cl.BATTERY_FAMILIES, 0.0)
    for j in charts:
        for k in charts:
            if j != k:
                lhs = _ref_comparison(g, j) @ _ref_transition(z, j, k)
                res["transition"] = max(res["transition"],
                                        float(np.abs(lhs - _ref_comparison(g, k)).max()))
            if j < k:
                prod = _ref_transition(z, j, k) @ _ref_transition(z, k, j)
                res["transition_inverse"] = max(res["transition_inverse"],
                                                float(np.abs(prod - np.eye(2)).max()))
        det = np.linalg.det(_ref_comparison(g, j))
        res["determinant"] = max(res["determinant"],
                                 abs(det - (-1.0) ** j * z[j - 1].conjugate() ** 3))
    for j in (1, 2):
        res["row_orthogonality"] = max(res["row_orthogonality"],
                                       abs(np.sum(z.conj() * g[j - 1, :])))
    p = np.outer(z.conj(), z)
    res["projector"] = max(float(np.abs(p @ p - p).max()),
                           float(np.abs(p - p.conj().T).max()), abs(np.trace(p) - 1.0))
    return res


@pytest.mark.parametrize("samples,seed", [(1000, 716), (100, 1), (30, 2), (5, 0)])
def test_stacked_battery_matches_the_per_sample_loop(samples, seed):
    stack = cl.sample_stack(seed, samples)
    worst = dict.fromkeys(cl.BATTERY_FAMILIES, 0.0)
    for i in range(samples):
        g = _ref_sample(seed + i)
        assert np.array_equal(stack[i], g), seed + i
        for name, r in _ref_transition_check(g).items():
            worst[name] = max(worst[name], r)
    rep = cl.run_sample_battery(samples, seed)
    assert rep["passed"] and set(rep["residuals"]) == set(worst)
    for name, r in worst.items():
        assert abs(rep["residuals"][name] - r) <= 1e-15, (name, rep["residuals"][name], r)


def test_battery_in_blocks_equals_one_stack(monkeypatch):
    whole = cl.run_sample_battery(samples=100, seed=3)
    assert cl.SAMPLE_BLOCK >= 100
    monkeypatch.setattr(cl, "SAMPLE_BLOCK", 7)
    assert cl.run_sample_battery(samples=100, seed=3) == whole


@pytest.mark.parametrize("h", [1e-5, -1e-5, 1e-3, -1e-3])
def test_eigh_exponential_matches_scipy_expm(h):
    linalg = pytest.importorskip("scipy.linalg")
    flows = [a for pair in cl.black_flows() for a in pair]
    assert len(flows) == 4
    for a in flows:
        assert np.abs(a + a.conj().T).max() == 0.0  # antihermitian
        u = cl.expm_antihermitian(h * a)
        assert np.abs(u - linalg.expm(h * a)).max() <= 2e-15
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 2e-15


def test_projector_properties_at_samples():
    for seed in (1, 9):
        p = cl.projector_of(cl.sample_su3(seed)[2, :])
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_comparison_matrix_invertible_on_active_charts():
    for seed in (3, 4, 5):
        g = cl.sample_su3(seed)
        z = g[2, :]
        for j in cl.active_charts(z):
            det = np.linalg.det(cl.comparison_matrix(g, j))
            assert abs(det - (-1.0) ** j * z[j - 1].conjugate() ** 3) < 1e-12
            assert abs(det) > 1e-4


@pytest.mark.parametrize("obs,name", [((1, 1), "p11"), ((1, 2), "p12")])
def test_dbar_local_identity(obs, name):
    for seed in (3, 8):
        g = cl.sample_su3(seed)
        for chart in cl.active_charts(g[2, :]):
            rep = cl.dbar_local_check(cl.p_entry(*obs), g, chart, h_step=1e-5, tol=1e-6)
            assert rep["passed"], (name, seed, chart, rep["residual"])


def test_dbar_local_constant_function():
    g = cl.sample_su3(3)
    chart = cl.active_charts(g[2, :])[0]
    rep = cl.dbar_local_check(lambda p: 1.0 + 0.0j, g, chart)
    assert rep["residual"] == 0.0


def test_dbar_local_step_diagnostics():
    g = cl.sample_su3(3)
    with pytest.raises(ValueError):
        cl.dbar_local_check(cl.p_entry(1, 1), g, 1, h_step=0.5)
    with pytest.raises(ValueError):
        cl.dbar_local_check(cl.p_entry(1, 1), g, 1, h_step=1e-12)


def test_inactive_chart_rejected():
    g = cl.sample_su3(0)  # z = (0,0,1): charts 1 and 2 inactive
    with pytest.raises(ValueError):
        cl.dbar_local_check(cl.p_entry(1, 1), g, 1)


def test_classical_rep_relations():
    rep = cl.classical_rep_check()
    assert rep["passed"], rep
    assert rep["max_residual"] == 0.0


def test_commutator_ef_gives_cartan():
    assert np.array_equal(cl.SIGMA_E1 @ cl.SIGMA_F1 - cl.SIGMA_F1 @ cl.SIGMA_E1, cl.SIGMA_H1)
    assert np.array_equal(cl.SIGMA_E2 @ cl.SIGMA_F2 - cl.SIGMA_F2 @ cl.SIGMA_E2, cl.SIGMA_H2)


def test_q_fundamental_approaches_classical():
    p = qparam_float(0.999)
    perm = [1, 2, 0]
    e1 = irreps.generator_matrix((0, 1), "E1", p)[np.ix_(perm, perm)]
    assert np.abs(e1 - cl.SIGMA_E1).max() < 1e-3
    k1 = irreps.generator_matrix((0, 1), "K1", p)[np.ix_(perm, perm)]
    assert np.abs(k1 - np.eye(3)).max() < 1e-3 + 0.001  # q^(+-1/2) near 1
