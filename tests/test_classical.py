import inspect
import random
import types
from itertools import permutations

import dense
import numpy as np
import pytest

from cp2q import classical as cl
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


# -- the numpy battery, kept as the oracle of the plain one ---------------------
# The classical checks as they ran on numpy stacks: a batched LAPACK QR with
# a phase-fixed diagonal, the five identity families over (n, 3, 3) stacks
# with inactive charts masked, and exp of an antihermitian matrix from
# numpy's eigh.

SIGMA_H1 = np.diag([-1.0, 1.0, 0.0])
SIGMA_H2 = np.diag([0.0, -1.0, 1.0])
SIGMA_E1 = np.zeros((3, 3)); SIGMA_E1[1, 0] = 1.0
SIGMA_E2 = np.zeros((3, 3)); SIGMA_E2[2, 1] = 1.0
SIGMA_F1 = SIGMA_E1.T.copy()
SIGMA_F2 = SIGMA_E2.T.copy()


def _gaussian(seed):
    rng = random.Random(seed)
    draws = np.array([rng.gauss(0.0, 1.0) for _ in range(18)]).reshape(2, 3, 3)
    return draws[0] + 1j * draws[1]


def _oracle_stack(seed, n):
    """The samples of seeds seed, ..., seed + n - 1 as one (n, 3, 3) stack."""
    qmat, r = np.linalg.qr(np.array([_gaussian(s) for s in range(seed, seed + n)]))
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    qmat = qmat * (ph / np.abs(ph))[:, None, :]
    det = np.linalg.det(qmat)
    out = qmat / (det ** (1.0 / 3.0))[:, None, None]
    if seed == 0:
        out[0] = np.eye(3)
    return out


def _adjoint(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _entry_max(a):
    return np.abs(a).max(axis=(-2, -1))


_COLS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def _stack_comparison(g, chart):
    k, l = _COLS[chart]
    rows = g[..., :2, [k - 1, l - 1]] * np.array([[1.0], [-1.0]])
    return np.conj(g[..., 2, chart - 1])[..., None, None] * rows


def _matrix2(a, b, c, d):
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def _stack_transition(z, j, k):
    zb = np.conj(z)
    z1, z2, z3 = zb[..., 0], zb[..., 1], zb[..., 2]
    zero = np.zeros_like(z1)
    if (j, k) == (1, 2):
        return (z2 / z1 ** 2)[..., None, None] * _matrix2(-z2, zero, -z3, z1)
    if (j, k) == (2, 3):
        return (z3 / z2 ** 2)[..., None, None] * _matrix2(z2, -z1, zero, -z3)
    if (j, k) == (3, 1):
        return (z1 / z3 ** 2)[..., None, None] * _matrix2(zero, -z1, z3, -z2)
    return np.linalg.inv(_stack_transition(z, k, j))


def _oracle_transition_check(g, threshold=0.1):
    """Each family's residual at each sample of a stack."""
    z = g[..., 2, :]
    active = np.abs(z) > threshold
    pmat = {j: _stack_comparison(g, j) for j in (1, 2, 3)}
    overlap, trans = {}, {}
    for j, k in permutations((1, 2, 3), 2):
        overlap[j, k] = active[..., j - 1] & active[..., k - 1]
        # an inactive overlap gets the point (1, 1, 1), where every transition
        # is invertible; it is masked out
        trans[j, k] = _stack_transition(np.where(overlap[j, k][..., None], z, 1.0), j, k)
    res = {"transition": [np.where(overlap[j, k], _entry_max(pmat[j] @ trans[j, k] - pmat[k]), 0.0)
                          for j, k in trans]}
    res["determinant"] = [
        np.where(active[..., j - 1],
                 np.abs(np.linalg.det(pmat[j]) - (-1.0) ** j * np.conj(z[..., j - 1]) ** 3), 0.0)
        for j in (1, 2, 3)]
    res["row_orthogonality"] = [
        np.abs(np.sum(np.conj(z)[..., None, :] * g[..., :2, :], axis=-1)).max(axis=-1)]
    res["transition_inverse"] = [
        np.where(overlap[j, k], _entry_max(trans[j, k] @ trans[k, j] - np.eye(2)), 0.0)
        for j, k in trans if j < k]
    p = np.conj(z)[..., :, None] * z[..., None, :]
    res["projector"] = [_entry_max(p @ p - p), _entry_max(p - _adjoint(p)),
                        np.abs(np.trace(p, axis1=-2, axis2=-1) - 1.0)]
    return {name: np.max(rs, axis=0) for name, rs in res.items()}


def _oracle_expm(a):
    """exp(a) for antihermitian a, as v diag(exp(i w)) v^H from -i a = v diag(w) v^H."""
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)) @ _adjoint(v)


def _oracle_flows():
    """The antihermitian parts a, b (h = a + i b) of the black flows [F2,F1] and F2."""
    return [a for h in (SIGMA_F2 @ SIGMA_F1 - SIGMA_F1 @ SIGMA_F2, SIGMA_F2)
            for a in ((h - h.conj().T) / 2.0, (h + h.conj().T) / 2.0j)]


# -- per-sample reference for the stacked oracle ---------------------------------
# The loop the battery ran before it worked on stacks, one sample and one
# chart pair at a time, kept as the stacked oracle's own oracle.

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


def _ref_comparison(g, chart):
    z = g[2, :]
    k, l = _COLS[chart]
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
    # the numpy oracle itself: its stack is the per-seed QR bit for bit, and
    # its masked families reach the per-sample loop's maxima
    stack = _oracle_stack(seed, samples)
    worst = dict.fromkeys(cl.BATTERY_FAMILIES, 0.0)
    for i in range(samples):
        g = _ref_sample(seed + i)
        assert np.array_equal(stack[i], g), seed + i
        for name, r in _ref_transition_check(g).items():
            worst[name] = max(worst[name], r)
    rep = _oracle_transition_check(stack)
    assert set(rep) == set(worst)
    for name, r in worst.items():
        assert abs(float(rep[name].max()) - r) <= 1e-15, (name, rep[name].max(), r)


# -- the plain battery against the oracle ---------------------------------------

def test_plain_samples_match_the_oracle_stack():
    # Gram-Schmidt twice and LAPACK's phase-fixed QR define the same Q
    stack = _oracle_stack(0, 2001)
    for seed in range(2001):
        g = cl.sample(seed)
        assert np.abs(np.array(g) - stack[seed]).max() <= 1e-13, seed
        assert cl.active_charts(g[2]) == cl.active_charts(stack[seed][2]), seed
    assert isinstance(cl.sample(5)[2][1], complex)
    assert np.array_equal(cl.sample_su3(5), np.array(cl.sample(5)))


@pytest.mark.parametrize("samples,seed", [(1000, 716), (300, 1), (5, 0)])
def test_family_maxima_and_verdicts_match_the_oracle(samples, seed):
    oracle = _oracle_transition_check(_oracle_stack(seed, samples))
    worst = dict.fromkeys(cl.BATTERY_FAMILIES, 0.0)
    for i in range(samples):
        rep = cl.transition_check(cl.sample(seed + i))
        for name in cl.BATTERY_FAMILIES:
            # both are rounding noise on identities that hold exactly
            assert abs(rep[name] - float(oracle[name][i])) <= 1e-14, (seed + i, name)
            worst[name] = max(worst[name], rep[name])
        assert rep["passed"] == bool(max(oracle[name][i] for name in oracle) < 1e-10)
    battery = cl.run_sample_battery(samples, seed)
    assert battery["residuals"] == worst and battery["passed"] is True
    assert battery["max_residual"] == max(worst.values())


def test_battery_reads_no_inactive_chart():
    # seed 0's charts 1 and 2 are inactive: a transition into them would
    # divide by zero, so nothing of them is evaluated, not even masked
    rep = cl.transition_check(cl.sample(0))
    assert rep["transition"] == rep["transition_inverse"] == 0.0 and rep["passed"]


def test_a_nan_residual_fails_the_check():
    # a nan residual is refused through qarith.relative, as every numeric
    # check's is, so the command exits 2 rather than printing NaN
    g = [list(row) for row in cl.sample(3)]
    g[1][2] = complex("nan")
    for check in (cl.check_group_sample, cl.transition_check):
        with pytest.raises(OverflowError):
            check(g)


@pytest.mark.parametrize("h", [1e-8, 1e-5, 1e-2])
def test_taylor_exponential_matches_the_eigh_oracle_and_scipy(h):
    linalg = pytest.importorskip("scipy.linalg")
    steps = [u for pair in cl.flow_steps(h) for u in pair]
    assert len(steps) == 4
    for (plus, minus), a in zip(steps, _oracle_flows()):
        for sign, u in ((1.0, plus), (-1.0, minus)):
            u = np.array(u)
            assert np.abs(u - _oracle_expm(sign * h * a)).max() <= 1e-15
            assert np.abs(u - linalg.expm(sign * h * a)).max() <= 1e-15
            assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-15


@pytest.mark.parametrize("h", [1e-5, -1e-5, 1e-3, -1e-3])
def test_eigh_exponential_matches_scipy_expm(h):
    # the oracle's own check
    linalg = pytest.importorskip("scipy.linalg")
    flows = _oracle_flows()
    assert len(flows) == 4
    for a in flows:
        assert np.abs(a + a.conj().T).max() == 0.0  # antihermitian
        u = _oracle_expm(h * a)
        assert np.abs(u - linalg.expm(h * a)).max() <= 2e-15
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 2e-15


# -- mutation tests: the checks must see a wrong formula ---------------------------

def _mutant(old, new):
    """cp2q.classical with one source fragment replaced, as a fresh module."""
    src = inspect.getsource(cl)
    assert src.count(old) == 1, old
    mod = types.ModuleType("cp2q.classical_mutant")
    mod.__package__ = "cp2q"
    exec(compile(src.replace(old, new), cl.__file__, "exec"), mod.__dict__)
    return mod


def test_a_flipped_sign_in_a_transition_formula_fails_transition():
    mutant = _mutant("return ((s * -z2, 0.0), (s * -z3, s * z1))",
                     "return ((s * -z2, 0.0), (s * z3, s * z1))")
    rep = mutant.run_sample_battery(100, 1)
    assert cl.run_sample_battery(100, 1)["passed"]
    assert not rep["passed"] and rep["residuals"]["transition"] > 1e-3
    # the inverse is taken of the same wrong matrix, so only the transition
    # family can see it
    assert rep["residuals"]["transition_inverse"] < 1e-10


def test_a_wrong_determinant_sign_fails_determinant():
    mutant = _mutant("(-1.0) ** j * zb[j - 1] ** 3", "(-1.0) ** (j + 1) * zb[j - 1] ** 3")
    rep = mutant.run_sample_battery(100, 1)
    assert not rep["passed"] and rep["residuals"]["determinant"] > 1e-3
    assert rep["residuals"]["transition"] < 1e-10


def test_an_exponential_cut_after_its_linear_term_is_seen():
    # exp(h sigma) ~ I + h sigma has the right tangent, and a = p_ij is
    # quadratic along that straight line, so its central difference is exact
    # there: dbar_local_check cannot tell it from the group curve. The
    # exponential's own comparison with the oracle does, at every step
    mutant = _mutant("EXP_DEGREE = 10", "EXP_DEGREE = 1")
    for h in (1e-5, 9.9e-3):
        flows = _oracle_flows()
        steps = [u for pair in mutant.flow_steps(h) for u in pair]
        worst = max(np.abs(np.array(u) - _oracle_expm(sign * h * a)).max()
                    for (plus, minus), a in zip(steps, flows) for sign, u in ((1.0, plus), (-1.0, minus)))
        assert worst > 0.1 * h * h
    g = cl.sample(3)
    rep = mutant.dbar_local_check(cl.p_entry(1, 1), g, 1, h_step=1e-5)
    assert rep["passed"]


def test_a_backward_group_step_fails_dbar_local_check():
    # the group side walked with exp(-h sigma) at both ends has no derivative
    mutant = _mutant("(expm_series(_scaled(h_step, s)), expm_series(_scaled(-h_step, s)))",
                     "(expm_series(_scaled(-h_step, s)), expm_series(_scaled(-h_step, s)))")
    g = cl.sample(3)
    for chart in cl.active_charts(g[2]):
        assert cl.dbar_local_check(cl.p_entry(1, 2), g, chart, h_step=1e-2 * 0.99)["residual"] < 1e-4
        for h in (1e-5, 1e-2 * 0.99):
            rep = mutant.dbar_local_check(cl.p_entry(1, 2), g, chart, h_step=h)
            assert not rep["passed"] and rep["residual"] > 1e-3, (chart, h, rep["residual"])


def test_projector_properties_at_samples():
    for seed in (1, 9):
        p = np.array(cl.projector_of(cl.sample_su3(seed)[2, :]))
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


def test_dbar_local_check_reads_arrays_and_tuples_alike():
    g = cl.sample(8)
    for chart in cl.active_charts(g[2]):
        assert (cl.dbar_local_check(cl.p_entry(1, 2), g, chart)
                == cl.dbar_local_check(cl.p_entry(1, 2), np.array(g), chart))


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
    s = {name: np.array(m) for name, m in cl.SIGMA.items()}
    for name, oracle in (("E1", SIGMA_E1), ("E2", SIGMA_E2), ("F1", SIGMA_F1), ("F2", SIGMA_F2),
                         ("H1", SIGMA_H1), ("H2", SIGMA_H2)):
        assert np.array_equal(s[name], oracle), name
    assert np.array_equal(s["E1"] @ s["F1"] - s["F1"] @ s["E1"], s["H1"])
    assert np.array_equal(s["E2"] @ s["F2"] - s["F2"] @ s["E2"], s["H2"])


def test_q_fundamental_approaches_classical():
    p = qparam_float(0.999)
    perm = [1, 2, 0]
    e1 = dense.generator_matrix((0, 1), "E1", p)[np.ix_(perm, perm)]
    assert np.abs(e1 - np.array(cl.SIGMA["E1"])).max() < 1e-3
    k1 = dense.generator_matrix((0, 1), "K1", p)[np.ix_(perm, perm)]
    assert np.abs(k1 - np.eye(3)).max() < 1e-3 + 0.001  # q^(+-1/2) near 1

