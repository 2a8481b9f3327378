import random
from math import sqrt

import numpy as np
import pytest

from cp2q import dirac as dr, dolbeault as db, irreps, peterweyl as pw
from cp2q.qarith import qint, qparam_float

P5 = qparam_float(0.5)


def cfg(nmax=2, q=0.5, s=None):
    return dr.DiracConfig(p=qparam_float(q), nmax=nmax, s=s)


def restrict(f, *parts):
    return {k: c for k, c in f.items() if db.part(k) in parts}


def test_kernel_is_constants():
    const = pw.pw_vector(0, 0, (0, 0, 0), (0, 0, 0))
    assert db.form_norm(dr.dirac_apply(const, cfg())) == 0.0


def test_square_on_diag1_block():
    c = cfg()
    v = db.block_slots("diag", 1, (0, 0, 0))[0]
    img = dr.dirac_apply(dr.dirac_apply(v, c), c)
    # alpha_1/[2] = 2 [1][3]/[2] = 2*5.25/2.5
    assert db.inner_product(v, img) == pytest.approx(4.2, abs=1e-10)
    diff = dict(img)
    pw.add_into(diff, v, -4.2)
    assert db.form_norm(diff) < 1e-10


def test_operator_is_symmetric():
    rng = random.Random(6)
    c = cfg()
    for _ in range(6):
        f, g = db.random_form(2, rng), db.random_form(2, rng)
        lhs = db.inner_product(dr.dirac_apply(f, c), g)
        rhs = db.inner_product(f, dr.dirac_apply(g, c))
        assert abs(lhs - rhs) < 1e-11 * max(db.form_norm(f) * db.form_norm(g), 1.0)


def test_operator_is_odd_for_grading():
    # grading +1 on degrees 0 and 2, -1 on degree 1: the image of an even
    # vector is odd and vice versa
    rng = random.Random(8)
    c = cfg()
    f = db.random_form(2, rng)
    even = restrict(f, "0", "2")
    img = dr.dirac_apply(even, c)
    assert not restrict(img, "0") and not restrict(img, "2")
    odd = restrict(f, "+", "-")
    img = dr.dirac_apply(odd, c)
    assert not restrict(img, "+") and not restrict(img, "-")


def test_laplacian_identity():
    rep = dr.verify_laplacian_identity(cfg())
    assert rep["passed"], rep
    off0 = [e for e in rep["per_block"] if e["family"] == "offdiag" and e["n"] == 0][0]
    assert off0["expect"] == pytest.approx(13.125, abs=1e-12)  # [2][3] at q = 1/2
    diag0 = [e for e in rep["per_block"] if e["family"] == "diag" and e["n"] == 0][0]
    assert diag0["expect"] == pytest.approx(0.0, abs=1e-14)


def test_laplacian_identity_q09_diag2():
    rep = dr.verify_laplacian_identity(cfg(q=0.9))
    assert rep["passed"]
    d2 = [e for e in rep["per_block"] if e["family"] == "diag" and e["n"] == 2][0]
    p = qparam_float(0.9)
    assert d2["expect"] == pytest.approx((2 * qint(3, p) ** 2 - 2) / qint(2, p), rel=1e-12)


def test_laplacian_fails_for_s_one():
    rep = dr.verify_laplacian_identity(cfg(s=1.0))
    assert not rep["passed"]
    assert rep["block_residual"] > 1e-3


def test_spectrum_values_and_multiplicities():
    table = dr.spectrum(cfg(nmax=3))
    rows = {(r.family, r.n, r.eigenvalue > 0): r for r in table.rows if r.family != "zero"}
    a1 = rows[("alpha", 1, True)]
    assert a1.eigenvalue == pytest.approx(2.049390153191920, rel=1e-12)
    assert a1.multiplicity == 8
    b0 = rows[("beta", 0, True)]
    assert b0.eigenvalue == pytest.approx(sqrt(13.125), rel=1e-12)
    assert b0.multiplicity == 10
    zero = [r for r in table.rows if r.family == "zero"]
    assert len(zero) == 1 and zero[0].multiplicity == 1
    chk = dr.verify_spectrum_closed_form(table, P5)
    assert chk["passed"], chk


def test_spectral_symmetry():
    table = dr.spectrum(cfg(nmax=3))
    counts = {}
    for r in table.rows:
        counts[round(r.eigenvalue, 10)] = counts.get(round(r.eigenvalue, 10), 0) + r.multiplicity
    for lam, mult in counts.items():
        if lam != 0.0:
            assert counts[-lam] == mult


def test_total_multiplicity_matches_space_dimension():
    nmax = 3
    table = dr.spectrum(cfg(nmax=nmax))
    dim0 = sum((n + 1) ** 3 for n in range(nmax + 1))
    dim1 = sum((n + 1) ** 3 for n in range(1, nmax + 1)) + \
        sum(irreps.dim((m, m + 3)) for m in range(nmax + 1))
    dim2 = sum(irreps.dim((m, m + 3)) for m in range(nmax + 1))
    assert table.total_multiplicity() == dim0 + dim1 + dim2


def test_multiplicity_integer_identities():
    for n in range(1, 9):
        assert irreps.dim((n, n)) == (n + 1) ** 3
    for m in range(9):
        assert irreps.dim((m, m + 3)) == (m + 1) * (m + 4) * (2 * m + 5) // 2
    # the off-diagonal multiplicities in terms of the shell index n = m+1
    for n in range(1, 9):
        assert dr.family_multiplicity("beta", n - 1) == n * (n + 3) * (2 * n + 3) // 2


def test_dense_oracle_agrees_with_blocks():
    c = cfg(nmax=2)
    dense = dr.dense_spectrum(c)
    blocks = dr.spectrum_as_sorted_list(dr.spectrum(c))
    assert len(dense) == len(blocks)
    scale = max(np.abs(dense).max(), 1.0)
    assert np.abs(dense - blocks).max() < 1e-9 * scale


def test_spectrum_equals_eigvalsh_of_each_block():
    # the spectrum reads +-|b10| off each checked block; numpy's eigensolver
    # on the same block is the independent oracle, bit for bit, on the whole
    # 0.01 grid of the spectrum commands' q range
    for q in (i / 100 for i in range(30, 96)):
        c = cfg(nmax=8, q=q)
        got = {(r.family, r.n): r.eigenvalue for r in dr.spectrum(c).rows if r.eigenvalue > 0}
        assert len(got) == 17
        for family, n, *_ in db.families(c.nmax):
            if (family, n) != ("diag", 0):
                expect = float(np.abs(np.linalg.eigvalsh(np.array(dr._family_block(family, n, c)))).max())
                assert got["alpha" if family == "diag" else "beta", n].hex() == expect.hex(), (q, family, n)


@pytest.mark.parametrize("nmax, s", [(2, None), (1, 1.3)])
def test_dense_spectrum_matches_the_dict_path_assembly(nmax, s):
    # the slot-by-slot assembly of dirac_apply it replaced is the reference
    c = cfg(nmax=nmax, s=s)
    mat = db.slot_matrix(lambda v: dr.dirac_apply(v, c), db.form_basis(nmax))
    expect = np.linalg.eigvalsh(mat)
    assert np.abs(dr.dense_spectrum(c) - expect).max() < 1e-12 * max(np.abs(expect).max(), 1.0)


def test_spectrum_memoizes_only_rows_near_the_black_singlet():
    # the spectrum reaches black triples at most one step beyond (1,0,+-1)
    # and (0,1,+-1); a full-irrep row build would memoize j1 + j2 up to 2 nmax + 3
    pw._ROW_MEMO.clear()
    dr.spectrum(cfg(nmax=3))
    assert pw._ROW_MEMO
    assert max(j1 + j2 for _, _, (j1, j2, _), _ in pw._ROW_MEMO) <= 2


def test_casimir_black_action_equals_square():
    rep = dr.verify_laplacian_identity(cfg(nmax=2), trials=4)
    assert rep["vector_residual"] < 1e-10


@pytest.mark.parametrize("q", [0.4, 0.5])
def test_cohomology(q):
    rep = dr.cohomology(cfg(nmax=2, q=q))
    assert rep["harmonic_dimensions"] == (1, 0, 0)
    assert rep["bookkeeping_exact"]
    assert rep["passed"]


def test_hodge_projectors_resolve_identity():
    c = cfg(nmax=1)
    for degree in (0, 1, 2):
        assert dr.verify_hodge_projectors(c, degree) < 1e-10


def test_hodge_projectors_fail_without_the_adjoint(monkeypatch, fresh_operators):
    # with dbar_dag zero, degree 0 keeps only the constants and degree 1
    # counts the exact doublets twice (harmonic and exact)
    monkeypatch.setattr(db, "_DBAR_DAG", {})
    c = cfg(nmax=2)
    for degree in (0, 1):
        assert dr.verify_hodge_projectors(c, degree) >= 0.5


def test_cohomology_bookkeeping_counts_black_block_ranks(monkeypatch):
    # an extra entry in one dbar block leaves every block column nonzero, so
    # the harmonic dimensions hold, but raises that block's rank to 2
    block = db.black_block

    def corrupted(name, family, n, p):
        b = block(name, family, n, p)
        if (name, family, n) == ("dbar", "diag", 1):
            b[0][1] = 1.0
        return b

    monkeypatch.setattr(db, "black_block", corrupted)
    rep = dr.cohomology(cfg(nmax=2))
    assert rep["harmonic_dimensions"] == (1, 0, 0)
    assert rep["ranks"]["deg1"]["exact"] == dr.family_multiplicity("diag", 1) * 2 + dr.family_multiplicity("diag", 2)
    assert not rep["bookkeeping_exact"] and not rep["passed"]


def test_summability_probe():
    probe = dr.summability_probe(cfg(nmax=8), [0.1, 4.0])
    for shell in probe["shells"]:
        assert shell["factors_decrease_geometrically"]
        # the ratio approaches q^eps from below: geometric decay signature
        ratios = shell["factor_ratios"]
        assert max(ratios) < 1.0
        if shell["eps"] == 0.1:
            assert ratios[-1] == pytest.approx(0.5**0.1, abs=5e-3)
    # trace increments are reported alongside (with multiplicity); at large
    # eps they decrease outright
    big = [s for s in probe["shells"] if s["eps"] == 4.0][0]
    incs = [r["trace_increment"] for r in big["rows"]]
    assert all(a > b for a, b in zip(incs, incs[1:]))


@pytest.mark.parametrize("eps", [80.0, 100.0, 300.0])
def test_summability_probe_refuses_a_subnormal_factor(eps):
    # at q 0.3 a shell's factor is subnormal from eps about 75.2 and 0.0 from
    # about 90.6, where the next decay ratio would divide by it: the probe
    # refuses it before any ratio is formed over it
    with pytest.raises(FloatingPointError, match="0.0 or subnormal"):
        dr.summability_probe(cfg(nmax=8, q=0.3), [0.1, eps])


def test_summability_slower_at_larger_q():
    p3 = dr.summability_probe(cfg(nmax=6, q=0.5), [0.1])
    p9 = dr.summability_probe(cfg(nmax=6, q=0.9), [0.1])
    r5 = p3["shells"][0]["factor_ratios"][-1]
    r9 = p9["shells"][0]["factor_ratios"][-1]
    assert r5 < r9 < 1.0  # closer to 1: slower convergence


def test_classical_limit_scan():
    scan = dr.classical_limit_scan(3, [0.9, 0.99, 0.999])
    assert scan["all_monotone"]
    rows = {(r["family"], r["n"]): r for r in scan["rows"]}
    assert rows[("diag", 1)]["abs_errors"][-1] < 1e-3          # sqrt(3)
    assert rows[("offdiag", 0)]["abs_errors"][-1] < 1e-2       # sqrt(6)
    assert rows[("diag", 1)]["classical"] == pytest.approx(sqrt(3.0))
    assert rows[("offdiag", 0)]["classical"] == pytest.approx(sqrt(6.0))


def test_multiplicities_q_independent():
    t3 = dr.spectrum(cfg(nmax=2, q=0.3))
    t9 = dr.spectrum(cfg(nmax=2, q=0.9))
    assert [(r.family, r.n, r.multiplicity) for r in t3.rows] == \
        [(r.family, r.n, r.multiplicity) for r in t9.rows]


@pytest.mark.parametrize("call, args", [
    (dr.closed_form_eigenvalue, ("zero", 0, P5)),
    (dr.family_multiplicity, ("zero", 0)),
    (db.block_degrees, ("foo", 1)),
    (db.family_label, ("foo", 1)),
    (db.block_slots, ("foo", 1)),
], ids=["closed_form_eigenvalue-zero", "family_multiplicity-zero", "block_degrees-foo",
        "family_label-foo", "block_slots-foo"])
def test_a_name_that_is_no_family_is_refused(call, args):
    # "zero" names the spectrum's zero row, which is no block family: its
    # multiplicity is 1, not a V(0,3) block's 10
    with pytest.raises(ValueError, match=f"unknown family {args[0]!r}"):
        call(*args)


@pytest.mark.parametrize("key, row", [("diag", "alpha"), ("offdiag", "beta")])
def test_a_family_reads_the_same_under_its_key_and_its_row_name(key, row):
    for q in (0.3, 0.5, 0.95):
        p = qparam_float(q)
        for n in range(9):
            assert dr.closed_form_eigenvalue(key, n, p).hex() == dr.closed_form_eigenvalue(row, n, p).hex()
            assert dr.family_multiplicity(key, n) == dr.family_multiplicity(row, n)


def test_config_validation():
    with pytest.raises(ValueError):
        dr.DiracConfig(p=P5, nmax=-1)
    with pytest.raises(ValueError):
        dr.DiracConfig(p=P5, s=-0.5)


def fake_junk(monkeypatch, junk):
    """Make the raising differential report an off-space residual."""
    raw = db.dbar_raw
    monkeypatch.setattr(db, "dbar_raw", lambda f, p: (raw(f, p)[0], junk))


def test_dirac_apply_checks_membership(monkeypatch):
    v = db.block_slots("diag", 1, (0, 0, 0))[0]
    fake_junk(monkeypatch, 1e-6)
    with pytest.raises(db.MembershipError):
        dr.dirac_apply(v, cfg())


def test_dirac_apply_checks_at_the_differentials_tolerance(monkeypatch):
    # the membership tolerance is the differentials' own 1e-9, not cfg.tol
    v = db.block_slots("diag", 1, (0, 0, 0))[0]
    expect = dr.dirac_apply(v, cfg())
    fake_junk(monkeypatch, 5e-10)
    assert cfg().tol < 5e-10
    assert dr.dirac_apply(v, cfg()) == expect


def test_summability_probe_without_ratios_is_not_geometric():
    probe = dr.summability_probe(cfg(nmax=1), [0.1])
    assert probe["shells"][0]["factor_ratios"] == []
    assert not probe["shells"][0]["factors_decrease_geometrically"]
