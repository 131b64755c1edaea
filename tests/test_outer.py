"""Outer bidiagonalization: orthogonalization kernel, projected problem, run loop."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import (
    BasisBreakdown,
    DomainError,
    InnerPolicy,
    build_khat,
    build_operator,
    get_function,
    leading_eigenpair,
    parse_matrix_token,
    rgs,
    run,
)
from matfunsvd.orth import GrowingBasis
from matfunsvd.outer import _representatives

import matfunsvd.densela

import oracles


def op(token):
    return build_operator(parse_matrix_token(token))


EXACT = InnerPolicy(eps_inner=1e-13)


# ---------------------------------------------------------------------------
# rgs / GrowingBasis


def test_rgs_reconstruction_and_order():
    rng = np.random.default_rng(0)
    B = np.linalg.qr(rng.standard_normal((30, 4)))[0]
    z = rng.standard_normal(30)
    q, coeffs = rgs(z, B)
    assert coeffs.shape == (5,)
    npt.assert_allclose(np.linalg.norm(q), 1.0, rtol=1e-13)
    npt.assert_allclose(B.conj().T @ q, 0.0, atol=1e-13)
    npt.assert_allclose(np.column_stack([B, q]) @ coeffs, z, atol=1e-13)


def test_rgs_empty_basis_normalizes():
    z = np.array([3.0, 4.0])
    q, coeffs = rgs(z)
    npt.assert_allclose(q, [0.6, 0.8])
    npt.assert_allclose(coeffs, [5.0])
    with pytest.raises(BasisBreakdown):
        rgs(np.zeros(2))


def test_rgs_breakdown_carries_coefficients():
    B = np.eye(5)[:, :3]
    z = np.array([1.0, -2.0, 0.5, 0.0, 0.0])
    with pytest.raises(BasisBreakdown) as exc:
        rgs(z, B)
    coeffs = exc.value.coeffs
    npt.assert_allclose(coeffs[:3], [1.0, -2.0, 0.5], atol=1e-14)
    assert abs(coeffs[3]) <= 5 * np.finfo(float).eps * np.linalg.norm(z)


def test_rgs_double_pass_handles_near_dependence():
    rng = np.random.default_rng(1)
    B = np.linalg.qr(rng.standard_normal((50, 10)))[0]
    z = B @ rng.standard_normal(10) + 1e-9 * rng.standard_normal(50)
    q, _ = rgs(z, B)
    assert np.linalg.norm(B.conj().T @ q) <= 1e-12


def test_growing_basis_view_and_growth():
    gb = GrowingBasis(6, np.float64, capacity=2)
    cols = np.eye(6)
    for i in range(5):
        gb.append(cols[:, i])
    assert gb.k == 5
    npt.assert_array_equal(gb.matrix(), cols[:, :5])
    npt.assert_array_equal(gb.column(3), cols[:, 3])
    assert gb.matrix().flags.f_contiguous


# ---------------------------------------------------------------------------
# projected problem


def test_build_khat_layout_and_pairing():
    K = build_khat(np.array([[2.0]]), np.array([[2.0]]))
    npt.assert_array_equal(K, [[0.0, 2.0], [2.0, 0.0]])
    lam, q = leading_eigenpair(K)
    npt.assert_allclose(lam, 2.0, rtol=1e-14)
    npt.assert_allclose(abs(q[0]), abs(q[1]), rtol=1e-12)


def test_khat_spectrum_pairs_and_representatives():
    rng = np.random.default_rng(2)
    # well-separated nonzero coupling: five clean +/- pairs
    M = np.diag([5.0, 4.0, 3.0, 2.0, 1.0]) + np.diag(np.full(4, 0.3), 1)
    T = M.T + 0.05 * np.tril(rng.standard_normal((5, 5)), -1)
    K = build_khat(M, T)
    lam = np.linalg.eigvals(K)
    # spectrum of [[0,M],[T,0]] is symmetric under negation
    lam_sorted = np.sort_complex(lam)
    neg_sorted = np.sort_complex(-lam)
    npt.assert_allclose(lam_sorted, neg_sorted, atol=1e-10)
    order = _representatives(lam)
    assert len(order) == 5
    mods = [abs(lam[i]) for i in order]
    assert all(a >= b - 1e-14 for a, b in zip(mods, mods[1:]))


def test_scalar_matrix_run_is_exact_in_one_step():
    a = 1.3
    A = oracles.make_operator_from_dense(np.array([[a]]))
    rep = run(A, get_function("exp"), 1e-8, m_max=5, inner_policy=EXACT, seed=0)
    assert rep.converged and rep.outer_iters == 1
    npt.assert_allclose(rep.sigma, np.exp(a), rtol=1e-12)


# ---------------------------------------------------------------------------
# exact-mode structure of the coupling matrices


def exact_state(token, fid, eps_out=1e-8, n_triplets=1, seed=0, m_max=60):
    A = op(token)
    return A, run(A, get_function(fid), eps_out, m_max=m_max, inner_policy=EXACT,
                  num_triplets=n_triplets, seed=seed, keep_state=True)


def test_exact_mode_recovers_classical_bidiagonal_structure():
    A, rep = exact_state("A3:n=60", "identity", eps_out=1e-10)
    st = rep.state
    j = st.j
    M, T = st.M, st.T
    scale = np.linalg.norm(M)
    # M upper bidiagonal, T its transpose plus the extra subdiagonal row
    npt.assert_allclose(np.triu(M, 2), 0.0, atol=1e-10 * scale)
    npt.assert_allclose(np.tril(M, -1), 0.0, atol=1e-10 * scale)
    npt.assert_allclose(T[:j, :j], M.T, atol=1e-10 * scale)
    U, V = st.U.matrix(), st.V.matrix()[:, :j]
    npt.assert_allclose(U.conj().T @ U, np.eye(j), atol=100 * j * np.finfo(float).eps)
    npt.assert_allclose(V.conj().T @ V, np.eye(j), atol=100 * j * np.finfo(float).eps)
    # classical GKL on f(A) = A: sigma estimate matches the true leading value
    sv = np.linalg.svd(A.to_dense(), compute_uv=False)
    npt.assert_allclose(rep.sigma, sv[0], rtol=1e-8)


@pytest.mark.parametrize("token,fid", [("A2:n=30", "exp"), ("A5:n=36", "expneg"),
                                       ("A3:n=40", "sqrt")])
def test_exact_mode_sigma_matches_dense_svd(token, fid):
    A, rep = exact_state(token, fid, eps_out=1e-9, m_max=40)
    assert rep.converged
    F = oracles.dense_fA(A.to_dense(), fid)
    sv = np.linalg.svd(F, compute_uv=False)
    npt.assert_allclose(rep.sigma, sv[0], rtol=1e-7)
    # converged triplet satisfies both singular-pair equations
    lead = rep.triplets[0]
    ru = np.linalg.norm(F @ lead.right - lead.theta * lead.left)
    rv = np.linalg.norm(F.conj().T @ lead.left - lead.theta * lead.right)
    assert ru <= 50 * 1e-9 * sv[0]
    assert rv <= 50 * 1e-9 * sv[0]


def test_exact_mode_estimates_are_monotone():
    A, rep = exact_state("A3:n=60", "exp", eps_out=1e-10)
    st = rep.state
    thetas = []
    for j in range(1, st.j + 1):
        K = build_khat(st.M[:j, :j], st.T[:j, :j])
        thetas.append(abs(leading_eigenpair(K)[0]))
    diffs = np.diff(thetas)
    assert np.all(diffs >= -1e-10 * thetas[-1])


def test_second_triplet_against_dense_svd():
    A, rep = exact_state("A5:n=49", "exp", eps_out=1e-9, n_triplets=3, m_max=49)
    F = oracles.dense_fA(A.to_dense(), "exp")
    sv = np.linalg.svd(F, compute_uv=False)
    # the grid's x/y symmetry makes some singular values double; a single-start
    # Krylov run sees each multiple value once, so compare distinct values
    distinct = [sv[0]]
    for s in sv[1:]:
        if distinct[-1] - s > 1e-6 * sv[0]:
            distinct.append(s)
    assert len(rep.triplets) == 3
    npt.assert_allclose([t.theta for t in rep.triplets], distinct[:3], rtol=1e-5)
    rel_gap = (sv[0] - distinct[1]) / sv[0]
    npt.assert_allclose(rep.rel_gap_second, rel_gap, rtol=1e-3)


# ---------------------------------------------------------------------------
# inexactness bookkeeping


def test_ledger_and_gap_bound_formula():
    A = op("A5:n=100")
    rep = run(A, get_function("exp"), 1e-6, m_max=80,
              inner_policy=InnerPolicy(eps_inner=1e-7), seed=1, keep_state=True)
    assert rep.converged
    st = rep.state
    j = st.j
    assert len(st.ledger) == j == rep.outer_iters
    assert len(rep.eps_history) == j
    g1 = np.asarray(st.ledger.g1)
    g2 = np.asarray(st.ledger.g2)
    assert np.all(g1 >= 0) and np.all(g2 >= 0)

    # independent recomputation of the accumulated-gap bound
    K = build_khat(st.M, st.T[:j, :j])
    lam, vecs = np.linalg.eig(K)
    i = max(np.flatnonzero((lam.real > 0) | ((lam.real == 0) & (lam.imag >= 0))),
            key=lambda t: abs(lam[t]))
    q = vecs[:, i] / np.linalg.norm(vecs[:, i])
    x, y = q[:j], q[j:]
    want = np.sum(np.sqrt(g1 ** 2 * np.abs(y) ** 2 + g2 ** 2 * np.abs(x) ** 2))
    npt.assert_allclose(rep.gap_bound, want, rtol=1e-8)
    # coarse upper bound: unit eigenvector entries
    assert rep.gap_bound <= np.sum(np.sqrt(g1 ** 2 + g2 ** 2)) + 1e-15


def test_gap_bound_is_tiny_for_near_exact_inner():
    A, rep = exact_state("A2:n=50", "exp")
    assert rep.gap_bound <= 1e-9 * rep.sigma


def test_residual_definition_matches_state():
    A, rep = exact_state("A5:n=64", "exp", eps_out=1e-7)
    st = rep.state
    j = st.j
    lam, q = leading_eigenpair(build_khat(st.M, st.T[:j, :j]))
    want = st.t_next * abs(q[j - 1])
    npt.assert_allclose(rep.triplets[0].computed_residual, want, rtol=1e-9, atol=1e-13)
    assert rep.triplets[0].computed_residual < 1e-7 * rep.sigma


# ---------------------------------------------------------------------------
# run loop behavior


def test_run_is_deterministic_per_seed():
    A = op("A5:n=100")
    f = get_function("exp")
    r1 = run(A, f, 1e-6, inner_policy=InnerPolicy(eps_inner=1e-8), seed=3)
    r2 = run(A, f, 1e-6, inner_policy=InnerPolicy(eps_inner=1e-8), seed=3)
    assert r1.sigma == r2.sigma and r1.outer_iters == r2.outer_iters
    r3 = run(A, f, 1e-6, inner_policy=InnerPolicy(eps_inner=1e-8), seed=4)
    npt.assert_allclose(r3.sigma, r1.sigma, rtol=1e-5)  # same limit, new start


def test_inner_accounting_fields():
    A = op("A2:n=200")
    rep = run(A, get_function("exp"), 1e-5,
              inner_policy=InnerPolicy(eps_inner=1e-8), seed=0)
    assert rep.converged
    assert rep.inner_total > 0
    npt.assert_allclose(rep.inner_avg, rep.inner_total / (2 * rep.outer_iters))
    assert rep.wall_time_s > 0


def test_run_passes_the_inner_dimension_hint(monkeypatch):
    calls = []
    original = matfunsvd.densela.dense_matfun

    def counting_matfun(H, g):
        calls.append(H.shape[0])
        return original(H, g)

    monkeypatch.setattr(matfunsvd.densela, "dense_matfun", counting_matfun)
    rep = run(op("A5:n=400"), get_function("invsqrt"), 1e-6, m_max=50,
              inner_policy=InnerPolicy(method="extended-krylov"), seed=1)
    assert rep.converged and rep.outer_iters > 2
    # without the hint every inner step evaluates f(H_k): one call per dim
    assert len(calls) < rep.inner_total / 3


def test_triplet_vectors_are_lifted_to_unit_n_vectors():
    A = op("A5:n=100")
    rep = run(A, get_function("exp"), 1e-8, inner_policy=EXACT, num_triplets=3,
              seed=2)
    assert rep.converged and len(rep.triplets) == 3
    for t in rep.triplets:
        for vec in (t.left, t.right):
            assert vec.shape == (A.n,)
            npt.assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-12)


def test_domain_error_aborts_with_message():
    A = oracles.make_operator_from_dense(np.diag([-1.0, 2.0, 3.0]))
    rep = run(A, get_function("invsqrt"), 1e-6, m_max=5, inner_policy=EXACT, seed=0)
    assert not rep.converged
    assert rep.aborted is not None and "domain error" in rep.aborted


def test_json_dict_has_contract_fields():
    A = op("A2:n=60")
    rep = run(A, get_function("exp"), 1e-5, inner_policy=EXACT, seed=0,
              matrix_label="A2:n=60")
    d = rep.to_json_dict()
    assert set(d) == {"matrix", "function", "sigma", "rel_gap_second", "outer",
                      "inner_total", "inner_avg", "time_s", "converged",
                      "gap_bound", "method", "seed"}
    assert d["matrix"] == "A2:n=60" and d["function"] == "exp"
    assert d["converged"] is True and d["method"] == "lanczos"
    assert isinstance(d["outer"], int) and d["outer"] == rep.outer_iters


def test_run_input_validation():
    A = op("A2:n=10")
    f = get_function("exp")
    with pytest.raises(ValueError):
        run(A, f, 0.0)
    with pytest.raises(ValueError):
        run(A, f, 1.5)
    with pytest.raises(ValueError):
        run(A, f, 1e-4, m_max=0)
    with pytest.raises(ValueError):
        InnerPolicy(relax=True, eps_inner=1e-8)
