"""Inner Krylov approximation of f(A)v and its adjoint, both subspace families."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import DomainError, build_operator, get_function, run
from matfunsvd.inner import InnerPolicy, approx_fAv
from matfunsvd.operators import parse_matrix_token
from matfunsvd.orth import BasisBreakdown, rgs

import matfunsvd.inner
import oracles


def op(token):
    return build_operator(parse_matrix_token(token))


def unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def true_apply(A_dense, fid, v, adjoint=False):
    F = oracles.dense_fA(A_dense, fid)
    return (F.conj().T if adjoint else F) @ v


def test_identity_operator_breaks_down_exactly():
    A = oracles.make_operator_from_dense(np.eye(8))
    v = np.random.default_rng(0).standard_normal(8)
    res = approx_fAv(A, get_function("exp"), v, 1e-8)
    assert res.breakdown and res.converged
    assert res.dims_used == 1
    assert res.err_estimate == 0.0
    npt.assert_allclose(res.vector, np.e * v, rtol=1e-14)


def test_invariant_start_vector_eksm_breakdown():
    A = oracles.make_operator_from_dense(np.diag([2.0, 3.0, 5.0]))
    v = np.array([1.0, 0.0, 0.0])
    res = approx_fAv(A, get_function("sqrt"), v,
                     1e-8, InnerPolicy(method="extended-krylov"))
    assert res.breakdown and res.converged
    npt.assert_allclose(res.vector, [np.sqrt(2.0), 0.0, 0.0], rtol=1e-14)


@pytest.mark.parametrize("method", ["standard-krylov", "extended-krylov"])
def test_two_column_invariant_subspace_is_exact(method):
    lam = np.array([2.0, 3.0, 5.0, 7.0])
    A = oracles.make_operator_from_dense(np.diag(lam))
    v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    res = approx_fAv(A, get_function("sqrt"), v,
                     1e-8, InnerPolicy(method=method))
    assert res.breakdown and res.converged
    assert res.dims_used == 2
    assert res.err_estimate == 0.0
    want = np.sqrt(lam) * v
    assert np.linalg.norm(res.vector - want) <= 1e-14 * np.linalg.norm(want)


def test_extended_expansion_order():
    # the first k basis columns span the first k of
    # {v, A^{-1}v, Av, A^{-2}v, A^2 v, A^{-3}v}
    lam = np.linspace(1.0, 4.0, 12)
    A = oracles.make_operator_from_dense(np.diag(lam))
    v = np.ones(12)
    P, _, expand = matfunsvd.inner._extended(A, v / np.linalg.norm(v), 6, False)
    for s in range(1, 4):
        assert expand(s) == (2 * s, False)
    B = P[:, :6]
    K = np.column_stack([lam ** p * v for p in (0, -1, 1, -2, 2, -3)])
    for k in range(1, 7):
        Bk = B[:, :k]
        for j in range(k):
            resid = K[:, j] - Bk @ (Bk.conj().T @ K[:, j])
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(K[:, j])


@pytest.mark.parametrize("adjoint", [False, True])
def test_extended_complex_start_vector_on_real_operator(adjoint):
    A = op("A2:n=100")
    rng = np.random.default_rng(7)
    v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    v /= np.linalg.norm(v)
    res = approx_fAv(A, get_function("invsqrt"), v,
                     1e-10, InnerPolicy(method="extended-krylov"),
                     adjoint=adjoint)
    assert res.converged and np.iscomplexobj(res.vector)
    want = true_apply(oracles.dense(A), "invsqrt", v, adjoint=adjoint)
    assert np.linalg.norm(res.vector - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("fid", oracles.FUNCTION_IDS)
def test_standard_krylov_matches_dense_oracle(fid):
    A = op("A2:n=100")
    Ad = oracles.dense(A)
    rng = np.random.default_rng(1)
    v = unit(rng, 100)
    res = approx_fAv(A, get_function(fid), v, 1e-7)
    assert res.converged
    want = true_apply(Ad, fid, v)
    assert np.linalg.norm(res.vector - want) <= 1e-5 * np.linalg.norm(want)


@pytest.mark.parametrize("method", ["standard-krylov", "extended-krylov"])
@pytest.mark.parametrize("token", ["A2:n=100", "A5:n=100"])
def test_adjoint_solve_matches_dense_oracle(method, token):
    A = op(token)
    Ad = oracles.dense(A)
    rng = np.random.default_rng(2)
    u = unit(rng, 100)
    res = approx_fAv(A, get_function("exp"), u,
                     1e-8, InnerPolicy(method=method), adjoint=True)
    assert res.converged
    want = true_apply(Ad, "exp", u, adjoint=True)
    assert np.linalg.norm(res.vector - want) <= 1e-6 * np.linalg.norm(want)


def test_extended_needs_fewer_dims_for_invsqrt():
    A = op("A2:n=400")
    rng = np.random.default_rng(3)
    v = unit(rng, 400)
    f = get_function("invsqrt")
    std = approx_fAv(A, f, v, 1e-8)
    ext = approx_fAv(A, f, v, 1e-8, InnerPolicy(method="extended-krylov"))
    assert std.converged and ext.converged
    assert ext.dims_used < std.dims_used
    want = true_apply(oracles.dense(A), "invsqrt", v)
    for res in (std, ext):
        assert np.linalg.norm(res.vector - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("fid", ["exp", "sqrt", "phi"])
def test_error_estimate_tracks_true_error(fid):
    A = op("A2:n=120")
    Ad = oracles.dense(A)
    f = get_function(fid)
    for seed in range(5):
        v = unit(np.random.default_rng(seed), 120)
        res = approx_fAv(A, f, v, 1e-6)
        want = true_apply(Ad, fid, v)
        true_err = np.linalg.norm(res.vector - want)
        # the lagged estimator may be off by a modest factor, never wildly
        assert true_err <= 10.0 * res.err_estimate + 1e-12 * np.linalg.norm(want)
        assert res.err_estimate <= 1e-6 * np.linalg.norm(want) * 10.0


def test_tiny_tolerance_reaches_near_exactness():
    A = op("A3:n=60")
    v = unit(np.random.default_rng(4), 60)
    res = approx_fAv(A, get_function("exp"), v, 1e-14)
    want = true_apply(oracles.dense(A), "exp", v)
    assert np.linalg.norm(res.vector - want) <= 1e-10 * np.linalg.norm(want)


def test_unconverged_run_is_flagged():
    A = op("A3:n=400")
    v = unit(np.random.default_rng(5), 400)
    res = approx_fAv(A, get_function("exp"), v,
                     1e-12, InnerPolicy(max_dim=8))
    assert not res.converged
    assert res.dims_used == 8
    assert res.vector is not None and np.all(np.isfinite(res.vector))
    assert len(res.omega_history) > 0


@pytest.mark.parametrize("method,fid", [("standard-krylov", "exp"),
                                        ("extended-krylov", "invsqrt")])
def test_coefficient_omega_matches_iterate_difference(method, fid):
    # omega and the tail estimate come from coefficient vectors; recompute
    # both from the returned n-vectors z_k of unconverged runs
    A = op("A3:n=400")
    v = unit(np.random.default_rng(5), 400)
    z = {}
    for k in range(3, 13):
        res = approx_fAv(A, get_function(fid), v,
                         1e-15, InnerPolicy(method=method, max_dim=k))
        assert not res.converged and res.dims_used == k
        z[k] = res.vector
        if k < 5:
            continue
        omega = np.linalg.norm(z[k] - z[k - 2]) / np.linalg.norm(z[k - 2])
        npt.assert_allclose(res.omega_history[-1], omega, rtol=1e-12)
        if omega < 1.0:
            npt.assert_allclose(res.err_estimate,
                                omega / (1.0 - omega) * np.linalg.norm(z[k]),
                                rtol=1e-12)
        else:
            assert res.err_estimate == np.inf


@pytest.mark.parametrize("method,fid", [("standard-krylov", "exp"),
                                        ("extended-krylov", "invsqrt")])
def test_bases_are_column_major(monkeypatch, method, fid):
    flags = []
    original = matfunsvd.inner.rgs

    def recording_rgs(z, basis):
        flags.append(basis.flags.f_contiguous)
        return original(z, basis)

    monkeypatch.setattr(matfunsvd.inner, "rgs", recording_rgs)
    A = op("A3:n=400")
    v = unit(np.random.default_rng(5), 400)
    res = approx_fAv(A, get_function(fid), v,
                     1e-8, InnerPolicy(method=method))
    assert res.converged
    assert flags and all(flags)


@pytest.mark.parametrize("method,fid", [("standard-krylov", "exp"),
                                        ("extended-krylov", "invsqrt")])
def test_first_test_at_or_below_return_is_bitwise_equal(monkeypatch, method, fid):
    # below first_test - 2 only f(H_k) is skipped, and no skipped f(H_k)
    # takes part in a test, so every hint up to the full scan's return
    # gives the full scan's result; extended Krylov tests and evaluates
    # f(H_k) at even k only, so its full scan tests at k = 4, 6, ...
    A = op("A3:n=400")
    v = unit(np.random.default_rng(5), 400)
    f = get_function(fid)
    policy = InnerPolicy(method=method)
    full = approx_fAv(A, f, v, 1e-8, policy)
    assert full.converged and not full.breakdown
    calls = []
    original = matfunsvd.densela.dense_matfun

    def counting_matfun(H, g):
        calls.append(H.shape[0])
        return original(H, g)

    monkeypatch.setattr(matfunsvd.densela, "dense_matfun", counting_matfun)
    for first_test in range(3, full.dims_used + 1):
        calls.clear()
        res = approx_fAv(A, f, v, 1e-8, policy, first_test=first_test)
        assert np.array_equal(res.vector, full.vector)
        assert res.err_estimate == full.err_estimate
        assert res.dims_used == full.dims_used
        if method == "standard-krylov":
            assert res.omega_history == full.omega_history[first_test - 3:]
            assert len(calls) == full.dims_used - first_test + 3
        else:
            tested = range(4, full.dims_used + 1, 2)
            assert len(full.omega_history) == len(tested)
            assert res.omega_history == [
                w for k, w in zip(tested, full.omega_history) if k >= first_test]
            assert len(calls) == len(
                range(first_test - 2 + first_test % 2, full.dims_used + 1, 2))


@pytest.mark.parametrize("fid", ["invsqrt", "sqrt", "phi"])
@pytest.mark.parametrize("token", ["A3:n=400", "A5:n=400"])
def test_extended_krylov_tests_once_per_pair(monkeypatch, token, fid):
    # the extended basis grows in pairs (a solve and a product): f(H_k) runs
    # at even k only, and at an odd last step at k and its partner k - 2
    A = op(token)
    f = get_function(fid)
    v = unit(np.random.default_rng(8), 400)
    calls = []
    original = matfunsvd.densela.dense_matfun

    def counting_matfun(H, g):
        calls.append(H.shape[0])
        return original(H, g)

    monkeypatch.setattr(matfunsvd.densela, "dense_matfun", counting_matfun)
    for eps, adjoint in [(1e-6, False), (1e-10, False), (1e-10, True)]:
        calls.clear()
        res = approx_fAv(A, f, v, eps, InnerPolicy(method="extended-krylov"),
                         adjoint=adjoint)
        assert res.converged and not res.breakdown
        assert res.dims_used % 2 == 0
        assert calls == list(range(2, res.dims_used + 1, 2))
    natural = res.dims_used
    for max_dim in (7, 9):
        calls.clear()
        res = approx_fAv(A, f, v, 1e-15,
                         InnerPolicy(method="extended-krylov", max_dim=max_dim))
        assert not res.converged and res.dims_used == max_dim
        assert calls == list(range(2, max_dim, 2)) + [max_dim, max_dim - 2]
    # an odd hint moves the first test up to the next completed pair
    policy = InnerPolicy(method="extended-krylov")
    for m in range(1, natural // 2 + 3):
        odd = approx_fAv(A, f, v, 1e-10, policy, adjoint=True,
                         first_test=2 * m + 1)
        even = approx_fAv(A, f, v, 1e-10, policy, adjoint=True,
                          first_test=2 * m + 2)
        assert np.array_equal(odd.vector, even.vector)
        assert odd.err_estimate == even.err_estimate
        assert odd.dims_used == even.dims_used
        assert odd.omega_history == even.omega_history


@pytest.mark.parametrize("method,fid", [("standard-krylov", "exp"),
                                        ("extended-krylov", "invsqrt")])
def test_first_test_above_return_converges_at_the_hint(method, fid):
    A = op("A3:n=400")
    v = unit(np.random.default_rng(5), 400)
    f = get_function(fid)
    policy = InnerPolicy(method=method)
    natural = approx_fAv(A, f, v, 1e-8, policy).dims_used
    res = approx_fAv(A, f, v, 1e-8, policy, first_test=natural + 4)
    assert res.converged and not res.breakdown
    assert res.dims_used == natural + 4
    assert res.err_estimate <= 1e-8 * np.linalg.norm(res.vector)


@pytest.mark.parametrize("method", ["standard-krylov", "extended-krylov"])
def test_first_test_evaluates_a_breakdown_below_the_hint(method):
    # the space spanned by v is invariant at dimension 2; a hint of 8 skips
    # f(H_k) below k = 6 except where the basis breaks down
    lam = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0])
    A = oracles.make_operator_from_dense(np.diag(lam))
    v = np.zeros(8)
    v[:2] = 1.0 / np.sqrt(2.0)
    res = approx_fAv(A, get_function("sqrt"), v,
                     1e-8, InnerPolicy(method=method), first_test=8)
    assert res.breakdown and res.converged and res.dims_used == 2
    want = np.sqrt(lam) * v
    assert np.linalg.norm(res.vector - want) <= 1e-14 * np.linalg.norm(want)


def test_first_test_beyond_max_dim_is_clamped():
    # the last step is always evaluated and tested, so an unconverged solve
    # returns the full scan's last iterate and estimate
    A = op("A3:n=400")
    v = unit(np.random.default_rng(5), 400)
    policy = InnerPolicy(max_dim=8)
    full = approx_fAv(A, get_function("exp"), v, 1e-12, policy)
    res = approx_fAv(A, get_function("exp"), v, 1e-12, policy, first_test=50)
    assert not res.converged and res.dims_used == 8
    assert np.array_equal(res.vector, full.vector)
    assert res.err_estimate == full.err_estimate
    assert res.omega_history == full.omega_history[-1:]


@pytest.mark.parametrize("method", ["standard-krylov", "extended-krylov"])
@pytest.mark.parametrize("n,first_test", [(3, 10), (4, 10), (10, 50)])
def test_first_test_keeps_the_domain_guard(method, n, first_test):
    # the hint is clamped to the last step n, where H_n carries the
    # eigenvalue -1 of A; the evaluated H_k are guarded, and extended
    # Krylov evaluates an odd last step although it skips odd k before it
    A = oracles.make_operator_from_dense(np.diag([-1.0] + list(range(2, n + 1))))
    v = np.ones(n) / np.sqrt(n)
    with pytest.raises(DomainError, match="excluded set"):
        approx_fAv(A, get_function("invsqrt"), v, 1e-8,
                   InnerPolicy(method=method), first_test=first_test)


def test_projected_spectrum_on_cut_raises_with_context():
    A = oracles.make_operator_from_dense(np.diag([-1.0, 2.0]))
    v = np.array([1.0, 2.0]) / np.sqrt(5.0)
    with pytest.raises(DomainError, match="excluded set"):
        approx_fAv(A, get_function("invsqrt"), v, 1e-8)


def test_keep_basis_returns_orthonormal_span():
    A = op("A2:n=80")
    v = unit(np.random.default_rng(6), 80)
    res = approx_fAv(A, get_function("exp"), v, 1e-9)
    # the solve is deterministic: rebuilding its basis gives the same columns
    P, _, expand = matfunsvd.inner._arnoldi(A, v, 80, False)
    for k in range(1, res.dims_used):
        assert expand(k) == (k, False)
    B = P[:, :res.dims_used]
    npt.assert_allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-12)
    # the returned iterate lives in the reported span
    z = res.vector
    npt.assert_allclose(B @ (B.conj().T @ z), z, atol=1e-10 * np.linalg.norm(z))


def test_input_validation():
    A = op("A2:n=10")
    with pytest.raises(ValueError):
        approx_fAv(A, get_function("exp"), np.zeros(10), 1e-8)


# ---------------------------------------------------------------------------
# the standard-Krylov basis: one-sync Gram-Schmidt with a delayed second pass


def two_pass_arnoldi(A, v1, K, adjoint=False):
    """Reference Arnoldi: every column gets both passes of the vector kernel
    at once.  Returns (P, H, k), k the breakdown step or None."""
    apply = A.apply_adjoint if adjoint else A.apply
    P = np.zeros((A.n, K + 1), dtype=v1.dtype, order="F")
    P[:, 0] = v1
    H = np.zeros((K + 1, K), dtype=v1.dtype)
    for k in range(1, K + 1):
        try:
            q, coeffs = rgs(apply(P[:, k - 1]), P[:, :k])
        except BasisBreakdown as bd:
            H[:k, k - 1] = bd.coeffs[:k]
            return P, H, k
        P[:, k] = q
        H[: k + 1, k - 1] = coeffs
    return P, H, None


def one_sync_arnoldi(A, v1, K, adjoint=False):
    """The solver's basis after K steps, or up to its breakdown step."""
    P, H, expand = matfunsvd.inner._arnoldi(A, v1, K, adjoint)
    for k in range(1, K + 1):
        if expand(k) == (k, True):
            return P, H, k
    return P, H, None


def arnoldi_errors(A, P, H, K, adjoint):
    """||A P_K - P_{K+1} H|| / ||H|| and ||I - P_K^H P_K||."""
    apply = A.apply_adjoint if adjoint else A.apply
    H = H[: K + 1, :K]
    relation = np.linalg.norm(apply(P[:, :K]) - P[:, : K + 1] @ H)
    gram = P[:, :K].conj().T @ P[:, :K]
    return relation / np.linalg.norm(H), np.linalg.norm(np.eye(K) - gram)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("token", ["A5:n=2500", "A2:n=2000", "A1:n=2000:seed=3"])
def test_one_sync_arnoldi_at_two_pass_accuracy(token, adjoint):
    # 40 columns: the Arnoldi relation, the orthogonality of the final
    # columns and H itself match Arnoldi with both passes at once
    A = op(token)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(A.n)
    if A.dtype.kind == "c":
        v = v + 1j * rng.standard_normal(A.n)
    v1 = v / np.linalg.norm(v)
    K = 40
    P, H, stop = one_sync_arnoldi(A, v1, K, adjoint)
    P2, H2, stop2 = two_pass_arnoldi(A, v1, K, adjoint)
    assert stop is None and stop2 is None
    eps = np.finfo(float).eps
    for err, ref in zip(arnoldi_errors(A, P, H, K, adjoint),
                        arnoldi_errors(A, P2, H2, K, adjoint)):
        assert err <= 4.0 * max(ref, eps)
    assert np.linalg.norm(H - H2) <= 1e-14 * np.linalg.norm(H2)


def test_one_sync_arnoldi_breaks_down_at_the_two_pass_step():
    # three distinct eigenvalues: the Krylov space of any start vector is
    # invariant at dimension 3
    A = oracles.make_operator_from_dense(np.diag(np.tile([1.0, 2.0, 5.0], 100)))
    v1 = unit(np.random.default_rng(8), 300)
    P, H, stop = one_sync_arnoldi(A, v1, 20)
    P2, H2, stop2 = two_pass_arnoldi(A, v1, 20)
    assert stop == stop2 == 3
    npt.assert_allclose(H[:3, :3], H2[:3, :3], rtol=0, atol=1e-14 * np.linalg.norm(H2))
    res = approx_fAv(A, get_function("exp"), v1, 1e-8)
    assert res.breakdown and res.converged and res.dims_used == 3


@pytest.mark.parametrize("token", ["A5:n=100", "A1:n=100:seed=2"])
def test_one_sync_arnoldi_keeps_the_start_vector(token):
    A = op(token)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    v1 = v / np.linalg.norm(v)
    P, _, _ = one_sync_arnoldi(A, v1, 12)
    assert np.array_equal(P[:, 0], v1)


@pytest.mark.parametrize("seed,outer,inner,sigma", [
    (1, 28, 1120, 2957.9677186189197),
    (2, 25, 1000, 2957.9676499146276),
])
def test_one_sync_arnoldi_keeps_the_recorded_run(seed, outer, inner, sigma):
    # counts and sigma of A5:n=2500 exp as two-pass Gram-Schmidt gave them
    rep = run(op("A5:n=2500"), get_function("exp"), 1e-4, m_max=500, seed=seed,
              inner_policy=InnerPolicy(eps_inner=1e-7))
    assert rep.converged
    assert (rep.outer_iters, rep.inner_total) == (outer, inner)
    assert abs(rep.sigma - sigma) <= 1e-12 * sigma
