"""Outer bidiagonalization: orthogonalization kernel, projected problem, run loop."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import (
    DomainError,
    InnerPolicy,
    build_operator,
    get_function,
    parse_matrix_token,
    power_method,
    run,
)
from matfunsvd.cli import build_parser
from matfunsvd.orth import BasisBreakdown, rgs
from matfunsvd.outer import _extract

import matfunsvd.densela
import matfunsvd.outer

import oracles


def op(token):
    return build_operator(parse_matrix_token(token))


EXACT = InnerPolicy(eps_inner=1e-13)


# ---------------------------------------------------------------------------
# rgs


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
    q, coeffs = rgs(z, np.empty((2, 0)))
    npt.assert_allclose(q, [0.6, 0.8])
    npt.assert_allclose(coeffs, [5.0])
    with pytest.raises(BasisBreakdown):
        rgs(np.zeros(2), np.empty((2, 0)))


@pytest.mark.parametrize("width", [0, 1])
def test_rgs_zero_vector_breaks_down_at_every_width(width):
    with pytest.raises(BasisBreakdown) as exc:
        rgs(np.zeros(3), np.eye(3)[:, :width])
    npt.assert_array_equal(exc.value.coeffs, np.zeros(width + 1))


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


# ---------------------------------------------------------------------------
# projected problem


def test_build_khat_layout_and_pairing():
    K = oracles.khat(np.array([[2.0]]), np.array([[2.0]]))
    npt.assert_array_equal(K, [[0.0, 2.0], [2.0, 0.0]])
    lam, q = oracles.leading_eigenpair(np.array([[2.0]]), np.array([[2.0]]))
    npt.assert_allclose(lam, 2.0, rtol=1e-14)
    npt.assert_allclose(abs(q[0]), abs(q[1]), rtol=1e-12)


def test_khat_spectrum_pairs_and_representatives():
    rng = np.random.default_rng(2)
    # well-separated nonzero coupling: five clean +/- pairs
    M = np.diag([5.0, 4.0, 3.0, 2.0, 1.0]) + np.diag(np.full(4, 0.3), 1)
    T = M.T + 0.05 * np.tril(rng.standard_normal((5, 5)), -1)
    lam = np.linalg.eigvals(oracles.khat(M, T))
    # spectrum of [[0,M],[T,0]] is symmetric under negation
    lam_sorted = np.sort_complex(lam)
    neg_sorted = np.sort_complex(-lam)
    npt.assert_allclose(lam_sorted, neg_sorted, atol=1e-10)
    reps, _ = oracles.khat_eigenpairs(M, T)
    assert len(reps) == 5
    mods = np.abs(reps)
    assert all(a >= b - 1e-14 for a, b in zip(mods, mods[1:]))


def test_khat_representatives_keep_one_of_each_imaginary_pair():
    # M T has a negative eigenvalue; eig(K) returns its +/- i theta pair as
    # conjugates whose equal real parts are rounding noise of either sign,
    # so a test on the sign of the real part keeps both members or neither
    rng = np.random.default_rng(1)
    M = np.triu(rng.standard_normal((5, 5)))
    T = np.triu(rng.standard_normal((5, 5)), -1)
    lam_mt = np.linalg.eigvals(M @ T)
    assert np.any((lam_mt.real < 0) & (lam_mt.imag == 0))
    reps, _ = oracles.khat_eigenpairs(M, T)
    assert len(reps) == 5
    T_full = np.vstack([T, np.eye(5)[-1:]])
    got, _ = _extract(oracles.state_from(M, T_full, np.zeros(5), np.zeros(5)),
                      num_triplets=5)
    npt.assert_allclose([t.theta for t in got], np.abs(reps), rtol=1e-10)


def test_scalar_matrix_run_is_exact_in_one_step():
    a = 1.3
    A = oracles.make_operator_from_dense(np.array([[a]]))
    rep = run(A, get_function("exp"), 1e-8, m_max=5, inner_policy=EXACT, seed=0)
    assert rep.converged and rep.outer_iters == 1
    npt.assert_allclose(rep.sigma, np.exp(a), rtol=1e-12)


@pytest.mark.parametrize("s", [1e-100, 1e100, 1e150])
def test_run_certifies_sigma_far_from_unit_scale(s):
    # M T holds entries of size sigma^2, beyond the range where LAPACK's
    # eig is right at these scales; sigma(s B) = s sigma(B)
    B = np.diag(np.arange(1.0, 7.0)) + np.diag(np.full(5, 0.1), 1)
    A = oracles.make_operator_from_dense(s * B)
    rep = run(A, get_function("identity"), 1e-8)
    assert rep.converged
    npt.assert_allclose(rep.sigma, s * np.linalg.svd(B, compute_uv=False)[0],
                        rtol=1e-12)


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
    U, V = st.U, st.V[:, :j]
    npt.assert_allclose(U.conj().T @ U, np.eye(j), atol=100 * j * np.finfo(float).eps)
    npt.assert_allclose(V.conj().T @ V, np.eye(j), atol=100 * j * np.finfo(float).eps)
    # classical GKL on f(A) = A: sigma estimate matches the true leading value
    sv = np.linalg.svd(oracles.dense(A), compute_uv=False)
    npt.assert_allclose(rep.sigma, sv[0], rtol=1e-8)


@pytest.mark.parametrize("token,fid", [("A2:n=30", "exp"), ("A5:n=36", "expneg"),
                                       ("A3:n=40", "sqrt")])
def test_exact_mode_sigma_matches_dense_svd(token, fid):
    A, rep = exact_state(token, fid, eps_out=1e-9, m_max=40)
    assert rep.converged
    F = oracles.dense_fA(oracles.dense(A), fid)
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
        thetas.append(abs(oracles.leading_eigenpair(st.M[:j, :j],
                                                    st.T[:j, :j])[0]))
    diffs = np.diff(thetas)
    assert np.all(diffs >= -1e-10 * thetas[-1])


def test_second_triplet_against_dense_svd():
    A, rep = exact_state("A5:n=49", "exp", eps_out=1e-9, n_triplets=3, m_max=49)
    F = oracles.dense_fA(oracles.dense(A), "exp")
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
    assert len(rep.ledger.eps_issued) == j
    g1 = np.asarray(st.ledger.g1)
    g2 = np.asarray(st.ledger.g2)
    assert np.all(g1 >= 0) and np.all(g2 >= 0)

    # independent recomputation of the accumulated-gap bound
    _, q = oracles.leading_eigenpair(st.M, st.T[:j, :j])
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
    lam, q = oracles.leading_eigenpair(st.M, st.T[:j, :j])
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
    # the report stores each number once: these are read from its parts
    assert rep.outer_iters == len(rep.ledger) > 0
    assert rep.sigma == rep.triplets[0].theta
    assert rep.gap_bound == rep.triplets[0].gap_bound


@pytest.mark.parametrize("fid,steps", [("exp", 25), ("expneg", 24)])
def test_converged_means_certified(fid, steps):
    # relaxed runs whose computed residual alone passes one step earlier,
    # while residual + gap bound is still at 1.21 (exp) and 1.07 (expneg)
    # times eps_out * theta; convergence waits for the certificate
    eps_out = 1e-7
    rep = run(op("A3:n=300"), get_function(fid), eps_out, m_max=150,
              inner_policy=InnerPolicy(relax=True), seed=2)
    lead = rep.triplets[0]
    assert rep.converged and rep.outer_iters == steps
    assert lead.computed_residual + lead.gap_bound < eps_out * lead.theta


@pytest.mark.parametrize("max_dim", [4, 8])
def test_unbounded_gap_ends_the_run_uncertified(max_dim):
    # capped inner solves leave an infinite estimate in the ledger; the
    # residual test alone would pass after 5 steps at sigma 1.906e8
    # (max_dim 4) or after 18 at 5.58e8 (max_dim 8), where sigma_1 is
    # 6.77e8.  No later step can certify, so the run stops at once
    rep = run(op("A3:n=2000"), get_function("exp"), 1e-4,
              inner_policy=InnerPolicy(eps_inner=1e-7, max_dim=max_dim),
              seed=0)
    assert not rep.converged and rep.outer_iters == 1
    assert rep.aborted == "inner solve unconverged: the gap bound is not finite"
    assert not np.isfinite(rep.gap_bound)


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


def test_first_adjoint_solve_takes_the_forward_hint(monkeypatch):
    calls, solves = [], []
    original_matfun = matfunsvd.densela.dense_matfun
    original_solve = matfunsvd.outer.approx_fAv

    def counting_matfun(H, g):
        calls.append(H.shape[0])
        return original_matfun(H, g)

    def counting_solve(*args, **kwargs):
        start = len(calls)
        res = original_solve(*args, **kwargs)
        solves.append((kwargs["adjoint"], len(calls) - start))
        return res

    monkeypatch.setattr(matfunsvd.densela, "dense_matfun", counting_matfun)
    monkeypatch.setattr(matfunsvd.outer, "approx_fAv", counting_solve)
    rep = run(op("A5:n=400"), get_function("invsqrt"), 1e-6, m_max=50,
              inner_policy=InnerPolicy(method="extended-krylov"), seed=1)
    assert rep.converged
    (forward, forward_calls), (adjoint, adjoint_calls) = solves[:2]
    # the forward solve of step 1 has no hint and scans every pair; the
    # adjoint one starts testing at the forward dimension minus the lag
    assert not forward and adjoint
    assert forward_calls > 3 and adjoint_calls <= 3


@pytest.mark.parametrize("token,fid,method,relax,seed,outer,inner,sigma", [
    ("A5:n=400", "exp", "standard-krylov", False, 0, 14, 835, 2817.6296773234876),
    ("A5:n=400", "exp", "standard-krylov", False, 1, 15, 898, 2817.62967738105),
    ("A5:n=400", "exp", "standard-krylov", False, 2, 14, 836, 2817.629677338517),
    ("A5:n=100", "invsqrt", "extended-krylov", False, 0, 13, 752, 0.8791972718853877),
    ("A5:n=100", "invsqrt", "extended-krylov", False, 1, 13, 758, 0.8791972718391992),
    ("A5:n=100", "invsqrt", "extended-krylov", False, 2, 14, 822, 0.8791972718765567),
    ("A5:n=100", "invsqrt", "extended-krylov", True, 0, 13, 672, 0.8791972718888633),
    ("A5:n=100", "invsqrt", "extended-krylov", True, 1, 13, 664, 0.8791972718248036),
    ("A5:n=100", "invsqrt", "extended-krylov", True, 2, 14, 742, 0.8791972718794715),
])
def test_first_step_hint_keeps_the_recorded_run(token, fid, method, relax,
                                                seed, outer, inner, sigma):
    # counts and sigma as the unhinted first adjoint solve (and, for
    # invsqrt, the f(H) of scipy's sqrtm on H) gave them
    rep = run(op(token), get_function(fid), 1e-6, seed=seed,
              inner_policy=InnerPolicy(method=method, relax=relax))
    assert rep.converged
    assert (rep.outer_iters, rep.inner_total) == (outer, inner)
    assert abs(rep.sigma - sigma) <= 1e-12 * sigma


def test_triplet_vectors_are_lifted_to_unit_n_vectors():
    A = op("A5:n=100")
    rep = run(A, get_function("exp"), 1e-8, inner_policy=EXACT, num_triplets=3,
              seed=2)
    assert rep.converged and len(rep.triplets) == 3
    for t in rep.triplets:
        for vec in (t.left, t.right):
            # complex also where LAPACK returns the real eigenvectors of a
            # real projected problem whose eigenvalues are all real
            assert vec.shape == (A.n,) and vec.dtype == np.complex128
            npt.assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-12)


def test_domain_error_aborts_with_message():
    A = oracles.make_operator_from_dense(np.diag([-1.0, 2.0, 3.0]))
    rep = run(A, get_function("invsqrt"), 1e-6, m_max=5, inner_policy=EXACT, seed=0)
    assert not rep.converged
    assert rep.aborted is not None and "domain error" in rep.aborted
    assert rep.aborted.count("inner solve") == 1


# f(A) v_j in span(U): at step 1 (the zero matrix) or at step 2, after a
# step-1 estimate that failed the residual test (||f(A)|| is 1 and 2)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("values", [
    np.zeros((4, 4)),
    np.diag([1.0, 0.0, 0.0, 0.0]),
    np.outer([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
])
def test_left_breakdown_ends_unconverged(values):
    A = oracles.make_operator_from_dense(values)
    rep = run(A, get_function("identity"), 1e-8, seed=0)
    assert not rep.converged
    assert rep.aborted == "left basis breakdown"
    assert rep.outer_iters == (0 if not values.any() else 1)


def test_right_exhaustion_converges_only_on_the_residual_test():
    # exp(I) = e I: f(A)^H u_1 lies in span(v_1), so V is exhausted at step
    # 1; whether the rounded residual passes 1e-300 * theta is left open
    A = oracles.make_operator_from_dense(np.eye(4))
    eps_out = 1e-300
    rep = run(A, get_function("exp"), eps_out, seed=0, keep_state=True)
    assert rep.state.exhausted and rep.outer_iters == 1
    lead = rep.triplets[0]
    assert rep.converged == (lead.computed_residual + lead.gap_bound
                             < eps_out * lead.theta)
    assert (rep.aborted is None) == rep.converged
    if not rep.converged:
        assert rep.aborted == "right basis exhausted before convergence"


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
    # the policy checks every field when it is built
    for bad in (dict(eps_inner=0.0), dict(eps_inner=2.0),
                dict(method="rational-krylov"), dict(max_dim=2)):
        with pytest.raises(ValueError):
            InnerPolicy(**bad)
    # the power method takes the same policy but no relaxation schedule
    with pytest.raises(ValueError, match="relax"):
        power_method(A, f, 1e-4, inner_policy=InnerPolicy(relax=True))
    # each subcommand accepts only the flags it reads
    parser = build_parser()
    base = ["--matrix", "A2:n=10", "--function", "exp"]
    for argv in (["run", "--method", "power"], ["run", "--triplets", "3"],
                 ["triplets", "--relax"], ["power", "--relax"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv[:1] + base + argv[1:])


# ---------------------------------------------------------------------------
# j x j projected problem against the 2j x 2j oracle


def extract_2j(M, T, g1, g2, num_triplets):
    """Triplets and delta from np.linalg.eig of K = [[0, M], [T, 0]]."""
    j = M.shape[0]
    lam, vecs = oracles.khat_eigenpairs(M, T[:j])
    out = []
    for rank in range(min(num_triplets, j)):
        x, y = vecs[:j, rank], vecs[j:, rank]
        theta = abs(lam[rank])
        gap2 = (theta - abs(lam[rank + 1])) / theta if rank + 1 < j else np.nan
        out.append(dict(
            theta=theta, computed_residual=abs(T[j, j - 1]) * abs(x[j - 1]),
            gap_bound=np.sum(np.sqrt(g1 ** 2 * np.abs(y) ** 2
                                     + g2 ** 2 * np.abs(x) ** 2)),
            theta_gap_second=gap2,
            left=np.abs(x) / np.linalg.norm(x),
            right=np.abs(y) / np.linalg.norm(y)))
    # the leading value's distance to the rest of the full spectrum
    spectrum = np.linalg.eigvals(oracles.khat(M, T[:j]))
    delta = np.sort(np.abs(spectrum - lam[0]))[1]
    return out, delta


def coupling_case(j, seed, complex_=False, exhausted=False):
    """Coupling matrices shaped like a perturbed GKL step: M upper
    bidiagonal and T[:j] its transpose, plus an upper-triangular
    perturbation that makes M T nonnormal (complex theta for real input)."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    a = rng.uniform(1.0, 2.0, j)
    b = rng.uniform(0.5, 1.0, j - 1)
    M = np.diag(a) + np.diag(b, 1) + 0.1 * np.triu(draw(j, j), 2)
    T = np.zeros((j + 1, j), dtype=M.dtype)
    T[:j] = np.diag(a) + np.diag(b, -1) + 0.1 * np.triu(draw(j, j))
    T[j, j - 1] = 0.0 if exhausted else rng.uniform(0.5, 1.0)
    return M, T, rng.uniform(1e-9, 1e-7, j), rng.uniform(1e-9, 1e-7, j)


@pytest.mark.parametrize("j,seed,complex_,exhausted", [
    (8, 2, False, False), (12, 1, False, False), (10, 2, True, False),
    (9, 3, False, True), (7, 4, True, True), (1, 5, False, False)])
def test_extract_matches_2j_oracle(j, seed, complex_, exhausted):
    M, T, g1, g2 = coupling_case(j, seed, complex_, exhausted)
    want, want_delta = extract_2j(M, T, g1, g2, 3)
    got, delta = _extract(oracles.state_from(M, T, g1, g2), num_triplets=3)
    assert len(got) == len(want) == min(3, j)
    for g, w in zip(got, want):
        for key in ("theta", "computed_residual", "gap_bound"):
            npt.assert_allclose(getattr(g, key), w[key], rtol=1e-10, atol=0)
        # already relative to theta, and near 0 for a conjugate pair
        npt.assert_allclose(g.theta_gap_second, w["theta_gap_second"],
                            rtol=1e-10, atol=1e-10)
        npt.assert_allclose(np.abs(g.left), w["left"], rtol=0, atol=1e-10)
        npt.assert_allclose(np.abs(g.right), w["right"], rtol=0, atol=1e-10)
    npt.assert_allclose(delta, want_delta, rtol=1e-10)
    if exhausted:
        assert all(g.computed_residual == 0.0 for g in got)


@pytest.mark.parametrize("j,seed", [(8, 2), (12, 1)])
def test_extract_real_cases_have_conjugate_theta_pairs(j, seed):
    # the real cases above put a complex-conjugate pair among the leading
    # three theta: first and second for (8, 2), second and third for (12, 1)
    M, T, _, _ = coupling_case(j, seed)
    theta = np.sqrt(np.linalg.eigvals(M @ T[:j]))
    lead = theta[np.argsort(-np.abs(theta))][:3]
    assert np.sum(np.abs(lead.imag) > 1e-3 * np.abs(lead)) == 2


def test_extract_negative_eigenvalue_of_mt():
    # M T = -4: K has +/- 2i; the representative +2i has y = T x / 2i = 2i
    M, T = np.array([[1.0]]), np.array([[-4.0], [0.5]])
    (lead,), delta = _extract(oracles.state_from(M, T, [1e-8], [2e-8]))
    npt.assert_allclose(lead.theta, 2.0, rtol=1e-15)
    npt.assert_allclose(delta, 4.0, rtol=1e-15)
    npt.assert_allclose(lead.computed_residual, 0.5 / np.sqrt(5.0), rtol=1e-15)


def test_coupling_buffer_keeps_the_column_layout(monkeypatch):
    cols = []
    original = matfunsvd.outer.rgs

    def recording_rgs(z, basis):
        try:
            q, coeffs = original(z, basis)
        except BasisBreakdown as bd:
            cols.append(bd.coeffs)
            raise
        cols.append(coeffs)
        return q, coeffs

    monkeypatch.setattr(matfunsvd.outer, "rgs", recording_rgs)
    A, rep = exact_state("A2:n=100", "exp", eps_out=1e-12, m_max=40)
    st = rep.state
    j = st.j
    assert st.U.flags.f_contiguous and st.V.flags.f_contiguous
    # the coupling matrices as the column lists give them, one column a step
    M = np.zeros((j, j))
    T = np.zeros((j + 1, j))
    for c in range(j):
        M[: c + 1, c] = cols[2 * c]
        T[: c + 2, c] = cols[2 * c + 1]
    npt.assert_array_equal(st.M, M)
    npt.assert_array_equal(st.T, T)
    npt.assert_array_equal(np.tril(st.M, -1), 0.0)
    npt.assert_array_equal(np.tril(st.T, -2), 0.0)
    assert st.t_next == abs(st.T[j, j - 1])


@pytest.mark.parametrize("token,fid,eps_out", [("A2:n=12", "exp", 1e-13),
                                               ("A1:n=8:seed=1", "identity", 1e-14)])
def test_m_max_above_n_stops_within_n_steps(token, fid, eps_out):
    # the state is allocated for min(m_max, n) steps
    A = op(token)
    rep = run(A, get_function(fid), eps_out, m_max=500, keep_state=True)
    st, n = rep.state, A.n
    assert rep.converged and rep.outer_iters <= n
    assert st.U.shape == (n, rep.outer_iters)
    for B in (st.U, st.V):
        assert np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1])) <= 1e-12
    F = oracles.dense(A)
    if fid != "identity":
        F = oracles.dense_fA(F, fid)
    sv, _, _ = oracles.dense_triplets(F, 1)
    npt.assert_allclose(rep.sigma, sv[0], rtol=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND: a5-exp-grid start seed 1939232091 has a 1e-5 "
    "component on the leading right singular vector and certifies sigma_2"))
def test_a5_exp_grid_start_vector_with_tiny_leading_component():
    rep = run(op("A5:n=10000"), get_function("exp"), 1e-4, m_max=500,
              inner_policy=InnerPolicy(eps_inner=1e-7), seed=1939232091)
    npt.assert_allclose(rep.sigma, 2975.18, rtol=1e-4)
