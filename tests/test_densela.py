"""Dense kernels: LAPACK eigenpairs, f(H), and the operator LU."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sp

from matfunsvd import (FUNCTION_IDS, DomainError, build_operator, get_function,
                       parse_matrix_token)
from matfunsvd import densela
from matfunsvd.densela import (Factorization, FactorizationError, dense_matfun,
                               eig_dense)

import oracles


def random_matrix(n, seed, complex_=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if complex_:
        A = A + 1j * rng.standard_normal((n, n))
    return A


# ---------------------------------------------------------------------------
# eig


@pytest.mark.parametrize("n,seed", [(5, 3), (20, 4), (40, 5)])
def test_eig_dense_residuals(n, seed):
    A = random_matrix(n, seed, complex_=(seed % 2 == 0))
    w, vr = eig_dense(A)
    scale = np.linalg.norm(A, 2)
    npt.assert_allclose(np.sort_complex(eig_dense(A, schur=True)[0]),
                        np.sort_complex(w), rtol=0, atol=1e-12 * scale)
    for i in range(n):
        v = vr[:, i]
        npt.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)
        resid = np.linalg.norm(A @ v - w[i] * v)
        assert resid <= 1e3 * n * np.finfo(float).eps * scale


@pytest.mark.parametrize("case", ["real", "complex", "1x1", "quasi-triangular"])
def test_eig_dense_eigenvalues_match_scipy(case):
    H = {"real": random_matrix(12, 6),
         "complex": random_matrix(12, 7, complex_=True),
         "1x1": np.array([[2.5]]),
         "quasi-triangular": scipy.linalg.schur(random_matrix(12, 8))[0]}[case]
    w, T, Z = eig_dense(H, schur=True)
    scale = np.linalg.norm(H, 2)
    npt.assert_allclose(np.sort_complex(w),
                        np.sort_complex(scipy.linalg.eigvals(H)),
                        rtol=0, atol=1e-13 * scale)
    # the Schur form of that same call: H = Z T Z^H, Z unitary, T (quasi-)
    # triangular, with 2 x 2 blocks only for the complex pairs of a real H
    assert T.dtype == Z.dtype == H.dtype
    npt.assert_allclose(Z @ T @ Z.conj().T, H, rtol=0, atol=1e-13 * scale)
    npt.assert_allclose(Z.conj().T @ Z, np.eye(len(H)), rtol=0, atol=1e-13)
    assert not np.any(np.tril(T, -2))
    if H.dtype.kind == "f":
        assert np.count_nonzero(np.diag(T, -1)) == np.count_nonzero(w.imag > 0)
    else:
        assert not np.any(np.diag(T, -1))


# ---------------------------------------------------------------------------
# dense_matfun


def matfun(A, f):
    """The whole f(A), built from dense_matfun one column at a time.

    dense_matfun returns only f(A) e1.  With P the permutation matrix that
    swaps indices 0 and j, f(P A P) = P f(A) P, so dense_matfun(P A P, f)
    = P f(A) e_j, and column j of f(A) is that vector permuted back.
    """
    A = np.asarray(A)
    cols = []
    for j in range(A.shape[0]):
        p = np.arange(A.shape[0])
        p[[0, j]] = p[[j, 0]]
        cols.append(dense_matfun(A[np.ix_(p, p)], f)[p])
    return np.column_stack(cols)


def test_matfun_jordan_block_sqrt():
    # f of a lower 2x2 Jordan block is [[f(a), 0], [f'(a), f(a)]], so the
    # first column, the one dense_matfun returns, holds f'(a)
    J = np.array([[4.0, 0.0], [1.0, 4.0]])
    F = matfun(J, get_function("sqrt"))
    npt.assert_allclose(F, [[2.0, 0.0], [0.25, 2.0]], atol=5e-8)
    npt.assert_allclose(F @ F, J, atol=1e-7)


def test_matfun_exp_functional_equations():
    A = random_matrix(14, 9)
    f = get_function("exp")
    g = get_function("expneg")
    E = matfun(A, f)
    npt.assert_allclose(E @ matfun(A, g), np.eye(14), atol=1e-9 * np.linalg.norm(E))
    # exp(A/2)^2 == exp(A)
    npt.assert_allclose(matfun(A / 2, f) @ matfun(A / 2, f), E,
                        atol=1e-10 * np.linalg.norm(E))


def test_matfun_branch_functions_consistency():
    A = random_matrix(12, 10)
    A = A @ A.T / 6 + 3.0 * np.eye(12)  # spectrum safely in the right half-plane
    S = matfun(A, get_function("sqrt"))
    npt.assert_allclose(S @ S, A, atol=1e-10 * np.linalg.norm(A))
    R = matfun(A, get_function("invsqrt"))
    npt.assert_allclose(S @ R, np.eye(12), atol=1e-9)
    P = matfun(A, get_function("phi"))
    # A * phi(A) = exp(-sqrt(A)) - I
    npt.assert_allclose(A @ P, matfun(S, get_function("expneg")) - np.eye(12),
                        atol=1e-9 * np.linalg.norm(A))


def oracle_case(n, fid):
    rng = np.random.default_rng(100 * n + len(fid))
    return rng.standard_normal((n, n)) * 0.6 + np.diag(rng.uniform(2.0, 5.0, n))


@pytest.mark.parametrize("fid", oracles.FUNCTION_IDS)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_matfun_against_independent_oracle(fid, n):
    A = oracle_case(n, fid)
    got = matfun(A, get_function(fid))
    want = oracles.dense_fA(A, fid)
    npt.assert_allclose(got, want, atol=1e-10 * max(1.0, np.linalg.norm(want)))


@pytest.mark.parametrize("fid", ["exp", "expneg", "phi"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_exp_oracle_matches_mpmath(fid, n):
    # the exp oracle (expm_multiply) is itself checked at 40 digits, on the
    # matrices of test_matfun_against_independent_oracle
    A = oracle_case(n, fid)
    got = oracles.dense_fA(A, fid)
    want = oracles.dense_fA_mp(A, fid)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_matfun_clustered_eigenvalues_stay_accurate():
    # nearly defective pair: diagonalization would be ill-conditioned, so
    # only a Schur-based method (or scaling-and-squaring) stays accurate
    A = np.array([[2.0, 1.0, 0.3], [0.0, 2.0 + 1e-9, 1.0], [0.0, 0.0, 3.0]])
    for fid in ("exp", "sqrt", "phi"):
        got = matfun(A, get_function(fid))
        want = oracles.dense_fA(A, fid)
        npt.assert_allclose(got, want, atol=1e-8 * np.linalg.norm(want))


def test_matfun_invsqrt_nonnormal_matches_mpmath():
    # real nonnormal matrix with a close eigenvalue pair: the eigenbasis has
    # condition ~8e5, so an eigenvector route errs by ~cond*eps (4e-11 here)
    rng = np.random.default_rng(1)
    n = 6
    T = np.triu(rng.standard_normal((n, n)))
    T[np.diag_indices(n)] = [1.0, 1.0 + 2.5e-6, 2.0, 2.5, 3.0, 4.0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ T @ Q.T
    V = np.linalg.eig(A)[1]
    assert 1e5 < np.linalg.cond(V) < 1e6
    got = matfun(A, get_function("invsqrt"))
    want = oracles.dense_fA_mp(A, "invsqrt")
    assert got.dtype == np.float64
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("fid", ["sqrt", "invsqrt", "phi"])
def test_matfun_complex_input_matches_mpmath(fid):
    # eigenvalues on both sides of the imaginary axis, none near the cut
    rng = np.random.default_rng(21)
    n = 5
    A = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    A += np.diag([2.0 + 1.0j, -1.0 + 2.0j, -0.5 - 1.5j, 1.0 - 0.5j, 3.0])
    got = matfun(A, get_function(fid))
    want = oracles.dense_fA_mp(A, fid)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("fid", ["sqrt", "invsqrt", "phi"])
def test_matfun_domain_error_near_cut(fid):
    # 1e-14 is off the ray but within 1e-12*||H|| of it
    with pytest.raises(DomainError):
        matfun(np.diag([1e-14, 1.0, 2.0]), get_function(fid))


def test_matfun_domain_error_on_cut_spectrum():
    A = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(DomainError):
        matfun(A, get_function("sqrt"))
    with pytest.raises(DomainError):
        matfun(np.zeros((2, 2)), get_function("invsqrt"))
    # exp has no excluded set
    npt.assert_allclose(matfun(A, get_function("exp")),
                        np.diag(np.exp([1.0, -2.0, 3.0])), rtol=1e-12)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_matfun_makes_one_eigensolve_per_branch_cut_call(fid, monkeypatch):
    # the guard reads its eigenvalues from the one Schur form of H
    calls = []
    original = densela.eig_dense

    def counting_eig(H, **kwargs):
        calls.append(kwargs)
        return original(H, **kwargs)

    def no_other_eigensolve(*args, **kwargs):
        raise AssertionError("dense_matfun made another eigensolve")

    monkeypatch.setattr(densela, "eig_dense", counting_eig)
    for module, name in [(scipy.linalg, "eig"), (scipy.linalg, "eigvals"),
                         (np.linalg, "eig"), (np.linalg, "eigvals"),
                         (scipy.linalg.lapack, "dgeev"),
                         (scipy.linalg.lapack, "zgeev")]:
        monkeypatch.setattr(module, name, no_other_eigensolve)
    f = get_function(fid)
    # a real and a complex H, spectra well right of the cut
    for H in (0.3 * random_matrix(6, 1) + 4.0 * np.eye(6),
              0.3 * random_matrix(5, 9, complex_=True) + 4.0 * np.eye(5)):
        dense_matfun(H, f)
    assert calls == ([{"schur": True}] * 2 if f.has_branch_cut else [])


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_branch_cut_flag_alone_decides_the_guard(fid):
    f = get_function(fid)
    H = np.diag([-1.0, 2.0, 3.0])
    if f.has_branch_cut:
        with pytest.raises(DomainError):
            dense_matfun(H, f)
    else:
        assert np.all(np.isfinite(dense_matfun(H, f)))


def real_with_pairs(blocks, reals, seed, upper=2.0):
    """Q T Q^T: T has the 2 x 2 blocks [[a, b], [-b, a]] (pairs a +/- b i)
    and the real eigenvalues on its diagonal, plus a random upper part."""
    rng = np.random.default_rng(seed)
    n = 2 * len(blocks) + len(reals)
    T = np.triu(upper * rng.standard_normal((n, n)), 1)
    for i, (a, b) in enumerate(blocks):
        T[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[a, b], [-b, a]]
    for i, x in enumerate(reals, start=2 * len(blocks)):
        T[i, i] = x
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ T @ Q.T


def complex_pairs_of_schur_form(H):
    # the 2 x 2 blocks of the real Schur form: one nonzero subdiagonal each
    return int(np.count_nonzero(np.diag(scipy.linalg.schur(H)[0], -1)))


@pytest.mark.parametrize("fid", ["sqrt", "invsqrt", "phi"])
def test_matfun_real_schur_blocks_match_mpmath(fid):
    # a non-normal real H with two complex-conjugate pairs (one left of the
    # imaginary axis) and three real eigenvalues: T has two 2 x 2 blocks
    H = real_with_pairs([(1.0, 2.0), (-0.5, 1.5)], [0.7, 2.0, 3.5], seed=3)
    assert complex_pairs_of_schur_form(H) == 2
    got = dense_matfun(H, get_function(fid))
    want = oracles.dense_fA_mp(H, fid)[:, 0]
    assert got.dtype == np.float64
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_matfun_domain_error_on_complex_pair_near_the_ray():
    # the pair -1 +/- 1e-12 i lies within 1e-12 * ||H||_F of the ray and
    # stays a 2 x 2 block of T; at -1 +/- 1e-3 i it is off the ray
    for b, on_cut in [(1e-12, True), (1e-3, False)]:
        H = real_with_pairs([(-1.0, b)], [2.0, 3.0], seed=4, upper=0.0)
        assert complex_pairs_of_schur_form(H) == 1
        for fid in ("sqrt", "invsqrt", "phi"):
            if on_cut:
                with pytest.raises(DomainError, match="lies on"):
                    dense_matfun(H, get_function(fid))
            else:
                got = dense_matfun(H, get_function(fid))
                assert got.dtype == np.float64 and np.all(np.isfinite(got))


def test_matfun_identity_function_is_exact():
    A = random_matrix(9, 13, complex_=True)
    npt.assert_allclose(matfun(A, get_function("identity")), A, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# LU


def lu_case(structure, rng):
    n = 30
    if structure == "tridiagonal":
        return (np.diag(rng.uniform(3, 4, n)) + np.diag(rng.standard_normal(n - 1), 1)
                + np.diag(rng.standard_normal(n - 1), -1))
    if structure == "banded":
        A = np.diag(rng.uniform(4, 5, n))
        for k in (1, 2, 3):
            A += np.diag(rng.standard_normal(n - k) * 0.5, k)
            A += np.diag(rng.standard_normal(n - k) * 0.5, -k)
        return A
    if structure == "general-sparse":
        A = sp.random(n, n, density=0.15, random_state=np.random.RandomState(4))
        return (A + sp.diags(np.full(n, 5.0))).tocsr()
    if structure == "dense":
        return rng.standard_normal((n, n)) + n * np.eye(n)
    if structure == "a5-stencil":
        return oracles.dense(
            build_operator(parse_matrix_token("A5:n=100")))
    if structure == "complex-bidiagonal":
        return oracles.dense(
            build_operator(parse_matrix_token("A1:n=100:seed=3")))
    n = 200
    if structure == "wide-sparse":
        A = sp.random(n, n, density=0.05, random_state=np.random.RandomState(4))
        return (A + sp.diags(np.full(n, 5.0))).tocsr()
    A = sp.random(n, n, density=0.05, random_state=np.random.RandomState(5))
    B = sp.random(n, n, density=0.05, random_state=np.random.RandomState(6))
    return (A + 1j * B + sp.diags(np.full(n, 5.0 + 1.0j))).tocsr()


@pytest.mark.parametrize("structure", [
    "tridiagonal", "banded", "general-sparse", "dense", "wide-sparse",
    "complex-wide-sparse", "a5-stencil", "complex-bidiagonal"])
def test_factorization_solves_all_structures(structure):
    rng = np.random.default_rng(17)
    A = lu_case(structure, rng)
    Ad = A.toarray() if sp.issparse(A) else A
    n = Ad.shape[0]
    fac = Factorization(A)
    for seed in range(3):
        g = np.random.default_rng(seed)
        for b in (g.standard_normal(n), g.standard_normal(n) + 1j * g.standard_normal(n)):
            x = fac.solve(b)
            npt.assert_allclose(Ad @ x, b, atol=1e-10 * np.linalg.norm(b))
            y = fac.solve(b, adjoint=True)
            npt.assert_allclose(Ad.conj().T @ y, b, atol=1e-10 * np.linalg.norm(b))


def test_lu_complex_adjoint_is_conjugate_transpose():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)) + 8 * np.eye(12)
    fac = Factorization(A)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    npt.assert_allclose(A.conj().T @ fac.solve(b, adjoint=True), b, atol=1e-11)


def test_lu_singular_matrix_raises():
    with pytest.raises(FactorizationError):
        Factorization(np.zeros((4, 4)))
    with pytest.raises(FactorizationError):
        Factorization(np.diag([1.0, 0.0, 2.0]))
    # only the two corner entries: structurally singular
    n = 200
    W = sp.coo_matrix(([1.0, 1.0], ([0, n - 1], [n - 1, 0])), shape=(n, n))
    with pytest.raises(FactorizationError):
        Factorization(W)
