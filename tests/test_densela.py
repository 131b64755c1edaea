"""Dense kernels: eig and shifted-sigma wrappers, f(H), structured LU."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from matfunsvd import DomainError, get_function
from matfunsvd.densela import (FactorizationError, dense_matfun, eig_dense,
                               lu_factor, sigma_min_shifted)

import oracles


def random_matrix(n, seed, complex_=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if complex_:
        A = A + 1j * rng.standard_normal((n, n))
    return A


# ---------------------------------------------------------------------------
# eig / shifted sigma


@pytest.mark.parametrize("n,seed", [(5, 3), (20, 4), (40, 5)])
def test_eig_dense_residuals(n, seed):
    A = random_matrix(n, seed, complex_=(seed % 2 == 0))
    dec = eig_dense(A)
    scale = np.linalg.norm(A, 2)
    for i in range(n):
        v = dec.vectors[:, i]
        npt.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)
        resid = np.linalg.norm(A @ v - dec.values[i] * v)
        assert resid <= 1e3 * n * np.finfo(float).eps * scale


def test_sigma_min_shifted_matches_svd():
    A = random_matrix(10, 8, complex_=True)
    for theta in (0.0, 1.5, 2.0 - 0.5j):
        want = np.linalg.svd(A - theta * np.eye(10), compute_uv=False)[-1]
        npt.assert_allclose(sigma_min_shifted(A, theta), want, rtol=1e-11)


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


def test_matfun_identity_function_is_exact():
    A = random_matrix(9, 13, complex_=True)
    npt.assert_allclose(matfun(A, get_function("identity")), A, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# structured LU


def lu_case(structure, n, rng):
    if structure == "tridiagonal":
        A = (np.diag(rng.uniform(3, 4, n)) + np.diag(rng.standard_normal(n - 1), 1)
             + np.diag(rng.standard_normal(n - 1), -1))
        return A, None
    if structure == "banded":
        A = np.diag(rng.uniform(4, 5, n))
        for k in (1, 2, 3):
            A += np.diag(rng.standard_normal(n - k) * 0.5, k)
            A += np.diag(rng.standard_normal(n - k) * 0.5, -k)
        return A, (3, 3)
    if structure == "general-sparse":
        A = sp.random(n, n, density=0.15, random_state=np.random.RandomState(4))
        A = A + sp.diags(np.full(n, 5.0))
        return A.tocsr(), None
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    return A, None


@pytest.mark.parametrize("structure", ["tridiagonal", "banded", "general-sparse", "dense"])
def test_lu_factor_solve_all_structures(structure):
    rng = np.random.default_rng(17)
    n = 30
    A, bw = lu_case(structure, n, rng)
    Ad = A.toarray() if sp.issparse(A) else A
    fac = lu_factor(A, structure, bandwidths=bw)
    for seed in range(3):
        b = np.random.default_rng(seed).standard_normal(n)
        x = fac.solve(b)
        npt.assert_allclose(Ad @ x, b, atol=1e-10 * np.linalg.norm(b))
        y = fac.solve(b, adjoint=True)
        npt.assert_allclose(Ad.conj().T @ y, b, atol=1e-10 * np.linalg.norm(b))


def test_lu_complex_adjoint_is_conjugate_transpose():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)) + 8 * np.eye(12)
    fac = lu_factor(A, "dense")
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    npt.assert_allclose(A.conj().T @ fac.solve(b, adjoint=True), b, atol=1e-11)


def test_lu_singular_matrix_raises():
    A = np.zeros((4, 4))
    with pytest.raises(FactorizationError):
        lu_factor(A, "dense")
    T = np.diag([1.0, 0.0, 2.0])
    with pytest.raises(FactorizationError):
        lu_factor(T, "tridiagonal")
