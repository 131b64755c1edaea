"""Dense linear algebra kernels for the projected small problems.

Everything here operates on small dense matrices (projected Hessenberg /
coupling matrices, shifted blocks) or on structured factorizations of the
large operators.  Eigen/SVD/LU work is delegated to LAPACK and SuperLU;
``dense_matfun`` evaluates the first column f(H) e1 of a matrix function:
scipy's ``expm`` for the exponential, and for the branch-cut functions
scipy's Schur square root behind a guard on the eigenvalues.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from .functions import DomainError, ScalarFunction

__all__ = [
    "EigenSolveError",
    "FactorizationError",
    "EigDecomp",
    "eig_dense",
    "sigma_min_shifted",
    "dense_matfun",
    "Factorization",
    "lu_factor",
]


class EigenSolveError(RuntimeError):
    """The QR eigenvalue iteration failed to converge."""


class FactorizationError(RuntimeError):
    """LU factorization hit an exactly singular pivot."""


def _as_square(H, name="H"):
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {H.shape}")
    if H.dtype.kind not in "fc":
        H = H.astype(np.float64)
    if not np.all(np.isfinite(H)):
        raise ValueError(f"{name} contains non-finite entries")
    return H


@dataclass
class EigDecomp:
    values: np.ndarray               # (d,) complex
    vectors: np.ndarray | None       # (d, d) complex, unit columns; or None


def eig_dense(H, vectors=True):
    """All eigenvalues, and unless ``vectors=False`` the eigenvectors, of H.

    Backed by LAPACK's nonsymmetric solver (Hessenberg reduction, shifted QR
    to Schur form, back-substitution for the eigenvectors).  With
    ``vectors=False`` no eigenvector is computed and ``vectors`` is None.
    """
    H = _as_square(H)
    try:
        if not vectors:
            w = scipy.linalg.eigvals(H, check_finite=False)
            return EigDecomp(np.asarray(w, dtype=complex), None)
        w, vr = scipy.linalg.eig(H, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR stagnation
        raise EigenSolveError(f"QR eigenvalue iteration did not converge: {exc}") from exc
    vr = np.asarray(vr, dtype=complex)
    norms = np.linalg.norm(vr, axis=0)
    norms[norms == 0.0] = 1.0
    vr = vr / norms
    return EigDecomp(np.asarray(w, dtype=complex), vr)


def sigma_min_shifted(M, theta):
    """Smallest singular value of M - theta*I."""
    M = _as_square(M, "M")
    shifted = M.astype(np.result_type(M.dtype, np.asarray(theta).dtype), copy=True)
    shifted[np.diag_indices_from(shifted)] -= theta
    vals = scipy.linalg.svdvals(shifted, check_finite=False)
    return float(vals[-1])


# ---------------------------------------------------------------------------
# dense matrix functions

def dense_matfun(H, f: ScalarFunction):
    """First column f(H) e1 of the matrix function of a small dense matrix.

    The inner solve needs only c = f(H) e1, so no other column is formed.
    exp/expneg take the first column of scipy's ``expm`` (scaling and
    squaring with a Pade approximant; Al-Mohy & Higham, SIMAX 2009).  The
    branch-cut functions share the principal square root S of H from scipy's
    blocked Schur method (Deadman, Higham & Ralha 2013; real Schur form for
    real H, Higham 1987): sqrt returns S e1, invsqrt S^{-1} e1 and phi
    H^{-1} (exp(-S) - I) e1, each by one vector solve.  They first raise
    DomainError when an eigenvalue of H lies on the ray (-inf, 0] or within
    1e-12*||H||_F of it.
    """
    H = _as_square(H)
    if f.id == "identity":
        return H[:, 0].copy()
    if f.id == "exp":
        return scipy.linalg.expm(H)[:, 0]
    if f.id == "expneg":
        return scipy.linalg.expm(-H)[:, 0]
    if f.id not in ("sqrt", "invsqrt", "phi"):
        raise ValueError(f"no dense evaluation for function {f.id!r}")

    # distance of each eigenvalue to the closed ray (-inf, 0]; ||H||_F bounds
    # ||H||_2 from above, so the tolerance is never looser than a 2-norm one
    lam = eig_dense(H, vectors=False).values
    dist = np.where(lam.real <= 0.0, np.abs(lam.imag), np.abs(lam))
    bad = dist <= 1e-12 * float(np.linalg.norm(H))
    if np.any(bad):
        raise DomainError(
            f"{f.id}: eigenvalue {lam[bad][0]} lies on (or within 1e-12*||H||_F of) "
            "the excluded ray (-inf, 0]"
        )
    S = scipy.linalg.sqrtm(H)
    if f.id == "sqrt":
        return S[:, 0]
    e1 = np.zeros(H.shape[0], dtype=S.dtype)
    e1[0] = 1.0
    if f.id == "invsqrt":
        return np.linalg.solve(S, e1)
    # phi(z) = (exp(-sqrt(z)) - 1) / z
    return np.linalg.solve(H, scipy.linalg.expm(-S)[:, 0] - e1)


# ---------------------------------------------------------------------------
# structured LU factorizations of the large operators


class Factorization:
    """Base class: solve A x = b (or A^H x = b) from a stored factorization."""

    dtype = np.float64

    def solve(self, b, adjoint=False):
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype == np.float64:
            return (self._solve(np.ascontiguousarray(b.real), adjoint)
                    + 1j * self._solve(np.ascontiguousarray(b.imag), adjoint))
        return self._solve(b.astype(self.dtype, copy=False), adjoint)

    def _solve(self, b, adjoint):  # pragma: no cover - abstract
        raise NotImplementedError


def _band_dtype(arrays):
    return np.complex128 if any(np.iscomplexobj(a) for a in arrays) else np.float64


class _TridiagFactorization(Factorization):
    """Thomas-style tridiagonal LU with partial pivoting (LAPACK gttrf)."""

    def __init__(self, dl, d, du):
        self.dtype = _band_dtype((dl, d, du))
        dl = np.asarray(dl, dtype=self.dtype)
        d = np.asarray(d, dtype=self.dtype)
        du = np.asarray(du, dtype=self.dtype)
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
        self._gttrs = gttrs
        dl_f, d_f, du_f, du2, ipiv, info = gttrf(dl, d, du)
        if info > 0:
            raise FactorizationError(f"tridiagonal LU has a zero pivot at index {info - 1}")
        if info < 0:  # pragma: no cover
            raise FactorizationError(f"gttrf illegal argument {-info}")
        self._fact = (dl_f, d_f, du_f, du2, ipiv)

    def _solve(self, b, adjoint):
        trans = "C" if adjoint else "N"
        x, info = self._gttrs(*self._fact, b, trans=trans)
        if info != 0:  # pragma: no cover
            raise FactorizationError(f"gttrs failed with info={info}")
        return x


class _BandedFactorization(Factorization):
    """Banded LU with partial pivoting (LAPACK gbtrf/gbtrs)."""

    def __init__(self, matrix, kl, ku):
        csr = sparse.csr_matrix(matrix)
        self.dtype = np.complex128 if np.iscomplexobj(csr.data) else np.float64
        n = csr.shape[0]
        self._kl, self._ku = kl, ku
        ab = np.zeros((2 * kl + ku + 1, n), dtype=self.dtype)
        coo = csr.tocoo()
        # LAPACK band storage: ab[kl + ku + i - j, j] = A[i, j]
        ab[kl + ku + coo.row - coo.col, coo.col] = coo.data
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._gbtrs = gbtrs
        lu, ipiv, info = gbtrf(ab, kl, ku)
        if info > 0:
            raise FactorizationError(f"banded LU has a zero pivot at index {info - 1}")
        if info < 0:  # pragma: no cover
            raise FactorizationError(f"gbtrf illegal argument {-info}")
        self._lu = lu
        self._ipiv = ipiv

    def _solve(self, b, adjoint):
        # f2py gbtrs wants b before ipiv and integer trans codes (0 = N, 2 = C)
        x, info = self._gbtrs(self._lu, self._kl, self._ku, b, self._ipiv,
                              trans=2 if adjoint else 0)
        if info != 0:  # pragma: no cover
            raise FactorizationError(f"gbtrs failed with info={info}")
        return x


class _SparseFactorization(Factorization):
    """General sparse LU with partial pivoting (SuperLU)."""

    def __init__(self, matrix):
        csc = sparse.csc_matrix(matrix)
        self.dtype = np.complex128 if np.iscomplexobj(csc.data) else np.float64
        csc = csc.astype(self.dtype)
        try:
            self._lu = splu(csc)
        except RuntimeError as exc:
            raise FactorizationError(f"sparse LU failed: {exc}") from exc

    def _solve(self, b, adjoint):
        return self._lu.solve(b, trans="H" if adjoint else "N")


class _DenseFactorization(Factorization):
    def __init__(self, matrix):
        A = np.asarray(matrix)
        self.dtype = np.complex128 if np.iscomplexobj(A) else np.float64
        A = A.astype(self.dtype)
        try:
            self._fact = scipy.linalg.lu_factor(A, check_finite=False)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise FactorizationError(f"dense LU failed: {exc}") from exc
        diag = np.abs(np.diag(self._fact[0]))
        if np.any(diag == 0.0):
            raise FactorizationError("dense LU has a zero pivot")

    def _solve(self, b, adjoint):
        return scipy.linalg.lu_solve(self._fact, b, trans=2 if adjoint else 0,
                                     check_finite=False)


def lu_factor(data, structure_tag, bandwidths=None):
    """Factor a matrix once, dispatching on its structure tag.

    tridiagonal -> Thomas-style gttrf; banded -> gbtrf (needs ``bandwidths``
    = (kl, ku) or a sparse matrix to infer them from); general-sparse ->
    SuperLU; dense -> getrf.  The returned object solves both A x = b and
    A^H x = b from the same factorization.
    """
    if structure_tag == "tridiagonal":
        if sparse.issparse(data) or (isinstance(data, np.ndarray) and data.ndim == 2):
            mat = sparse.csr_matrix(data) if not sparse.issparse(data) else data
            dl = mat.diagonal(-1)
            d = mat.diagonal(0)
            du = mat.diagonal(1)
        else:
            dl, d, du = data
        return _TridiagFactorization(dl, d, du)
    if structure_tag == "banded":
        if bandwidths is None:
            coo = sparse.coo_matrix(data)
            offsets = coo.col - coo.row
            bandwidths = (int(max(0, -offsets.min(initial=0))),
                          int(max(0, offsets.max(initial=0))))
        return _BandedFactorization(data, *bandwidths)
    if structure_tag == "general-sparse":
        return _SparseFactorization(data)
    if structure_tag == "dense":
        return _DenseFactorization(data)
    raise ValueError(f"unknown structure tag {structure_tag!r}")
