"""Dense linear algebra kernels for the projected small problems.

Everything here operates on small dense matrices (projected Hessenberg /
coupling matrices, shifted blocks), apart from ``Factorization``, the one LU
of a large operator: LAPACK's band LU for a narrow band, SuperLU otherwise.
Eigen/SVD/LU work is delegated to LAPACK and SuperLU;
``dense_matfun`` evaluates the first column f(H) e1 of a matrix function
by the rule its catalog entry holds, behind a guard on the eigenvalues for
the functions with a branch cut.
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

    The inner solve needs only c = f(H) e1, so no other column is formed;
    the rule is the catalog entry's ``first_column``.  A function with a
    branch cut first raises DomainError when an eigenvalue of H lies on the
    ray (-inf, 0] or within 1e-12*||H||_F of it.
    """
    H = _as_square(H)
    if not f.has_branch_cut:
        return f.first_column(H)
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
    return f.first_column(H)


# ---------------------------------------------------------------------------
# LU factorization of the large operators

# widest band, kl + ku + 1, factored by the band LU; LAPACK band storage holds
# (2 kl + ku + 1) n entries, so a wider band goes to SuperLU instead
_BAND_MAX = 128


class Factorization:
    """LU of a square matrix, factored once; solves A x = b and A^H x = b.

    The backend follows from the bandwidths kl, ku of the matrix's stored
    entries: LAPACK's band LU with partial pivoting (gbtrf/gbtrs) when
    kl + ku + 1 <= ``_BAND_MAX``, else SuperLU (``splu``, default COLAMD
    column ordering).  Raises FactorizationError on an exactly singular
    pivot.
    """

    def __init__(self, matrix):
        coo = sparse.csr_matrix(matrix).tocoo()
        self.dtype = np.complex128 if np.iscomplexobj(coo.data) else np.float64
        offsets = coo.row - coo.col
        kl = int(max(0, offsets.max(initial=0)))
        ku = int(max(0, -offsets.min(initial=0)))
        self._splu = None
        if kl + ku + 1 > _BAND_MAX:
            try:
                self._splu = splu(coo.tocsc().astype(self.dtype))
            except RuntimeError as exc:
                raise FactorizationError(f"sparse LU failed: {exc}") from exc
            return
        ab = np.zeros((2 * kl + ku + 1, coo.shape[0]), dtype=self.dtype)
        # LAPACK band storage: ab[kl + ku + i - j, j] = A[i, j]
        ab[kl + ku + offsets, coo.col] = coo.data
        gbtrf, self._gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, kl, ku)
        if info > 0:
            raise FactorizationError(f"banded LU has a zero pivot at index {info - 1}")
        if info < 0:  # pragma: no cover
            raise FactorizationError(f"gbtrf illegal argument {-info}")
        self._band = (lu, kl, ku, ipiv)

    def solve(self, b, adjoint=False):
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype == np.float64:
            return (self._solve(np.ascontiguousarray(b.real), adjoint)
                    + 1j * self._solve(np.ascontiguousarray(b.imag), adjoint))
        return self._solve(b.astype(self.dtype, copy=False), adjoint)

    def _solve(self, b, adjoint):
        if self._splu is not None:
            return self._splu.solve(b, trans="H" if adjoint else "N")
        lu, kl, ku, ipiv = self._band
        # f2py gbtrs wants b before ipiv and integer trans codes (0 = N, 2 = C)
        x, info = self._gbtrs(lu, kl, ku, b, ipiv, trans=2 if adjoint else 0)
        if info != 0:  # pragma: no cover
            raise FactorizationError(f"gbtrs failed with info={info}")
        return x
