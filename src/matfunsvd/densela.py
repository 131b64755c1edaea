"""Dense linear algebra kernels for the projected small problems.

Everything here operates on small dense matrices (projected Hessenberg /
coupling matrices, shifted blocks), apart from ``Factorization``, the one
SuperLU factorization of a large operator.
Eigen/SVD/LU work is delegated to LAPACK and SuperLU;
``dense_matfun`` evaluates the first column f(H) e1 of a matrix function
by the rule its catalog entry holds, behind a guard on the eigenvalues for
the functions with a branch cut.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
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
            f"projected matrix of dimension {H.shape[0]} hit the excluded set "
            f"of {f.id}: eigenvalue {lam[bad][0]} lies on (or within "
            "1e-12*||H||_F of) the ray (-inf, 0]")
    return f.first_column(H)


# ---------------------------------------------------------------------------
# LU factorization of the large operators

class Factorization:
    """LU of a square matrix, factored once; solves A x = b and A^H x = b.

    SuperLU with partial pivoting and the minimum-degree column ordering of
    the pattern of A^T + A, which on the 5-point A5 stencil makes less fill
    than a band LU and factors faster than COLAMD.  Panel size and relax
    (SuperLU's supernode sizes; speed only) are fixed at 4: building and
    factoring A5 took 3.6 ms against 4.6 ms with SuperLU's defaults at
    n=2500, and 15.7 against 20.0 ms at n=10000 (one BLAS thread).  A real
    factor solves a complex right-hand side as its real and imaginary
    parts.  Raises FactorizationError on an exactly singular pivot.
    """

    def __init__(self, matrix):
        csc = sparse.csc_matrix(matrix)
        self.dtype = np.complex128 if np.iscomplexobj(csc.data) else np.float64
        try:
            self._lu = splu(csc.astype(self.dtype), permc_spec="MMD_AT_PLUS_A",
                            options={"PanelSize": 4, "Relax": 4})
        except RuntimeError as exc:
            raise FactorizationError(f"sparse LU failed: {exc}") from exc

    def solve(self, b, adjoint=False):
        b = np.asarray(b)
        trans = "H" if adjoint else "N"
        if np.iscomplexobj(b) and self.dtype == np.float64:
            return (self._lu.solve(np.ascontiguousarray(b.real), trans)
                    + 1j * self._lu.solve(np.ascontiguousarray(b.imag), trans))
        return self._lu.solve(b.astype(self.dtype, copy=False), trans)
