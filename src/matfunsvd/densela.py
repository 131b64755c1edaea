"""Dense linear algebra kernels for the projected small problems.

``eig_dense`` and ``dense_matfun`` operate on small dense matrices
(projected Hessenberg and coupling matrices); ``Factorization`` is the one
SuperLU factorization of a large operator.  ``eig_dense`` returns LAPACK's
eigenpairs or Schur form as computed; ``dense_matfun`` evaluates the first
column f(H) e1 of a matrix function by the rule its catalog entry holds.
For the functions with a branch cut it factors H = Z T Z^H once, with
LAPACK's Schur routine; a guard reads the eigenvalues it returns with T,
and the rule works on T.  The Schur routine is called directly, with the
workspace its own query asked for at that dimension.
"""

import functools

import numpy as np
import scipy.linalg
import scipy.linalg.lapack as lapack
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .functions import DomainError, ScalarFunction

__all__ = [
    "FactorizationError",
    "eig_dense",
    "dense_matfun",
    "Factorization",
]


class FactorizationError(RuntimeError):
    """LU factorization hit an exactly singular pivot."""


def _as_square(H):
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be a square 2-d array, got shape {H.shape}")
    if H.dtype.kind not in "fc":
        H = H.astype(np.float64)
    if not np.all(np.isfinite(H)):
        raise ValueError("H contains non-finite entries")
    return H


@functools.cache
def _lwork(routine, n):
    """Workspace LAPACK's own query asks of gees at dimension n.

    It covers the blocked Hessenberg reduction, so it is queried once per
    routine and dimension rather than passed as the minimum (3n).
    """
    work = getattr(lapack, routine)(_unsorted, np.zeros((n, n)),
                                    lwork=-1)[-2][0]
    return int(work.real)


def _unsorted(*_):
    # gees' selection callback; with sort_t=0 LAPACK never calls it
    return 0


def eig_dense(H, schur=False):
    """LAPACK's eigenvalues w of H, with its eigenvectors or its Schur form.

    The nonsymmetric solver (Hessenberg reduction, shifted QR to Schur
    form, back-substitution for the unit right eigenvectors vr) returns
    (w, vr); vr is real when every eigenvalue of a real H is.  With
    ``schur=True`` one call of gees returns (w, T, Z), H = Z T Z^H with T
    quasi-triangular for real H and triangular else.  w is complex.
    """
    H = _as_square(H)
    if not schur:
        return scipy.linalg.eig(H, check_finite=False)
    routine = "zgees" if H.dtype.kind == "c" else "dgees"
    T, _, *w, Z, _, info = getattr(lapack, routine)(
        _unsorted, H, lwork=_lwork(routine, H.shape[0]))
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")
    return (w[0] + 1j * w[1] if len(w) == 2 else w[0]), T, Z  # [wr, wi] or [w]


# ---------------------------------------------------------------------------
# dense matrix functions

def dense_matfun(H, f: ScalarFunction):
    """First column f(H) e1 of the matrix function of a small dense matrix.

    The inner solve needs only c = f(H) e1, so no other column is formed;
    the rule is the catalog entry's ``first_column``, applied to H.  For a
    function with a branch cut, H = Z T Z^H is factored once (real Schur
    form for real H).  A guard raises DomainError when an eigenvalue of T
    (those of H) lies on the ray (-inf, 0] or within 1e-12*||H||_F of it;
    otherwise the rule gets T and b = Z^H e1, and c = Z f(T) b.
    """
    H = _as_square(H)
    if not f.has_branch_cut:
        return f.first_column(H)
    lam, T, Z = eig_dense(H, schur=True)
    # distance of each eigenvalue to the closed ray (-inf, 0]; ||H||_F bounds
    # ||H||_2 from above, so the tolerance is never looser than a 2-norm one
    dist = np.where(lam.real <= 0.0, np.abs(lam.imag), np.abs(lam))
    bad = dist <= 1e-12 * float(np.linalg.norm(H))
    if np.any(bad):
        raise DomainError(
            f"projected matrix of dimension {H.shape[0]} hit the excluded set "
            f"of {f.id}: eigenvalue {lam[bad][0]} lies on (or within "
            "1e-12*||H||_F of) the ray (-inf, 0]")
    return Z @ f.first_column(T, Z[0].conj())


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
