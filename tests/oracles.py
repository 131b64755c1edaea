"""Independent reference computations shared by the test suite.

Everything here is built on scipy/mpmath primitives that do not share code
with the package under test, so agreement is meaningful evidence.
"""

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import expm_multiply

FUNCTION_IDS = ("exp", "expneg", "sqrt", "invsqrt", "phi")


def dense_fA(A, fid):
    """Dense f(A) via scipy building blocks (expm_multiply / fractional power).

    The package takes its exponential from ``scipy.linalg.expm`` (scaling
    and squaring with a Pade approximant) and its square roots from
    ``sqrtm``.  Here the exponential comes from ``expm_multiply`` applied to
    the identity (truncated Taylor series with scaling; Al-Mohy & Higham,
    SISC 2011) and the square roots from ``fractional_matrix_power``
    (Higham-Lin Schur-Pade with its own triangular square root).
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    eye = np.eye(n)
    if fid == "exp":
        return expm_multiply(A, eye)
    if fid == "expneg":
        return expm_multiply(-A, eye)
    if fid == "sqrt":
        return scipy.linalg.fractional_matrix_power(A, 0.5)
    if fid == "invsqrt":
        return scipy.linalg.fractional_matrix_power(A, -0.5)
    if fid == "phi":
        # phi(z) = (exp(-sqrt(z)) - 1)/z, so phi(A) = A^{-1}(e^{-sqrt(A)} - I)
        S = scipy.linalg.fractional_matrix_power(A, 0.5)
        return scipy.linalg.solve(A, expm_multiply(-S, eye) - eye)
    raise ValueError(fid)


def dense_fA_mp(A, fid, dps=40):
    """Dense f(A) in mpmath at ``dps`` digits.

    mpmath's expm and sqrtm (a Denman-Beavers iteration) share no code with
    scipy or the package; meant for small n.
    """
    import mpmath

    with mpmath.workdps(dps):
        M = mpmath.matrix(np.asarray(A, dtype=complex).tolist())
        if fid in ("exp", "expneg"):
            R = mpmath.expm(M if fid == "exp" else -M)
            return np.array(R.tolist(), dtype=complex)
        S = mpmath.sqrtm(M)
        if fid == "sqrt":
            R = S
        elif fid == "invsqrt":
            R = mpmath.inverse(S)
        elif fid == "phi":
            R = mpmath.inverse(M) * (mpmath.expm(-S) - mpmath.eye(M.rows))
        else:
            raise ValueError(fid)
        return np.array(R.tolist(), dtype=complex)


def dense_triplets(F, k=3):
    """Leading k singular triplets of a dense matrix, by full SVD."""
    U, s, Vh = np.linalg.svd(np.asarray(F))
    return s[:k], U[:, :k], Vh[:k].conj().T


def write_mtx(path, A):
    """Write a dense array as a coordinate-format general Matrix Market file."""
    A = np.asarray(A)
    rows, cols = np.nonzero(A)
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{A.shape[0]} {A.shape[1]} {rows.size}"]
    for i, j in zip(rows, cols):
        lines.append(f"{i + 1} {j + 1} {float(A[i, j])!r}")
    path = str(path)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def make_operator_from_dense(A):
    """Wrap a dense array in the package operator protocol for direct runs."""
    import matfunsvd as M

    return M.build_operator(M.MatrixSpec(kind="dense", dense_values=np.asarray(A)))
