"""Independent reference computations and fixtures shared by the test suite.

The references are built on numpy/scipy/mpmath primitives that do not share
code with the package under test, so agreement is meaningful evidence.
"""

import csv
import io
from types import SimpleNamespace

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


def dense(A):
    """The operator as a dense array, through its public matvec."""
    return A.apply(np.eye(A.n))


# ---------------------------------------------------------------------------
# the projected problem in its 2j x 2j form


def khat(M, T):
    """K = [[0, M], [T, 0]] for square coupling blocks M and T."""
    return np.block([[np.zeros_like(M), M], [T, np.zeros_like(T)]])


def khat_eigenpairs(M, T):
    """One eigenpair of K = khat(M, T) from each of its +/- pairs.

    np.linalg.eig of the 2j x 2j matrix.  The spectrum of K is symmetric
    under negation; each pair is found by matching the rightmost remaining
    eigenvalue lam with the remaining one closest to -lam, so a pair on the
    imaginary axis counts once whatever signs rounding gives the real parts.
    Which member represents a pair does not matter to the callers: the
    other has the eigenvector [x; -y] with the same |x|, |y| and |lam|.
    Returns the j values, ordered by (-|lam|, -Re lam, -Im lam), and their
    unit eigenvectors as columns.
    """
    lam, vecs = np.linalg.eig(khat(M, T))
    rest = list(range(lam.size))
    keep = []
    while rest:
        i = max(rest, key=lambda t: (lam[t].real, lam[t].imag))
        rest.remove(i)
        rest.remove(min(rest, key=lambda t: abs(lam[t] + lam[i])))
        keep.append(i)
    keep.sort(key=lambda t: (-abs(lam[t]), -lam[t].real, -lam[t].imag))
    vecs = vecs[:, keep]
    return lam[keep], vecs / np.linalg.norm(vecs, axis=0)


def leading_eigenpair(M, T):
    """The leading (value, unit vector) of khat_eigenpairs(M, T)."""
    lam, vecs = khat_eigenpairs(M, T)
    return lam[0], vecs[:, 0]


def tau_certificate(state, k):
    """The a-posteriori certificate of the step-k leading estimate of a state.

    The step-k pair (theta, [x; y]) of K_k = khat(M[:k, :k], T[:k, :k]) is
    embedded in the 2m-dimensional space of K = khat(M, T), m = state.j,
    zero-padded with each block normalized and weighted by 1/sqrt(2).  The
    2x2 partition of K that the embedding qt and a unitary completion Y
    induce gives s = ||K^H qt - conj(theta) qt||, r = ||Y^H K qt||, delta =
    sigma_min(Y^H K Y - theta I) and tau = 2 r / delta.  When r < delta^2 /
    (4 s), the eigenvector of K (np.linalg.eig) with the largest overlap
    with qt has tail_norm <= tail_bound = tau / sqrt(1 + tau^2) outside the
    embedded positions, and its eigenvalue lies within s * tau of theta.
    Returns the numbers; the callers assert the two inequalities.
    """
    m = state.j
    M, T = state.M, state.T[:m]
    K = khat(M, T)
    theta, v = leading_eigenpair(M[:k, :k], T[:k, :k])
    qt = np.zeros(2 * m, dtype=complex)
    qt[:k] = v[:k] / (np.sqrt(2.0) * np.linalg.norm(v[:k]))
    qt[m:m + k] = v[k:] / (np.sqrt(2.0) * np.linalg.norm(v[k:]))
    Y = scipy.linalg.null_space(qt.conj()[None, :])

    s_norm = float(np.linalg.norm(K.conj().T @ qt - np.conj(theta) * qt))
    r_norm = float(np.linalg.norm(Y.conj().T @ (K @ qt)))
    delta = float(scipy.linalg.svdvals(Y.conj().T @ K @ Y
                                       - theta * np.eye(2 * m - 1))[-1])
    tau = 2.0 * r_norm / delta if delta > 0 else np.inf
    lam, vecs = np.linalg.eig(K)
    i = int(np.argmax(np.abs(vecs.conj().T @ qt)))  # unit columns
    tail = np.delete(vecs[:, i], np.r_[:k, m:m + k])
    return SimpleNamespace(
        tau_bound=tau, s_norm=s_norm, r_norm=r_norm, delta_true=delta,
        condition_ok=s_norm > 0.0 and r_norm < delta ** 2 / (4.0 * s_norm),
        tail_norm=float(np.linalg.norm(tail)),
        theta_matched=float(abs(lam[i])),
        theta_shift=float(abs(lam[i] - theta)),
        tail_bound=tau / np.sqrt(1.0 + tau ** 2) if np.isfinite(tau) else 1.0)


def state_from(M, T, g1, g2):
    """A BidiagState holding the stored entries of the given coupling
    matrices (M upper triangular, T (j+1) x j upper Hessenberg) and a
    ledger with inner error estimates g1, g2."""
    from matfunsvd.outer import BidiagState

    j = M.shape[0]
    st = BidiagState(np.ones(j + 1, dtype=M.dtype), j)
    for c in range(j):
        st.append_columns(M[: c + 1, c], T[: c + 2, c])
        st.ledger.append_step(g1[c], g2[c], 1e-8)
    return st


# ---------------------------------------------------------------------------
# CLI tables

_INT_COLUMNS = {"outer", "inner_total", "index", "iterations", "sign"}
_BOOL_COLUMNS = {"converged"}
_STR_COLUMNS = {"matrix", "function"}


def _cell(column, text):
    if text == "":
        return None
    if column in _STR_COLUMNS:
        return text
    if column in _BOOL_COLUMNS:
        if text not in ("true", "false"):
            raise ValueError(f"bad boolean cell {text!r} in column {column}")
        return text == "true"
    if column in _INT_COLUMNS:
        return int(text)
    return float(text)


def parse_csv(text):
    """Typed row dicts of a table written by ``cli.emit_csv``."""
    reader = csv.reader(io.StringIO(text))
    try:
        columns = next(reader)
    except StopIteration:
        raise ValueError("empty CSV input") from None
    rows = []
    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(columns):
            raise ValueError(f"row width {len(raw)} != header width {len(columns)}")
        rows.append({c: _cell(c, v) for c, v in zip(columns, raw)})
    return rows
