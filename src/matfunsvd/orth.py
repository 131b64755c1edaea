"""Orthogonalization kernel shared by the inner and outer iterations."""

import numpy as np

__all__ = ["BasisBreakdown", "rgs"]

_EPS = float(np.finfo(np.float64).eps)


class BasisBreakdown(Exception):
    """New direction is (numerically) inside the span of the basis.

    Carries the accumulated coefficients so callers can finish bookkeeping:
    ``coeffs[:-1]`` are the projections onto the basis columns and
    ``coeffs[-1]`` is the (tiny) norm of the orthogonalized remainder.
    """

    def __init__(self, coeffs):
        super().__init__("orthogonalization breakdown: vector lies in the span")
        self.coeffs = coeffs


def rgs(z, basis):
    """Two-pass classical Gram-Schmidt against orthonormal columns.

    ``basis`` is an n x k array with orthonormal columns, of any width k >= 0.
    Returns ``(q, coeffs)`` where ``coeffs`` holds the accumulated projection
    coefficients with the normalization appended as the last entry, so that
    ``z == column_stack([basis, q]) @ coeffs`` up to rounding.  Raises
    :class:`BasisBreakdown` when the remainder norm is at or below
    ``n * eps * ||z||``, so a zero z breaks down at every width.
    """
    z = np.asarray(z)
    if z.ndim != 1:
        raise ValueError("rgs expects a 1-d vector")
    n = z.shape[0]
    if basis.shape[0] != n:
        raise ValueError("basis row count does not match vector length")

    # two passes of classical Gram-Schmidt; the second pass repairs the
    # cancellation the first one can leave behind.  np.dot, not @: for a
    # one-column F-order basis @ takes a non-BLAS loop, 10x slower
    c1 = basis.conj().T @ z
    r = z - np.dot(basis, c1)
    c2 = basis.conj().T @ r
    r = r - np.dot(basis, c2)
    coeffs = c1 + c2

    rnorm = float(np.linalg.norm(r))
    if rnorm <= n * _EPS * float(np.linalg.norm(z)):
        raise BasisBreakdown(np.append(coeffs, rnorm))
    return r / rnorm, np.append(coeffs, rnorm)

