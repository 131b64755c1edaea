"""Classical Gram-Schmidt kernels shared by the inner and outer iterations.

``rgs`` orthogonalizes one vector with two passes (CGS2), or one Arnoldi
pair with one pass and a delayed second pass for the column before it
(DCGS2: Swirydowicz, Langou, Ananthan, Yang & Thomas, "Low synchronization
Gram-Schmidt and GMRES algorithms", NLAA 2021; Bielich et al., "Low-synch
Gram-Schmidt with delayed reorthogonalization for Krylov solvers", Parallel
Computing 2022).  Every projection is taken as conj(z^H B), so a complex
basis B is never copied to conjugate it.
"""

import math

import numpy as np
from scipy.linalg.blas import daxpy, dgemm, zaxpy, zgemm

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
    """Classical Gram-Schmidt of a vector or an Arnoldi pair against ``basis``.

    A vector z (1-d) gets two passes against the n x k orthonormal columns
    of ``basis``, of any width k >= 0.  Returns ``(q, coeffs)`` where
    ``coeffs`` holds the accumulated projection coefficients with the
    normalization appended as the last entry, so that
    ``z == column_stack([basis, q]) @ coeffs`` up to rounding.  Raises
    :class:`BasisBreakdown` when the remainder norm is at or below
    ``n * eps * ||z||``, so a zero z breaks down at every width.

    A pair z (a C-contiguous 2 x n array, rows ``[y, w]``) is one DCGS2
    step of Arnoldi: ``y`` is the last column of ``basis``, after one pass
    only, ``w = A y``, and the other k - 1 columns Q are orthonormal.  One
    product conj(z^H basis) gives the second pass of y, its norm rho by
    Pythagoras, and the first pass of w against Q and the reorthogonalized
    y.  Returns the 2 x k coefficients ``[[s, rho], [t, tau]]`` of
    ``y = Q s + rho p`` and ``w = Q t + tau p + r``, with p of unit norm
    and r the remainder.  z is overwritten with ``[p, r / rho]``; r / rho
    is the remainder of A p = (w - A Q s) / rho.  With k = 1 there is
    nothing to reorthogonalize: y is taken as final, rho = 1 and p = y.
    No breakdown is raised; the caller judges a small remainder.
    """
    z = np.asarray(z)
    if z.ndim == 2:
        return _delayed_pair(z, basis)
    if z.ndim != 1:
        raise ValueError("rgs expects a vector or a 2 x n pair")
    n = z.shape[0]
    if basis.shape[0] != n:
        raise ValueError("basis row count does not match vector length")

    # two passes of classical Gram-Schmidt; the second pass repairs the
    # cancellation the first one can leave behind.  np.dot, not @: for a
    # one-column F-order basis @ takes a non-BLAS loop, 10x slower
    c1 = np.dot(z.conj(), basis).conj()
    r = z - np.dot(basis, c1)
    c2 = np.dot(r.conj(), basis).conj()
    r = r - np.dot(basis, c2)
    coeffs = c1 + c2

    rnorm = float(np.linalg.norm(r))
    if rnorm <= n * _EPS * float(np.linalg.norm(z)):
        raise BasisBreakdown(np.append(coeffs, rnorm))
    return r / rnorm, np.append(coeffs, rnorm)


def _delayed_pair(z, basis):
    if z.shape != (2, basis.shape[0]) or not z.flags.c_contiguous:
        raise ValueError("an Arnoldi pair is a C-contiguous 2 x n array")
    complex_ = z.dtype.kind == "c"
    j = basis.shape[1] - 1
    # the one synchronization: c[0] = basis^H y, c[1] = basis^H w
    c = np.dot(z.conj(), basis).conj()
    s, t = c[0, :j], c[1, :j]
    rho = math.sqrt(c[0, j].real - np.vdot(s, s).real) if j else 1.0
    tau = (c[1, j] - np.vdot(s, t)) / rho
    if j:
        # z = (z - Q [s, t]^T) / rho in place: z.T is an F-order n x 2
        # view, and Q leaves out the column y that z[0] shares memory with
        (zgemm if complex_ else dgemm)(-1.0 / rho, basis[:, :j], c[:, :j].T,
                                       1.0 / rho, z.T, overwrite_c=True)
    # z[1] -= (tau / rho) p
    (zaxpy if complex_ else daxpy)(z[0], z[1], a=-tau / rho)
    c[0, j], c[1, j] = rho, tau
    return c
