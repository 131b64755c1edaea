"""Inner solver: Krylov approximation of f(A) v and f(A)^H u.

One loop serves both subspace families.  A family builds the orthonormal
basis P and the projected matrix H by steps of its own unit: expand(s)
runs step s and returns the dimension d it reached and whether the space
became invariant.  After a step the loop may compute the coefficient
vector c_d = f(H_d) e1 ||v|| of the iterate z_d = P_d c_d and test it.
Both bases are stored column-major, so each column and each leading block
P_d is one contiguous stretch of memory.

- ``standard-krylov`` is Arnoldi: step k adds column k, A times column
  k-1, so d = k.  Its Gram-Schmidt is one product per column with the
  second pass delayed by one step (DCGS2, ``orth.rgs``), so the column
  returned by step k gets its second pass at step k + 1.  P_k is final
  after step k, but H_k is not: step k + 1 adds that pass's correction to
  its last column, a relative change of about the unit roundoff.  f(H_k)
  is evaluated on H_k as step k leaves it, so every first_test hint at or
  below a solve's return gives the full scan's result bit for bit.
- ``extended-krylov`` spans {v, A^{-1}v, Av, A^{-2}v, A^2 v, A^{-3}v, ...}
  from one cached LU: an odd column is a solve against, and an even one a
  product with, the column two before it (column 0 for the first of each).
  Its step is one product and one solve, the unit the extended-Krylov
  analyses track the iterate by (Druskin & Knizhnerman, SIMAX 1998;
  Knizhnerman & Simoncini, NLAA 2010): step 1 adds only the solve column 1
  (column 0 is v), step s >= 2 columns 2s - 2 and 2s - 1, so d = 2s, and a
  last step stops at max_dim.  Its projected matrix is the explicit
  projection P^H (A P); an entry of H never changes once written.

Convergence uses the lagged iterate estimator with a fixed lag of 2:
omega_d = ||z_d - z_{d-2}|| / ||z_{d-2}||.  The columns of P are
orthonormal and P_{d-2} is the leading block of P_d, so
z_d - z_{d-2} = P_d (c_d - [c_{d-2}; 0; 0]) and ||z_{d-2}|| = ||c_{d-2}||:
omega is computed on the short coefficient vectors and no n-vector is
formed inside the loop.  The iteration stops once omega/(1-omega) <=
eps_inner and returns the *lagged* iterate z_{d-2} together with
err_estimate = omega/(1-omega) * ||z_{d-2}|| (an a posteriori estimate in
the sense of Saad, SINUM 1992).  For extended Krylov the lag is one step.
When the basis breaks down the space is invariant and the iterate is
exact.  The one n-vector returned, P_d c, is formed on exit.  The
estimator can stagnate on slowly converging spectra; omega_history is
exposed so callers can inspect it.

The dense f(H_d) costs O(d^3), so evaluating it at every step makes a
solve of dimension d cost O(d^4).  The hint ``first_test`` is the
dimension of the first omega test; the outer bidiagonalization sets it
from the inner dimensions of its previous step, and in its first step the
adjoint solve from the forward one.  f(H_d) is evaluated after each step
that reaches d >= first_test - 2 (the lagged partner of that test), and on
a breakdown.  A test whose partner c_{d-2} was never computed computes it
then; only an odd last extended step meets one, and its H_{d-2} is final.
An Arnoldi partner, whose H_{d-2} later steps still correct, always comes
from its own step.  Every evaluated H_d passes the domain guard of
``densela.dense_matfun``; a skipped H_d produces nothing to guard.
"""

from dataclasses import dataclass, field

import numpy as np

from . import densela
from .functions import ScalarFunction
from .orth import BasisBreakdown, rgs

__all__ = ["InnerPolicy", "InnerResult", "approx_fAv"]

_METHODS = ("standard-krylov", "extended-krylov")
_LAG = 2
# ratio of the one-pass remainder to its coefficients below which an
# Arnoldi column gets its second Gram-Schmidt pass at once (see _arnoldi)
_REPAIR = 1e-4


@dataclass(frozen=True)
class InnerPolicy:
    """Run-level inner recipe: subspace family, its cap, and the tolerance.

    ``eps_inner`` fixes the inner tolerance.  Left at None, ``run`` uses
    eps_out / m_max (relaxed from there when ``relax`` is set) and
    ``power_method`` eps_out / 100.
    """

    method: str = "standard-krylov"
    max_dim: int = 300
    relax: bool = False
    eps_inner: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.max_dim <= _LAG:
            raise ValueError(f"max_dim must exceed the lag {_LAG}")
        if self.eps_inner is not None and not 0.0 < self.eps_inner <= 1.0:
            raise ValueError(f"eps_inner must lie in (0, 1], got {self.eps_inner}")
        if self.relax and self.eps_inner is not None:
            raise ValueError("relax mode and an explicit eps_inner are exclusive")


@dataclass
class InnerResult:
    vector: np.ndarray
    err_estimate: float
    dims_used: int
    omega_history: list = field(default_factory=list)
    converged: bool = False
    breakdown: bool = False


def _arnoldi(A, v1, max_dim, adjoint):
    """Standard Krylov basis; expand(k) adds column k from A times column k-1.

    Column k enters P after one Gram-Schmidt pass; expand(k + 1) gives it
    its second pass in the product that projects its image, and carries the
    Arnoldi relation over to it by linearity (DCGS2, see ``orth.rgs``).
    """
    apply = A.apply_adjoint if adjoint else A.apply
    P = np.empty((A.n, max_dim + 1), dtype=v1.dtype, order="F")
    P[:, 0] = v1
    H = np.zeros((max_dim + 1, max_dim), dtype=v1.dtype)

    def expand(k):
        j = k - 1
        P[:, k] = apply(P[:, j])
        # columns j and k of P as the rows of one C-order pair [y, A y]
        c = rgs(P[:, j : k + 1].T, P[:, :k])
        s, rho = c[0, :j], c[0, j].real
        if j:
            # A p_{j-1} was taken with y = P_j s + rho p_j as column j
            h = H[j, j - 1]
            H[:j, j - 1] += h * s
            H[j, j - 1] = h * rho
        # A p_j = (A y - A P_j s) / rho and A P_j = P_k H[:k, :j]; P[:, k]
        # holds its remainder
        H[:k, j] = (c[1] - H[:k, :j] @ s) / rho
        r = P[:, k]
        nu = float(np.linalg.norm(r))
        if nu <= _REPAIR * float(np.linalg.norm(H[:k, j])):
            # the pass cancelled over four digits.  A breakdown (nu near
            # n eps ||A p_j||) must be found at this k, and the delayed pass
            # would meet a leftover along P of eps ||A p_j|| / nu, under four
            # orders below sqrt(eps), where rho by Pythagoras loses digits:
            # redo the column now with two passes and their breakdown test
            try:
                q, coeffs = rgs(np.dot(P[:, :k], H[:k, j]) + r, P[:, :k])
            except BasisBreakdown as bd:
                # A maps the k columns into their own span: H[:k, :k] is complete
                H[:k, j] = bd.coeffs[:k]
                return k, True
            H[:k, j], nu = coeffs[:k], coeffs[k]
            r[:] = q
        else:
            r *= 1.0 / nu
        H[k, j] = nu
        return k, False

    return P, H, expand


def _extended(A, v1, max_dim, adjoint):
    """Extended Krylov basis; expand(s) adds step s's product and solve."""
    apply = A.apply_adjoint if adjoint else A.apply
    fact = A.factorization()
    P = np.empty((A.n, max_dim), dtype=v1.dtype, order="F")
    W = np.empty_like(P)  # W[:, i] = A @ P[:, i], column-major like P
    H = np.zeros((max_dim, max_dim), dtype=v1.dtype)
    P[:, 0] = v1
    W[:, 0] = apply(v1)
    H[0, 0] = np.vdot(v1, W[:, 0])

    def expand(s):
        for c in range(max(2 * s - 2, 1), min(2 * s, max_dim)):
            seed = max(c - 2, 0)
            w = fact.solve(P[:, seed], adjoint=adjoint) if c % 2 else W[:, seed]
            try:
                q, _ = rgs(w, P[:, :c])
            except BasisBreakdown:
                # the c columns span a space invariant under A and A^{-1}
                return c, True
            P[:, c] = q
            W[:, c] = apply(q)
            H[: c + 1, c] = np.dot(W[:, c].conj(), P[:, : c + 1]).conj()
            H[c, :c] = q.conj() @ W[:, :c]
        return min(2 * s, max_dim), False

    return P, H, expand


def approx_fAv(A, f: ScalarFunction, v, eps_inner, policy=InnerPolicy(),
               adjoint=False, first_test=_LAG + 1) -> InnerResult:
    """Approximate f(A) v (or f(A)^H u = f(A^H) u with adjoint=True).

    ``eps_inner`` is the tolerance of this solve; ``policy`` gives the
    subspace family and its dimension cap (its own tolerance fields are
    read by the outer run and the power method, not here).

    Each step of the chosen family, one Arnoldi column or one extended
    product and solve, completes the projected matrix H_d of the dimension d
    it reaches.  The first omega test runs at the first d >= first_test,
    clamped to at most min(max_dim, n) and at least 3; the default tests
    from d = 3 on, and the outer bidiagonalization passes the smaller inner
    dimension of its previous step minus 2 (in its first step, the adjoint
    solve gets the forward dimension minus 2).  The coefficients c_d =
    f(H_d) e1 ||v|| of the iterate z_d = P_d c_d are computed from d =
    first_test - 2 on and on a basis breakdown; below that only the basis
    grows.  A basis breakdown returns its iterate as exact (err_estimate 0).
    At each tested d, omega_d = ||z_d - z_{d-2}|| / ||z_{d-2}|| is evaluated
    as ||c_d - [c_{d-2}; 0; 0]|| / ||c_{d-2}||, which is equal because P has
    orthonormal columns and P_{d-2} is the leading block of P_d.  The loop
    returns z_{d-2} once omega/(1-omega) <= eps_inner, and the last iterate
    unconverged at d = min(max_dim, n).  A hint above the dimension where
    the test would first pass returns a later, more accurate z_{d-2};
    dims_used still counts every column built.  Every f(H_d) that is
    computed raises DomainError when H_d hits the excluded set of f; a
    skipped H_d is never evaluated, so it is never checked, but the last H_d
    always is.  On each exit the returned n-vector is formed once, as P_d c.
    """
    v = np.asarray(v)
    nrm0 = float(np.linalg.norm(v))
    if nrm0 == 0.0:
        raise ValueError("cannot approximate f(A) v for a zero vector")
    dtype = np.promote_types(A.dtype, v.dtype)
    if dtype.kind != "c":
        dtype = np.float64
    v1 = (v / nrm0).astype(dtype)
    max_dim = min(policy.max_dim, A.n)
    first_test = max(min(first_test, max_dim), _LAG + 1)
    build = _arnoldi if policy.method == "standard-krylov" else _extended
    P, H, expand = build(A, v1, max_dim, adjoint)
    coeffs = {}  # c_d by dimension d
    omegas: list = []

    def coeff(d):
        coeffs[d] = densela.dense_matfun(H[:d, :d], f) * nrm0
        return coeffs[d]

    def finish(c, err, d, converged, breakdown):
        return InnerResult(
            vector=P[:, : c.shape[0]] @ c, err_estimate=float(err),
            dims_used=d, omega_history=omegas, converged=converged,
            breakdown=breakdown)

    d = step = 0
    while d < max_dim:
        step += 1
        d, invariant = expand(step)
        if invariant:
            return finish(coeff(d), 0.0, d, True, True)
        if d < first_test - _LAG:
            continue
        c = coeff(d)
        if d < first_test:
            continue
        c_old = coeffs[d - _LAG] if d - _LAG in coeffs else coeff(d - _LAG)
        m = c_old.shape[0]
        denom = float(np.linalg.norm(c_old))
        # ||c - [c_old; 0]|| without forming the padded vector
        diff = np.hypot(np.linalg.norm(c[:m] - c_old), np.linalg.norm(c[m:]))
        omega = float(diff) / denom if denom else np.inf
        omegas.append(omega)
        if omega < 1.0 and omega / (1.0 - omega) <= eps_inner:
            return finish(c_old, omega / (1.0 - omega) * denom, d, True, False)

    est = omegas[-1] / (1.0 - omegas[-1]) * np.linalg.norm(c) \
        if omegas and omegas[-1] < 1.0 else np.inf
    return finish(c, est, max_dim, False, False)
