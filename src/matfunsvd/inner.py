"""Inner solver: Krylov approximation of f(A) v and f(A)^H u.

One loop serves both subspace families.  A family only builds the
orthonormal basis P and the projected matrix H one column at a time; at
step k the loop may compute the coefficient vector c_k = f(H_k) e1 ||v||
of the iterate z_k = P_k c_k and test it.  Both bases are stored
column-major, so each column and each leading block P_k is one contiguous
stretch of memory.

- ``standard-krylov`` is Arnoldi with two-pass Gram-Schmidt: column k is
  A times column k-1.
- ``extended-krylov`` spans {v, A^{-1}v, Av, A^{-2}v, A^2 v, A^{-3}v, ...}
  from one cached LU: an odd column is a solve against, and an even one a
  product with, the column two before it (column 0 for the first of each).
  Its projected matrix is the explicit projection P^H (A P).

Convergence uses the lagged iterate estimator with a fixed lag of 2:
omega_k = ||z_k - z_{k-2}|| / ||z_{k-2}||.  The columns of P are
orthonormal and P_{k-2} is the leading block of P_k, so
z_k - z_{k-2} = P_k (c_k - [c_{k-2}; 0; 0]) and ||z_{k-2}|| = ||c_{k-2}||:
omega is computed on the short coefficient vectors and no n-vector is
formed inside the loop.  The iteration stops once omega/(1-omega) <=
eps_inner and returns the *lagged* iterate z_{k-2} together with
err_estimate = omega/(1-omega) * ||z_{k-2}|| (an a posteriori estimate in
the sense of Saad, SINUM 1992).  When the basis breaks down the space is
invariant and the iterate is exact.  The one n-vector returned, P_d c, is
formed on exit.  The estimator can stagnate on slowly converging spectra;
omega_history is exposed so callers can inspect it.

The dense f(H_k) costs O(k^3), so evaluating it at every k makes a solve
of dimension d cost O(d^4).  The hint ``first_test`` is the step of the
first omega test; the outer bidiagonalization sets it from the inner
dimensions of its previous step.  f(H_k) is evaluated only from
k = first_test - 2 (the lagged partner of that test) on, on a breakdown and
at the last step.  The extended basis grows in pairs, one solve and one
product, so extended Krylov evaluates f(H_k) and tests only at even k,
where a pair is complete, as the extended-Krylov analyses track the
iterate once per pair (Druskin & Knizhnerman, SIMAX 1998; Knizhnerman &
Simoncini, NLAA 2010).  The lag of 2 is then exactly one pair, an odd
hint moves the first test up to the next even k, and a converged extended
solve that does not break down uses an even dimension.  An odd last step
is evaluated together with its skipped partner k - 2.  Every evaluated H_k
passes the domain guard of ``densela.dense_matfun``; a skipped H_k
produces nothing to guard.
"""

from dataclasses import dataclass, field

import numpy as np

from . import densela
from .functions import ScalarFunction
from .orth import BasisBreakdown, rgs

__all__ = ["InnerPolicy", "InnerResult", "approx_fAv"]

_METHODS = ("standard-krylov", "extended-krylov")
_LAG = 2


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
    """Standard Krylov basis; expand(k) adds column k from A times column k-1."""
    apply = A.apply_adjoint if adjoint else A.apply
    P = np.empty((A.n, max_dim + 1), dtype=v1.dtype, order="F")
    P[:, 0] = v1
    H = np.zeros((max_dim + 1, max_dim), dtype=v1.dtype)

    def expand(k):
        try:
            q, coeffs = rgs(apply(P[:, k - 1]), P[:, :k])
        except BasisBreakdown as bd:
            # A maps the k columns into their own span: H[:k, :k] is complete
            H[:k, k - 1] = bd.coeffs[:k]
            return k, True
        H[: k + 1, k - 1] = coeffs
        P[:, k] = q
        return k, False

    return P, H, expand


def _extended(A, v1, max_dim, adjoint):
    """Extended Krylov basis; expand(k) adds column k-1 by a solve or a product."""
    apply = A.apply_adjoint if adjoint else A.apply
    fact = A.factorization()
    P = np.empty((A.n, max_dim + 1), dtype=v1.dtype, order="F")
    W = np.empty_like(P)  # W[:, i] = A @ P[:, i], column-major like P
    H = np.zeros((max_dim + 1, max_dim + 1), dtype=v1.dtype)
    P[:, 0] = v1
    W[:, 0] = apply(v1)
    H[0, 0] = np.vdot(v1, W[:, 0])

    def expand(k):
        c = k - 1
        if c == 0:
            return k, False
        seed = max(c - 2, 0)
        w = fact.solve(P[:, seed], adjoint=adjoint) if c % 2 else W[:, seed]
        try:
            q, _ = rgs(w, P[:, :c])
        except BasisBreakdown:
            # the c columns span a space invariant under A and A^{-1}
            return c, True
        P[:, c] = q
        W[:, c] = apply(q)
        H[:k, c] = P[:, :k].conj().T @ W[:, c]
        H[c, :c] = q.conj() @ W[:, :c]
        return k, False

    return P, H, expand


def approx_fAv(A, f: ScalarFunction, v, eps_inner, policy=InnerPolicy(),
               adjoint=False, first_test=_LAG + 1) -> InnerResult:
    """Approximate f(A) v (or f(A)^H u = f(A^H) u with adjoint=True).

    ``eps_inner`` is the tolerance of this solve; ``policy`` gives the
    subspace family and its dimension cap (its own tolerance fields are
    read by the outer run and the power method, not here).

    Step k completes the projected matrix H_k of the chosen family.  The
    first omega test runs at k = first_test, clamped to at most
    min(max_dim, n) and at least 3; the default tests from k = 3 on, and the
    outer bidiagonalization passes the smaller inner dimension of its
    previous step minus 2.  The coefficients c_k = f(H_k) e1 ||v|| of the
    iterate z_k = P_k c_k are computed from k = first_test - 2 on, on a
    basis breakdown and at the last step; below that only the basis grows.
    Extended Krylov computes c_k and tests only at even k, once per
    completed pair of columns (Druskin & Knizhnerman, SIMAX 1998;
    Knizhnerman & Simoncini, NLAA 2010): an odd first_test moves its first
    test to first_test + 1, and an odd last step also computes its lagged
    partner c_{k-2}.  A basis breakdown returns its iterate as exact
    (err_estimate 0).  At each tested k, omega_k = ||z_k - z_{k-2}|| /
    ||z_{k-2}|| is evaluated as ||c_k - [c_{k-2}; 0; 0]|| / ||c_{k-2}||,
    which is equal because P has orthonormal columns and P_{k-2} is the
    leading block of P_k.  The loop returns z_{k-2} once omega/(1-omega) <=
    eps_inner, and the last iterate unconverged after min(max_dim, n)
    steps.  A hint above the step where the test would first pass returns
    a later, more accurate z_{k-2}; dims_used still counts every column
    built.  Every f(H_k) that is computed raises DomainError when H_k hits
    the excluded set of f; a skipped H_k is never evaluated, so it is never
    checked, but the last H_k always is.  On each exit the returned
    n-vector is formed once, as P_d c.
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
    ring = [None] * (_LAG + 1)
    omegas: list = []

    def finish(c, err, d, converged, breakdown):
        return InnerResult(
            vector=P[:, : c.shape[0]] @ c, err_estimate=float(err),
            dims_used=d, omega_history=omegas, converged=converged,
            breakdown=breakdown)

    # the extended basis grows in pairs (a solve and a product): its f(H_k)
    # and tests run at even k only, where a pair is complete
    pairs = policy.method == "extended-krylov"
    for k in range(1, max_dim + 1):
        d, invariant = expand(k)
        skip = k < first_test - _LAG or (pairs and k % 2 and k < max_dim)
        if skip and not invariant:
            continue
        c = densela.dense_matfun(H[:d, :d], f) * nrm0
        if invariant:
            return finish(c, 0.0, d, True, True)
        ring[k % (_LAG + 1)] = c
        if k < first_test:
            continue
        if pairs and k % 2:
            # an odd last step: its lagged partner was skipped, evaluate it
            ring[(k - _LAG) % (_LAG + 1)] = densela.dense_matfun(
                H[: k - _LAG, : k - _LAG], f) * nrm0
        c_old = ring[(k - _LAG) % (_LAG + 1)]
        m = c_old.shape[0]
        denom = float(np.linalg.norm(c_old))
        # ||c - [c_old; 0]|| without forming the padded vector
        diff = np.hypot(np.linalg.norm(c[:m] - c_old), np.linalg.norm(c[m:]))
        omega = float(diff) / denom if denom else np.inf
        omegas.append(omega)
        if omega < 1.0 and omega / (1.0 - omega) <= eps_inner:
            return finish(c_old, omega / (1.0 - omega) * denom, k, True, False)

    est = omegas[-1] / (1.0 - omegas[-1]) * np.linalg.norm(c) \
        if omegas and omegas[-1] < 1.0 else np.inf
    return finish(c, est, max_dim, False, False)
