"""Inner solver: Krylov approximation of f(A) v and f(A)^H u.

One loop serves both subspace families.  A family only builds the
orthonormal basis P and the projected matrix H one column at a time; at
step k the loop forms the iterate z_k = P_k f(H_k) e1 ||v|| and tests it.

- ``standard-krylov`` is Arnoldi with two-pass Gram-Schmidt: column k is
  A times column k-1.
- ``extended-krylov`` spans {v, A^{-1}v, Av, A^{-2}v, A^2 v, A^{-3}v, ...}
  from one cached LU: an odd column is a solve against, and an even one a
  product with, the column two before it (column 0 for the first of each).
  Its projected matrix is the explicit projection P^H (A P).

Convergence uses the lagged iterate estimator with a fixed lag of 2: with
omega_k = ||z_k - z_{k-2}|| / ||z_{k-2}||, the iteration stops once
omega/(1-omega) <= eps_inner and returns the *lagged* iterate z_{k-2}
together with err_estimate = omega/(1-omega) * ||z_{k-2}||.  When the
basis breaks down the space is invariant and the iterate is exact.  The
estimator can stagnate on slowly converging spectra; omega_history is
exposed so callers can inspect it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import densela
from .functions import DomainError, ScalarFunction
from .orth import BasisBreakdown, rgs

__all__ = ["InnerConfig", "InnerResult", "approx_fAv"]

_METHODS = ("standard-krylov", "extended-krylov")
_LAG = 2


@dataclass(frozen=True)
class InnerConfig:
    """Parameters for one inner solve."""

    eps_inner: float
    method: str = "standard-krylov"
    max_dim: int = 300

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not (0.0 < self.eps_inner <= 1.0):
            raise ValueError(f"eps_inner must lie in (0, 1], got {self.eps_inner}")
        if self.max_dim <= _LAG:
            raise ValueError(f"max_dim must exceed the lag {_LAG}")


@dataclass
class InnerResult:
    vector: np.ndarray
    err_estimate: float
    dims_used: int
    omega_history: list = field(default_factory=list)
    converged: bool = False
    breakdown: bool = False
    basis: np.ndarray | None = None


def _f_column(H, f, scale):
    """First column of f(H) times a scale, with step context on domain errors."""
    try:
        F = densela.dense_matfun(H, f)
    except DomainError as exc:
        raise DomainError(
            f"inner solve: projected matrix of dimension {H.shape[0]} "
            f"hit the excluded set of {f.id}: {exc}"
        ) from exc
    return F[:, 0] * scale


def _arnoldi(A, v1, max_dim, adjoint):
    """Standard Krylov basis; expand(k) adds column k from A times column k-1."""
    apply = A.apply_adjoint if adjoint else A.apply
    P = np.empty((A.n, max_dim + 1), dtype=v1.dtype)
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
    P = np.empty((A.n, max_dim + 1), dtype=v1.dtype)
    W = np.empty_like(P)  # W[:, i] = A @ P[:, i]
    H = np.zeros((max_dim + 1, max_dim + 1), dtype=v1.dtype)
    P[:, 0] = v1
    W[:, 0] = apply(v1)
    H[0, 0] = np.vdot(v1, W[:, 0]) if v1.dtype.kind == "c" else v1 @ W[:, 0]

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


def approx_fAv(A, f: ScalarFunction, v, cfg: InnerConfig, adjoint=False,
               keep_basis=False) -> InnerResult:
    """Approximate f(A) v (or f(A)^H u = f(A^H) u with adjoint=True).

    Step k completes the projected matrix H_k of the chosen family and forms
    z_k = P_k f(H_k) e1 ||v||.  A basis breakdown returns that iterate as
    exact (err_estimate 0).  From k = 3 on, z_k is compared with z_{k-2};
    the loop returns z_{k-2} once omega/(1-omega) <= eps_inner, and the last
    iterate unconverged after min(max_dim, n) steps.
    """
    v = np.asarray(v)
    nrm0 = float(np.linalg.norm(v))
    if nrm0 == 0.0:
        raise ValueError("cannot approximate f(A) v for a zero vector")
    dtype = np.promote_types(A.dtype, v.dtype)
    if dtype.kind != "c":
        dtype = np.float64
    v1 = (v / nrm0).astype(dtype)
    max_dim = min(cfg.max_dim, A.n)
    build = _arnoldi if cfg.method == "standard-krylov" else _extended
    P, H, expand = build(A, v1, max_dim, adjoint)
    ring = [None] * (_LAG + 1)
    omegas: list = []

    def finish(z, err, d, converged, breakdown):
        return InnerResult(
            vector=z, err_estimate=float(err), dims_used=d,
            omega_history=omegas, converged=converged, breakdown=breakdown,
            basis=P[:, :d].copy() if keep_basis else None)

    for k in range(1, max_dim + 1):
        d, invariant = expand(k)
        z = P[:, :d] @ _f_column(H[:d, :d], f, nrm0)
        if invariant:
            return finish(z, 0.0, d, True, True)
        ring[k % (_LAG + 1)] = z
        if k <= _LAG:
            continue
        z_old = ring[(k - _LAG) % (_LAG + 1)]
        denom = float(np.linalg.norm(z_old))
        omega = float(np.linalg.norm(z - z_old)) / denom if denom else np.inf
        omegas.append(omega)
        if omega < 1.0 and omega / (1.0 - omega) <= cfg.eps_inner:
            return finish(z_old, omega / (1.0 - omega) * denom, k, True, False)

    est = omegas[-1] / (1.0 - omegas[-1]) * np.linalg.norm(z) \
        if omegas and omegas[-1] < 1.0 else np.inf
    return finish(z, est, max_dim, False, False)
