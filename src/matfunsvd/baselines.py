"""Reference methods the bidiagonalization is measured against.

power_method runs the classical power iteration on f(A)^H f(A), with both
products computed through the same inner approximation machinery.  Each
sweep costs one f(A) and one f(A)^H application and converges linearly
with ratio (sigma_2/sigma_1)^2, which makes it the cost yardstick.

exp_norm_bound certifies an upper bound for ||exp(A)||_2 without forming
the exponential: the log-norm inequality bounds it by exp(lambda_max) of
the Hermitian part, whose extreme eigenvalue comes from a Lanczos iteration
with full reorthogonalization.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .functions import ScalarFunction
from .inner import _LAG, InnerPolicy, approx_fAv
from .outer import InexactnessLedger, RunReport, TripletEstimate, _start_vector

__all__ = ["power_method", "ExpBoundResult", "exp_norm_bound"]


def power_method(A, f: ScalarFunction, eps_out, max_iters=500,
                 inner_policy: InnerPolicy | None = None, seed=0,
                 matrix_label="") -> RunReport:
    """Largest singular value of f(A) by power iteration on f(A)^H f(A).

    Each sweep maps y = f(A)^H (f(A) v) through the inner approximations
    and takes lambda = |v^H y| (v is kept unit, so this is the Rayleigh
    quotient; the modulus guards against a stray imaginary part).  The sweep
    stops once the eigenvalue residual ||y - lambda v|| / lambda drops below
    eps_out, and sigma = sqrt(lambda).  ``inner_policy`` is the same type
    ``run`` takes; every sweep uses its fixed ``eps_inner``, by default
    eps_out/100.  The relaxation schedule belongs to ``run``, so
    ``relax=True`` raises ValueError.  The stopping test itself uses
    inexact products, which is reported as-is without correction.  As in
    ``run``, each inner solve runs its first lagged test at the smaller
    inner dimension of the previous sweep minus the lag, so ``f(H_k)`` is
    evaluated only from where that test can use it.
    """
    if not (0.0 < eps_out < 1.0):
        raise ValueError("eps_out must lie in (0, 1)")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    policy = inner_policy or InnerPolicy()
    if policy.relax:
        raise ValueError("power_method takes a fixed inner tolerance, "
                         "not relax=True")
    eps_inner = policy.eps_inner or eps_out / 100.0
    t0 = time.perf_counter()
    v = _start_vector(A.n, A.dtype, seed)

    ledger = InexactnessLedger()
    inner_total = 0
    converged = False
    lam = 0.0
    resid = np.inf
    w = np.zeros(A.n, dtype=A.dtype)
    first_test = _LAG + 1  # inner hint, as run keeps it in BidiagState
    for it in range(1, max_iters + 1):
        r1 = approx_fAv(A, f, v, eps_inner, policy, adjoint=False,
                        first_test=first_test)
        w = r1.vector
        inner_total += r1.dims_used
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            break  # v in the numerical null space of f(A)
        r2 = approx_fAv(A, f, w, eps_inner, policy, adjoint=True,
                        first_test=first_test)
        y = r2.vector
        inner_total += r2.dims_used
        first_test = min(r1.dims_used, r2.dims_used) - _LAG
        ledger.append_step(r1.err_estimate, r2.err_estimate, eps_inner)
        lam = float(abs(np.vdot(v, y)))
        resid = float(np.linalg.norm(y - lam * v))
        if lam > 0.0 and resid / lam <= eps_out:
            converged = True
            break
        ynorm = float(np.linalg.norm(y))
        if ynorm == 0.0:
            break
        v = y / ynorm

    sigma = float(np.sqrt(lam))
    wall = time.perf_counter() - t0
    left = w / np.linalg.norm(w) if np.linalg.norm(w) > 0 else w
    triplet = TripletEstimate(
        theta=sigma, left=left, right=v,
        computed_residual=resid if np.isfinite(resid) else np.nan,
        gap_bound=np.nan, theta_gap_second=np.nan)
    return RunReport(
        sigma=sigma, triplets=[triplet], outer_iters=it,
        inner_total=inner_total,
        inner_avg=inner_total / (2 * it),
        wall_time_s=wall, converged=converged, seed=seed, ledger=ledger,
        matrix_label=matrix_label, function_label=f.id,
        method_label="power")


@dataclass
class ExpBoundResult:
    bound: float
    lambda_max: float
    iterations: int
    converged: bool


def exp_norm_bound(A, sign=1, tol=1e-6, max_iters=400, seed=0):
    """Upper bound on ||exp(sign*A)||_2 via the log norm.

    ||exp(sign*A)||_2 <= exp(lambda_max((sign*A + sign*A^H)/2)); the extreme
    eigenvalue of the Hermitian part comes from Lanczos with full
    reorthogonalization, stopped when the eigenpair residual beta*|s_k|
    falls below tol * |lambda|.  The bound is tight when A is Hermitian.

    What is certified: ``bound`` is exp(theta) for the largest Lanczos Ritz
    value theta, and a Ritz value is never above lambda_max.  So ``bound``
    is an upper bound on ||exp(sign*A)||_2 only once theta has converged to
    lambda_max.  With ``converged`` False it may lie below exp(lambda_max),
    and below the norm itself; A3:n=10000, for one, is still unconverged
    after 1600 iterations.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    n = A.n

    def herm_apply(x):
        return 0.5 * sign * (A.apply(x) + A.apply_adjoint(x))

    q = _start_vector(n, A.dtype, seed)
    steps = min(max_iters, n)
    Q = np.zeros((n, steps), dtype=q.dtype, order="F")
    Q[:, 0] = q
    alphas: list = []
    betas: list = []
    lam = np.nan
    converged = False
    k = 0
    for k in range(1, steps + 1):
        w = herm_apply(Q[:, k - 1])
        a = float(np.vdot(Q[:, k - 1], w).real)
        alphas.append(a)
        # full reorthogonalization keeps the basis orthonormal
        w = w - Q[:, :k] @ (Q[:, :k].conj().T @ w)
        w = w - Q[:, :k] @ (Q[:, :k].conj().T @ w)
        b = float(np.linalg.norm(w))
        if betas:
            # only the top eigenpair of the tridiagonal projection is needed
            evals, evecs = scipy.linalg.eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas),
                select="i", select_range=(k - 1, k - 1))
            lam = float(evals[0])
            tail = abs(evecs[-1, 0])
        else:
            lam = a
            tail = 1.0
        resid = b * tail
        if resid <= tol * max(abs(lam), np.finfo(float).tiny) or b == 0.0:
            converged = True
            break
        if k == steps:
            break
        betas.append(b)
        Q[:, k] = w / b
    return ExpBoundResult(bound=float(np.exp(lam)), lambda_max=lam,
                          iterations=k, converged=converged)
