"""Reference methods the bidiagonalization is measured against.

power_method runs the classical power iteration on f(A)^H f(A), with both
products computed through the same inner approximation machinery.  Each
sweep costs one f(A) and one f(A)^H application and converges linearly
with ratio (sigma_2/sigma_1)^2, which makes it the cost yardstick.

exp_norm_bound certifies an upper bound for ||exp(A)||_2 without forming
the exponential: the log-norm inequality bounds it by exp(lambda_max) of
the Hermitian part, whose extreme eigenvalue comes from Lanczos with full
reorthogonalization: the inner Arnoldi builder on that Hermitian operator.
"""

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from .functions import DomainError, ScalarFunction
from .inner import _LAG, InnerPolicy, _arnoldi, approx_fAv
from .outer import InexactnessLedger, RunReport, TripletEstimate, _start_vector

__all__ = ["power_method", "ExpBoundResult", "exp_norm_bound"]


def power_method(A, f: ScalarFunction, eps_out, max_iters=500,
                 inner_policy: InnerPolicy | None = None, seed=0) -> RunReport:
    """Largest singular value of f(A) by power iteration on f(A)^H f(A).

    Each sweep maps y = f(A)^H (f(A) v) through the inner approximations
    and takes lambda = |v^H y| (v is kept unit, so this is the Rayleigh
    quotient; the modulus guards against a stray imaginary part).  The sweep
    stops once the eigenvalue residual ||y / lambda - v|| drops below
    eps_out, and sigma = sqrt(lambda); y is divided by lambda before any
    norm, which would square its entries of size sigma^2.  ``inner_policy``
    is the same type ``run`` takes; every sweep uses its fixed
    ``eps_inner``, by default eps_out/100.  The relaxation schedule belongs
    to ``run``, so ``relax=True`` raises ValueError.  The stopping test
    itself uses inexact products, which is reported as-is without
    correction.  As in ``run``, each inner solve runs its first lagged test
    at the smaller inner dimension of the previous sweep minus the lag, so
    ``f(H_k)`` is evaluated only from where that test can use it.  Also as
    in ``run``, a DomainError of an inner solve ends the iteration
    unconverged, with ``aborted`` set to "domain error in inner solve:
    ...", and a vanishing f(A) v ends it with "f(A) v vanished" (``run``
    reports a left basis breakdown there), a vanishing lambda with
    "f(A)^H f(A) v vanished".  ``outer_iters`` counts the completed sweeps,
    those whose two solves both returned; sigma is nan when none completed.
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
    aborted = None
    w = np.zeros(A.n, dtype=A.dtype)
    first_test = _LAG + 1  # inner hint, as run keeps it in BidiagState
    for _ in range(max_iters):
        try:
            r1 = approx_fAv(A, f, v, eps_inner, policy, adjoint=False,
                            first_test=first_test)
            w = r1.vector
            inner_total += r1.dims_used
            if float(np.linalg.norm(w)) == 0.0:
                aborted = "f(A) v vanished"
                break
            r2 = approx_fAv(A, f, w, eps_inner, policy, adjoint=True,
                            first_test=first_test)
        except DomainError as exc:
            aborted = f"domain error in inner solve: {exc}"
            break
        y = r2.vector
        inner_total += r2.dims_used
        first_test = min(r1.dims_used, r2.dims_used) - _LAG
        ledger.append_step(r1.err_estimate, r2.err_estimate, eps_inner)
        lam = float(abs(np.vdot(v, y)))
        if lam == 0.0:
            aborted = "f(A)^H f(A) v vanished"
            break
        # y has entries of size sigma^2: scale by lam before any norm
        y = y / lam
        rel = float(np.linalg.norm(y - v))
        resid = rel * lam
        if rel <= eps_out:
            converged = True
            break
        v = y / np.linalg.norm(y)

    sigma = float(np.sqrt(lam)) if ledger else np.nan
    left = w / np.linalg.norm(w) if np.linalg.norm(w) > 0 else w
    triplet = TripletEstimate(
        theta=sigma, left=left, right=v,
        computed_residual=resid if np.isfinite(resid) else np.nan,
        gap_bound=np.nan, theta_gap_second=np.nan)
    return RunReport(
        triplets=[triplet], inner_total=inner_total,
        wall_time_s=time.perf_counter() - t0, converged=converged,
        ledger=ledger, aborted=aborted)


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
    reorthogonalization, run as the inner Arnoldi builder on that operator
    (so H is tridiagonal), stopped when the eigenpair residual
    H[k, k-1]*|s_k| falls below tol * |lambda| or the space is invariant.
    The bound is tight when A is Hermitian.

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

    def herm_apply(x):
        return 0.5 * sign * (A.apply(x) + A.apply_adjoint(x))

    steps = min(max_iters, A.n)
    _, H, expand = _arnoldi(SimpleNamespace(n=A.n, apply=herm_apply),
                            _start_vector(A.n, A.dtype, seed), steps, False)
    converged = False
    for k in range(1, steps + 1):
        _, invariant = expand(k)
        # only the top eigenpair of the tridiagonal projection is needed
        evals, evecs = scipy.linalg.eigh_tridiagonal(
            H.diagonal()[:k].real, H.diagonal(-1)[: k - 1].real,
            select="i", select_range=(k - 1, k - 1))
        lam = float(evals[0])
        resid = H[k, k - 1].real * abs(evecs[-1, 0])
        if invariant or resid <= tol * max(abs(lam), np.finfo(float).tiny):
            converged = True
            break
    return ExpBoundResult(bound=float(np.exp(lam)), lambda_max=lam,
                          iterations=k, converged=converged)
