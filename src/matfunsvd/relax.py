"""Relaxed inner tolerances and a-posteriori verification of the estimates.

The relaxation rule loosens the per-step inner tolerance once the projected
problem starts to carry spectral information: the allowance grows with the
spectral gap delta around the leading estimate and shrinks with its current
residual.  The dimensionless quotient delta / (2 m r) is capped at one, so
the issued tolerance never exceeds eps_out and never drops below the fixed
floor eps_out/m_max.  Early steps (and degenerate inputs) use the floor.

verify_tau re-checks the step-k leading estimate of a finished run against
its full projected problem K = [[0, M], [T, 0]] at step m.  It reads M and T
from the run's kept state and takes every eigenpair from the j x j solver
the run itself uses: the step-k eigenvector is embedded (zero-padded, blocks
renormalized) into the final 2m-dimensional space, the 2x2 partition induced
by that embedding is formed explicitly, and a standard invariant-subspace
perturbation bound certifies how far the embedding can be from a true
eigenvector of K, with an explicit applicability test on the hypotheses.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import outer  # imports this module; its solver is read at call time
from .densela import sigma_min_shifted

__all__ = ["next_tolerance", "TauDiagnostics", "verify_tau"]

_TOL_EIG = 1e-10  # slack on the two inequalities verify_tau asserts


def next_tolerance(k, theta_prev, delta_prev, resid_prev, eps_out, m_max):
    """Inner tolerance for outer step k given the previous step's estimates.

    Returns eps_out/m_max for the first two steps and whenever the previous
    quantities are degenerate; otherwise

        max( eps_out / m_max,  min(1, delta_prev / (2 m_max resid_prev)) * eps_out )

    so a well-separated, nearly converged estimate lets the inner solves run
    loose while the accumulated inexactness stays within the outer budget.
    A vanished residual counts as full relaxation (quotient one).  The issued
    tolerance is relative (the inner convergence test divides by the current
    iterate norm, which tracks the theta scale).
    """
    floor = eps_out / m_max
    if k <= 2:
        return floor
    if not (np.isfinite(delta_prev) and np.isfinite(resid_prev)):
        return floor
    if theta_prev <= 0.0 or delta_prev <= 0.0:
        return floor
    if resid_prev <= 0.0:
        quotient = 1.0
    else:
        quotient = min(1.0, delta_prev / (2.0 * m_max * resid_prev))
    return float(max(floor, quotient * eps_out))


@dataclass
class TauDiagnostics:
    """Certificate data for one step-k estimate checked at step m."""

    tau_bound: float      # 2 r / delta: bound on the complement coefficients
    s_norm: float         # || K^H qt - conj(theta) qt ||
    r_norm: float         # || Y^H K qt ||  (coupling to the complement)
    delta_true: float     # sigma_min(Y^H K Y - theta I)
    condition_ok: bool    # r < delta^2 / (4 s): the bound applies
    tail_norm: float      # norm of the matched eigenvector outside the embedding
    theta_matched: float  # |eigenvalue| of the best-overlap eigenvector
    theta_shift: float    # |lambda_matched - theta|
    tail_bound: float     # tau / sqrt(1 + tau^2)


def verify_tau(state, k):
    """Certify the step-k leading estimate of a finished run against step m.

    ``state`` is the kept state of a run (``report.state`` after
    ``run(..., keep_state=True)``), m = ``state.j`` its number of steps, and
    1 <= k <= m.  The step-k pair (theta, [x; T x / theta]) and the
    eigenvectors of the full K = [[0, M], [T, 0]] come from the j x j
    solver ``run`` uses.  When the applicability condition
    r < delta^2/(4 s) holds, the tail and shift of the best-matching full
    eigenvector are checked on the spot against the bounds
    tail <= tau/sqrt(1+tau^2) and shift <= s * tau (with _TOL_EIG slack);
    condition_ok False skips the checks and just reports numbers.
    """
    if state is None:
        raise ValueError("verify_tau needs the state of a finished run: "
                         "run(..., keep_state=True) and pass report.state")
    m = state.j
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in 1..{m} (the steps of the state), "
                         f"got {k}")
    M, T = state.M, state.T[:m]
    K = np.block([[np.zeros((m, m)), M], [T, np.zeros((m, m))]])
    theta_k, x, y = outer._projected_eig(M[:k, :k], T[:k, :k], 1)
    theta = complex(theta_k[0])
    # zero-pad [x; y] into 2m dimensions, each block normalized (x already
    # is) and weighted by 1/sqrt(2), so the embedding is a unit vector
    qt = np.zeros(2 * m, dtype=complex)
    qt[:k] = x[:, 0] / np.sqrt(2.0)
    qt[m:m + k] = y[:, 0] / (np.sqrt(2.0) * np.linalg.norm(y))

    # unitary completion [qt, Y]; qr may flip the leading phase, so realign
    Q, _ = scipy.linalg.qr(qt.reshape(-1, 1), mode="full")
    Q[:, 0] *= np.vdot(Q[:, 0], qt)
    Y = Q[:, 1:]

    s_vec = K.conj().T @ qt - np.conj(theta) * qt
    s_norm = float(np.linalg.norm(s_vec))
    r_vec = Y.conj().T @ (K @ qt)
    r_norm = float(np.linalg.norm(r_vec))
    B22 = Y.conj().T @ K @ Y
    delta_true = float(sigma_min_shifted(B22, theta))

    condition_ok = bool(s_norm > 0.0
                        and r_norm < delta_true ** 2 / (4.0 * s_norm))
    tau = 2.0 * r_norm / delta_true if delta_true > 0 else np.inf
    tail_bound = tau / np.sqrt(1.0 + tau ** 2) if np.isfinite(tau) else 1.0

    # match the full-problem eigenvector with the largest overlap against
    # the embedding; its coordinates outside the embedded positions form
    # the tail the proposition bounds
    theta_m, x_m, y_m = outer._projected_eig(M, T, m)
    vectors = np.block([[x_m, x_m], [y_m, -y_m]])  # +theta_m, then -theta_m
    vectors /= np.linalg.norm(vectors, axis=0)
    overlaps = np.abs(vectors.conj().T @ qt)
    i = int(np.argmax(overlaps))
    q_match = vectors[:, i]
    inside = np.zeros(2 * m, dtype=bool)
    inside[:k] = True
    inside[m:m + k] = True
    tail_norm = float(np.linalg.norm(q_match[~inside]))
    lam = np.concatenate([theta_m, -theta_m])[i]
    theta_shift = float(abs(lam - theta))

    if condition_ok:
        assert tail_norm <= tail_bound + _TOL_EIG, \
            f"tail {tail_norm:.3e} exceeds bound {tail_bound:.3e}"
        assert theta_shift <= s_norm * tau + _TOL_EIG, \
            f"shift {theta_shift:.3e} exceeds bound {s_norm * tau:.3e}"
    return TauDiagnostics(
        tau_bound=float(tau), s_norm=s_norm, r_norm=r_norm,
        delta_true=delta_true, condition_ok=condition_ok,
        tail_norm=tail_norm, theta_matched=float(abs(lam)),
        theta_shift=theta_shift,
        tail_bound=float(tail_bound))
