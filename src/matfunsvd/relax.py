"""Relaxed inner tolerances for the outer iteration.

The relaxation rule loosens the per-step inner tolerance once the projected
problem starts to carry spectral information: the allowance grows with the
spectral gap delta around the leading estimate and shrinks with its current
residual.  The dimensionless quotient delta / (2 m r) is capped at one, so
the issued tolerance never exceeds eps_out and never drops below the fixed
floor eps_out/m_max.  Early steps (and degenerate inputs) use the floor.
"""

import numpy as np

__all__ = ["next_tolerance"]


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
