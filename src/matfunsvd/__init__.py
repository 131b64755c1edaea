"""Singular triplets and 2-norms of matrix functions f(A).

The outer driver is an inexact Lanczos (Golub-Kahan) bidiagonalization in
which every product f(A)v and f(A)^H u is itself approximated by an inner
Krylov iteration (standard or extended).  The projected problem yields
singular triplet estimates, a computable residual, and a rigorous bound on
the gap between that residual and the true one, driven by a per-step
inexactness ledger.  Relaxed inner tolerances, a power-iteration baseline,
a log-norm exponential bound, and a CSV/JSON experiment CLI round out the
package.
"""

from .baselines import exp_norm_bound, power_method
from .functions import DomainError, FUNCTION_IDS, get_function
from .operators import (MatrixMarketError, MatrixSpec, OperatorError,
                        build_operator, parse_matrix_token)
from .outer import InnerPolicy, RunReport, TripletEstimate, run

__version__ = "0.1.0"

# the surface README documents; everything else is imported from its module
__all__ = [
    "__version__",
    "run", "InnerPolicy", "RunReport", "TripletEstimate",
    "build_operator", "parse_matrix_token", "MatrixSpec",
    "get_function", "FUNCTION_IDS",
    "DomainError", "OperatorError", "MatrixMarketError",
    "power_method", "exp_norm_bound",
]
