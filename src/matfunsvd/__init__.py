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

from .baselines import ExpBoundResult, exp_norm_bound, power_method
from .densela import (EigenSolveError, FactorizationError, dense_matfun,
                      eig_dense, lu_factor, sigma_min_shifted)
from .functions import DomainError, FUNCTION_IDS, ScalarFunction, get_function
from .inner import InnerConfig, InnerResult, approx_fAv
from .operators import (LinearOperator, MatrixMarketError, MatrixSpec,
                        OperatorError, build_operator, parse_matrix_token,
                        read_matrix_market)
from .orth import BasisBreakdown, rgs
from .outer import (BidiagState, InexactnessLedger, InnerPolicy, RunReport,
                    TripletEstimate, bidiag_step, build_khat, leading_eigenpair,
                    run)
from .relax import TauDiagnostics, next_tolerance, verify_tau

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ScalarFunction", "FUNCTION_IDS", "get_function", "DomainError",
    "EigenSolveError", "FactorizationError", "dense_matfun", "eig_dense",
    "sigma_min_shifted", "lu_factor",
    "LinearOperator", "MatrixSpec", "OperatorError", "MatrixMarketError",
    "build_operator", "parse_matrix_token", "read_matrix_market",
    "BasisBreakdown", "rgs",
    "InnerConfig", "InnerResult", "approx_fAv",
    "BidiagState", "InexactnessLedger", "InnerPolicy", "RunReport",
    "TripletEstimate", "bidiag_step", "build_khat", "leading_eigenpair",
    "run",
    "next_tolerance", "TauDiagnostics", "verify_tau",
    "power_method", "ExpBoundResult", "exp_norm_bound",
]
