"""Function catalog: the one definition of each f the solvers handle.

The solvers need f only through the projected inner problems, as the first
column f(H) e1 of a small dense H.  Each entry holds that rule and whether
f has a branch cut.  Functions with a branch cut use the principal branch
with the cut along the closed ray (-inf, 0]; their rules assume the
spectrum of H stays off that ray (``densela.dense_matfun`` guards it).

exp/expneg take the first column of scipy's ``expm`` (scaling and squaring
with a Pade approximant; Al-Mohy & Higham, SIMAX 2009).  The branch-cut
functions share the principal square root S of H from scipy's blocked Schur
method (Deadman, Higham & Ralha 2013; real Schur form for real H, Higham
1987): sqrt returns S e1, invsqrt S^{-1} e1 and phi H^{-1} (exp(-S) - I) e1,
each by one vector solve.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

__all__ = [
    "DomainError",
    "ScalarFunction",
    "FUNCTION_IDS",
    "get_function",
]


class DomainError(ValueError):
    """Argument (or matrix spectrum) touches the excluded set of a function."""


def _e1(S):
    e1 = np.zeros(S.shape[0], dtype=S.dtype)
    e1[0] = 1.0
    return e1


def _invsqrt(H):
    S = scipy.linalg.sqrtm(H)
    return np.linalg.solve(S, _e1(S))


def _phi(H):
    # phi(z) = (exp(-sqrt(z)) - 1) / z
    S = scipy.linalg.sqrtm(H)
    return np.linalg.solve(H, scipy.linalg.expm(-S)[:, 0] - _e1(S))


@dataclass(frozen=True)
class ScalarFunction:
    """A function f: its id, branch-cut flag and dense rule H -> f(H) e1."""

    id: str
    has_branch_cut: bool
    first_column: Callable = field(repr=False)


_CATALOG = {s.id: s for s in (
    ScalarFunction("exp", False, lambda H: scipy.linalg.expm(H)[:, 0]),
    ScalarFunction("expneg", False, lambda H: scipy.linalg.expm(-H)[:, 0]),
    ScalarFunction("sqrt", True, lambda H: scipy.linalg.sqrtm(H)[:, 0]),
    ScalarFunction("invsqrt", True, _invsqrt),
    ScalarFunction("phi", True, _phi),
    ScalarFunction("identity", False, lambda H: H[:, 0].copy()),
)}

FUNCTION_IDS = tuple(_CATALOG)


def get_function(name: str) -> ScalarFunction:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; available: {', '.join(FUNCTION_IDS)}"
        ) from None
