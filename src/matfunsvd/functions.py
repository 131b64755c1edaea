"""Function catalog: the one definition of each f the solvers handle.

The solvers need f only through the projected inner problems, as the first
column f(H) e1 of a small dense H.  Each entry holds that rule and whether
f has a branch cut.  Functions with a branch cut use the principal branch
with the cut along the closed ray (-inf, 0]; their rules assume the
spectrum of H stays off that ray (``densela.dense_matfun`` guards it).

exp/expneg take the first column of scipy's ``expm`` of H (scaling and
squaring with a Pade approximant; Al-Mohy & Higham, SIMAX 2009).  The
branch-cut rules work on the Schur form H = Z T Z^H that
``densela.dense_matfun`` computes once (quasi-triangular T for real H,
Higham 1987), with b = Z^H e1, and return f(T) b.  They share the
principal square root S of T from scipy's Schur method, which starts from
T as it is (Deadman, Higham & Ralha 2013): sqrt returns S b, invsqrt
S^{-1} b and phi T^{-1} (exp(-S) - I) b, each by one vector solve.
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


def _phi(T, b):
    # phi(z) = (exp(-sqrt(z)) - 1) / z
    S = scipy.linalg.sqrtm(T)
    return np.linalg.solve(T, scipy.linalg.expm(-S) @ b - b)


@dataclass(frozen=True)
class ScalarFunction:
    """A function f: its id, branch-cut flag and dense rule.

    The rule maps H to f(H) e1; with a branch cut it maps the Schur factor
    T of H and b = Z^H e1 to f(T) b instead.
    """

    id: str
    has_branch_cut: bool
    first_column: Callable = field(repr=False)


_CATALOG = {s.id: s for s in (
    ScalarFunction("exp", False, lambda H: scipy.linalg.expm(H)[:, 0]),
    ScalarFunction("expneg", False, lambda H: scipy.linalg.expm(-H)[:, 0]),
    ScalarFunction("sqrt", True, lambda T, b: scipy.linalg.sqrtm(T) @ b),
    ScalarFunction("invsqrt", True,
                   lambda T, b: np.linalg.solve(scipy.linalg.sqrtm(T), b)),
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
