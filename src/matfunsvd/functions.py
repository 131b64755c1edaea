"""Scalar function catalog.

Every matrix function handled by this package is induced by one of the scalar
functions registered here.  Functions with a branch cut use the principal
branch with the cut along the closed ray (-inf, 0]; their evaluators assume
the argument stays off that ray (matrix-level guards live in densela).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "ScalarFunction",
    "FUNCTION_IDS",
    "get_function",
]


class DomainError(ValueError):
    """Argument (or matrix spectrum) touches the excluded set of a function."""


def _expm1_complex(x):
    """exp(x) - 1 without cancellation, for real or complex arrays.

    numpy.expm1 rejects complex input, so the complex path uses Kahan's
    formula (exp(x)-1) * x / log(exp(x)), exact in the small-|x| limit.
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return np.expm1(x)
    u = np.exp(x)
    du = u - 1.0
    # log(u) == x up to rounding for |Im x| < pi; safe where u != 1
    logu = np.log(np.where(u == 1.0, np.e, u))
    out = np.where(u == 1.0, x, du * np.where(x == 0.0, 1.0, x) / np.where(u == 1.0, 1.0, logu))
    return out


def _phi(z):
    # phi(z) = (exp(-sqrt(z)) - 1) / z, stabilized through expm1 so the
    # z -> 0 limit loses no precision (naive form cancels below |z| ~ 1e-8)
    z = np.asarray(z)
    w = np.sqrt(z.astype(complex)) if not np.iscomplexobj(z) else np.sqrt(z)
    val = _expm1_complex(-w) / np.where(z == 0.0, 1.0, z)
    return val


def _invsqrt(z):
    z = np.asarray(z)
    w = np.sqrt(z.astype(complex)) if not np.iscomplexobj(z) else np.sqrt(z)
    return 1.0 / w


def _sqrt(z):
    z = np.asarray(z)
    return np.sqrt(z.astype(complex)) if not np.iscomplexobj(z) else np.sqrt(z)


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function z -> f(z) plus the metadata the solvers need."""

    id: str
    evaluate: Callable = field(repr=False)
    has_branch_cut: bool
    description: str

    def __call__(self, z):
        return self.evaluate(z)


_CATALOG = {
    "exp": ScalarFunction("exp", np.exp, False, "exponential"),
    "expneg": ScalarFunction("expneg", lambda z: np.exp(-np.asarray(z)), False,
                             "exponential of the negated argument"),
    "sqrt": ScalarFunction("sqrt", _sqrt, True,
                           "principal square root, Re >= 0"),
    "invsqrt": ScalarFunction("invsqrt", _invsqrt, True,
                              "principal inverse square root"),
    "phi": ScalarFunction("phi", _phi, True,
                          "(exp(-sqrt(z)) - 1)/z, principal branch"),
    "identity": ScalarFunction("identity", lambda z: np.asarray(z), False,
                               "identity (exact-mode diagnostics)"),
}

FUNCTION_IDS = tuple(_CATALOG)


def get_function(name: str) -> ScalarFunction:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; available: {', '.join(FUNCTION_IDS)}"
        ) from None
