"""Independent reference values of ||f(A)||_2 for the benchmark workloads.

The matrices are rebuilt here from their definitions with scipy.sparse, and
f(A) and its largest singular value come from scipy kernels only (dense
``expm``/``sqrtm``/``svdvals``, or ``expm_multiply`` under ARPACK ``svds``
where a dense f(A) does not fit in memory).  Nothing is imported from
matfunsvd, so agreement with a solve is evidence rather than a tautology.

    python3 bench/references.py            # rewrite bench/references.json

takes about a minute and 1 GB of memory; the smoke test calls
``reference_sigma`` directly on small sizes.
"""

import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# the criterion-1 table row for A5:n=10000, exp at eps_out=1e-4
A5_EXP_TABLE = (2975.18, 5e-3)

# largest order for which a dense f(A) is formed
DENSE_LIMIT = 4096


def matrix(family, n):
    """Sparse A2 or A5 of order n, built from the README definitions."""
    if family == "A2":
        # tridiagonal Toeplitz: 1.5 below, 2 on, -1 above the diagonal
        return sparse.diags([np.full(n - 1, 1.5), np.full(n, 2.0),
                             np.full(n - 1, -1.0)], [-1, 0, 1], format="csr")
    if family == "A5":
        # -lap(u) - 100 u_x - 100 u_y on the unit square, Dirichlet, g interior
        # points per side, centered differences scaled by h^2, x fastest
        g = math.isqrt(n)
        if g * g != n:
            raise ValueError(f"A5 needs a perfect-square order, got {n}")
        h = 1.0 / (g + 1)
        lower, upper = -1.0 + 50.0 * h, -1.0 - 50.0 * h
        line = sparse.diags([np.full(g - 1, lower), np.full(g, 2.0),
                             np.full(g - 1, upper)], [-1, 0, 1])
        eye = sparse.identity(g)
        return (sparse.kron(eye, line) + sparse.kron(line, eye)).tocsr()
    raise ValueError(f"no reference construction for family {family!r}")


def _dense_sigma(A, function):
    A = A.toarray()
    if function == "exp":
        F = scipy.linalg.expm(A)
    elif function == "invsqrt":
        F = scipy.linalg.inv(scipy.linalg.sqrtm(A))
    else:
        raise ValueError(f"no dense reference for function {function!r}")
    return float(scipy.linalg.svdvals(F)[0])


def _krylov_sigma_exp(A):
    # products with exp(A) and exp(A)^T = exp(A^T) by Al-Mohy-Higham
    # expm_multiply; ARPACK Lanczos on the normal operator finds sigma_max
    At = A.T.tocsr()
    op = spla.LinearOperator(
        A.shape, dtype=np.float64,
        matvec=lambda x: spla.expm_multiply(A, x),
        rmatvec=lambda x: spla.expm_multiply(At, x))
    v0 = np.ones(A.shape[0]) / math.sqrt(A.shape[0])
    return float(spla.svds(op, k=1, tol=1e-13, v0=v0,
                           return_singular_vectors=False)[0])


def reference_sigma(family, n, function):
    """Largest singular value of f(A) and a one-line note on how it was made."""
    A = matrix(family, n)
    if n <= DENSE_LIMIT:
        how = {"exp": "scipy.linalg.expm then scipy.linalg.svdvals",
               "invsqrt": "scipy.linalg.inv(scipy.linalg.sqrtm(A)) then "
                          "scipy.linalg.svdvals"}[function]
        return _dense_sigma(A, function), how
    if function == "exp":
        return (_krylov_sigma_exp(A),
                "scipy.sparse.linalg.svds(k=1, tol=1e-13) on products by "
                "scipy.sparse.linalg.expm_multiply")
    raise ValueError(f"no reference route for {family}:n={n} {function}")


# (family, n, function, eps_out of the workload): the relative tolerance of
# a check is the workload's eps_out, the bound the solver's residual test
# puts on the relative error of sigma
PROBLEMS = (
    ("A5", 10000, "exp", 1e-4),
    ("A5", 2500, "invsqrt", 1e-7),
    ("A2", 2500, "exp", 1e-4),
)


def key(family, n, function):
    return f"{family}:n={n}/{function}"


def main():
    out = {
        "_about": "largest singular value of f(A) per problem, from scipy "
                  "kernels only; regenerate with python3 bench/references.py",
        "_environment": {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__},
    }
    for family, n, function, eps_out in PROBLEMS:
        t0 = time.perf_counter()
        sigma, how = reference_sigma(family, n, function)
        entry = {"sigma": sigma, "rtol": eps_out, "how": how,
                 "compute_s": round(time.perf_counter() - t0, 1)}
        if (family, n, function) == ("A5", 10000, "exp"):
            table, table_rtol = A5_EXP_TABLE
            rel = abs(sigma - table) / table
            if rel > table_rtol:
                raise SystemExit(f"A5:n=10000/exp reference {sigma} is {rel:.1e} "
                                 f"from the criterion-1 table value {table}")
            entry["table"] = {"sigma": table, "rtol": table_rtol,
                              "relative_difference": rel}
        out[key(family, n, function)] = entry
        print(f"{key(family, n, function)}: {sigma!r} ({how}, "
              f"{entry['compute_s']} s)", file=sys.stderr)
    with open(REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
