"""Test operators, matrix generators, and Matrix Market input.

The large matrices are never handed to the solvers as dense arrays; they are
wrapped in :class:`LinearOperator`, which exposes matvec/adjoint-matvec and
a lazily cached LU factorization (``densela.Factorization``) for the extended
Krylov solves.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import densela

__all__ = [
    "OperatorError",
    "MatrixMarketError",
    "MatrixSpec",
    "LinearOperator",
    "build_operator",
    "read_matrix_market",
    "parse_matrix_token",
]


class OperatorError(ValueError):
    """Invalid matrix specification or generator parameters."""


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market input."""


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one test operator.

    kind: one of A1..A5, "file", "dense".  ``seed`` is required for A1 (the
    only random generator); ``shift`` defaults to 10 for A4 and 0 for plain
    files; ``n`` must be a perfect square for A5.
    """

    kind: str
    n: int | None = None
    seed: int | None = None
    shift: float | None = None
    path: str | None = None
    dense_values: np.ndarray | None = field(default=None, repr=False, compare=False)


class LinearOperator:
    """A square operator with deterministic matvecs and an adjoint."""

    def __init__(self, matrix):
        if sparse.issparse(matrix):
            mat = matrix.tocsr()
            if np.iscomplexobj(mat.data):
                mat = mat.astype(np.complex128)
            else:
                mat = mat.astype(np.float64)
            self._mat = mat
            self._adj = mat.conj().T.tocsr()
        else:
            mat = np.asarray(matrix)
            mat = mat.astype(np.complex128 if np.iscomplexobj(mat) else np.float64)
            self._mat = mat
            self._adj = mat.conj().T.copy()
        if self._mat.ndim != 2 or self._mat.shape[0] != self._mat.shape[1]:
            raise OperatorError("operator matrix must be square")
        self.n = self._mat.shape[0]
        self.dtype = self._mat.dtype
        self._factorization = None

    def apply(self, x):
        return self._mat @ x

    def apply_adjoint(self, x):
        return self._adj @ x

    def factorization(self):
        """LU of the operator, computed once and cached (shared, immutable)."""
        if self._factorization is None:
            self._factorization = densela.Factorization(self._mat)
        return self._factorization


# ---------------------------------------------------------------------------
# generators


def _require_n(spec, minimum=1):
    if spec.n is None:
        raise OperatorError(f"{spec.kind} requires a size n")
    if spec.n < minimum:
        raise OperatorError(f"{spec.kind} requires n >= {minimum}, got {spec.n}")
    return int(spec.n)


def _build_a1(spec):
    n = _require_n(spec, 2)
    if spec.seed is None:
        raise OperatorError("A1 is random and requires an explicit seed")
    # diagonal (1 + rho1_i) + i (rho2_i - 1/2), rho ~ U(0,1) from a named
    # seedable 64-bit generator (numpy default_rng / PCG64); superdiagonal 0.3
    rng = np.random.default_rng(spec.seed)
    rho1 = rng.random(n)
    rho2 = rng.random(n)
    diag = (1.0 + rho1) + 1j * (rho2 - 0.5)
    mat = sparse.diags([diag, np.full(n - 1, 0.3)], [0, 1], format="csr",
                       dtype=np.complex128)
    return LinearOperator(mat)


def _build_a2(spec):
    n = _require_n(spec, 2)
    mat = sparse.diags(
        [np.full(n - 1, 1.5), np.full(n, 2.0), np.full(n - 1, -1.0)],
        [-1, 0, 1], format="csr")
    return LinearOperator(mat)


def _build_a3(spec):
    n = _require_n(spec, 8)
    # Toeplitz stencil [4 0 0 0 0 -2 0 10 0 0 0 6] with 10 on the diagonal:
    # offsets -7, -2, 0, +4
    mat = sparse.diags(
        [np.full(n - 7, 4.0), np.full(n - 2, -2.0), np.full(n, 10.0),
         np.full(n - 4, 6.0)],
        [-7, -2, 0, 4], format="csr")
    return LinearOperator(mat)


def _build_a5(spec):
    n = _require_n(spec, 1)
    g = math.isqrt(n)
    if g * g != n:
        raise OperatorError(f"A5 needs a perfect-square size, got n={n}")
    # centered finite differences of -lap(u) - 100 u_x - 100 u_y on the unit
    # square with homogeneous Dirichlet conditions, g interior points per
    # direction, h = 1/(g+1); unscaled stencil: diagonal 4, off-diagonals
    # -1 -+ 50 h (downwind/upwind), lexicographic ordering with x fastest
    h = 1.0 / (g + 1)
    c = 50.0 * h
    # x-neighbours only within a grid row: zero the +-1 entries across rows;
    # +-g is a second diags call because at g = 1 it repeats the +-1 offsets
    inrow = np.arange(1, n) % g != 0
    xdir = sparse.diags([(-1.0 + c) * inrow, 4.0, (-1.0 - c) * inrow],
                        [-1, 0, 1], shape=(n, n))
    ydir = sparse.diags([-1.0 + c, -1.0 - c], [-g, g], shape=(n, n))
    return LinearOperator((xdir + ydir).tocsr())


_DEFAULT_SHIFT = {"A4": 10.0, "file": 0.0}


def _build_file(spec):
    """A4 and file: a Matrix Market file plus a shift times the identity."""
    if spec.path is None:
        raise OperatorError(f"{spec.kind} requires a path to a Matrix Market file")
    raw = read_matrix_market(spec.path)
    if raw.shape[0] != raw.shape[1]:
        raise OperatorError(f"{spec.kind} matrix must be square")
    shift = _DEFAULT_SHIFT[spec.kind] if spec.shift is None else spec.shift
    mat = sparse.csr_matrix(raw)
    if shift != 0.0:
        mat = mat + shift * sparse.eye(mat.shape[0], format="csr")
    return LinearOperator(mat)


def _build_dense(spec):
    if spec.dense_values is None:
        raise OperatorError("dense kind requires dense_values")
    return LinearOperator(np.asarray(spec.dense_values))


_BUILDERS = {
    "A1": _build_a1,
    "A2": _build_a2,
    "A3": _build_a3,
    "A4": _build_file,
    "A5": _build_a5,
    "file": _build_file,
    "dense": _build_dense,
}


def build_operator(spec: MatrixSpec) -> LinearOperator:
    try:
        builder = _BUILDERS[spec.kind]
    except KeyError:
        raise OperatorError(
            f"unknown matrix kind {spec.kind!r}; known: {', '.join(_BUILDERS)}"
        ) from None
    return builder(spec)


# ---------------------------------------------------------------------------
# matrix tokens ("A5:n=10000", "A4:path=e20r1000.mtx:shift=10")

_INT_KEYS = {"n", "seed"}
_FLOAT_KEYS = {"shift"}


def parse_matrix_token(token: str, default_n: int = 10000,
                       default_seed: int | None = None) -> MatrixSpec:
    parts = token.split(":")
    kind = parts[0].strip()
    if kind not in _BUILDERS or kind == "dense":
        raise OperatorError(f"unknown matrix token kind {kind!r} in {token!r}")
    kvs = {}
    for part in parts[1:]:
        if "=" not in part:
            raise OperatorError(f"malformed token component {part!r} in {token!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in _INT_KEYS:
            try:
                kvs[key] = int(value)
            except ValueError:
                raise OperatorError(f"{key} must be an integer in {token!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                kvs[key] = float(value)
            except ValueError:
                raise OperatorError(f"{key} must be a number in {token!r}") from None
        elif key == "path":
            kvs[key] = value
        else:
            raise OperatorError(f"unknown token key {key!r} in {token!r}")
    n = kvs.get("n", default_n)
    seed = kvs.get("seed", default_seed)
    return MatrixSpec(kind=kind, n=n, seed=seed, shift=kvs.get("shift"),
                      path=kvs.get("path"))


# ---------------------------------------------------------------------------
# Matrix Market reader

_HEADER_RE = re.compile(
    r"^%%MatrixMarket\s+matrix\s+(\w+)\s+(\w+)\s+([\w-]+)\s*$", re.IGNORECASE)


def _records(fh):
    """Tokens of each remaining line that is neither blank nor a comment."""
    for line in fh:
        toks = line.split()
        if toks and not toks[0].startswith("%"):
            yield toks


def read_matrix_market(path):
    """Read a Matrix Market file with a general symmetry banner.

    Supports coordinate and array formats with real/integer/complex fields.
    Pattern fields, symmetric/hermitian/skew banners, duplicate coordinate
    entries, and out-of-bounds indices are rejected rather than repaired.
    Returns a CSR matrix (coordinate) or an ndarray (array format).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        m = _HEADER_RE.match(header.strip())
        if not m:
            raise MatrixMarketError(f"malformed Matrix Market header: {header!r}")
        fmt, fieldname, symmetry = (s.lower() for s in m.groups())
        if fmt not in ("coordinate", "array"):
            raise MatrixMarketError(f"unsupported format {fmt!r}")
        if fieldname not in ("real", "integer", "complex"):
            raise MatrixMarketError(f"unsupported field {fieldname!r}")
        if symmetry != "general":
            raise MatrixMarketError(
                f"only general symmetry is supported, got {symmetry!r}")

        records = _records(fh)
        size = next(records, None)
        if size is None:
            raise MatrixMarketError("missing size line")
        coordinate = fmt == "coordinate"
        if len(size) != 2 + coordinate:
            raise MatrixMarketError(f"bad {fmt} size line: {' '.join(size)!r}")
        nrows, ncols = int(size[0]), int(size[1])
        count = int(size[2]) if coordinate else nrows * ncols
        if min(nrows, ncols, count) < 0:
            raise MatrixMarketError(f"negative size in {' '.join(size)!r}")
        # record: 1-based (i, j) of a coordinate entry, then 1 or 2 value tokens
        complex_field = fieldname == "complex"
        width = (3 if coordinate else 1) + complex_field
        ij = np.empty((2, count if coordinate else 0), dtype=np.int64)
        vals = np.empty(count, dtype=complex if complex_field else float)
        k = 0
        for toks in records:
            if len(toks) != width:
                raise MatrixMarketError(f"bad {fmt} entry: {' '.join(toks)!r}")
            if k == count:
                raise MatrixMarketError(f"more {fmt} entries than declared")
            if coordinate:
                ij[:, k] = int(toks[0]), int(toks[1])
            if complex_field:
                vals[k] = float(toks[-2]) + 1j * float(toks[-1])
            else:
                vals[k] = float(toks[-1])
            k += 1
    if k != count:
        raise MatrixMarketError(f"{fmt} format declared {count} entries "
                                f"but found {k}")
    if not coordinate:
        return vals.reshape((ncols, nrows)).T  # column-major order

    rows, cols = ij - 1
    outside = np.flatnonzero((ij < 1).any(axis=0) | (rows >= nrows)
                             | (cols >= ncols))
    if outside.size:
        i, j = ij[:, outside[0]]
        raise MatrixMarketError(f"entry index ({i}, {j}) out of bounds for "
                                f"{nrows}x{ncols} matrix")
    key = np.sort(rows * ncols + cols)
    repeated = key[1:][key[1:] == key[:-1]]
    if repeated.size:
        i, j = divmod(int(repeated[0]), ncols)
        raise MatrixMarketError(f"duplicate entry at ({i + 1}, {j + 1})")
    return sparse.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
