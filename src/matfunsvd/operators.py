"""Test operators, matrix generators, and Matrix Market input.

Every matrix, a programmatic dense array included, is handed to the solvers
as a :class:`LinearOperator`: stored sparse (by diagonals for the banded
generators, CSR otherwise), with matvec/adjoint-matvec and a lazily cached
LU factorization (``densela.Factorization``) for the extended Krylov solves.
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
        # a matrix given by diagonals (DIA) stays so, for its faster product;
        # any other input, a dense array or another sparse format, is CSR
        if not sparse.issparse(matrix):
            matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise OperatorError("operator matrix must be square")
        dia = sparse.issparse(matrix) and matrix.format == "dia"
        mat = matrix if dia else sparse.csr_matrix(matrix)
        mat = mat.astype(np.complex128 if np.iscomplexobj(mat.data)
                         else np.float64)
        adj = mat.T.conj()
        self._mat = mat
        self._adj = _ascending(adj) if dia else adj.tocsr()
        self.n = mat.shape[0]
        self.dtype = mat.dtype
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


def _ascending(dia):
    """The DIA matrix with its offsets in ascending order.

    A DIA product adds the diagonals in their stored order, so with the
    offsets ascending each entry sums its terms in column order, as a CSR
    product does, and both give the same bits.  A transpose negates the
    offsets and so reverses the order the generators build them in.
    """
    order = np.argsort(dia.offsets)
    return sparse.dia_matrix((dia.data[order], dia.offsets[order]),
                             shape=dia.shape)


# ---------------------------------------------------------------------------
# generators: banded, built by diagonals


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
    mat = sparse.diags([diag, np.full(n - 1, 0.3)], [0, 1], format="dia",
                       dtype=np.complex128)
    return LinearOperator(mat)


def _build_a2(spec):
    n = _require_n(spec, 2)
    mat = sparse.diags(
        [np.full(n - 1, 1.5), np.full(n, 2.0), np.full(n - 1, -1.0)],
        [-1, 0, 1], format="dia")
    return LinearOperator(mat)


def _build_a3(spec):
    n = _require_n(spec, 8)
    # Toeplitz stencil [4 0 0 0 0 -2 0 10 0 0 0 6] with 10 on the diagonal:
    # offsets -7, -2, 0, +4
    mat = sparse.diags(
        [np.full(n - 7, 4.0), np.full(n - 2, -2.0), np.full(n, 10.0),
         np.full(n - 4, 6.0)],
        [-7, -2, 0, 4], format="dia")
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
    # x-neighbours only within a grid row: zero the +-1 entries across rows.
    # Offsets -g, -1, 0, 1, g; a 1 x 1 grid (g = 1) has no neighbours, and
    # there +-g would repeat +-1
    inrow = np.arange(1, n) % g != 0
    diagonals = [-1.0 + c, (-1.0 + c) * inrow, 4.0, (-1.0 - c) * inrow, -1.0 - c]
    offsets = [-g, -1, 0, 1, g]
    if g == 1:
        diagonals, offsets = [4.0], [0]
    return LinearOperator(sparse.diags(diagonals, offsets, shape=(n, n),
                                       format="dia"))


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
    return LinearOperator(spec.dense_values)


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

# the keys each kind reads, with their types; any other key is an error
_TOKEN_KEYS = {"A1": {"n": int, "seed": int}, "A2": {"n": int},
               "A3": {"n": int}, "A5": {"n": int}}
_TOKEN_KEYS["A4"] = _TOKEN_KEYS["file"] = {"path": str, "shift": float}


def parse_matrix_token(token: str, default_n: int = 10000,
                       default_seed: int | None = None) -> MatrixSpec:
    """MatrixSpec of a token; an unread or repeated key is an OperatorError."""
    kind, *parts = token.split(":")
    kind = kind.strip()
    keys = _TOKEN_KEYS.get(kind)
    if keys is None:
        raise OperatorError(f"unknown matrix token kind {kind!r} in {token!r}")
    kvs = {}
    for part in parts:
        if "=" not in part:
            raise OperatorError(f"malformed token component {part!r} in {token!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in kvs or key not in keys:
            why = "repeated" if key in kvs else f"{kind} does not read"
            raise OperatorError(f"{why} token key {key!r} in {token!r}")
        try:
            kvs[key] = keys[key](value)
        except ValueError:
            what = "an integer" if keys[key] is int else "a number"
            raise OperatorError(f"{key} must be {what} in {token!r}") from None
    return MatrixSpec(kind=kind, n=kvs.get("n", default_n),
                      seed=kvs.get("seed", default_seed),
                      shift=kvs.get("shift"), path=kvs.get("path"))


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
    entries, out-of-bounds indices and non-finite values (inf, nan, or a
    number that overflows to inf) are rejected rather than repaired.
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
        try:
            nrows, ncols = int(size[0]), int(size[1])
            count = int(size[2]) if coordinate else nrows * ncols
        except ValueError:
            raise MatrixMarketError(f"bad {fmt} size line: {' '.join(size)!r}") from None
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
            try:
                if coordinate:
                    ij[:, k] = int(toks[0]), int(toks[1])
                vals[k] = (complex(float(toks[-2]), float(toks[-1]))
                           if complex_field else float(toks[-1]))
            except (ValueError, OverflowError):
                raise MatrixMarketError(f"bad {fmt} entry: {' '.join(toks)!r}") from None
            if not np.isfinite(vals[k]):
                raise MatrixMarketError(
                    f"non-finite {fmt} entry: {' '.join(toks)!r}")
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
