"""Test-matrix generators, matrix tokens, and the Matrix Market reader."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sparse

from matfunsvd import (
    MatrixSpec,
    MatrixMarketError,
    OperatorError,
    build_operator,
    parse_matrix_token,
)
from matfunsvd.densela import Factorization
from matfunsvd.operators import LinearOperator, read_matrix_market

import oracles


def op(token, **kw):
    return build_operator(parse_matrix_token(token, **kw))


# ---------------------------------------------------------------------------
# generator entries


def test_a1_matches_documented_recipe():
    o = op("A1:n=6:seed=42")
    A = oracles.dense(o)
    rng = np.random.default_rng(42)
    rho1 = rng.random(6)
    rho2 = rng.random(6)
    want = np.diag((1.0 + rho1) + 1j * (rho2 - 0.5)) + np.diag(np.full(5, 0.3), 1)
    npt.assert_array_equal(A, want)
    with pytest.raises(OperatorError):
        build_operator(MatrixSpec(kind="A1", n=6))  # seed is mandatory


def test_a2_entries_by_hand():
    A = oracles.dense(op("A2:n=4"))
    want = np.array([
        [2.0, -1.0, 0.0, 0.0],
        [1.5, 2.0, -1.0, 0.0],
        [0.0, 1.5, 2.0, -1.0],
        [0.0, 0.0, 1.5, 2.0],
    ])
    npt.assert_array_equal(A, want)


def test_a3_stencil_offsets():
    n = 16
    A = oracles.dense(op(f"A3:n={n}"))
    want = np.zeros((n, n))
    for off, val in ((-7, 4.0), (-2, -2.0), (0, 10.0), (4, 6.0)):
        want += np.diag(np.full(n - abs(off), val), off)
    npt.assert_array_equal(A, want)


@pytest.mark.parametrize("g", [1, 2, 3, 7, 50])
def test_a5_hand_assembly(g):
    # upwinded convection-diffusion stencil on a g x g interior grid,
    # h = 1/(g+1): diagonal 4, west/south -1+50h, east/north -1-50h; g = 1
    # has no neighbours, and x-neighbours never cross a grid row
    n = g * g
    A = oracles.dense(op(f"A5:n={n}"))
    c = 50.0 / (g + 1)
    want = np.zeros((n, n))
    for y in range(g):
        for x in range(g):
            k = y * g + x
            want[k, k] = 4.0
            if x > 0:
                want[k, k - 1] = -1.0 + c
            if x < g - 1:
                want[k, k + 1] = -1.0 - c
            if y > 0:
                want[k, k - g] = -1.0 + c
            if y < g - 1:
                want[k, k + g] = -1.0 - c
    npt.assert_allclose(A, want, rtol=0, atol=1e-14)


def test_a5_rejects_non_square_size():
    with pytest.raises(OperatorError):
        op("A5:n=12")  # not a perfect square


def test_generators_are_deterministic():
    for token in ("A1:n=20:seed=5", "A2:n=20", "A3:n=20", "A5:n=25"):
        npt.assert_array_equal(oracles.dense(op(token)),
                               oracles.dense(op(token)))


# ---------------------------------------------------------------------------
# operator protocol


@pytest.mark.parametrize("n", [9, 100, 1024])
@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A5"])
def test_adjoint_probing(kind, n):
    o = op(f"{kind}:n={n}:seed=1" if kind == "A1" else f"{kind}:n={n}")
    rng = np.random.default_rng(n + ord(kind[1]))
    for _ in range(4):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.vdot(y, o.apply(x))
        rhs = np.vdot(o.apply_adjoint(y), x)
        npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * abs(lhs))


# the generators store their bands by diagonals (DIA); the products must
# match the dense matrix, and the same matrix stored by rows (CSR) bit for bit
BANDED = ["A1:n=300:seed=4", "A2:n=300", "A3:n=300", "A5:n=1", "A5:n=4",
          "A5:n=2500"]


@pytest.mark.parametrize("token", BANDED)
def test_banded_products_match_dense_and_csr(token):
    o = op(token)
    A = oracles.dense(o)
    by_rows = LinearOperator(sparse.csr_matrix(A))
    rng = np.random.default_rng(o.n)
    for x in (rng.standard_normal(o.n),
              rng.standard_normal(o.n) + 1j * rng.standard_normal(o.n)):
        for got, want, rows in ((o.apply(x), A @ x, by_rows.apply(x)),
                                (o.apply_adjoint(x), A.conj().T @ x,
                                 by_rows.apply_adjoint(x))):
            npt.assert_allclose(got, want, rtol=0,
                                atol=1e-14 * np.abs(A).max() * np.abs(x).max())
            npt.assert_array_equal(got, rows)


@pytest.mark.parametrize("token", ["A1:n=400:seed=1", "A3:n=400", "A5:n=2500"])
def test_banded_factorization_solves_at_the_csr_level(token):
    o = op(token)
    A = oracles.dense(o)
    by_rows = Factorization(sparse.csr_matrix(A))
    b = np.random.default_rng(4).standard_normal(o.n)
    for adjoint in (False, True):
        M = A.conj().T if adjoint else A
        x = o.factorization().solve(b, adjoint=adjoint)
        ref = by_rows.solve(b, adjoint=adjoint)
        resid = np.linalg.norm(M @ x - b)
        assert resid <= 2.0 * np.linalg.norm(M @ ref - b) + 1e-15 * np.linalg.norm(b)
        assert resid <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("values", [np.ones((3, 4)), np.ones(4),
                                    np.ones((2, 2, 2)), np.array(3.0)])
def test_dense_operator_must_be_square(values):
    with pytest.raises(OperatorError):
        build_operator(MatrixSpec(kind="dense", dense_values=values))


@pytest.mark.parametrize("token", ["A1:n=40:seed=1", "A2:n=40", "A3:n=40", "A5:n=36"])
def test_factorization_solves_and_caches(token):
    o = op(token)
    A = oracles.dense(o)
    fac = o.factorization()
    assert o.factorization() is fac  # cached
    b = np.random.default_rng(3).standard_normal(o.n)
    npt.assert_allclose(A @ fac.solve(b), b, atol=1e-9)
    npt.assert_allclose(A.conj().T @ fac.solve(b, adjoint=True), b, atol=1e-9)


# ---------------------------------------------------------------------------
# tokens


def test_token_parsing_defaults_and_overrides():
    spec = parse_matrix_token("A2", default_n=123)
    assert spec.kind == "A2" and spec.n == 123
    spec = parse_matrix_token("A1:n=64", default_seed=9)
    assert spec.seed == 9 and spec.n == 64
    spec = parse_matrix_token("A4:path=m.mtx:shift=2.5")
    assert spec.path == "m.mtx" and spec.shift == 2.5


@pytest.mark.parametrize("bad", ["A9", "dense", "A2:n=ten", "A2:n", "A2:m=3", "",
                                 "A5:n=100:shift=5", "A3:n=50:n=60",
                                 "file:path=F:n=7", "A2:n=50:seed=3"])
def test_token_parsing_rejects(bad):
    with pytest.raises(OperatorError):
        parse_matrix_token(bad)


def test_file_kinds_require_path():
    with pytest.raises(OperatorError):
        build_operator(MatrixSpec(kind="A4"))
    with pytest.raises(OperatorError):
        build_operator(MatrixSpec(kind="file"))


# ---------------------------------------------------------------------------
# Matrix Market reader


def test_mm_roundtrip_real_and_shift(tmp_path):
    rng = np.random.default_rng(0)
    A = np.round(rng.standard_normal((6, 6)) * np.array(rng.random((6, 6)) > 0.4), 3)
    np.fill_diagonal(A, 1.0)
    path = oracles.write_mtx(tmp_path / "m.mtx", A)
    got = read_matrix_market(path)
    npt.assert_array_equal(got.toarray(), A)
    o = build_operator(MatrixSpec(kind="A4", path=path, shift=10.0))
    npt.assert_array_equal(oracles.dense(o), A + 10.0 * np.eye(6))
    o = build_operator(parse_matrix_token(f"file:path={path}"))
    npt.assert_array_equal(oracles.dense(o), A)


def test_mm_complex_coordinate(tmp_path):
    p = tmp_path / "c.mtx"
    p.write_text("%%MatrixMarket matrix coordinate complex general\n"
                 "2 2 3\n1 1 1.0 2.0\n2 2 -1.0 0.5\n1 2 0.0 -3.0\n")
    got = read_matrix_market(str(p)).toarray()
    want = np.array([[1 + 2j, -3j], [0, -1 + 0.5j]])
    npt.assert_array_equal(got, want)


def test_mm_array_format(tmp_path):
    p = tmp_path / "a.mtx"
    # array format is column-major
    p.write_text("%%MatrixMarket matrix array real general\n"
                 "2 2\n1.0\n2.0\n3.0\n4.0\n")
    npt.assert_array_equal(np.asarray(read_matrix_market(str(p))),
                           np.array([[1.0, 3.0], [2.0, 4.0]]))


@pytest.mark.parametrize("body,msg", [
    ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n", "symmetry"),
    ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", "pattern"),
    ("%% not a header\n2 2 1\n1 1 1.0\n", "header"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n",
     "duplicate"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "declared"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "bounds"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", "entry"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 2.0\n",
     "entry"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
     "declared"),
    ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
     "declared"),
    ("%%MatrixMarket matrix array real general\n1 2\n1.0\n2.0\n3.0\n",
     "declared"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
     "bounds"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
     "skew"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n", "negative"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
     "entry: '1 1 abc'"),
    ("%%MatrixMarket matrix coordinate real general\n3 x 3\n",
     "size line: '3 x 3'"),
    # values that parse as floats but are not finite
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n",
     "non-finite coordinate entry: '1 1 inf'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n",
     "non-finite coordinate entry: '1 1 nan'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e999\n",
     "non-finite coordinate entry: '1 1 1e999'"),
])
def test_mm_rejects_malformed(tmp_path, body, msg):
    p = tmp_path / "bad.mtx"
    p.write_text(body)
    with pytest.raises(MatrixMarketError, match=msg):
        read_matrix_market(str(p))


@pytest.mark.parametrize("body,want", [
    # blank lines and comments between entries
    ("%%MatrixMarket matrix coordinate real general\n% c\n2 2 2\n\n"
     "1 1 1.5\n% between\n   \n2 1 -2.0\n", [[1.5, 0.0], [-2.0, 0.0]]),
    ("%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 3.0\n",
     [[3.0]]),
    ("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 2 -1\n",
     [[0.0, 7.0], [0.0, -1.0]]),
    ("%%MatrixMarket matrix array complex general\n2 1\n1.0 -1.0\n0.0 2.5\n",
     [[1.0 - 1.0j], [2.5j]]),
    ("%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n2 2 4.0\r\n",
     [[0.0, 0.0], [0.0, 4.0]]),
])
def test_mm_accepts(tmp_path, body, want):
    p = tmp_path / "ok.mtx"
    p.write_bytes(body.encode())
    got = read_matrix_market(str(p))
    npt.assert_array_equal(got.toarray() if hasattr(got, "toarray") else got,
                           np.array(want))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix_market(str(tmp_path / "nope.mtx"))
