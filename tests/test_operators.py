"""Test-matrix generators, matrix tokens, and the Matrix Market reader."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import (
    MatrixSpec,
    MatrixMarketError,
    OperatorError,
    build_operator,
    parse_matrix_token,
)
from matfunsvd.operators import read_matrix_market

import oracles


def op(token, **kw):
    return build_operator(parse_matrix_token(token, **kw))


# ---------------------------------------------------------------------------
# generator entries


def test_a1_matches_documented_recipe():
    o = op("A1:n=6:seed=42")
    A = o.to_dense()
    rng = np.random.default_rng(42)
    rho1 = rng.random(6)
    rho2 = rng.random(6)
    want = np.diag((1.0 + rho1) + 1j * (rho2 - 0.5)) + np.diag(np.full(5, 0.3), 1)
    npt.assert_array_equal(A, want)
    with pytest.raises(OperatorError):
        build_operator(MatrixSpec(kind="A1", n=6))  # seed is mandatory


def test_a2_entries_by_hand():
    A = op("A2:n=4").to_dense()
    want = np.array([
        [2.0, -1.0, 0.0, 0.0],
        [1.5, 2.0, -1.0, 0.0],
        [0.0, 1.5, 2.0, -1.0],
        [0.0, 0.0, 1.5, 2.0],
    ])
    npt.assert_array_equal(A, want)


def test_a3_stencil_offsets():
    n = 16
    A = op(f"A3:n={n}").to_dense()
    want = np.zeros((n, n))
    for off, val in ((-7, 4.0), (-2, -2.0), (0, 10.0), (4, 6.0)):
        want += np.diag(np.full(n - abs(off), val), off)
    npt.assert_array_equal(A, want)
    o = op(f"A3:n={n}")
    assert o.structure_tag == "banded" and o.bandwidths == (7, 4)


def test_a5_hand_assembly_g3():
    # upwinded convection-diffusion stencil on a 3x3 interior grid, h = 1/4:
    # diagonal 4, west/south -1+50h = 11.5, east/north -1-50h = -13.5
    A = op("A5:n=9").to_dense()
    g, c = 3, 12.5
    want = np.zeros((9, 9))
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
    assert op("A5:n=9").bandwidths == (3, 3)
    with pytest.raises(OperatorError):
        op("A5:n=12")  # not a perfect square


def test_generators_are_deterministic():
    for token in ("A1:n=20:seed=5", "A2:n=20", "A3:n=20", "A5:n=25"):
        npt.assert_array_equal(op(token).to_dense(), op(token).to_dense())


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


def test_to_dense_refuses_large():
    o = op("A2:n=5000")
    with pytest.raises(OperatorError):
        o.to_dense(limit=4096)
    assert o.to_dense(limit=5000).shape == (5000, 5000)


@pytest.mark.parametrize("token", ["A2:n=40", "A3:n=40", "A5:n=36"])
def test_factorization_solves_and_caches(token):
    o = op(token)
    A = o.to_dense()
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


@pytest.mark.parametrize("bad", ["A9", "dense", "A2:n=ten", "A2:n", "A2:m=3", ""])
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
    npt.assert_array_equal(o.to_dense(), A + 10.0 * np.eye(6))
    o = build_operator(parse_matrix_token(f"file:path={path}"))
    npt.assert_array_equal(o.to_dense(), A)
    assert o.structure_tag == "general-sparse"


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
])
def test_mm_rejects_malformed(tmp_path, body, msg):
    p = tmp_path / "bad.mtx"
    p.write_text(body)
    with pytest.raises(MatrixMarketError, match=msg):
        read_matrix_market(str(p))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix_market(str(tmp_path / "nope.mtx"))
