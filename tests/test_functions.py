"""Scalar function catalog: values, stability, and domain guards."""

import numpy as np
import numpy.testing as npt
import pytest

from matfunsvd import FUNCTION_IDS, get_function

import oracles


def test_catalog_ids_and_metadata():
    assert set(oracles.FUNCTION_IDS) <= set(FUNCTION_IDS)
    assert "identity" in FUNCTION_IDS
    for fid in ("sqrt", "invsqrt", "phi"):
        assert get_function(fid).has_branch_cut
    for fid in ("exp", "expneg", "identity"):
        assert not get_function(fid).has_branch_cut
    with pytest.raises(KeyError):
        get_function("log")


def test_frozen_reference_values():
    # spot values pinned to 16 digits, independently derivable by hand
    npt.assert_allclose(get_function("exp")(1.0), np.e, rtol=1e-15)
    npt.assert_allclose(get_function("expneg")(2.0), np.exp(-2.0), rtol=1e-15)
    npt.assert_allclose(get_function("sqrt")(9.0), 3.0, rtol=1e-15)
    npt.assert_allclose(get_function("invsqrt")(4.0), 0.5, rtol=1e-15)
    # phi(1) = exp(-1) - 1
    npt.assert_allclose(get_function("phi")(1.0), np.expm1(-1.0), rtol=1e-14)
    npt.assert_allclose(get_function("identity")(3.5 + 1j), 3.5 + 1j, rtol=0)


@pytest.mark.parametrize("fid", oracles.FUNCTION_IDS)
def test_against_mpmath_on_random_points(fid):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    pts += np.sign(pts.real) * 0.05 + 0.05j  # stay clear of the cut
    f = get_function(fid)
    got = f(pts)
    want = np.array([oracles.scalar_reference(fid, z) for z in pts])
    npt.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


def test_phi_small_argument_stability():
    # naive (exp(-sqrt z)-1)/z cancels catastrophically below |z| ~ 1e-8;
    # the stabilized form must track mpmath through the tiny regime
    f = get_function("phi")
    for mag in (1e-6, 1e-10, 1e-14, 1e-18):
        z = mag * (1.0 + 0.3j)
        want = oracles.scalar_reference("phi", z)
        npt.assert_allclose(complex(f(z)), want, rtol=1e-12)


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    pts += np.sign(pts.real) * 0.1 + 0.1j
    for fid in oracles.FUNCTION_IDS:
        f = get_function(fid)
        npt.assert_allclose(f(np.conj(pts)), np.conj(f(pts)), rtol=1e-13)


def test_vectorization_matches_scalar_loop():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(30) + 0.2 + 1j * rng.standard_normal(30)
    for fid in oracles.FUNCTION_IDS:
        f = get_function(fid)
        loop = np.array([complex(f(complex(w))) for w in z])
        npt.assert_allclose(np.asarray(f(z), dtype=complex), loop, rtol=1e-14)
