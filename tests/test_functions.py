"""Function catalog: ids, branch-cut flags, unknown names."""

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

