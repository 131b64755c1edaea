"""The package's top-level surface is what README documents."""

import matfunsvd

README_SURFACE = {
    "__version__",
    "run", "InnerPolicy", "RunReport", "TripletEstimate",
    "build_operator", "parse_matrix_token", "MatrixSpec",
    "get_function", "FUNCTION_IDS",
    "DomainError", "OperatorError", "MatrixMarketError",
    "power_method", "exp_norm_bound", "verify_tau",
}


def test_all_is_the_readme_surface_and_resolves():
    assert len(matfunsvd.__all__) == len(set(matfunsvd.__all__))
    assert set(matfunsvd.__all__) == README_SURFACE
    for name in matfunsvd.__all__:
        assert getattr(matfunsvd, name) is not None
