"""The package's top-level surface is what README documents."""

import ast
import pathlib

import matfunsvd

README_SURFACE = {
    "__version__",
    "run", "InnerPolicy", "RunReport", "TripletEstimate",
    "build_operator", "parse_matrix_token", "MatrixSpec",
    "get_function", "FUNCTION_IDS",
    "DomainError", "OperatorError", "MatrixMarketError",
    "power_method", "exp_norm_bound",
}


def test_all_is_the_readme_surface_and_resolves():
    assert len(matfunsvd.__all__) == len(set(matfunsvd.__all__))
    assert set(matfunsvd.__all__) == README_SURFACE
    for name in matfunsvd.__all__:
        assert getattr(matfunsvd, name) is not None


def test_no_assert_statements_in_the_library():
    # python -O strips assert, so no library check may rest on one
    found = []
    for path in sorted(pathlib.Path(matfunsvd.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Assert)]
    assert found == []
