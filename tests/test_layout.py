"""The package imports only itself and the standard library, and never
`random`: dworkcong is pure-stdlib and its results are exact and
reproducible."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dworkcong").glob("*.py"))


def imports(path):
    """(level, top-level module name) of every import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, (node.module or "").split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    for level, name in imports(path):
        assert level > 0 or name in sys.stdlib_module_names, (path.name, name)
        assert name != "random", path.name


def test_the_package_is_found():
    assert SOURCES  # an empty glob would pass the test above vacuously


# The public API: every name `dworkcong/__init__.py` exports.
EXPORTED = """
    APERY_POLY_SRC AdmissibilityReport CongruenceReport FqField GhostCalculator
    LatticePolytope LaurentPoly NotAdmissibleError PadicInt ParseError PlaneCubic
    PowerCache TruncSeries ZetaReport __version__ a_p apery_fiber apery_numbers
    apery_numbers_mod apery_polynomial c_direct c_from_b c_from_b_sequence check_c1
    check_c2 check_dig2 check_digit_product concat_p constant_term_of_product
    constant_term_sequence count_projective_points digit_partitions digits_p
    dwork_domain_test enumerate_indecomposable enumerate_tuples f_trunc
    finite_field ghost_decomposition_residual ghost_term hensel_quadratic_unit_root
    indecomposable_sum is_admissible is_indecomposable is_prime is_smooth_cubic
    length_p newton_polytope omega_approx parse_poly reconstruct_b run_lemma_suite
    smallest_irreducible teichmuller tuple_ghost_product unit_root_compare
    unit_root_sweep
""".split()


def test_exported_names_are_pinned():
    # `__init__` resolves each exported name on first use from one
    # name -> module table; `__version__` is its one assignment
    import dworkcong
    assert sorted([*dworkcong._MODULE, "__version__"]) == sorted(EXPORTED)
    assert all(hasattr(dworkcong, name) for name in EXPORTED)
