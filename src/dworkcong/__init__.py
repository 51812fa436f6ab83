"""Constant terms of Laurent polynomial powers: ghost-term decompositions,
Dwork-type congruences mod p**s, and p-adic unit roots for the Apery family.

Each exported name, and each module, is imported on first use (PEP 562) and
then kept here, so `import dworkcong.apery`, `.polytope` or `.padic` compiles
that module and at most the price list, `budget`, and `from dworkcong import *`
imports them all.
"""

import importlib

_EXPORTS = {
    "apery": "APERY_POLY_SRC apery_numbers apery_numbers_mod apery_polynomial",
    "congruence": """CongruenceReport NotAdmissibleError check_c1 check_c2 check_dig2
        check_digit_product f_trunc run_lemma_suite""",
    "ghost": """GhostCalculator c_direct c_from_b c_from_b_sequence concat_p
        digit_partitions digits_p enumerate_indecomposable enumerate_tuples
        ghost_decomposition_residual ghost_term indecomposable_sum is_indecomposable
        length_p reconstruct_b tuple_ghost_product""",
    "laurent": """LaurentPoly PowerCache TruncSeries constant_term_of_product
        constant_term_sequence""",
    "padic": "PadicInt hensel_quadratic_unit_root is_prime teichmuller",
    "polyparse": "ParseError parse_poly",
    "polytope": "AdmissibilityReport LatticePolytope is_admissible newton_polytope",
    "unitroot": """FqField PlaneCubic ZetaReport a_p apery_fiber count_projective_points
        dwork_domain_test finite_field is_smooth_cubic omega_approx smallest_irreducible
        unit_root_compare unit_root_sweep""",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
# the modules too, which star-import bound when this file imported them all
__all__ = [*_MODULE, "__version__", *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:  # a module: its import binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
