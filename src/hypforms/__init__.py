"""Saddle-only binary forms: exact certification, index classification,
witness families, asymptotic-curve geometry, and verification suites.

A homogeneous polynomial in two variables is accepted here when its Hessian
determinant is strictly negative away from the origin, so its graph is
saddle-shaped along every direction.  Everything decision-like is computed
in exact rational arithmetic and returns a certificate or a witness; floats
appear only in the numeric cross-checks and figure emission.
"""

import importlib

# Each public name by the module that defines it.  A module is imported on
# the first access to one of its names (PEP 562), so `import hypforms` loads
# none of them and a command pays only for the modules it runs.
_EXPORTS = {
    "core": (
        "BinaryForm", "LinearForm", "NotHyperbolicError", "ParseError", "Rat",
        "UniPoly", "format_form", "parse_form", "rotational_derivative",
    ),
    "certify": (
        "Certificate", "hess_linear_product", "hessian", "is_hyperbolic",
        "is_hyperbolic_polar", "is_negative_form", "is_nonpositive_on_unit_interval",
        "linear_extension_is_hyperbolic", "polar_form", "require_hyperbolic",
        "sturm_count",
    ),
    "classify": (
        "ComponentReport", "RefinementError", "admissible_indices", "classify_form",
        "count_real_linear_factors", "index_gamma", "num_components",
        "winding_alpha_numeric", "winding_gamma_numeric", "zeros_vs_critical_points",
    ),
    "families": (
        "FamilyMember", "arnold", "f_family", "g_even", "p_factorized",
        "representatives", "table1",
    ),
    "asymptotics": (
        "CurvePolyline", "IsotopyCheck", "check_isotopies", "discriminant_omega",
        "integrate_curve", "poincare_index_origin", "polylines_to_csv",
        "polylines_to_svg",
    ),
    "suites": ("SUITE_NAMES",),
    "verify": ("DEFAULT_SEED", "SuiteReport", "run_suite", "suite_lemma1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, or one of the modules that define them, on first use;
    any other name is an AttributeError, so that `from hypforms import cli`
    still imports the submodule."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
