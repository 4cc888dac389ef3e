"""fallfact: binomial (factorial) series toolkit over the complex domain.

Series sum a_n z^(n_) in the falling-factorial basis: exact basis
conversions, coefficient recurrences for linear difference equations,
growth classification, Newton polygons, a difference Riccati companion,
Newton interpolation from integer samples, and numeric evaluation with
controlled precision.

``import fallfact`` compiles no submodule: each name below loads its module
on first access (PEP 562), and a submodule is also an attribute.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it defines, the one table the lazy lookup reads
_EXPORTS = {
    "analysis": ("Classification", "ENTIRE", "ModulusProfile", "OrderTypeFit",
                 "RIGHT_HALF_PLANE", "UNKNOWN", "chi_estimate", "classify",
                 "fit_order_type", "modulus_profile"),
    "basis": ("StirlingTable", "binomial_to_poly", "default_table", "poly_to_binomial",
              "verify_stirling_bounds"),
    "errors": ("DeterminacyError", "EvaluationOverflowError", "FallfactError",
               "InputFormatError", "MathematicalObstruction", "NumericalFailure",
               "PoleError", "SingularRecurrenceError"),
    "exact": ("ExactScalar", "as_exact"),
    "interp": ("InterpolationReport", "newton_series", "reconstruct_check"),
    "polynomial": ("Polynomial", "RationalFunction", "format_poly", "poly"),
    "riccati": ("RiccatiInstance", "g_step_check", "riccati_coefficient",
                "riccati_equation", "riccati_instance", "riccati_transform",
                "verify_riccati"),
    "series": ("AcceleratedResult", "BinomialSeries", "EvaluationResult",
               "TaylorCoefficients", "approx_series", "binomial_from_taylor", "delta",
               "evaluate", "evaluate_accelerated", "evaluate_exact", "exact_series",
               "linear_combine", "mul_by_poly", "mul_by_z", "shift",
               "taylor_from_binomial"),
    "solver": ("CoefficientRecurrence", "ContinuationResult", "LinearDifferenceEquation",
               "NewtonPolygon", "VerificationReport", "candidate_orders",
               "continuation_eval", "derive_recurrence", "formal_solve", "newton_polygon",
               "solve_recurrence", "to_delta_form", "to_shift_form", "verify_solution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
