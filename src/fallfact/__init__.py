"""fallfact: binomial (factorial) series toolkit over the complex domain.

Series sum a_n z^(n_) in the falling-factorial basis: exact basis
conversions, coefficient recurrences for linear difference equations,
growth classification, Newton polygons, a difference Riccati companion,
Newton interpolation from integer samples, and numeric evaluation with
controlled precision.
"""

from .analysis import (Classification, ENTIRE, GrowthEstimate, ModulusProfile,
                       OrderTypeFit, RIGHT_HALF_PLANE, UNKNOWN, chi_estimate,
                       classify, fit_order_type, modulus_profile,
                       order_from_taylor)
from .basis import (StirlingTable, binomial_to_poly, default_table,
                    falling_factorial, poly_to_binomial, stirling_first_row,
                    stirling_second_row, verify_stirling_bounds)
from .config import RunConfig, from_env
from .errors import (DeterminacyError, EvaluationOverflowError, FallfactError,
                     InputFormatError, MathematicalObstruction,
                     NumericalFailure, PoleError, SingularRecurrenceError)
from .exact import ExactScalar, as_exact
from .interp import (InterpolationReport, SampleTable, forward_differences,
                     newton_series, reconstruct_check)
from .polynomial import Polynomial, RationalFunction, format_poly, poly
from .riccati import (RiccatiInstance, RiccatiReport, g_step_check,
                      moebius_step, riccati_coefficient, riccati_equation,
                      riccati_instance, riccati_transform, verify_riccati)
from .series import (AcceleratedResult, BinomialSeries, EvaluationResult,
                     TaylorCoefficients, approx_series, binomial_from_taylor,
                     delta, evaluate, evaluate_accelerated, evaluate_exact,
                     exact_series, linear_combine, mul_by_poly, mul_by_z,
                     shift, taylor_from_binomial)
from .solver import (CoefficientRecurrence, ContinuationResult,
                     LinearDifferenceEquation, NewtonPolygon,
                     VerificationReport, candidate_orders, continuation_eval,
                     derive_recurrence, formal_solve, newton_polygon,
                     solve_recurrence, to_delta_form, to_shift_form,
                     verify_solution)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
