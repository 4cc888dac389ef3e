"""Newton interpolation from samples at z = 0, 1, 2, ...

The coefficient extraction a_n = (delta^n f)(0) / n! is exact when the
samples are exact, and the finite binomial series it produces reproduces
every sample by construction.  High-order forward differences in floating
point lose roughly n bits to cancellation, so non-exact samples are lifted
to exact rationals (floats are rationals) for the triangle and only cast
back at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputFormatError
from .exact import (ExactScalar, from_numerators, integer_numerators, lift,
                    magnitude)
# evaluate and make_context are not called here; they stay importable
# because perfbench's tracer patches them on this module
from .series import (APPROX, BinomialSeries, EXACT, evaluate,  # noqa: F401
                     evaluate_exact, make_context)

_EXACT_SAMPLE_TYPES = (ExactScalar, int, Fraction, str)


def _lift_samples(values: Sequence) -> tuple[list[tuple[int, int]], int, bool]:
    """Samples as integer numerators (re, im) over one common denominator,
    and whether every sample was exact to begin with."""
    if not values:
        raise ValueError("need at least one sample")
    nums, den = integer_numerators(map(lift, values))
    return nums, den, all(isinstance(v, _EXACT_SAMPLE_TYPES) for v in values)


def _leading_differences(row: list[int]) -> list[int]:
    """(delta^n f)(0) for n = 0..N from f(0..N), one triangle row at a time;
    an all-zero row has an all-zero triangle, which is not built."""
    if not any(row):
        return row
    leading = [row[0]]
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        leading.append(row[0])
    return leading


def newton_series(samples: Sequence, origin: str = "interpolation") -> BinomialSeries:
    """Series with a_n = (delta^n f)(0) / n! from samples f(0..N).

    Exact samples give an exact-regime series; float or complex samples give
    an approx-regime series (the triangle is still computed exactly, so the
    only rounding is the final cast, and a coefficient beyond the float range
    is an InputFormatError).  The triangle runs on integer
    numerators over the samples' common denominator, keeping one row at a
    time.
    """
    nums, den, exact = _lift_samples(samples)
    leading = zip(_leading_differences([re for re, _ in nums]),
                  _leading_differences([im for _, im in nums]))
    coeffs = []
    fact = 1
    for n, (re, im) in enumerate(leading):
        if n:
            fact *= n
        c = from_numerators(re, im, den * fact)
        try:
            coeffs.append(c if exact else complex(c))
        except OverflowError:
            raise InputFormatError(f"Newton coefficient a{n} is beyond the float "
                                   "range; give exact samples") from None
    return BinomialSeries(tuple(coeffs), EXACT if exact else APPROX, origin)


class InterpolationReport(NamedTuple):
    points: tuple[int, ...]
    deviations: tuple[float, ...]
    max_deviation: float
    eps: float | None
    passed: bool | None


def reconstruct_check(series: BinomialSeries, values: Sequence,
                      eps: float | None = None) -> InterpolationReport:
    """Deviation |Y(k) - f(k)| at every original sample point.

    Each deviation is the exact difference of the stored series' finite sum
    at k and the sample's exact image, rounded to float at the end.  It is zero
    for an exact series over exact samples; for float samples it is what
    storing the coefficients as binary64 values costs.
    """
    deviations = tuple(magnitude(evaluate_exact(series, k) - lift(v))
                       for k, v in enumerate(values))
    worst = max(deviations, default=0.0)
    return InterpolationReport(tuple(range(len(values))), deviations,
                               worst, eps, None if eps is None else worst < eps)
