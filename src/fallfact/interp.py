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
from typing import Iterator, NamedTuple, Sequence

from .errors import InputFormatError
from .exact import (ExactScalar, from_numerators, integer_numerators, lift,
                    magnitude)
# evaluate and make_context are not called here; they stay importable
# because perfbench's tracer patches them on this module
from .series import (APPROX, BinomialSeries, EXACT, evaluate,  # noqa: F401
                     evaluate_exact, make_context)

_EXACT_SAMPLE_TYPES = (ExactScalar, int, Fraction, str)


class SampleTable(NamedTuple):
    """Forward-difference triangle; row k holds (delta^k f)(0), ..., shrinking."""

    values: tuple
    difference_rows: tuple[tuple[ExactScalar, ...], ...]
    exact: bool

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def leading_differences(self) -> tuple[ExactScalar, ...]:
        """(delta^n f)(0) for n = 0..N."""
        return tuple(row[0] for row in self.difference_rows)


def _lift_samples(values: Sequence) -> tuple[list[tuple[int, int]], int, bool]:
    """Samples as integer numerators (re, im) over one common denominator,
    and whether every sample was exact to begin with."""
    if not values:
        raise ValueError("need at least one sample")
    nums, den = integer_numerators(map(lift, values))
    return nums, den, all(isinstance(v, _EXACT_SAMPLE_TYPES) for v in values)


def _difference_rows(row: list[int]) -> Iterator[list[int]]:
    """The forward-difference triangle of row, one row at a time, row first."""
    yield row
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        yield row


def _triangle(nums: list[tuple[int, int]]) -> Iterator[tuple[list[int], list[int]]]:
    """Difference rows of the real and imaginary numerators side by side."""
    return zip(_difference_rows([re for re, _ in nums]),
               _difference_rows([im for _, im in nums]))


def forward_differences(values: Sequence) -> SampleTable:
    nums, den, exact = _lift_samples(values)
    rows = tuple(tuple(from_numerators(r, i, den) for r, i in zip(re, im))
                 for re, im in _triangle(nums))
    return SampleTable(tuple(values), rows, exact)


def newton_series(samples, origin: str = "interpolation") -> BinomialSeries:
    """Series with a_n = (delta^n f)(0) / n! from samples f(0..N).

    Exact samples give an exact-regime series; float or complex samples give
    an approx-regime series (the triangle is still computed exactly, so the
    only rounding is the final cast, and a coefficient beyond the float range
    is an InputFormatError).  The triangle runs on integer
    numerators over the samples' common denominator, keeping one row at a
    time.
    """
    if isinstance(samples, SampleTable):
        leading, den = integer_numerators(samples.leading_differences())
        exact = samples.exact
    else:
        nums, den, exact = _lift_samples(samples)
        leading = [(re[0], im[0]) for re, im in _triangle(nums)]
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
