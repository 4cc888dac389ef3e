"""Verdicts evaluate gets wrong, each a named case against a closed form.

A verdict is false when evaluate reports converged=True with
|value - truth| > min(rounding_radius, eps max(1, |value|)) + eps max(1,
|value|): the stored terms were not enough, or the precision was not, and
the result does not say so.  A converged result's exact radius is at most
eps max(1, |value|) (else it reads "precision"), so the min only keeps a
radius that reads inf above the float range from covering any value.
The truths come from closed forms (see test_closed_forms.py): order-half is
1F1(-z; 1/2; 1/4), geometric (3/2)^z, and the factorial series
sum (-1)^n C(z, n) is 0 on Re z > 0.  They are computed in mpmath at 256
bits; at 600 bits the order-half truths agree to every digit quoted below.

A case evaluate still gets wrong is a strict expected failure: a change that
makes it honest turns it into an unexpected pass, which fails the suite
until the mark is removed.  The rows whose radius lies above the float
range and exceeds eps |value| must read "precision", and are tested by name
below.
"""

import functools
import math
from fractions import Fraction

import mpmath
import pytest

from fallfact.polynomial import poly
from fallfact.series import evaluate, exact_series
from fallfact.solver import LinearDifferenceEquation, formal_solve

ORACLE = mpmath.MPContext()
ORACLE.prec = 256


def _order_half():
    series, _ = formal_solve(LinearDifferenceEquation("delta", (poly(1), poly(3), poly(6, 4))),
                             {0: 1, 1: "-1/2"}, 300)
    return series, lambda z: ORACLE.hyp1f1(-ORACLE.mpc(z), ORACLE.mpf(1) / 2,
                                           ORACLE.mpf(1) / 4)


@functools.cache  # shared, with its memo: N = 3000 takes a second to cast and bound
def _geometric(n_terms):
    series, _ = formal_solve(LinearDifferenceEquation("delta", (poly("-1/2"), poly(1))),
                             {0: 1}, n_terms)
    return series, lambda z: ORACLE.power(ORACLE.mpf(3) / 2, ORACLE.mpc(z))


def _factorial():
    coeffs = [Fraction((-1) ** n, math.factorial(n)) for n in range(3001)]
    return exact_series(coeffs), lambda z: ORACLE.mpc(0)


def _still_false(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


# (id, series and truth, point, evaluate keywords, mark)
CASES = [
    ("order-half +3e5+0.5i", _order_half, complex(3e5, 0.5), {},
     _still_false("the 301 stored terms run out 4.2e234 from 0.528 (exhausted)")),
    ("order-half +1e5+0.5i", _order_half, complex(1e5, 0.5), {},
     ()),  # the rounding radius is 69 |value|: reported "precision"
    ("order-half 1e5, an integer past N", _order_half, 100000, {},
     _still_false("the integer rule sums a_0..a_300 only: 1.09e91 for -0.541")),
    ("order-half -3e5", _order_half, -3e5, {},
     _still_false("the stored terms run out 1.3 % low (exhausted)")),
    ("geometric N=300 -100.5+3i", lambda: _geometric(300), complex(-100.5, 3), {},
     _still_false("the stored terms run out at 2.2e5 for 2e-18 (exhausted)")),
    ("geometric N=200 0.5-60i 256 bits", lambda: _geometric(200), complex(0.5, -60),
     {"eps": 1e-30, "precision_bits": 256},
     _still_false("the stored terms run out 2.1e-26 from (3/2)^z (exhausted)")),
    ("factorial N=3000 2.5", _factorial, 2.5, {"eps": 1e-12},
     _still_false("the window accepts an algebraic tail: 1.085e-9 for 0")),
    ("factorial N=3000 3+1i", _factorial, complex(3, 1), {},
     _still_false("the window accepts an algebraic tail: 6.6e-10 for 0")),
]


@pytest.mark.parametrize("build, z, kwargs",
                         [pytest.param(*case[1:4], id=case[0], marks=case[4])
                          for case in CASES])
def test_verdict_is_not_false(build, z, kwargs):
    series, truth = build()
    res = evaluate(series, z, **kwargs)
    eps = kwargs.get("eps", 1e-12)
    if res.converged:
        value = ORACLE.mpc(res.value)
        tolerance = eps * max(1, abs(value))
        radius = min(ORACLE.mpf(res.rounding_radius), tolerance)
        assert abs(value - truth(z)) <= radius + tolerance, (res.reason, res.value)


def test_the_radius_row_is_reported_as_precision():
    # the rounding radius exceeds the value it bounds, so no digit stands
    series, _ = _order_half()
    res = evaluate(series, complex(1e5, 0.5))
    assert (res.converged, res.reason, res.terms_used) == (False, "precision", 301)
    assert res.rounding_radius > 10 * abs(res.value)


@pytest.mark.parametrize("z", [complex(1900, 1500), complex(1800, 2500)],
                         ids=["1900+1500i", "1800+2500i"])
def test_overflowing_radius_rows_are_reported_as_precision(z):
    # the radius and |value| both lie above the float range, where a float
    # comparison reads inf > eps inf as False; the verdict is exact instead.
    # The values are 8.6e408 and 2.8e560 against |(3/2)^z| of 4e334 and 9e316
    series, _ = _geometric(3000)
    res = evaluate(series, z)
    assert (res.converged, res.reason) == (False, "precision")
    assert res.rounding_radius == math.inf and abs(complex(res.value)) == math.inf


def test_an_overflowing_value_with_a_small_radius_stays_converged():
    # (3/2)^3000 = 1.9e528, summed exactly and cast once: the radius, inf as a
    # float, is about 2^-128 |value|
    series, truth = _geometric(3000)
    res = evaluate(series, 3000)
    assert (res.converged, res.reason, res.terms_used) == (True, "integer", 3001)
    assert res.rounding_radius == math.inf
    assert abs(ORACLE.mpc(res.value) - truth(3000)) <= ORACLE.ldexp(abs(truth(3000)), -127)


@pytest.mark.parametrize("z", [2.5, complex(3, 1)], ids=["2.5", "3+1i"])
def test_the_factorial_window_rows_certify_no_tail(z):
    # the window still accepts these sums, but for the terms it left out
    # m |a_(m+1)/a_m| = m/(m+1) nears 1, so the ratio bound certifies no
    # remainder and tail_bound claims nothing
    series, _ = _factorial()
    res = evaluate(series, z, 1e-12)
    assert (res.reason, res.tail_bound) == ("window", math.inf)
