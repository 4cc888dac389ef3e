"""Verdicts evaluate gets wrong, each a named case against a closed form.

A verdict is false when evaluate reports converged=True with
|value - truth| > rounding_radius + eps max(1, |value|): the stored terms
were not enough, or the precision was not, and the result does not say so.
The truths come from closed forms (see test_closed_forms.py): order-half is
1F1(-z; 1/2; 1/4), geometric (3/2)^z, and the factorial series
sum (-1)^n C(z, n) is 0 on Re z > 0.  They are computed in mpmath at 256
bits; at 600 bits the order-half truths agree to every digit quoted below.

A case evaluate still gets wrong is a strict expected failure: a change that
makes it honest turns it into an unexpected pass, which fails the suite
until the mark is removed.
"""

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
        deviation = abs(ORACLE.mpc(res.value) - truth(z))
        assert deviation <= res.rounding_radius + eps * max(1, abs(res.value)), \
            (res.reason, res.value)


def test_the_radius_row_is_reported_as_precision():
    # the rounding radius exceeds the value it bounds, so no digit stands
    series, _ = _order_half()
    res = evaluate(series, complex(1e5, 0.5))
    assert (res.converged, res.reason, res.terms_used) == (False, "precision", 301)
    assert res.rounding_radius > 10 * abs(res.value)
