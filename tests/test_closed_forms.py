"""evaluate against closed forms that no code path of evaluate computes.

Order-half, (4z+6) δ²y + 3 δy + y = 0 with a0 = 1, a1 = -1/2, has
a_n = (-1)^n/(2n)!, so y(z) = 1F1(-z; 1/2; 1/4), Kummer's function: z^(n_)
is (-1)^n (-z)_n and (2n)! is 4^n (1/2)_n n!.  Geometric, δy = y/2 with
a0 = 1, is y = (3/2)^z.  Factorial, a_n = (-1)^n/n!, sums (-1)^n C(z, n),
whose partial sum through n = N is exactly (-1)^N C(z - 1, N).  The oracle
runs in mpmath at 256 bits, twice the default precision of the evaluations
it checks.  A converged value must lie within its rounding_radius plus
eps |value| of it; a value evaluate reports not converged must say why, by
reason "precision" with a rounding_radius above eps max(1, |value|).  At
256 bits every point converges.
"""

import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from fallfact.exact import ExactScalar, lift
from fallfact.polynomial import poly
from fallfact.series import evaluate, evaluate_exact, exact_series
from fallfact.solver import LinearDifferenceEquation, formal_solve

README = Path(__file__).resolve().parents[1] / "README.md"
ORACLE = mpmath.MPContext()
ORACLE.prec = 256


def _kummer(z):
    return ORACLE.hyp1f1(-ORACLE.mpc(z), ORACLE.mpf(1) / 2, ORACLE.mpf(1) / 4)


# the default precision at two eps, and 256 bits, where every point converges
SETTINGS = [pytest.param(1e-12, 128, id="1e-12"), pytest.param(1e-30, 128, id="1e-30"),
            pytest.param(1e-30, 256, id="1e-30-256bits")]


def _assert_within_tolerance(series, points, eps, truth, bits):
    for z in points:
        res = evaluate(series, z, eps, precision_bits=bits)
        if not res.converged:
            # at 128 bits and eps 1e-30 the roundings of some sums exceed
            # eps: the verdict says so rather than claim the digits
            assert bits == 128 and res.reason == "precision", (z, res.reason)
            assert res.rounding_radius > eps * max(1, abs(res.value)), z
            continue
        deviation = abs(ORACLE.mpc(res.value) - truth(z))
        assert deviation <= res.rounding_radius + eps * abs(res.value), (z, res.reason)


@pytest.mark.parametrize("eps, bits", SETTINGS)
def test_order_half_is_kummers_function_on_the_readme_circles(eps, bits):
    # analyze --fit's default radii and samples, 64 equally spaced angles
    # each; the points +r are integers, and at 1024 the window could not
    # stop a sum before the 301 stored terms end: a negligible remainder
    # stops them after 71-73
    series, _ = formal_solve(LinearDifferenceEquation("delta", (poly(1), poly(3), poly(6, 4))),
                             {0: 1, 1: "-1/2"}, 300)
    points = [complex(r * math.cos(2 * math.pi * k / 64), r * math.sin(2 * math.pi * k / 64))
              for r in (16.0, 64.0, 256.0, 1024.0) for k in range(64)]
    _assert_within_tolerance(series, points, eps, _kummer, bits)


def test_readme_modulus_values_are_kummers_function_at_minus_r():
    # M(r) peaks on the negative axis; the README prints it to 12 digits
    printed = re.findall(r"^M\((\d+)\) = (\S+)$", README.read_text(encoding="utf-8"), re.M)
    assert [r for r, _ in printed] == ["16", "64", "256", "1024"]
    for r, m in printed:
        assert float(m) == pytest.approx(float(abs(_kummer(-int(r)))), rel=5e-12), r


@pytest.mark.parametrize("eps, bits", SETTINGS)
def test_geometric_is_the_power_on_a_measured_grid(eps, bits):
    # Re z = 0.5, 10.5, ..., 200.5 and Im z = -60, -50, ..., 60, with 201
    # stored terms: the window or a negligible remainder stops most sums,
    # and from Re z = 190.5 and near the corners the stored terms run out
    # first.  Every converged point of the grid is right at both eps; at
    # 1e-30 and 128 bits 14 sums with |Im z| >= 40 and Re z <= 30.5 lose
    # too many bits to cancellation and report "precision".  The left half
    # plane is left out: there |y| < 1, so the window's eps max(1, |partial|)
    # exceeds eps |y|, and from about Re z = -10 the deviation does too;
    # further left, from Re z = -30.5 at |Im z| = 60 and -50.5 on the real
    # axis, the 201 terms run out with the sum far from y and the result
    # still converged
    series, _ = formal_solve(LinearDifferenceEquation("delta", (poly("-1/2"), poly(1))),
                             {0: 1}, 200)
    points = [complex(x + 0.5, y) for x in range(0, 201, 10) for y in range(-60, 61, 10)
              if bits == 128 or (x, abs(y)) != (0, 60)]
    # at 256 bits 0.5 +- 60i exhaust the 201 terms 2e-26 from y and still
    # report converged, a truncation test_false_verdicts.py records
    _assert_within_tolerance(series, points, eps,
                             lambda z: ORACLE.power(ORACLE.mpf(3) / 2, ORACLE.mpc(z)), bits)


def test_factorial_partial_sums_are_binomials():
    # sum_{n <= N} (-1)^n C(z, n) = (-1)^N C(z - 1, N), exactly, anywhere;
    # on 0 < Re z <= 3 the terms decay like n^(-1 - Re z), too slowly for
    # the window within N = 60, so evaluate sums every stored term
    n_top = 60
    series = exact_series(Fraction((-1) ** n, math.factorial(n)) for n in range(n_top + 1))
    rng = random.Random(9)
    for k in range(12):
        z = ExactScalar(Fraction(rng.randint(1, 300), 100) * (1 if k % 3 else -1),
                        Fraction(rng.randint(-300, 300), 100))
        want = math.prod((z - 1 - j for j in range(n_top)), start=ExactScalar(1)) \
            / math.factorial(n_top) * (-1) ** n_top
        assert evaluate_exact(series, z) == want, z
        if z.re > 0:
            res = evaluate(series, z)
            assert (res.reason, res.converged) == ("exhausted", True), z
            assert (lift(res.value) - want).abs_squared() <= Fraction(res.rounding_radius) ** 2
