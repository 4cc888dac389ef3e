"""evaluate against closed forms that no code path of evaluate computes.

Order-half, (4z+6) δ²y + 3 δy + y = 0 with a0 = 1, a1 = -1/2, has
a_n = (-1)^n/(2n)!, so y(z) = 1F1(-z; 1/2; 1/4), Kummer's function: z^(n_)
is (-1)^n (-z)_n and (2n)! is 4^n (1/2)_n n!.  Geometric, δy = y/2 with
a0 = 1, is y = (3/2)^z.  The oracle runs in mpmath at 256 bits, twice the
default precision of the evaluations it checks, and a value must lie within
its rounding_radius plus eps |value| of it.
"""

import math
import re
from pathlib import Path

import mpmath
import pytest

from fallfact.polynomial import poly
from fallfact.series import evaluate
from fallfact.solver import LinearDifferenceEquation, formal_solve

README = Path(__file__).resolve().parents[1] / "README.md"
ORACLE = mpmath.MPContext()
ORACLE.prec = 256


def _kummer(z):
    return ORACLE.hyp1f1(-ORACLE.mpc(z), ORACLE.mpf(1) / 2, ORACLE.mpf(1) / 4)


def _assert_within_tolerance(series, points, eps, truth):
    for z in points:
        res = evaluate(series, z, eps)
        assert res.converged, (z, res.reason)
        deviation = abs(ORACLE.mpc(res.value) - truth(z))
        assert deviation <= res.rounding_radius + eps * abs(res.value), (z, res.reason)


@pytest.mark.parametrize("eps", [1e-12, 1e-30])
def test_order_half_is_kummers_function_on_the_readme_circles(eps):
    # analyze --fit's default radii and samples, 64 equally spaced angles
    # each; the points +r are integers, and at 1024 some points exhaust the
    # 301 stored terms
    series, _ = formal_solve(LinearDifferenceEquation("delta", (poly(1), poly(3), poly(6, 4))),
                             {0: 1, 1: "-1/2"}, 300)
    points = [complex(r * math.cos(2 * math.pi * k / 64), r * math.sin(2 * math.pi * k / 64))
              for r in (16.0, 64.0, 256.0, 1024.0) for k in range(64)]
    _assert_within_tolerance(series, points, eps, _kummer)


def test_readme_modulus_values_are_kummers_function_at_minus_r():
    # M(r) peaks on the negative axis; the README prints it to 12 digits
    printed = re.findall(r"^M\((\d+)\) = (\S+)$", README.read_text(encoding="utf-8"), re.M)
    assert [r for r, _ in printed] == ["16", "64", "256", "1024"]
    for r, m in printed:
        assert float(m) == pytest.approx(float(abs(_kummer(-int(r)))), rel=5e-12), r


@pytest.mark.parametrize("eps", [1e-12, 1e-30])
def test_geometric_is_the_power_on_a_measured_grid(eps):
    # Re z = 0.5, 10.5, ..., 200.5 and Im z = -60, -50, ..., 60, with 201
    # stored terms: the window stops most sums, and from Re z = 190.5 and
    # near the corners the stored terms run out first.  Every point of the
    # grid is right at both eps.  The left half plane is left out: there
    # |y| < 1, so the window's eps max(1, |partial|) exceeds eps |y|, and
    # from about Re z = -10 the deviation does too; further left, from
    # Re z = -30.5 at |Im z| = 60 and -50.5 on the real axis, the 201 terms
    # run out with the sum far from y and the result still converged
    series, _ = formal_solve(LinearDifferenceEquation("delta", (poly("-1/2"), poly(1))),
                             {0: 1}, 200)
    points = [complex(x + 0.5, y) for x in range(0, 201, 10) for y in range(-60, 61, 10)]
    _assert_within_tolerance(series, points, eps,
                             lambda z: ORACLE.power(ORACLE.mpf(3) / 2, ORACLE.mpc(z)))
