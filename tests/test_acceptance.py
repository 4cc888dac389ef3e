"""End-to-end acceptance checks.

One test per advertised guarantee, at the stated tolerance, so `pytest -v`
prints a single pass/fail line for each.  Oracles here are independent of
the implementation under test: brute-force polynomial expansion, direct
power evaluation through mpmath, and hand-checkable identities.

test_ac09a_newton_series_halfway_accuracy checks that 60 integer samples of
2^z pin 2^(1/2) to within 1e-6 against mpmath's sqrt(2) at 256 bits.  The
plain truncated Newton series cannot: its value differs from sqrt(2) by the
alternating tail sum_{n>=60} C(1/2, n), about 3.09e-4, which decays only like
n^(-3/2) (test_interp.py::test_halfway_point_deviation_frozen pins that
figure).  The test therefore sums the same series with evaluate_accelerated,
an exact Levin t-transform of its partial sums, and also requires the
deviation to lie within the transform's own error estimate.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from fallfact.analysis import (ENTIRE, RIGHT_HALF_PLANE, chi_estimate,
                               fit_order_type, modulus_profile)
from fallfact.basis import (binomial_to_poly, default_table, poly_to_binomial,
                            verify_stirling_bounds)
from fallfact.errors import PoleError
from fallfact.exact import ExactScalar, as_exact
from fallfact.interp import newton_series, reconstruct_check
from fallfact.polynomial import Polynomial, RationalFunction, poly
from fallfact.riccati import riccati_coefficient, riccati_instance, verify_riccati
from fallfact.series import (delta, evaluate, evaluate_accelerated,
                             evaluate_exact, exact_series, linear_combine,
                             make_context, mul_by_z, shift)
from fallfact.solver import (DELTA_FORM, LinearDifferenceEquation,
                             candidate_orders, continuation_eval,
                             derive_recurrence, newton_polygon,
                             solve_recurrence, to_shift_form)

GEOMETRIC = LinearDifferenceEquation(DELTA_FORM, (poly(Fraction(-1, 2)), poly(1)))
FACTORIAL = LinearDifferenceEquation(DELTA_FORM, (poly(1, -1), poly(1)))
ORDER_HALF = LinearDifferenceEquation(DELTA_FORM, (poly(1), poly(3), poly(6, 4)))


def expand_falling_factorial(n: int) -> list[int]:
    """Little-endian integer coefficients of z(z-1)...(z-n+1), by convolution."""
    coeffs = [1]
    for i in range(n):
        shifted = [0] + coeffs                      # z * p
        scaled = [-i * c for c in coeffs] + [0]     # -i * p
        coeffs = [x + y for x, y in zip(shifted, scaled)]
    return coeffs


def test_ac01_stirling_tables_against_expansion_oracle():
    start = time.perf_counter()
    table = default_table()
    for n in range(26):
        oracle_rows = {k: expand_falling_factorial(k) for k in range(n + 1)}
        row1 = table.first_kind_row(n)
        want = oracle_rows[n]
        assert len(row1) == n + 1
        for j in range(n + 1):
            assert row1[j] == as_exact(want[j])
        # second kind: sum_k S(n,k) z^(k_) must expand to the monomial z^n
        row2 = table.second_kind_row(n)
        total = [0] * (n + 1)
        for k in range(n + 1):
            s = row2[k]
            assert s.im == 0 and s.re.denominator == 1
            for m, c in enumerate(oracle_rows[k]):
                total[m] += int(s.re) * c
        assert total == [0] * n + [1]
    report = verify_stirling_bounds(30)
    assert report.all_hold
    assert report.failures == ()
    assert time.perf_counter() - start < 5.0


def test_ac02_basis_round_trip_500_random():
    rng = random.Random(2024)
    for _ in range(500):
        coeffs = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 40))
                       for _ in range(rng.randint(1, 21)))
        p = Polynomial(coeffs)
        assert binomial_to_poly(poly_to_binomial(p)) == p


def test_ac03_first_order_recurrence_and_power_values():
    # (n+1) a_{n+1} = lambda a_n for several lambda
    for lam in (Fraction(1, 2), Fraction(2), Fraction(-3, 4)):
        eq = LinearDifferenceEquation(DELTA_FORM, (poly(-lam), poly(1)))
        rec = derive_recurrence(eq)
        assert rec.q == (poly(-lam), poly(1, 1))
        assert rec.n_start == 0
        assert rec.prefix_constraints == ()

    a = solve_recurrence(derive_recurrence(GEOMETRIC), {0: 1}, 100)
    s = exact_series(a)
    ctx = make_context(256)
    log_base = ctx.log(ctx.mpf(3) / 2)
    for z in (1.0, 2.0, 3.5, complex(5, 1)):
        got = evaluate(s, z, 1e-14, precision_bits=256)
        assert got.converged
        want = ctx.exp(ctx.mpc(z) * log_base)  # independent power oracle
        assert abs(got.value - want) / abs(want) < 1e-9


def test_ac04_factorial_weights_shift_form_and_pole():
    a = solve_recurrence(derive_recurrence(FACTORIAL), {0: 1}, 200)
    for n, an in enumerate(a):
        assert an == as_exact(Fraction((-1) ** n, math.factorial(n)))
    # exact shift form: y(z+1) = z y(z)
    assert to_shift_form(FACTORIAL).coeffs == (poly(0, -1), poly(1))
    with pytest.raises(PoleError):
        continuation_eval(FACTORIAL, exact_series(a), 0.0)


def test_ac05_order_half_coefficients_and_residuals():
    a = solve_recurrence(derive_recurrence(ORDER_HALF),
                         {0: 1, 1: Fraction(-1, 2)}, 500)
    for n, an in enumerate(a):
        assert an == as_exact(Fraction((-1) ** n, math.factorial(2 * n)))

    from fallfact.solver import verify_solution
    s = exact_series(a[:151])
    rng = random.Random(55)
    points = [complex(rng.uniform(0, 5), rng.uniform(-2, 2)) for _ in range(10)]

    def evaluator(w):
        return evaluate(s, w, 1e-40, precision_bits=256).value

    rep = verify_solution(ORDER_HALF, evaluator, points, eps=1e-10,
                          precision_bits=256)
    assert rep.passed
    assert rep.max_residual < 1e-10


def test_ac06_growth_classification_and_order_fit():
    start = time.perf_counter()
    coeffs = [ExactScalar(Fraction((-1) ** n, math.factorial(2 * n)))
              for n in range(1001)]
    est = chi_estimate(coeffs)
    assert 0.50 <= est.value <= 0.54
    tail = [s for n, s in est.s_trace if n >= 750]
    assert all(b < a for a, b in zip(tail, tail[1:]))

    s = exact_series(coeffs[:401])
    profile = modulus_profile(
        lambda z: evaluate(s, z, 1e-12, precision_bits=256),
        [16.0, 64.0, 256.0, 1024.0])
    assert all(profile.valid)
    fit = fit_order_type(profile)
    assert 0.4 <= fit.rho_fit <= 0.6
    assert time.perf_counter() - start < 60.0


def test_ac07_newton_polygon_slopes():
    pg = newton_polygon(ORDER_HALF)
    assert pg.slopes == (Fraction(1, 2),)
    assert candidate_orders(pg) == (Fraction(1, 2),)
    pg1 = newton_polygon(GEOMETRIC)
    assert pg1.slopes == (Fraction(1),)
    assert candidate_orders(pg1) == ()
    pg2 = newton_polygon(FACTORIAL)
    assert pg2.slopes == (Fraction(2),)
    assert candidate_orders(pg2) == ()


def test_ac08_riccati_coefficient_and_recursion():
    got = riccati_coefficient(4, 6, 3)
    assert got == RationalFunction(Polynomial((23, 16)), Polynomial((9, 80, 64)))

    inst = riccati_instance(4, 6, 3)
    a = solve_recurrence(derive_recurrence(inst.equation),
                         {0: 1, 1: Fraction(-1, 2)}, 150)
    s = exact_series(a)

    def evaluator(w):
        return evaluate(s, w, 1e-40, precision_bits=256).value

    rep = verify_riccati(inst, evaluator, [1.5, 2.5, 3.5, 4.5, 5.5, 6.5],
                         eps=1e-8, precision_bits=256)
    assert not rep.skipped
    assert len(rep.residuals) == 6
    assert rep.passed
    assert rep.max_residual < 1e-8


def test_ac09a_newton_series_halfway_accuracy():
    # The plain sum of these 60 terms is 3.09e-4 away (see the module
    # docstring); the Levin-accelerated sum of the same terms is not.
    s = newton_series([2 ** k for k in range(60)], precision_bits=256)
    res = evaluate_accelerated(s, ExactScalar(Fraction(1, 2)))
    ctx = make_context(256)
    want = ctx.sqrt(2)
    deviation = float(abs(ctx.mpc(res.value) - want))
    print(f"measured deviation of the 60-sample series at z=1/2: {deviation:.6e}"
          f" (estimate {res.error_estimate:.6e})")
    assert res.converged
    assert deviation < 1e-6
    assert deviation <= res.error_estimate < 1e-6


def test_ac09b_polynomial_samples_reconstruct_exactly():
    rng = random.Random(99)
    for _ in range(30):
        p = Polynomial(tuple(Fraction(rng.randint(-9, 9)) for _ in
                             range(rng.randint(1, 6))))
        n_samples = len(p.coeffs) + rng.randint(0, 4)
        s = newton_series([p(k) for k in range(n_samples)])
        for c in s.coeffs[len(p.coeffs):]:
            assert c.is_zero()
        x = ExactScalar(Fraction(rng.randint(-40, 40), rng.randint(2, 9)))
        assert evaluate_exact(s, x) == p(x)


def test_ac09c_sample_matching_identity():
    rng = random.Random(100)
    for _ in range(25):
        vals = [Fraction(rng.randint(-60, 60), rng.randint(1, 11))
                for _ in range(rng.randint(1, 30))]
        s = newton_series(vals)
        for k, v in enumerate(vals):
            assert evaluate_exact(s, k) == as_exact(v)
        rep = reconstruct_check(s, vals)
        assert rep.max_deviation == 0.0


def rand_series(rng, n_max=8):
    return exact_series([
        ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(1, n_max + 1))])


def test_ac10_operator_identity_property_suites():
    rng = random.Random(777)
    for _ in range(1000):  # E = I + delta
        y = rand_series(rng)
        assert shift(y, 1) == linear_combine([(1, y), (1, delta(y))])
    for _ in range(1000):  # delta(z y) = E y + z delta y
        y = rand_series(rng)
        lhs = delta(mul_by_z(y))
        rhs = linear_combine([(1, shift(y, 1)), (1, mul_by_z(delta(y)))])
        assert lhs == rhs
    table = default_table()
    table.ensure(15)
    for _ in range(1000):  # the two Stirling matrices invert each other
        n = rng.randint(0, 15)
        j = rng.randint(0, 15)
        prod1 = sum((table.first_kind(n, k) * table.second_kind(k, j)
                     for k in range(16)), as_exact(0))
        prod2 = sum((table.second_kind(n, k) * table.first_kind(k, j)
                     for k in range(16)), as_exact(0))
        want = as_exact(1 if n == j else 0)
        assert prod1 == want
        assert prod2 == want
