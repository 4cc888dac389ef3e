import math
import random
from fractions import Fraction

import pytest

from fallfact.analysis import ENTIRE, RIGHT_HALF_PLANE, UNKNOWN
from fallfact.errors import (DeterminacyError, InputFormatError, PoleError,
                             SingularRecurrenceError)
from fallfact.exact import ONE, ZERO, as_exact
from fallfact.polynomial import Polynomial, poly
from fallfact.series import (delta, evaluate, exact_series, linear_combine, make_context,
                             mul_by_poly, taylor_from_binomial)
from fallfact.solver import (DELTA_FORM, SHIFT_FORM, CoefficientRecurrence,
                             LinearDifferenceEquation, candidate_orders,
                             continuation_eval, default_re_threshold,
                             derive_recurrence, formal_solve, newton_polygon,
                             solve_recurrence, to_delta_form, to_shift_form,
                             verify_solution)

# delta y = (1/2) y ; solution (1/2)^n / n!, evaluating to (3/2)^z
GEOMETRIC = LinearDifferenceEquation(DELTA_FORM, (poly(Fraction(-1, 2)), poly(1)))
# delta y = (z - 1) y ; solution (-1)^n / n!, satisfying y(z+1) = z y(z)
FACTORIAL = LinearDifferenceEquation(DELTA_FORM, (poly(1, -1), poly(1)))
# (4z + 6) delta^2 y + 3 delta y + y = 0 ; solution (-1)^n / (2n)!
ORDER_HALF = LinearDifferenceEquation(DELTA_FORM, (poly(1), poly(3), poly(6, 4)))


def rand_equation(rng, max_order=3, max_deg=2):
    order = rng.randint(1, max_order)
    coeffs = []
    for j in range(order + 1):
        c = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_deg + 1))]
        coeffs.append(Polynomial(tuple(c)))
    coeffs[-1] = coeffs[-1] + poly(0, 0, 0, 1)  # force exact order
    if all(x == 0 for x in coeffs[0].coeffs):
        coeffs[0] = poly(1)
    return LinearDifferenceEquation(DELTA_FORM, tuple(coeffs))


# ---------------------------------------------------------------------------
# equation container and form conversion
# ---------------------------------------------------------------------------

def test_equation_validation():
    with pytest.raises(InputFormatError):
        LinearDifferenceEquation("integral", (poly(1),))
    with pytest.raises(InputFormatError):
        LinearDifferenceEquation(DELTA_FORM, (poly(0), poly(0)))
    eq = LinearDifferenceEquation(DELTA_FORM, (poly(1), poly(2), poly(0)))
    assert eq.order == 1  # trailing zero trimmed
    assert eq.coefficient(7).is_zero()


def test_shift_form_of_factorial_equation():
    got = to_shift_form(FACTORIAL)
    assert got.form == SHIFT_FORM
    assert got.coeffs == (poly(0, -1), poly(1))  # y(z+1) = z y(z)


def test_form_conversion_round_trip():
    rng = random.Random(21)
    for _ in range(80):
        eq = rand_equation(rng)
        assert to_delta_form(to_shift_form(eq)) == eq
        back = to_shift_form(to_delta_form(to_shift_form(eq)))
        assert back == to_shift_form(eq)


# ---------------------------------------------------------------------------
# recurrence derivation: pinned cases
# ---------------------------------------------------------------------------

def test_derive_geometric():
    rec = derive_recurrence(GEOMETRIC)
    assert rec.q == (poly(Fraction(-1, 2)), poly(1, 1))
    assert rec.n_start == 0
    assert rec.prefix_constraints == ()
    assert rec.block_size == 1


def test_derive_factorial():
    rec = derive_recurrence(FACTORIAL)
    assert rec.q == (poly(-1), poly(0, -1), poly(2, 1))
    assert rec.n_start == 0
    assert rec.prefix_constraints == ((ONE, ONE),)  # a_0 + a_1 = 0
    assert rec.block_size == 2


def test_derive_order_half():
    rec = derive_recurrence(ORDER_HALF)
    assert rec.q == (poly(1), poly(3, 7, 4), poly(12, 26, 18, 4))
    assert rec.n_start == 0
    assert rec.prefix_constraints == ()


def test_derive_pure_delta_frees_low_block():
    # delta^2 y + delta y = 0: lowest shift is +1, so a_0 and a_1 are free
    eq = LinearDifferenceEquation(DELTA_FORM, (poly(0), poly(1), poly(1)))
    rec = derive_recurrence(eq)
    assert rec.n_start == 1
    assert rec.order == 1
    assert rec.block_size == 2
    assert rec.prefix_constraints == ()
    a = solve_recurrence(rec, {0: 5, 1: 1}, 8)
    assert a[0] == as_exact(5)
    for n in range(1, 9):
        assert a[n] == as_exact(Fraction((-1) ** (n + 1), math.factorial(n)))


# ---------------------------------------------------------------------------
# solving: pinned solutions
# ---------------------------------------------------------------------------

def test_solve_geometric_coefficients():
    a = solve_recurrence(derive_recurrence(GEOMETRIC), {0: 1}, 60)
    for n, an in enumerate(a):
        assert an == as_exact(Fraction(1, 2 ** n) / math.factorial(n))


def test_solve_factorial_coefficients():
    a = solve_recurrence(derive_recurrence(FACTORIAL), {0: 1}, 200)
    for n, an in enumerate(a):
        assert an == as_exact(Fraction((-1) ** n, math.factorial(n)))


def test_solve_order_half_coefficients():
    a = solve_recurrence(derive_recurrence(ORDER_HALF),
                         {0: 1, 1: Fraction(-1, 2)}, 500)
    for n, an in enumerate(a):
        assert an == as_exact(Fraction((-1) ** n, math.factorial(2 * n)))


def test_solution_annihilates_equation_exactly():
    # independent check through the series operators, no recurrence involved
    rng = random.Random(33)
    solved = 0
    for _ in range(60):
        eq = rand_equation(rng)
        rec = derive_recurrence(eq)
        needed = rec.block_size - len(rec.prefix_constraints)
        free = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for i in range(max(needed, 0))}
        try:
            a = solve_recurrence(rec, free, 40)
        except (DeterminacyError, SingularRecurrenceError):
            continue
        solved += 1
        y = exact_series(a)
        parts = []
        d = y
        for j in range(eq.order + 1):
            if j:
                d = delta(d)
            if not eq.coefficient(j).is_zero():
                parts.append((1, mul_by_poly(d, eq.coefficient(j))))
        image = linear_combine(parts)
        for c in image.coeffs[:35]:
            assert c.is_zero()
    assert solved >= 30


def test_determinacy_errors():
    rec = derive_recurrence(GEOMETRIC)
    with pytest.raises(DeterminacyError, match="under-determined"):
        solve_recurrence(rec, {}, 5)
    with pytest.raises(DeterminacyError, match="over-determined"):
        solve_recurrence(rec, {0: 1, 1: 2}, 5)
    with pytest.raises(DeterminacyError, match="outside the initial block"):
        solve_recurrence(rec, {5: 1}, 5)

    # constraint a_0 = 0 against pinned a_0 = 3
    rec2 = CoefficientRecurrence((poly(1), poly(1, 1)), 1, ((ONE, ZERO),))
    with pytest.raises(DeterminacyError, match="inconsistent"):
        solve_recurrence(rec2, {0: 3}, 5)
    # same constraint, pin a_0 = 0: a_1 is still undetermined
    with pytest.raises(DeterminacyError, match="undetermined"):
        solve_recurrence(rec2, {0: 0}, 5)


def test_factorial_prefix_constraint_binds():
    rec = derive_recurrence(FACTORIAL)
    a = solve_recurrence(rec, {0: 7}, 3)
    assert a[1] == as_exact(-7)  # forced by a_0 + a_1 = 0


def test_singular_recurrence():
    # (z - 3) delta y - y = 0: leading polynomial (n+1)(n-3) dies at m = 3
    eq = LinearDifferenceEquation(DELTA_FORM, (poly(-1), poly(-3, 1)))
    rec = derive_recurrence(eq)
    assert rec.q[1](3).is_zero()
    a = solve_recurrence(rec, {0: 9}, 3)  # stops before the bad index
    assert len(a) == 4
    with pytest.raises(SingularRecurrenceError):
        solve_recurrence(rec, {0: 9}, 4)


def test_formal_solve_growth_verdicts():
    s, cls = formal_solve(ORDER_HALF, {0: 1, 1: Fraction(-1, 2)}, 400)
    assert cls.kind == ENTIRE
    assert 0.5 < cls.chi < 0.55
    _, cls2 = formal_solve(FACTORIAL, {0: 1}, 400)
    assert cls2.kind == RIGHT_HALF_PLANE
    _, cls3 = formal_solve(GEOMETRIC, {0: 1}, 10)
    assert cls3.kind == UNKNOWN  # too few coefficients
    assert math.isnan(cls3.chi)
    z, cls4 = formal_solve(GEOMETRIC, {0: 0}, 30)
    assert z.is_zero()
    assert cls4.kind == ENTIRE


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

def test_polygon_order_half():
    pg = newton_polygon(ORDER_HALF)
    assert pg.points == ((0, -1), (1, -1), (2, 0))
    assert pg.hull == ((0, -1), (2, 0))
    assert pg.slopes == (Fraction(1, 2),)
    assert candidate_orders(pg) == (Fraction(1, 2),)


def test_polygon_geometric_and_factorial():
    pg1 = newton_polygon(GEOMETRIC)
    assert pg1.slopes == (Fraction(1),)
    assert candidate_orders(pg1) == ()
    pg2 = newton_polygon(FACTORIAL)
    assert pg2.slopes == (Fraction(2),)
    assert candidate_orders(pg2) == ()


def test_polygon_stops_at_flat_segment():
    # z^2 delta y + (z + 1) y = 0: both points at the same height
    eq = LinearDifferenceEquation(DELTA_FORM, (poly(1, 1), poly(0, 0, 1)))
    pg = newton_polygon(eq)
    assert pg.points == ((0, 1), (1, 1))
    assert pg.hull == ((0, 1),)
    assert pg.slopes == ()


def test_polygon_accepts_shift_form():
    assert newton_polygon(to_shift_form(ORDER_HALF)) == newton_polygon(ORDER_HALF)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def doubling_setup(n=120):
    # delta y = y: solution sum z^(n_)/n! = 2^z everywhere it converges
    eq = LinearDifferenceEquation(DELTA_FORM, (poly(-1), poly(1)))
    a = solve_recurrence(derive_recurrence(eq), {0: 1}, n)
    return eq, exact_series(a)


def test_continuation_reaches_left_half_plane():
    eq, s = doubling_setup()
    res = continuation_eval(eq, s, -1.0)
    assert res.converged
    assert res.steps > 0
    assert abs(complex(res) - 0.5) < 1e-12
    z = complex(-3, 2)
    res2 = continuation_eval(eq, s, z)
    want = complex(2) ** z
    assert abs(complex(res2) - want) / abs(want) < 1e-11


def test_continuation_direct_zone_shortcut():
    eq, s = doubling_setup()
    res = continuation_eval(eq, s, 20.0)
    assert res.steps == 0
    assert res.direct_evaluations == 1
    forced = continuation_eval(eq, s, 20.0, re_threshold=30.0)
    assert forced.steps == 11
    assert abs(complex(forced) - complex(res)) < 1e-6 * abs(complex(res))


def test_continuation_hits_pole():
    a = solve_recurrence(derive_recurrence(FACTORIAL), {0: 1}, 120)
    s = exact_series(a)
    with pytest.raises(PoleError):
        continuation_eval(FACTORIAL, s, 0.0)


def test_continuation_refuses_a_near_zero_of_b0():
    # shift form b0(z) = 4z + 4: near z = -1 the division by b0 returned
    # cancellation garbage marked converged (415.9 - 2.4e7i against 1.5923)
    s, _ = formal_solve(ORDER_HALF, {0: 1, 1: Fraction(-1, 2)}, 300)
    for z in (complex(-1, 1e-45), complex(-3, 1e-45)):
        with pytest.raises(PoleError):
            continuation_eval(ORDER_HALF, s, z)
    z = complex(-1, 1e-10)  # the direct sum is valid here
    want = complex(evaluate(s, z).value)
    assert abs(complex(continuation_eval(ORDER_HALF, s, z)) - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("z", [math.nan, complex(-2, math.nan), -math.inf])
def test_continuation_refuses_a_non_finite_point(z):
    eq, s = doubling_setup()
    with pytest.raises(ValueError, match="non-finite"):
        continuation_eval(eq, s, z)


def test_continuation_refuses_unclassified_series():
    eq, _ = doubling_setup()
    junk = exact_series([Fraction(math.factorial(n)) for n in range(60)])
    with pytest.raises(InputFormatError):
        continuation_eval(eq, junk, -1.0)


def test_continuation_step_cap():
    eq, s = doubling_setup()
    with pytest.raises(InputFormatError, match="cap"):
        continuation_eval(eq, s, -20000.0)


def test_continuation_threshold_nan_is_refused_before_any_evaluation(monkeypatch):
    import fallfact.solver as solver_mod
    eq, s = doubling_setup()

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(solver_mod, "evaluate", no_evaluation)
    for z in (-3.0, 5.0):
        with pytest.raises(ValueError, match="re_threshold must not be NaN"):
            continuation_eval(eq, s, z, re_threshold=math.nan)


def test_continuation_threshold_infinities():
    eq, s = doubling_setup()
    # +inf is infinitely many steps away: the step cap refuses it
    with pytest.raises(InputFormatError, match="cap"):
        continuation_eval(eq, s, -3.0, re_threshold=math.inf)
    # -inf puts every point right of the threshold: summed directly
    res = continuation_eval(eq, s, -0.5, re_threshold=-math.inf)
    assert (res.steps, res.threshold) == (0, -math.inf)
    assert res.value == evaluate(s, -0.5).value


def test_default_threshold_shrinks_with_truncation():
    _, short = doubling_setup(20)
    _, long = doubling_setup(500)
    assert default_re_threshold(long, 1e-12) < default_re_threshold(short, 1e-12)
    assert default_re_threshold(long, 1e-12) > 5.0


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_solution_residuals():
    a = solve_recurrence(derive_recurrence(ORDER_HALF),
                         {0: 1, 1: Fraction(-1, 2)}, 150)
    s = exact_series(a)

    def evaluator(w):
        return evaluate(s, w, 1e-30, precision_bits=256).value

    rep = verify_solution(ORDER_HALF, evaluator, [1.5, 2.5, complex(3, 1)],
                          eps=1e-10, precision_bits=256)
    assert rep.passed
    assert rep.max_residual < 1e-20
    assert len(rep.residuals) == 3


def test_verify_solution_flags_wrong_function():
    rep = verify_solution(GEOMETRIC, lambda w: complex(2) ** complex(w),
                          [1.0, 2.0], eps=1e-10)
    assert not rep.passed
    assert rep.max_residual > 1e-3


def test_continuation_classifies_a_series_once(monkeypatch):
    import fallfact.solver as solver_mod
    calls = []
    real_classify = solver_mod.classify

    def counting(coeffs, *args, **kwargs):
        calls.append(len(coeffs))
        return real_classify(coeffs, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "classify", counting)
    eq, s = doubling_setup()
    values = [complex(continuation_eval(eq, s, z)) for z in (-1.0, -2.5, complex(-3, 2))]
    assert calls == [len(s.coeffs)]
    for z, v in zip((-1.0, -2.5, complex(-3, 2)), values):
        assert abs(v - complex(2) ** z) < 1e-11 * abs(complex(2) ** z)
    # an unclassifiable series is refused on every call, with the same message
    junk = exact_series([Fraction(math.factorial(n)) for n in range(40)])
    for _ in range(2):
        with pytest.raises(InputFormatError, match="not classified"):
            continuation_eval(eq, junk, -1.0)
    assert calls == [len(s.coeffs), len(junk.coeffs)]


def _continued_with_a_cast_per_step(eq, series, z):
    """continuation_eval's backward recursion with every b_j cast again at
    each step, and Horner's rule started from 0, as it was first written."""
    from fallfact.exact import to_mpc
    shift_eq = to_shift_form(eq)
    ctx = make_context(128)
    zz = ctx.mpc(z)

    def at(p, w):
        acc = ctx.mpc(0)
        for c in reversed(p.coeffs):
            acc = acc * w + to_mpc(c, ctx)
        return acc

    k_steps = math.floor(default_re_threshold(series, 1e-12) - float(zz.real)) + 1
    values = {k_steps + j: evaluate(series, zz + (k_steps + j)).value
              for j in range(shift_eq.order)}
    for k in range(k_steps - 1, -1, -1):
        w = zz + k
        acc = ctx.mpc(0)
        for j in range(1, shift_eq.order + 1):
            acc += at(shift_eq.coefficient(j), w) * values[k + j]
        values[k] = -acc / at(shift_eq.coeffs[0], w)
    return values[0], k_steps


def test_continuation_and_verify_cast_each_coefficient_once_per_call(monkeypatch):
    import fallfact.polynomial as polynomial_mod
    from fallfact.exact import ExactScalar
    s, _ = formal_solve(ORDER_HALF, {0: 1, 1: Fraction(-1, 2)}, 300)
    n_coeffs = sum(len(b.coeffs) for b in to_shift_form(ORDER_HALF).coeffs)
    points = [complex(-0.5, 1), complex(-9.5, 0.5), -20.25]
    want = [_continued_with_a_cast_per_step(ORDER_HALF, s, z) for z in points]
    assert len({k for _, k in want}) == 3
    casts = []
    real_to_mpc = polynomial_mod.to_mpc

    def counting(x, ctx):
        if isinstance(x, ExactScalar):  # a coefficient, not the point
            casts.append(x)
        return real_to_mpc(x, ctx)

    monkeypatch.setattr(polynomial_mod, "to_mpc", counting)
    for z, (value, k_steps) in zip(points, want):
        del casts[:]
        res = continuation_eval(ORDER_HALF, s, z)
        assert res.steps == k_steps
        assert len(casts) == n_coeffs, k_steps
        assert res.value == value
    # the shift-form residual casts once for any number of points
    for count in (1, 7):
        del casts[:]
        verify_solution(ORDER_HALF, lambda w: evaluate(s, w).value,
                        [complex(1 + k, 0.5) for k in range(count)])
        assert len(casts) == n_coeffs


def test_formal_solve_estimates_chi_once(monkeypatch):
    import fallfact.analysis as analysis_mod
    from fallfact.analysis import _chi_from_logs, chi_estimate, classify
    calls = []

    def counting(logs):
        calls.append(len(logs))
        return _chi_from_logs(logs)

    # classify and chi_estimate both estimate chi through _chi_from_logs
    monkeypatch.setattr(analysis_mod, "_chi_from_logs", counting)
    for eq, free in ((ORDER_HALF, {0: 1, 1: Fraction(-1, 2)}), (FACTORIAL, {0: 1}),
                     (GEOMETRIC, {0: 1}), (GEOMETRIC, {0: 0})):
        del calls[:]
        s, cls = formal_solve(eq, free, 80)
        taylor_from_binomial(s, 10)  # reads the verdict formal_solve kept
        assert calls == [81]
        chi = chi_estimate(s.coeffs)
        assert (cls.chi, cls.window) == (chi.value, chi.window)
        assert cls == classify(s.coeffs)


def test_verify_solution_reports_cast_points_and_no_verdict_without_points():
    rep = verify_solution(GEOMETRIC, lambda w: complex(2) ** complex(w), [], eps=1e-10)
    assert rep.points == () and rep.skipped == () and rep.passed is None
    rep = verify_solution(GEOMETRIC, lambda w: 1.0, [2, Fraction(1, 2)], eps=1e-10)
    assert rep.points == (2 + 0j, 0.5 + 0j) and rep.skipped == ()
