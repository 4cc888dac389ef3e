"""Property tests of the integer exact core against independent oracles.

sympy supplies Stirling numbers, falling factorials and rank/pivot
computations; the recurrence is re-run by a plain Fraction loop written
here.  Approx series are checked against their exact lift, taken here with
Fraction.  Example counts are bounded so the whole module stays a few
seconds.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from fallfact.basis import StirlingTable, binomial_to_poly, poly_to_binomial
from fallfact.errors import InputFormatError, SingularRecurrenceError
from fallfact.exact import ExactScalar, as_exact
from fallfact.interp import forward_differences, newton_series
from fallfact.polynomial import Polynomial
from fallfact.series import (BinomialSeries, approx_series, delta, evaluate_exact,
                             linear_combine, mul_by_poly, mul_by_z, shift,
                             taylor_from_binomial)
from fallfact.solver import (DELTA_FORM, LinearDifferenceEquation, derive_recurrence,
                             solve_recurrence)

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
real_scalars = st.builds(ExactScalar, rationals)
gaussian_scalars = st.builds(ExactScalar, rationals, rationals)
binary64 = st.floats(allow_nan=False, allow_infinity=False)
binary_scalars = st.one_of(binary64, st.builds(complex, binary64, binary64))


def _sympy(c: ExactScalar):
    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


# ---------------------------------------------------------------------------
# Stirling tables and basis conversion
# ---------------------------------------------------------------------------

def test_stirling_rows_match_sympy_to_60():
    table = StirlingTable()
    for n in range(61):
        first = tuple(int(stirling(n, k, kind=1, signed=True)) for k in range(n + 1))
        second = tuple(int(stirling(n, k, kind=2)) for k in range(n + 1))
        assert table.first_kind_ints(n) == first
        assert table.second_kind_ints(n) == second
    # the public rows are the same integers, lifted
    assert table.first_kind_row(60) == tuple(map(as_exact, first))
    assert table.second_kind_row(60) == tuple(map(as_exact, second))


@PROPERTY
@given(st.lists(gaussian_scalars, max_size=14))
def test_poly_binomial_round_trip(coeffs):
    p = Polynomial(tuple(coeffs))
    assert binomial_to_poly(poly_to_binomial(p)) == p
    if coeffs and not coeffs[-1].is_zero():
        assert poly_to_binomial(binomial_to_poly(coeffs)) == tuple(coeffs)


@settings(max_examples=25, deadline=None)
@given(st.lists(gaussian_scalars, max_size=8))
def test_binomial_to_poly_matches_sympy_ff(coeffs):
    z = sympy.Symbol("z")
    want = sympy.Poly(sum((_sympy(a) * sympy.ff(z, n) for n, a in enumerate(coeffs)),
                          sympy.Integer(0)), z)
    got = binomial_to_poly(coeffs)
    want_coeffs = list(reversed(want.all_coeffs())) if not want.is_zero else []
    assert [_sympy(c) for c in got.coeffs] == want_coeffs


# ---------------------------------------------------------------------------
# Newton triangle and exact evaluation at integers
# ---------------------------------------------------------------------------

@PROPERTY
@given(st.one_of(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=25),
                 st.lists(gaussian_scalars, min_size=1, max_size=25)))
def test_newton_series_reproduces_samples(samples):
    s = newton_series(samples)
    lead = forward_differences(samples).leading_differences()
    fact = 1
    for n, (a, d) in enumerate(zip(s.coeffs, lead)):
        fact *= n or 1
        assert a * fact == d
    for k, v in enumerate(samples):
        assert evaluate_exact(s, k) == as_exact(v)


# ---------------------------------------------------------------------------
# approx series: every operation is the operation on the exact lift
# ---------------------------------------------------------------------------

def _fraction_lift(c) -> ExactScalar:
    c = complex(c)
    return ExactScalar(Fraction(c.real), Fraction(c.imag))


def _lifted(s: BinomialSeries) -> BinomialSeries:
    return BinomialSeries(tuple(map(_fraction_lift, s.coeffs)), "exact", s.origin,
                          s.precision_bits)


@PROPERTY
@given(st.lists(binary_scalars, max_size=8), st.lists(binary_scalars, max_size=8),
       binary_scalars, st.integers(0, 4), st.lists(gaussian_scalars, max_size=3),
       st.one_of(gaussian_scalars, st.integers(0, 10).map(as_exact)))
def test_approx_operations_equal_their_exact_lift(a, b, scalar, m, p, z):
    s, t = approx_series(a, origin="samples"), approx_series(b, precision_bits=192)
    ls, lt = _lifted(s), _lifted(t)
    poly = Polynomial(tuple(p))
    assert s.is_zero() == ls.is_zero()
    assert delta(s) == delta(ls)
    assert shift(s, m) == shift(ls, m)
    assert mul_by_z(s) == mul_by_z(ls)
    assert mul_by_poly(s, poly) == mul_by_poly(ls, poly)
    assert linear_combine([(scalar, s), (1, t)]) \
        == linear_combine([(_fraction_lift(scalar), ls), (1, lt)])
    assert taylor_from_binomial(s, m) == taylor_from_binomial(ls, m)
    assert evaluate_exact(s, z) == evaluate_exact(ls, z)


# ---------------------------------------------------------------------------
# the recurrence solver against a plain Fraction loop
# ---------------------------------------------------------------------------

def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _peval(p: Polynomial, m: int):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p.coeffs):
        acc = (acc[0] * m + c.re, acc[1] * m + c.im)
    return acc


def reference_solve(rec, block, n_target):
    """a_(m+d) = -sum_(i<d) q_i(m) a_(m+i) / q_d(m) on (re, im) Fraction pairs."""
    a = [(c.re, c.im) for c in block]
    d = rec.order
    m = rec.n_start
    while len(a) <= n_target:
        lead = _peval(rec.q[d], m)
        if lead == (0, 0):
            raise SingularRecurrenceError(m)
        acc_re = acc_im = Fraction(0)
        for i in range(d):
            t = _gmul(_peval(rec.q[i], m), a[m + i])
            acc_re, acc_im = acc_re + t[0], acc_im + t[1]
        norm = lead[0] ** 2 + lead[1] ** 2
        a.append((-(acc_re * lead[0] + acc_im * lead[1]) / norm,
                  -(acc_im * lead[0] - acc_re * lead[1]) / norm))
        m += 1
    return [ExactScalar(re, im) for re, im in a[:n_target + 1]]


def _free_columns(rec):
    """Coordinates of the initial block that the prefix constraints leave free."""
    b = rec.block_size
    if not rec.prefix_constraints:
        return list(range(b))
    mat = sympy.Matrix([[_sympy(c) for c in row] for row in rec.prefix_constraints])
    _, pivots = mat.rref()
    return [col for col in range(b) if col not in pivots]


def _equations(scalars):
    poly_st = st.lists(scalars, min_size=1, max_size=3).map(lambda c: Polynomial(tuple(c)))
    return st.lists(poly_st, min_size=2, max_size=4)


def _check_solver(coeffs, free_draw):
    try:
        eq = LinearDifferenceEquation(DELTA_FORM, tuple(coeffs))
    except InputFormatError:
        return  # every coefficient drawn zero
    rec = derive_recurrence(eq)
    event(f"prefix constraints: {len(rec.prefix_constraints)}")
    free = {col: free_draw[col % len(free_draw)] for col in _free_columns(rec)}
    n_target = rec.block_size + 20
    try:
        got = solve_recurrence(rec, free, n_target)
    except SingularRecurrenceError as exc:
        event("singular")
        block = solve_recurrence(rec, free, rec.block_size - 1) if rec.block_size else ()
        with pytest.raises(SingularRecurrenceError) as ref_exc:
            reference_solve(rec, block, n_target)
        assert ref_exc.value.index == exc.index
        return
    assert list(got) == reference_solve(rec, got[:rec.block_size], n_target)
    for row in rec.prefix_constraints:
        assert sum((c * a for c, a in zip(row, got)), as_exact(0)).is_zero()
    for n in range(rec.n_start, n_target - rec.order + 1):
        total = sum((q(n) * got[n + i] for i, q in enumerate(rec.q)), as_exact(0))
        assert total.is_zero()
    for col, v in free.items():
        assert got[col] == v


@PROPERTY
@given(_equations(st.builds(ExactScalar, small)),
       st.lists(real_scalars, min_size=1, max_size=4))
def test_solver_integer_equations(coeffs, free_draw):
    _check_solver(coeffs, free_draw)


@PROPERTY
@given(_equations(st.builds(ExactScalar, small, small)),
       st.lists(gaussian_scalars, min_size=1, max_size=4))
def test_solver_gaussian_equations(coeffs, free_draw):
    _check_solver(coeffs, free_draw)
