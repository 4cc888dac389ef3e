"""Property tests of the integer exact core against independent oracles.

sympy supplies Stirling numbers, falling factorials and rank/pivot
computations; the recurrence is re-run by a plain Fraction loop written
here, and shift against its binomial sum written out the same way.  Approx
series are checked against their exact lift, taken here with Fraction.  Example counts are bounded so the whole module stays a few
seconds.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from fallfact.basis import StirlingTable, binomial_to_poly, poly_to_binomial
from fallfact.errors import InputFormatError, SingularRecurrenceError
from fallfact.exact import ExactScalar, as_exact
from fallfact.interp import newton_series
from fallfact.polynomial import Polynomial, RationalFunction, poly
from fallfact.series import (BinomialSeries, approx_series, binomial_from_taylor, delta,
                             evaluate_exact, linear_combine, mul_by_poly, mul_by_z,
                             shift, taylor_from_binomial)
import fallfact.solver as solver_mod
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
# parsing: exact scalars read back from their strings
# ---------------------------------------------------------------------------

def _long_rational(q: int, k: int, flip: bool, negative: bool) -> Fraction:
    # k q + 1 is prime to q, so the reduced parts keep at least q's digits
    p = k * q + 1
    x = Fraction(q, p) if flip else Fraction(p, q)
    return -x if negative else x


long_rationals = st.builds(_long_rational, st.integers(10 ** 999, 10 ** 1100),
                           st.integers(1, 10 ** 40), st.booleans(), st.booleans())
zero_or_long = st.one_of(st.just(Fraction(0)), long_rationals)


@PROPERTY
@given(st.one_of(st.builds(ExactScalar, long_rationals),
                 st.builds(ExactScalar, zero_or_long, long_rationals)))
def test_long_scalars_read_back_from_their_strings(x):
    for part in (x.re, x.im):
        if part:
            assert len(str(part.denominator)) >= 1000
            assert len(str(abs(part.numerator))) >= 1000
    event("real" if x.is_real() else "non-real")
    assert as_exact(str(x)) == x


def test_malformed_scalars_are_rejected():
    for bad in ["1/0", "abc", "1+", "i i"]:
        with pytest.raises(ValueError, match="not an exact scalar"):
            as_exact(bad)


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


_TABLE = StirlingTable()


def _table_sum(coeffs, rows, width: int) -> tuple:
    """sum_k coeffs[k] T[k][n] for n < width, from the table's integer rows."""
    out = [as_exact(0)] * width
    for k, c in enumerate(coeffs):
        for n, t in enumerate(rows(k)[:width]):
            out[n] = out[n] + c * t
    return tuple(out)


@PROPERTY
@given(st.lists(gaussian_scalars, max_size=14))
def test_poly_binomial_round_trip(coeffs):
    p = Polynomial(tuple(coeffs))
    assert binomial_to_poly(poly_to_binomial(p)) == p
    assert poly_to_binomial(p) == _table_sum(p.coeffs, _TABLE.second_kind_ints, len(p.coeffs))
    assert binomial_to_poly(coeffs) \
        == Polynomial(_table_sum(coeffs, _TABLE.first_kind_ints, len(coeffs)))
    if coeffs and not coeffs[-1].is_zero():
        assert poly_to_binomial(binomial_to_poly(coeffs)) == tuple(coeffs)


@PROPERTY
@given(st.lists(gaussian_scalars, max_size=14), st.integers(0, 20), st.integers(0, 13))
@example([], 3, 0)                              # empty input
@example([as_exact(1), as_exact(-2)] * 5, 0, 0)  # k_cut = 0, one output
@example([as_exact(3)] * 4, 12, 2)              # width above the k_cut + 1 inputs
def test_taylor_conversions_match_stirling_table_sums(coeffs, m_max, k_cut):
    k_cut = min(k_cut, len(coeffs) - 1) if coeffs else None
    kept = coeffs[:k_cut + 1] if coeffs else []
    width = m_max + 1
    got = taylor_from_binomial(BinomialSeries(tuple(coeffs)), m_max, k_cut)
    assert got.coeffs == _table_sum(kept, _TABLE.first_kind_ints, width)
    back = binomial_from_taylor(coeffs, m_max, k_cut)
    assert back.coeffs == _table_sum(kept, _TABLE.second_kind_ints, width)


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
    values = [as_exact(v) for v in samples]
    fact = 1
    for n, a in enumerate(s.coeffs):
        fact *= n or 1
        # (delta^n f)(0) as the explicit binomial sum, not a second triangle
        lead = sum((values[k] * ((-1) ** (n - k) * math.comb(n, k))
                    for k in range(n + 1)), as_exact(0))
        assert a * fact == lead
    for k, v in enumerate(samples):
        assert evaluate_exact(s, k) == as_exact(v)


# ---------------------------------------------------------------------------
# approx series: every operation is the operation on the exact lift
# ---------------------------------------------------------------------------

def _fraction_lift(c) -> ExactScalar:
    c = complex(c)
    return ExactScalar(Fraction(c.real), Fraction(c.imag))


def _lifted(s: BinomialSeries) -> BinomialSeries:
    return BinomialSeries(tuple(map(_fraction_lift, s.coeffs)), "exact", s.origin)


@PROPERTY
@given(st.lists(binary_scalars, max_size=8), st.lists(binary_scalars, max_size=8),
       binary_scalars, st.integers(0, 4), st.lists(gaussian_scalars, max_size=3),
       st.one_of(gaussian_scalars, st.integers(0, 10).map(as_exact)))
def test_approx_operations_equal_their_exact_lift(a, b, scalar, m, p, z):
    s, t = approx_series(a, origin="samples"), approx_series(b)
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
# shift: its identities, and the binomial sum written out with Fraction
# ---------------------------------------------------------------------------

exact_series_st = st.lists(st.one_of(real_scalars, gaussian_scalars),
                           min_size=1, max_size=12).map(lambda c: BinomialSeries(tuple(c)))


def _shift_oracle(s: BinomialSeries, m: int) -> list:
    # Y(z+m) = sum_j C(m,j) delta^j Y and (delta^j Y)_n = (n+1)...(n+j) a_(n+j)
    a = [(c.re, c.im) for c in s.coeffs]
    out = []
    for n in range(len(a)):
        re = im = Fraction(0)
        for k in range(n, len(a)):
            w = math.comb(m, k - n) * math.factorial(k) // math.factorial(n)
            re += w * a[k][0]
            im += w * a[k][1]
        out.append(ExactScalar(re, im))
    return out


@PROPERTY
@given(exact_series_st, st.integers(0, 15), st.integers(0, 15))
def test_shift_composes_additively(s, a, b):
    assert shift(shift(s, a), b) == shift(s, a + b)


@PROPERTY
@given(exact_series_st)
def test_shift_by_one_adds_the_difference(s):
    assert shift(s, 1) == linear_combine([(1, s), (1, delta(s))])


@PROPERTY
@given(exact_series_st, st.integers(0, 30), st.integers(-12, 30))
def test_shift_at_integers_is_the_series_moved(s, m, k):
    assert evaluate_exact(shift(s, m), k) == evaluate_exact(s, k + m)


@PROPERTY
@given(exact_series_st, st.integers(0, 40))
def test_shift_equals_the_binomial_sum(s, drawn):
    n = len(s.coeffs) - 1
    for m in sorted({0, 1, 10, n, 2 * n, drawn}):
        assert list(shift(s, m).coeffs) == _shift_oracle(s, m)


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


def _reduction_branch(window, den, scale):
    """Which way solver._reduced takes the gcd of this window over den scale."""
    w = math.gcd(*(x for pair in window for x in pair))
    if not w:
        return "reduction: zero window"
    return "reduction: den read" if w > math.gcd(w, scale) else "reduction: den not read"


def _check_solver(coeffs, free_draw):
    try:
        eq = LinearDifferenceEquation(DELTA_FORM, tuple(coeffs))
    except InputFormatError:
        return  # every coefficient drawn zero
    rec = derive_recurrence(eq)
    event(f"prefix constraints: {len(rec.prefix_constraints)}")
    free = {col: free_draw[col % len(free_draw)] for col in _free_columns(rec)}
    n_target = rec.block_size + 20
    branches = set()
    reduced = solver_mod._reduced

    def spy(window, den, scale):
        branches.add(_reduction_branch(window, den, scale))
        return reduced(window, den, scale)

    try:
        with mock.patch.object(solver_mod, "_reduced", spy):
            got = solve_recurrence(rec, free, n_target)
    except SingularRecurrenceError as exc:
        event("singular")
        block = solve_recurrence(rec, free, rec.block_size - 1) if rec.block_size else ()
        with pytest.raises(SingularRecurrenceError) as ref_exc:
            reference_solve(rec, block, n_target)
        assert ref_exc.value.index == exc.index
        return
    for branch in sorted(branches):
        event(branch)
    assert list(got) == reference_solve(rec, got[:rec.block_size], n_target)
    for row in rec.prefix_constraints:
        assert sum((c * a for c, a in zip(row, got)), as_exact(0)).is_zero()
    for n in range(rec.n_start, n_target - rec.order + 1):
        total = sum((q(n) * got[n + i] for i, q in enumerate(rec.q)), as_exact(0))
        assert total.is_zero()
    for col, v in free.items():
        assert got[col] == v


# the window's gcd w against g1 = gcd(w, scale) in solver._reduced: w = g1
# (the denominator is not read), w > g1 (it is), and w = 0
@PROPERTY
@given(_equations(st.builds(ExactScalar, small)),
       st.lists(real_scalars, min_size=1, max_size=4))
@example([poly(1), poly(3), poly(6, 4)], [as_exact(1), as_exact("-1/2")])  # w = g1
@example([poly(2), poly(1)], [as_exact(1)])                               # w > g1
@example([poly(0), poly(0), poly(1)], [as_exact(1)])                      # w = 0
def test_solver_integer_equations(coeffs, free_draw):
    _check_solver(coeffs, free_draw)


@PROPERTY
@given(_equations(st.builds(ExactScalar, small, small)),
       st.lists(gaussian_scalars, min_size=1, max_size=4))
@example([poly(1), poly(as_exact("3-1i")), poly(as_exact("6+2i"), 4)],
         [as_exact(1), as_exact("-1/2+1/3i")])                            # w = g1
@example([poly(as_exact("2+2i")), poly(1)], [as_exact("1+1i")])             # w > g1
@example([poly(0), poly(0), poly(as_exact("1+1i"))], [as_exact("1-1i")])   # w = 0
def test_solver_gaussian_equations(coeffs, free_draw):
    _check_solver(coeffs, free_draw)


# ---------------------------------------------------------------------------
# RationalFunction: one canonical form for each function
# ---------------------------------------------------------------------------

nonzero_gaussians = gaussian_scalars.filter(lambda c: not c.is_zero())
polynomials = st.lists(gaussian_scalars, max_size=4).map(Polynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())
ONE_PLUS_I = ExactScalar(1, 1)
RATIONAL_POINTS = [Fraction(k, 3) for k in range(-4, 5)]


@PROPERTY
@given(polynomials, nonzero_polynomials, nonzero_gaussians)
@example(poly(1), poly(0, 1), ONE_PLUS_I)  # (1+i)/((1+i)z) is 1/z
def test_rational_function_form_ignores_a_common_scalar(num, den, c):
    assert RationalFunction(num * c, den * c) == RationalFunction(num, den)


@PROPERTY
@given(polynomials, nonzero_polynomials, nonzero_polynomials)
@example(poly(1), poly(0, 1), poly(ONE_PLUS_I))
def test_rational_function_form_ignores_a_common_factor(num, den, p):
    assert RationalFunction(num * p, den * p) == RationalFunction(num, den)


@PROPERTY
@given(polynomials, nonzero_polynomials)
@example(poly(ONE_PLUS_I), poly(0, ONE_PLUS_I))
def test_rational_function_form_is_primitive_with_a_positive_integer_lead(num, den):
    rf = RationalFunction(num, den)
    parts = [x for c in rf.num.coeffs + rf.den.coeffs for x in (c.re, c.im)]
    assert all(x.denominator == 1 for x in parts)
    assert math.gcd(*(x.numerator for x in parts)) == 1
    lead = rf.den.leading()
    assert lead.is_integer() and lead.re > 0


@PROPERTY
@given(polynomials, nonzero_polynomials)
@example(poly(ONE_PLUS_I), poly(0, ONE_PLUS_I))
def test_rational_function_keeps_its_values(num, den):
    rf = RationalFunction(num, den)
    for x in RATIONAL_POINTS:
        if not den(x).is_zero():
            assert rf(x) == num(x) / den(x)
