import math
import random
from fractions import Fraction

import pytest

from fallfact.errors import InputFormatError
from fallfact.exact import ExactScalar, as_exact, to_mpc
from fallfact.interp import newton_series, reconstruct_check
from fallfact.polynomial import Polynomial
from fallfact.series import evaluate_accelerated, evaluate_exact, make_context


# ---------------------------------------------------------------------------
# the difference triangle, through newton_series
# ---------------------------------------------------------------------------

def test_difference_triangle_shape_and_values():
    # f(k) = (k+1)^2: leading differences 1, 3, 2, 0, divided by n!
    s = newton_series([1, 4, 9, 16])
    assert s.coeffs == (as_exact(1), as_exact(3), as_exact(1), as_exact(0))


def test_lift_rejects_bool_and_empty():
    with pytest.raises(TypeError):
        newton_series([True, 1])
    with pytest.raises(ValueError):
        newton_series([])


def test_float_samples_lose_exact_flag():
    assert newton_series([1, 2, 3]).regime == "exact"
    assert newton_series([1, 2.0, 3]).regime == "approx"
    assert newton_series([1, complex(2, 1)]).regime == "approx"


def test_mpmath_samples_lift_exactly():
    # a 128-bit mpf is the binary rational it holds, not its 53-bit rounding:
    # rounded first, both samples would be 1 and a1 would be 0
    ctx = make_context(128)
    one = ctx.mpf(1)
    s = newton_series([one, one + ctx.ldexp(one, -100)])
    assert s.regime == "approx"
    assert s.coeffs == (1 + 0j, complex(2.0 ** -100))


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------

def test_doubling_samples_give_inverse_factorials():
    # delta 2^z = 2^z, so every leading difference is 1
    s = newton_series([2 ** k for k in range(60)])
    assert s.regime == "exact"
    for n, a in enumerate(s.coeffs):
        assert a == as_exact(Fraction(1, math.factorial(n)))


def test_polynomial_samples_terminate():
    f = lambda k: k ** 3 - 2 * k + 1
    s = newton_series([f(k) for k in range(7)])
    for a in s.coeffs[4:]:
        assert a.is_zero()
    # exact reconstruction at a non-integer rational point
    x = ExactScalar(Fraction(7, 3))
    want = x * x * x - 2 * x + 1
    assert evaluate_exact(s, x) == want


def test_sample_matching_identity_random():
    rng = random.Random(71)
    for _ in range(25):
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                for _ in range(rng.randint(1, 25))]
        s = newton_series(vals)
        for p, v in enumerate(vals):
            assert evaluate_exact(s, p) == as_exact(v)


def test_float_samples_give_approx_series_with_exact_triangle():
    s = newton_series([float(2 ** k) for k in range(40)])
    assert s.regime == "approx"
    for n, a in enumerate(s.coeffs):
        want = 1.0 / math.factorial(n)
        assert abs(complex(a) - want) <= 1e-15 * want


def test_float_samples_with_a_coefficient_beyond_the_float_range():
    # a_1 = -2e308 is exact in the triangle but has no binary64 image
    with pytest.raises(InputFormatError, match="a1 .*exact samples"):
        newton_series([1e308, -1e308, 1e308])
    assert newton_series([1e308, 1e308]).coeffs == (1e308, 0j)


# ---------------------------------------------------------------------------
# reconstruction checks
# ---------------------------------------------------------------------------

def test_reconstruct_exact_is_identically_zero():
    vals = [2 ** k for k in range(50)]
    rep = reconstruct_check(newton_series(vals), vals, eps=1e-30)
    assert rep.passed
    assert rep.max_deviation == 0.0
    assert rep.deviations == (0.0,) * 50


def test_reconstruct_approx_small_deviation():
    # deviations are absolute, so allow for the size of the largest sample
    vals = [float(3 ** k) for k in range(30)]
    rep = reconstruct_check(newton_series(vals), vals, eps=1e-12 * 3.0 ** 29)
    assert rep.passed
    assert rep.max_deviation < 1e-14 * 3.0 ** 29


def test_reconstruct_approx_is_exact_deviation():
    # float samples: the deviation is that of the stored binary64
    # coefficients, summed exactly, against the samples' exact values
    vals = [2.0 ** (k / 3) for k in range(40)]
    s = newton_series(vals)
    rep = reconstruct_check(s, vals)
    for k, v in enumerate(vals):
        total = sum(Fraction(complex(a).real) * math.perm(k, n)
                    for n, a in enumerate(s.coeffs[:k + 1]))
        # magnitude rounds |x|^2 to float before taking its square root
        assert rep.deviations[k] == pytest.approx(float(abs(total - Fraction(v))), rel=1e-15)
    assert rep.deviations[0] == 0.0 and rep.max_deviation > 0.0


# ---------------------------------------------------------------------------
# behaviour between the integers: truncation error of the 60-sample series
# ---------------------------------------------------------------------------

def test_halfway_point_deviation_frozen():
    # 60 samples of 2^z pin the series on 0..59, but between the integers the
    # truncated Newton series of sqrt-type binomials converges only like
    # n^(-3/2); the halfway point is the worst case and sits near 3.1e-4
    s = newton_series([2 ** k for k in range(60)])
    ctx = make_context(256)

    def deviation(x: Fraction) -> float:
        got = evaluate_exact(s, ExactScalar(x))
        want = ctx.exp(ctx.mpf(x.numerator) / x.denominator * ctx.log(2))
        return float(abs(ctx.mpf(got.re.numerator) / got.re.denominator - want))

    assert deviation(Fraction(1, 2)) == pytest.approx(3.0923186152726243e-04, rel=1e-9)
    assert deviation(Fraction(5, 4)) == pytest.approx(1.3277762401713635e-05, rel=1e-9)
    assert deviation(Fraction(15, 4)) == pytest.approx(8.095843538580569e-09, rel=1e-9)
    # the halfway deviation shrinks with more samples, but only polynomially
    s2 = newton_series([2 ** k for k in range(120)])
    got2 = evaluate_exact(s2, ExactScalar(Fraction(1, 2)))
    want = ctx.exp(ctx.mpf(1) / 2 * ctx.log(2))
    dev2 = float(abs(ctx.mpf(got2.re.numerator) / got2.re.denominator - want))
    assert dev2 < 3.1e-4
    assert dev2 > 1e-5  # still nowhere near float accuracy


# ---------------------------------------------------------------------------
# between the integers again: Levin-accelerated evaluation of the same series
# ---------------------------------------------------------------------------

def test_accelerated_at_integer_points_is_the_exact_sum():
    rng = random.Random(7)
    s = newton_series([Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                       for _ in range(20)])
    ctx = make_context(256)
    for m in range(25):
        res = evaluate_accelerated(s, m, precision_bits=256)
        assert res.reason == "integer" and res.converged
        assert res.error_estimate == 0.0
        assert res.terms_used == min(m, 19) + 1
        assert res.value == to_mpc(evaluate_exact(s, m), ctx)


def test_accelerated_polynomial_samples_are_exact():
    # two samples beyond the d + 1 that fix a degree-d polynomial end the
    # terms in two zeros: "terminated"; one spare sample is no such evidence
    rng = random.Random(11)
    ctx = make_context(256)
    for _ in range(30):
        degree = rng.randint(0, 5)
        p = Polynomial(tuple(Fraction(rng.randint(-9, 9)) for _ in range(degree))
                       + (Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),))
        spare = rng.randint(1, 4)
        s = newton_series([p(k) for k in range(degree + 1 + spare)])
        x = ExactScalar(Fraction(rng.randint(-40, 40), rng.randint(2, 9)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        res = evaluate_accelerated(s, x, precision_bits=256)
        assert res.value == to_mpc(p(x), ctx)
        if x.is_integer() and x.re >= 0:
            assert res.reason == "integer"
        elif spare == 1:
            assert (res.converged, res.reason, res.error_estimate) == (
                False, "singular", math.inf)
            continue
        else:
            assert res.reason == "terminated"
        assert res.converged and res.error_estimate == 0.0


def test_accelerated_chance_zero_last_term_is_not_termination():
    half = Fraction(1, 2)
    # the 59th difference of 2^k is 1, so lowering the last sample by one
    # zeroes the last term of samples that fit no low-degree polynomial
    samples = [2 ** k for k in range(59)] + [2 ** 59 - 1]
    s = newton_series(samples)
    assert s.coeffs[-1].is_zero() and not s.coeffs[-2].is_zero()
    res = evaluate_accelerated(s, half)
    assert (res.converged, res.reason, res.error_estimate) == (False, "singular", math.inf)
    assert res.value == to_mpc(evaluate_exact(s, half), make_context(128))
    # coefficients 1, 1, 0, 1/6 read unconverged; one more sample with a zero
    # difference does not change that, a second one does
    assert newton_series([1, 2, 3, 5]).coeffs[2].is_zero()
    for samples in ([1, 2, 3, 5], [1, 2, 3, 5, 9]):
        assert evaluate_accelerated(newton_series(samples), half).reason == "singular"
    res = evaluate_accelerated(newton_series([1, 2, 3, 5, 9, 16]), half)
    assert (res.converged, res.reason, res.error_estimate) == (True, "terminated", 0.0)
    assert complex(res.value) == 1.5625  # 1 + z + z(z-1)(z-2)/6 at z = 1/2


def test_accelerated_random_samples_do_not_converge():
    # integer samples with no regular tail: the transform has nothing to
    # extrapolate, and its estimate says so
    for seed in range(5):
        rng = random.Random(seed)
        s = newton_series([rng.randint(-100, 100) for _ in range(60)])
        res = evaluate_accelerated(s, Fraction(1, 2))
        assert not res.converged
        assert res.reason == "unsettled"
        assert res.error_estimate > 1.0


def test_accelerated_deviation_within_estimate_off_the_integers():
    s = newton_series([2 ** k for k in range(60)])
    ctx = make_context(256)
    for x in (Fraction(5, 4), Fraction(15, 4)):
        res = evaluate_accelerated(s, x, precision_bits=256)
        want = ctx.exp(ctx.mpf(x.numerator) / x.denominator * ctx.log(2))
        deviation = float(abs(ctx.mpc(res.value) - want))
        assert res.converged and res.reason == "levin"
        assert res.terms_used == 60
        assert deviation < 1e-6
        assert deviation <= res.error_estimate


def test_accelerated_estimate_below_squared_float_range():
    # |L_k - L_(k-1)| ~ 9e-249 here: its square is below the float range,
    # the value itself is not
    half = Fraction(1, 2)
    ctx = make_context(2048)
    samples = [2 ** k for k in range(200)]
    res = evaluate_accelerated(newton_series(samples), half, precision_bits=2048)
    # the order-(k-1) transform is the full transform of one term fewer
    prev = evaluate_accelerated(newton_series(samples[:-1]), half, precision_bits=2048)
    diff = float(abs(ctx.mpc(res.value) - ctx.mpc(prev.value)))
    assert res.converged and res.reason == "levin"
    assert 1e-300 < diff < 1e-200
    assert res.error_estimate == pytest.approx(diff, rel=1e-9)
    assert float(abs(ctx.mpc(res.value) - ctx.sqrt(2))) <= res.error_estimate


def test_accelerated_edge_verdicts():
    half = Fraction(1, 2)
    # f(0) = 0: the transform starts at the first nonzero term
    s = newton_series([k * 2 ** k for k in range(60)])
    res = evaluate_accelerated(s, half, precision_bits=256)
    ctx = make_context(256)
    assert res.converged
    assert float(abs(ctx.mpc(res.value) - ctx.sqrt(2) / 2)) <= res.error_estimate < 1e-6
    # an interior zero term is a zero remainder estimate: no transform
    s = newton_series([1, 2, 3, 5])  # a_2 = 0, a_3 = 1/6
    res = evaluate_accelerated(s, half)
    assert (res.converged, res.reason, res.error_estimate) == (False, "singular", math.inf)
    assert res.value == to_mpc(evaluate_exact(s, half), make_context(128))
    # t_0 = t_1 makes the denominator of L_1 vanish
    res = evaluate_accelerated(newton_series([1, 3]), half)
    assert (res.converged, res.reason, res.error_estimate) == (False, "singular", math.inf)
    assert complex(res.value) == 2.0
    # a single term has no L_(k-1) to compare against; nor has a single zero
    for samples in ([5], [0]):
        res = evaluate_accelerated(newton_series(samples), half)
        assert (res.converged, res.reason) == (False, "singular")
    # float samples are summed through their exact lift
    assert evaluate_accelerated(newton_series([1.0, 2.0, 4.0, 8.5]), half) \
        == evaluate_accelerated(newton_series([1, 2, 4, Fraction(17, 2)]), half)
