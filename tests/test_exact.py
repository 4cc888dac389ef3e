import math
import random
from fractions import Fraction

import pytest

from fallfact.exact import ExactScalar, I, ONE, ZERO, as_exact, lift, magnitude, to_mpc
from fallfact.series import make_context


def test_parse_rational_forms():
    assert as_exact("3") == ExactScalar(Fraction(3))
    assert as_exact("-7/2") == ExactScalar(Fraction(-7, 2))
    assert as_exact("2.5") == ExactScalar(Fraction(5, 2))
    assert as_exact(Fraction(9, 12)) == ExactScalar(Fraction(3, 4))


def test_parse_complex_forms():
    assert as_exact("1+2i") == ExactScalar(Fraction(1), Fraction(2))
    assert as_exact("1 - 2/3 I") == ExactScalar(Fraction(1), Fraction(-2, 3))
    assert as_exact("i") == I
    assert as_exact("-i") == ExactScalar(Fraction(0), Fraction(-1))
    assert as_exact("3/4i") == ExactScalar(Fraction(0), Fraction(3, 4))


def test_parse_rejects_garbage():
    # a zero denominator in the imaginary part is malformed input too
    for bad in ["", "two", "1+", "i2", "1//2", "1+2", "1+2j", "3/0i", "1-2/0 I"]:
        with pytest.raises(ValueError):
            as_exact(bad)


def test_as_exact_rejects_lossy_types():
    with pytest.raises(TypeError):
        as_exact(0.5)
    with pytest.raises(TypeError):
        as_exact(True)
    with pytest.raises(TypeError):
        as_exact(complex(1, 2))


def test_str_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        x = ExactScalar(Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
        assert as_exact(str(x)) == x


def test_field_arithmetic():
    a = as_exact("1+2i")
    b = as_exact("3-1/2i")
    assert a + b == as_exact("4+3/2i")
    assert a - b == as_exact("-2+5/2i")
    assert a * b == ExactScalar(Fraction(4), Fraction(11, 2))
    assert (a / b) * b == a
    assert a * a.conjugate() == ExactScalar(a.abs_squared())
    assert 2 * a == a + a
    assert 1 / as_exact("i") == as_exact("-i")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        as_exact(1) / ZERO


def test_pow():
    assert I ** 2 == as_exact(-1)
    assert as_exact("1+1i") ** 0 == ONE
    x = as_exact("2-1/3i")
    assert x ** 5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x ** -1


def test_predicates():
    assert as_exact(4).is_integer()
    assert not as_exact("4/3").is_integer()
    assert not as_exact("1+1i").is_real()
    assert ZERO.is_zero()


def test_complex_cast():
    assert complex(as_exact("1/2-3i")) == complex(0.5, -3.0)


def test_to_mpc_exact_precision():
    # 1/3 at 200 bits must be far closer than the double rounding
    ctx = make_context(200)
    v = to_mpc(as_exact("1/3"), ctx)
    err = abs(v - ctx.mpf(1) / 3)
    assert err < ctx.mpf(2) ** -190
    assert to_mpc(Fraction(1, 4), ctx) == ctx.mpf(0.25)
    assert to_mpc(complex(1, 2), ctx) == ctx.mpc(1, 2)


def test_to_mpc_rounds_as_the_quotient_of_its_casts():
    # a power-of-two denominator is cast by a shift; every cast must keep
    # the bits of ctx.mpf(numerator) / ctx.mpf(denominator)
    nums = [0, 1, -1, 3, -7, 2 ** 53 + 1, -(2 ** 127 + 3), 3 ** 200, 10 ** 400 + 7]
    dens = [1, 2, 4, 2 ** 52, 2 ** 53, 2 ** 64, 2 ** 1000, 2 ** 20000,
            3, 10, 3 ** 40, 3 * 2 ** 70, 10 ** 300 + 1]
    for bits in (53, 128, 256):
        ctx = make_context(bits)
        for num in nums:
            for den in dens:
                q = Fraction(num, den)
                want = (ctx.mpf(q.numerator) / ctx.mpf(q.denominator))._mpf_
                assert to_mpc(q, ctx)._mpc_[0] == want, (num, den, bits)
                im = Fraction(-den, 2 * num + 1)
                want_im = (ctx.mpf(im.numerator) / ctx.mpf(im.denominator))._mpf_
                assert to_mpc(ExactScalar(q, im), ctx)._mpc_ == (want, want_im), \
                    (num, den, bits)


def test_abs_squared_exact():
    x = as_exact("3/5+4/5i")
    assert x.abs_squared() == Fraction(1)
    assert math.isclose(abs(complex(x)), 1.0)


@pytest.mark.parametrize("k", [-1200, -1073, -600, -540, -520, 0, 520, 700, 1023, 1030])
def test_magnitude_is_within_one_ulp_at_any_scale(k):
    # |x|^2 leaves the float range long before |x| does (from k = -512 and
    # 512 here); |x| is still within one unit in its last place, inf above
    # the float range and the least subnormal below it
    ctx = make_context(200)
    for x in (ExactScalar(Fraction(3, 7), Fraction(-2, 5)), ExactScalar(Fraction(5, 3)),
              ExactScalar(Fraction(0), Fraction(1, 3))):
        x = x * Fraction(2) ** k
        want = abs(to_mpc(x, ctx))
        got = magnitude(x)
        if want > ctx.mpf(2) ** 1024:
            assert got == math.inf, (x, got)
        elif want < ctx.mpf(2) ** -1074:
            assert got == math.ulp(0.0), (x, got)
        else:
            assert abs(ctx.mpf(got) - want) <= math.ulp(float(want)), (x, got)
    assert magnitude(ZERO) == 0.0


def test_lift_is_exact_and_finite_only():
    ctx = make_context(128)
    assert lift(0.1) == ExactScalar(Fraction(0.1))
    assert lift(complex(-0.5, 2 ** -1074)) == ExactScalar(Fraction(-1, 2), Fraction(1, 2 ** 1074))
    assert lift(ctx.mpf(-3) * 2 ** 300) == as_exact(-3 * 2 ** 300)
    assert lift(ctx.mpc(0, 0)) == ZERO
    assert lift("1/3") == as_exact("1/3")
    for bad in (ctx.inf, ctx.nan, -ctx.inf, ctx.mpc(1, ctx.inf), float("nan"), float("inf")):
        with pytest.raises((ValueError, OverflowError)):
            lift(bad)
    with pytest.raises(TypeError):
        lift(True)
