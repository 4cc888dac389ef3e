import random
from fractions import Fraction

import pytest

from fallfact.exact import ExactScalar, as_exact
from fallfact.polynomial import (NEG_INF, Polynomial, RationalFunction,
                                 format_poly, poly, poly_gcd)
from fallfact.series import make_context


def rand_poly(rng, deg_max=6, span=9):
    return Polynomial(tuple(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                            for _ in range(rng.randint(0, deg_max + 1))))


def test_normalization_and_degree():
    assert poly(1, 2, 0, 0).coeffs == (as_exact(1), as_exact(2))
    assert poly().degree == NEG_INF
    assert poly(0, 0).is_zero()
    assert poly(5).degree == 0
    assert poly(0, 0, 3).degree == 2


def test_getitem_out_of_range_is_zero():
    p = poly(1, 2)
    assert p[5] == as_exact(0)
    assert p[-1] == as_exact(0)


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(150):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        x = ExactScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-5, 5)))
        # evaluation is a ring morphism
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


def test_shift_argument_matches_pointwise():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng)
        s = rng.randint(-6, 6)
        q = p.shift_argument(s)
        for t in range(-3, 4):
            assert q(t) == p(t + s)


def test_divmod_property():
    rng = random.Random(9)
    for _ in range(120):
        a = rand_poly(rng, deg_max=7)
        b = rand_poly(rng, deg_max=4)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(poly(1), poly())


def test_gcd_divides_both():
    x_minus_1 = poly(-1, 1)
    x_plus_2 = poly(2, 1)
    a = x_minus_1 * x_plus_2
    b = x_minus_1 * poly(3, 0, 1)
    g = poly_gcd(a, b)
    assert g == x_minus_1.monic()
    assert divmod(a, g)[1].is_zero()
    assert divmod(b, g)[1].is_zero()


def test_cast_agrees_with_exact():
    ctx = make_context(128)
    p = poly("1/3", "-2", "7/5")
    v = p.cast(ctx)(ctx.mpc(1, 1))
    want = complex(p(as_exact("1+1i")))
    assert abs(complex(v) - want) < 1e-14


def test_format_poly():
    assert format_poly(poly(6, 4)) == "4z+6"
    assert format_poly(poly(0, -1)) == "-z"
    assert format_poly(poly()) == "0"
    assert format_poly(poly(1, 0, 2), "n") == "2n^2+1"
    assert format_poly(poly("1+1i", 1)) == "z+(1+1i)"


def test_rational_function_canonical():
    # (4z-4)/(4z^2-4z) cancels and scales to 1/z
    r = RationalFunction(poly(-4, 4), poly(0, -4, 4))
    assert str(r) == "1/z"
    assert r == RationalFunction(poly(-1, 1), poly(0, -1, 1))
    # canonical form is insensitive to a common scalar, including units of Q(i)
    s1 = RationalFunction(poly(23, 16), poly(9, 80, 64))
    s2 = RationalFunction(poly(23, 16) * as_exact("1/2"), poly(9, 80, 64) * as_exact("1/2"))
    s3 = RationalFunction(poly(23, 16) * as_exact("i"), poly(9, 80, 64) * as_exact("i"))
    assert s1 == s2 == s3
    assert str(s1) == "(16z+23)/(64z^2+80z+9)"


def test_rational_function_zero_and_errors():
    z = RationalFunction(poly(), poly(5))
    assert z.num.is_zero() and z.den == poly(1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly(1), poly())


def test_rational_function_eval():
    r = RationalFunction(poly(23, 16), poly(9, 80, 64))
    assert r(1) == as_exact("39/153")
    ctx = make_context(128)
    v = r.num.cast(ctx)(ctx.mpc(2)) / r.den.cast(ctx)(ctx.mpc(2))
    assert abs(complex(v) - complex(r(2))) < 1e-15
