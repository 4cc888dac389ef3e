import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from fallfact.basis import StirlingTable, default_table
from fallfact.errors import EvaluationOverflowError
from fallfact.exact import ExactScalar, as_exact
from fallfact.polynomial import Polynomial, poly
from fallfact.series import (BinomialSeries, _SeqOperator, approx_series,
                             binomial_from_taylor, delta, evaluate, evaluate_exact,
                             exact_series, linear_combine, make_context, mul_by_poly,
                             mul_by_z, shift, taylor_from_binomial)


def rand_series(rng, n_max=14, span=20):
    return exact_series([
        ExactScalar(Fraction(rng.randint(-span, span), rng.randint(1, 6)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 6)))
        for _ in range(rng.randint(1, n_max + 1))])


def rand_point(rng):
    return ExactScalar(Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
                       Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def geometric_series(n, lam=Fraction(1, 2)):
    return exact_series([ExactScalar(lam ** k / math.factorial(k))
                         for k in range(n + 1)])


def factorial_series(n):
    return exact_series([ExactScalar(Fraction((-1) ** k, math.factorial(k)))
                         for k in range(n + 1)])


# ---------------------------------------------------------------------------
# operators: pointwise-exact against the stored polynomial
# ---------------------------------------------------------------------------

def test_delta_is_pointwise_difference():
    rng = random.Random(3)
    for _ in range(60):
        s = rand_series(rng)
        x = rand_point(rng)
        lhs = evaluate_exact(delta(s), x)
        rhs = evaluate_exact(s, x + 1) - evaluate_exact(s, x)
        assert lhs == rhs


def test_mul_by_z_pointwise():
    rng = random.Random(4)
    for _ in range(60):
        s = rand_series(rng)
        x = rand_point(rng)
        assert evaluate_exact(mul_by_z(s), x) == x * evaluate_exact(s, x)


def test_shift_pointwise_and_composition():
    rng = random.Random(6)
    for _ in range(60):
        s = rand_series(rng)
        m = rng.randint(0, 4)
        x = rand_point(rng)
        assert evaluate_exact(shift(s, m), x) == evaluate_exact(s, x + m)
    s = rand_series(rng)
    assert shift(shift(s, 1), 1) == shift(s, 2)
    with pytest.raises(ValueError):
        shift(s, -1)


def test_spec_shaped_small_cases():
    # delta on [2, 2, 1] drops to [2, 2]; shift by 1 adds the delta
    s = exact_series([2, 2, 1])
    assert delta(s).coeffs == (as_exact(2), as_exact(2))
    e = shift(s, 1)
    assert e.coeffs == (as_exact(4), as_exact(4), as_exact(1))
    back = linear_combine([(1, e), (-1, delta(s))])
    assert back.coeffs == s.coeffs  # E - delta = identity


def test_mul_by_poly_pointwise():
    rng = random.Random(8)
    # integer, fractional and Gaussian coefficients: the last two scale the
    # operator's polynomials to a common denominator before the integer sums
    draws = (lambda: Fraction(rng.randint(-9, 9)),
             lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
             lambda: ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
    for draw in draws:
        for _ in range(50):
            s = rand_series(rng)
            p = Polynomial(tuple(draw() for _ in range(rng.randint(0, 4))))
            x = rand_point(rng)
            assert evaluate_exact(mul_by_poly(s, p), x) == p(x) * evaluate_exact(s, x)


def test_mul_by_poly_horner_equals_the_operator_polynomial():
    # Horner in z against p(z) built as one operator and applied once
    rng = random.Random(19)
    for _ in range(40):
        s = rand_series(rng, n_max=30)
        if rng.random() < 0.3:
            s = approx_series([complex(c) for c in s.coeffs])
        p = Polynomial(tuple(ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                         Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                             for _ in range(rng.randint(1, 8))))
        op = _SeqOperator.z_multiplication().polynomial(p.coeffs)
        want = op.apply(s, len(s.coeffs) + len(p.coeffs) - 1)
        assert mul_by_poly(s, p) == want


def test_linear_combine_zero_extension_and_regimes():
    a = exact_series([1, 1])
    b = exact_series([2, 2, 1])
    out = linear_combine([(1, a), (as_exact(-3), b)])
    assert out.coeffs == (as_exact(-5), as_exact(-5), as_exact(-3))
    # approx series and float scalars enter through their exact lift
    mixed = linear_combine([(1, a), (0.5, approx_series([1.0, 0.1]))])
    assert mixed.regime == "exact"
    assert mixed.coeffs == (as_exact("3/2"), as_exact(1 + Fraction(0.1) / 2))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_geometric_evaluation_against_power_oracle():
    s = geometric_series(100)
    for z in [1.0, 2.0, 3.5, complex(5, 1), 2.25]:
        res = evaluate(s, z, 1e-12)
        want = complex(1.5) ** complex(z)
        assert res.converged
        assert abs(complex(res.value) - want) / abs(want) < 1e-9


def test_integer_point_exact_termination():
    s = factorial_series(200)
    res = evaluate(s, 8)
    assert res.reason == "integer"
    assert res.converged
    assert complex(res.value) == 0  # (1-1)^8, binomial theorem, exactly
    assert evaluate_exact(s, 0) == as_exact(1)
    # a float integer point takes the same exact path
    res2 = evaluate(s, 8.0)
    assert res2.reason == "integer"
    assert abs(complex(res2.value)) < 1e-30


def test_integer_points_follow_one_rule_whatever_their_type():
    from mpmath import mpc, mpf
    # 5 coefficients: the point 8 lies past the last one, where a float point
    # used to be summed in fixed point and report "exhausted"
    coeffs = [1, Fraction(-1, 3), Fraction(1, 7), 2, Fraction(5, 11)]
    s = exact_series(coeffs)
    want = sum(Fraction(c) * math.perm(8, n) for n, c in enumerate(coeffs))
    results = [evaluate(s, z) for z in (8, 8.0, mpf(8), ExactScalar(8), Fraction(8),
                                        complex(8), mpc(8))]
    for res in results:
        assert (res.reason, res.terms_used, res.converged) == ("integer", 5, True)
        assert (res.value, res.rounding_radius) == (results[0].value,
                                                    results[0].rounding_radius)
    assert abs(complex(results[0].value) - float(want)) < 1e-12 * float(want)
    # a point that casts to an integer but is not one is not summed as one
    near = evaluate(s, Fraction(8) + Fraction(1, 2 ** 200))
    assert (near.reason, near.terms_used) == ("exhausted", 5)
    with pytest.raises(TypeError):
        evaluate(s, True)


def test_exhaustion_is_converged():
    s = exact_series([3])
    res = evaluate(s, 2.5)
    assert res.converged and res.reason == "exhausted"
    assert complex(res.value) == complex(3)


def test_n_max_cap_reports_nonconvergence():
    # coefficients 1: partial sums of sum z^(n_) never settle at z = 1/2
    s = exact_series([1] * 400)
    res = evaluate(s, 0.5, 1e-12, n_max=50)
    assert not res.converged
    assert res.reason == "n_max"
    assert res.terms_used == 51


def test_n_max_beats_integer_label_in_numeric_loop():
    # integer point but the cap stops short of it: that is a truncation,
    # whichever way the coefficients are stored
    for s in (approx_series([1.0] * 20), exact_series([1] * 20)):
        res = evaluate(s, 8, n_max=3)
        assert not res.converged
        assert (res.reason, res.terms_used) == ("n_max", 4)
        assert complex(res.value) == 1 + 8 + 56 + 336
        # with an adequate cap the integer rule applies again
        ok = evaluate(s, 8, n_max=15)
        assert ok.converged and ok.reason == "integer"
        assert (ok.terms_used, complex(ok.value)) == (9, sum(math.perm(8, n) for n in range(9)))


def test_window_requires_min_index():
    # large |z|: falling factorials grow before coefficient decay wins
    s = geometric_series(400)
    res = evaluate(s, complex(0, 40), 1e-12)
    assert res.converged
    assert res.terms_used >= 45  # ceil|z| + 5


def test_overflow_guard():
    huge = exact_series([ExactScalar(Fraction(10) ** 200000)])
    with pytest.raises(EvaluationOverflowError):
        evaluate(huge, 0.5)


def test_precision_is_honored():
    s = geometric_series(300)
    hi = evaluate(s, 3.5, 1e-40, precision_bits=256)
    ctx = make_context(256)
    want = ctx.exp(ctx.mpf("3.5") * ctx.log(ctx.mpf(3) / 2))
    assert abs(hi.value - want) < ctx.mpf(2) ** -120


# ---------------------------------------------------------------------------
# Taylor conversions
# ---------------------------------------------------------------------------

def test_taylor_round_trip_exact():
    rng = random.Random(17)
    for _ in range(40):
        s = rand_series(rng, n_max=12)
        n = s.truncation_order
        t = taylor_from_binomial(s, n)
        back = binomial_from_taylor(t.coeffs, n)
        assert back.coeffs == s.coeffs


def test_taylor_conversions_read_no_stirling_rows(monkeypatch):
    # Horner's rule multiplies by small integers: no table row is built or read
    rows = len(default_table()._first)
    calls = []
    ensure = StirlingTable.ensure
    monkeypatch.setattr(StirlingTable, "ensure",
                        lambda table, n: calls.append(n) or ensure(table, n))
    rng = random.Random(5)
    s = exact_series([rand_point(rng) for _ in range(200)])
    t = taylor_from_binomial(s, 199)
    assert binomial_from_taylor(t.coeffs).coeffs == s.coeffs
    assert calls == []
    assert len(default_table()._first) == rows


def test_taylor_conversions_refuse_negative_cuts():
    # a negative cut once sliced from the end: k_cut -3 kept a_0..a_2 of five
    s = exact_series([1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="k_cut must be nonnegative"):
        taylor_from_binomial(s, 4, -3)
    with pytest.raises(ValueError, match="k_cut must be nonnegative"):
        binomial_from_taylor([1, 2, 3, 4, 5], 4, -3)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        binomial_from_taylor([1, 2, 3, 4, 5], -3)


def test_taylor_of_single_falling_factorial():
    # z^(3_) = 2z - 3z^2 + z^3
    s = exact_series([0, 0, 0, 1])
    t = taylor_from_binomial(s, 3)
    assert [c.re for c in t.coeffs] == [0, 2, -3, 1]


def test_taylor_b1_truncated_sum_oracle():
    # a_k = (-1)^(k+1)/k for k >= 1; eta_{1,k} = (-1)^(k-1) (k-1)!
    # so b_1 truncated at K is sum_{k=1}^{K} (k-1)!/k, computed independently
    for k_cut in (5, 9, 16):
        coeffs = [as_exact(0)] + [ExactScalar(Fraction((-1) ** (k + 1), k))
                                  for k in range(1, k_cut + 1)]
        t = taylor_from_binomial(exact_series(coeffs), 1, k_cut)
        want = sum(Fraction(math.factorial(k - 1), k) for k in range(1, k_cut + 1))
        assert t.coeffs[1].re == want


def test_taylor_chi_flag():
    slow = exact_series([ExactScalar(Fraction(1, math.factorial(n)))
                         for n in range(30)])
    fast = exact_series([ExactScalar(Fraction((-1) ** n, math.factorial(2 * n)))
                         for n in range(30)])
    assert taylor_from_binomial(slow, 5).chi_flagged
    assert not taylor_from_binomial(fast, 5).chi_flagged


def test_taylor_approx_regime():
    # float input converts exactly both ways: the round trip gives back the
    # lifted coefficients themselves
    s = approx_series([1.0, 0.5, 0.25, 0.1])
    lifted = exact_series([Fraction(c) for c in s.coeffs])
    t = taylor_from_binomial(s, 3)
    assert t.coeffs == taylor_from_binomial(lifted, 3).coeffs
    assert binomial_from_taylor(t.coeffs, 3).coeffs == lifted.coeffs
    dyadic = [1.0, -0.25, 0.75]  # floats given to binomial_from_taylor
    back = binomial_from_taylor(dyadic, 2)
    assert back.regime == "exact"
    assert back.coeffs == binomial_from_taylor([Fraction(b) for b in dyadic], 2).coeffs


# ---------------------------------------------------------------------------
# evaluate in fixed point: within its rounding radius of the exact sum
# ---------------------------------------------------------------------------

def _reference_evaluate(series, z, eps=1e-12, n_max=10000, *, precision_bits=128,
                        margins=None):
    """The ctx.mpc loop evaluate ran before the fixed-point kernel, kept as an
    oracle, with evaluate's one integer-point rule.

    margins, when given, receives |r - 1| for each window decision, where
    r = |term| / (eps * max(1, |partial|)) as this loop rounds it.
    """
    from fallfact.exact import lift, to_mpc
    from fallfact.series import OVERFLOW_EXPONENT
    ctx = make_context(precision_bits)
    zz = to_mpc(z, ctx)
    top_index = len(series.coeffs) - 1
    ze = lift(z)
    if ze.is_integer() and ze.re >= 0 and min(ze.re, top_index) <= n_max:
        stop = min(int(ze.re), top_index)
        return to_mpc(evaluate_exact(series, ze), ctx), max(stop + 1, 0), True, "integer"
    limit = top_index
    reason = "exhausted"
    capped = False
    if n_max < limit:
        limit, capped = n_max, True
    eps_mp = ctx.mpf(eps)
    overflow = ctx.mpf(10) ** OVERFLOW_EXPONENT
    min_index = int(ctx.ceil(abs(zz))) + 5
    partial, ff = ctx.mpc(0), ctx.mpc(1)
    streak, terms_used, by_window = 0, 0, False
    for n in range(limit + 1):
        term = to_mpc(series.coeffs[n], ctx) * ff
        partial += term
        mag = abs(term)
        terms_used = n + 1
        if mag > overflow:
            raise EvaluationOverflowError(n)
        small = False
        if n >= min_index:
            scale = eps_mp * max(ctx.mpf(1), abs(partial))
            small = mag < scale
            if margins is not None:
                margins.append(abs(mag / scale - 1))
        if small:
            streak += 1
            if streak >= 5:  # series.WINDOW
                by_window = True
                break
        else:
            streak = 0
        ff *= zz - n
    if by_window:
        converged, reason = True, "window"
    elif capped:
        converged, reason = False, "n_max"
    else:
        converged = True
    return partial, terms_used, converged, reason


def _fields(res):
    return (res.value, res.terms_used, res.tail_bound, res.converged, res.reason,
            res.rounding_radius)


def _exact_partial_sums(series, z):
    """sums(j) = sum_{n<j} a_n z^(n_) for the exact image of z, any j <= N + 1.

    Integer arithmetic: with z = Z/q, t_j = q^(j-1) den sums(j) obeys
    t_(j+1) = q t_j + A_j q^j z^(j_), A_j the coefficients' numerators over den.
    """
    from fallfact.exact import integer_numerators, lift
    zz = lift(z)
    q = math.lcm(zz.re.denominator, zz.im.denominator)
    zr, zi = int(zz.re * q), int(zz.im * q)
    nums, den = integer_numerators(series._exact_coeffs)
    scaled = [(0, 0, 1)]
    tr = ti = 0
    fr, fi = 1, 0  # q^n z^(n_)
    for n, (ar, ai) in enumerate(nums):
        tr, ti = tr * q + ar * fr - ai * fi, ti * q + ar * fi + ai * fr
        scaled.append((tr, ti, den * q ** n))
        dr = zr - n * q
        fr, fi = fr * dr - fi * zi, fr * zi + fi * dr

    def sums(j):
        tr, ti, scale = scaled[j]
        return ExactScalar(Fraction(tr, scale), Fraction(ti, scale))
    return sums


def _outcome(fn, *args, **kwargs):
    """Terms used, verdict and stop reason, or the index at which it overflowed."""
    try:
        res = fn(*args, **kwargs)
    except EvaluationOverflowError as exc:
        return ("overflow", exc.index)
    if hasattr(res, "reason"):
        return res.terms_used, res.converged, res.reason
    return res[1:]


def _identity_series():
    from fallfact.interp import newton_series
    from fallfact.riccati import riccati_equation
    from fallfact.solver import LinearDifferenceEquation, formal_solve
    order_half, _ = formal_solve(
        LinearDifferenceEquation("delta", (poly(1), poly(3), poly(6, 4))),
        {0: 1, 1: Fraction(-1, 2)}, 300)
    gauss, _ = formal_solve(riccati_equation(4, as_exact("6+2i"), as_exact("3-1i")),
                            {0: 1, 1: as_exact("-1/2+1/3i")}, 120)
    floats = newton_series([2.0 ** (k / 3) for k in range(60)])
    return order_half, gauss, floats


# a window decision of the old loop this close to its threshold may go
# either way in the kernel, which decides on other roundings of the same terms
WINDOW_MARGIN = 1e-6


def test_evaluate_encloses_the_exact_sum():
    from fallfact.exact import lift
    rng = random.Random(2024)
    points = [complex(1024.0 ** (k / 7) * math.cos(a), 1024.0 ** (k / 7) * math.sin(a))
              for k, a in ((k, rng.uniform(0, 2 * math.pi)) for k in range(8))]
    points += [7 + 0j, 7.0, 12, 2.25]
    settings = [dict(eps=eps) for eps in (1e-12, 1e-30)]
    settings.append(dict(eps=1e-12, n_max=40))
    compared = near = certified = 0
    inexact = [False] * 3  # some value differs from its exact sum
    for k, s in enumerate(_identity_series()):
        for z in points:
            sums = _exact_partial_sums(s, z)
            for bits in (128, 256):  # the same series object: memo keyed by precision
                for kw in settings:
                    res = evaluate(s, z, precision_bits=bits, **kw)
                    diff = lift(res.value) - sums(res.terms_used)
                    assert diff.abs_squared() <= Fraction(res.rounding_radius) ** 2, \
                        (s.origin, bits, z, kw, res)
                    inexact[k] = inexact[k] or not diff.is_zero()
                    margins = []
                    want = _reference_evaluate(s, z, precision_bits=bits, margins=margins,
                                               **kw)
                    if res.reason == "negligible":
                        # the radius covers every stored term, and the
                        # certificate stops no later than the old loop
                        full = lift(res.value) - sums(len(s.coeffs))
                        assert full.abs_squared() <= Fraction(res.rounding_radius) ** 2, \
                            (s.origin, bits, z, kw, res)
                        assert want[1] >= res.terms_used, (s.origin, bits, z, kw)
                        certified += 1
                    elif min(margins, default=1) < WINDOW_MARGIN:
                        near += 1
                    else:
                        got = (res.terms_used, res.converged, res.reason)
                        assert got == want[1:], (s.origin, bits, z, kw)
                    compared += 1
    assert compared == 3 * 2 * len(points) * len(settings)
    assert near <= compared // 20
    assert certified >= compared // 20
    # newton_series of floats stores binary64 values, which cast exactly: the
    # radius there holds nothing but the counted roundings, and they show
    assert inexact[2]


def test_rounding_radius_covers_rescales_that_add_up():
    # real z above every z - n: each rescale of z^(n_) floors it down, so the
    # relative errors grow in step and all terms err the same way.  Dyadic
    # a_n ~ 1/|z^(n_)| cast exactly and keep every term near 1, which makes
    # the rescales' share of the radius matter (without it, 1000 terms at
    # 53 bits miss the exact sum)
    from fallfact.exact import lift
    for z in (1e6 + 0.3, 12345.678):
        logs = [0.0]
        for k in range(999):
            logs.append(logs[-1] + math.log2(z - k))
        s = exact_series([Fraction(1, 2 ** round(v)) for v in logs])
        sums = _exact_partial_sums(s, z)
        res = evaluate(s, z, precision_bits=53)
        assert (res.reason, res.terms_used) == ("exhausted", 1000)
        diff = lift(res.value) - sums(1000)
        assert diff.abs_squared() <= Fraction(res.rounding_radius) ** 2, z


def test_evaluate_overflow_at_the_same_index():
    # the threshold is 10^100000 (series.OVERFLOW_EXPONENT): a first term
    # that rounds to it does not overflow, a slightly larger one does; odd
    # numerators keep the casts quick
    big = 10 ** 100000 + 1
    cases = [[big], [big + 10 ** 99990], [1, 3, big * 3 ** 40],
             [1] * 6 + [Fraction(big * 3, 7)], [Fraction(1, 3)] * 30]
    for coeffs in cases:
        s = exact_series(coeffs)
        for z in (0.5, complex(-40, 3)):
            for bits in (128, 256):
                want = _outcome(_reference_evaluate, s, z, precision_bits=bits)
                got = _outcome(evaluate, s, z, precision_bits=bits)
                assert got == want, (coeffs[-1], z, bits)
    with pytest.raises(EvaluationOverflowError) as exc:
        evaluate(exact_series(cases[2]), 0.5)
    assert exc.value.index == 2
    assert evaluate(exact_series(cases[0]), 0.5).reason == "exhausted"


def test_evaluate_exact_integer_points_match_fraction_sum():
    rng = random.Random(31)
    for _ in range(40):
        s = rand_series(rng, n_max=20)
        m = rng.randint(0, 25)
        for point in (m, 0, len(s.coeffs) + 3):  # m = 0 and m past the last a_n too
            want = sum((a * math.perm(point, n) for n, a in enumerate(s.coeffs)),
                       as_exact(0))
            assert evaluate_exact(s, point) == want
            assert evaluate_exact(s, as_exact(point)) == want


def test_evaluate_casts_each_coefficient_once_per_precision(monkeypatch):
    import fallfact.series as series_mod
    from fallfact.serialization import series_to_json
    casts = []
    real_to_mpc = series_mod.to_mpc

    def counting(x, ctx):
        if isinstance(x, ExactScalar):  # a coefficient, not the point
            casts.append(ctx.prec)
        return real_to_mpc(x, ctx)

    monkeypatch.setattr(series_mod, "to_mpc", counting)
    s, fresh = geometric_series(60), geometric_series(60)
    # |z| = 200 sums every stored term; the other points stop early
    points = [complex(200, 1), 2.25, complex(1, 3), complex(-5, 0.5), 0.75] * 4
    first = [_fields(evaluate(s, z)) for z in points]
    assert casts == [128] * len(s.coeffs)
    assert [_fields(evaluate(s, z)) for z in points] == first
    assert casts == [128] * len(s.coeffs)
    for z in points:
        evaluate(s, z, precision_bits=256)
    assert casts == [128] * len(s.coeffs) + [256] * len(s.coeffs)

    # summing a short prefix casts no more than a short prefix
    del casts[:]
    res = evaluate(fresh, 0.5)
    assert res.reason == "window" and len(casts) < len(fresh.coeffs)

    evaluate_exact(s, 40)
    assert set(s._memo) == {128, 256, "numerators", "ratios"}
    assert s == fresh and fresh == s
    assert hash(s) == hash(fresh)
    assert repr(s) == repr(fresh)
    assert series_to_json(s) == series_to_json(fresh)


def test_window_rule_is_exact_at_its_threshold():
    # 1 + 2^-40 z^(6_) + 5 z^(11_) at z = 1/2: the term at n = 6 = ceil|z| + 5
    # is -945 2^-46 and the partial sum lies in (0, 1), so the window rule
    # compares |term| with eps itself, which must exceed it strictly.  Terms
    # 7..10 vanish, so the window of five closes at n = 10 only when the term
    # at n = 6 is small; otherwise the large term at n = 11 breaks the streak
    s = exact_series([1, 0, 0, 0, 0, 0, Fraction(1, 2 ** 40), 0, 0, 0, 0, 5])
    at = 945 * 2.0 ** -46
    for eps, want in ((math.nextafter(at, 0), ("exhausted", 12)), (at, ("exhausted", 12)),
                      (math.nextafter(at, 1), ("window", 11))):
        for bits in (53, 128):
            res = evaluate(s, 0.5, eps, precision_bits=bits)
            assert (res.reason, res.terms_used) == want, (eps, bits)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_eps_outside_the_positive_floats_never_stops_by_the_window(eps):
    # at z = 1/2, eps 1e-12 stops this sum by the window after 36 of 61 terms
    s = geometric_series(60)
    stopped = evaluate(s, 0.5, 1e-12)
    assert (stopped.reason, stopped.terms_used) == ("window", 36)
    for bits in (53, 128):
        full = evaluate(s, 0.5, eps, precision_bits=bits)
        assert (full.reason, full.terms_used, full.converged) == ("exhausted", 61, True)
        assert full.tail_bound == 0.0
        assert full.value == evaluate(s, 0.5, 1e-300, precision_bits=bits).value
        capped = evaluate(s, 0.5, eps, 40, precision_bits=bits)
        assert (capped.reason, capped.terms_used, capped.converged) == ("n_max", 41, False)
        assert capped.tail_bound == math.inf  # no ratio was read


def test_a_large_term_restarts_the_window():
    # at z = 1/2 the window may close from n = 6 on; the terms at 6..9 are
    # zero, so small, and the term at 10 is not, so the run of five closes at
    # n = 15 and not at n = 11, where a window that skipped the large term
    # would close.  The tail 10^-30 is small for eps but not below one unit
    # of the sum, and its ratios (|z - m| >= 1) certify no remainder
    c = Fraction(1, 10 ** 30)
    s = exact_series([1] + [0] * 9 + [1] + [c] * 10)
    res = evaluate(s, 0.5, 1e-12)
    assert (res.reason, res.terms_used, res.converged) == ("window", 16, True)
    assert res.tail_bound == math.inf  # the ratios certify no remainder
    # four small terms are one short of a window
    assert evaluate(exact_series([1] + [0] * 9 + [1] + [c] * 4), 0.5, 1e-12).reason == \
        "exhausted"
    # a tail of zeros is certified zero after the last nonzero term
    zeros = evaluate(exact_series([1] + [0] * 9 + [1] + [0] * 10), 0.5, 1e-12)
    assert (zeros.reason, zeros.terms_used, zeros.tail_bound) == ("negligible", 11, 0.0)


_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))


@st.composite
def _decaying_series(draw):
    """Small exact series (real or Gaussian) with interior and trailing zeros,
    scaled by c^n/n!^k so that some sums end long before their last term;
    a plain one is c^n/n!^k times one constant."""
    n_terms = draw(st.integers(1, 40))
    gaussian, plain = draw(st.booleans()), draw(st.booleans())
    c = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(3)]))
    k = draw(st.sampled_from([1, 2]))
    coeffs = []
    for n in range(n_terms):
        if not n or not plain:
            re = draw(_coefficients)
            im = draw(_coefficients) if gaussian else Fraction(0)
        coeffs.append(ExactScalar(re, im) * (c ** n / math.factorial(n) ** k))
    coeffs += [ExactScalar(0)] * draw(st.integers(0, 6))
    return exact_series(coeffs)


# real or complex, |z| from about 2^-6 to 30; scaling by a power of two keeps
# every point a binary float, which casts exactly
_points = st.builds(lambda x, y, scale: complex(x * scale, y * scale),
                    st.floats(-2, 2), st.floats(-2, 2), st.sampled_from([2 ** -6, 1, 15])) | \
    st.floats(-30, 30)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_decaying_series(), _points, st.sampled_from([53, 64, 128, 200]),
       st.sampled_from([1e-6, 1e-12, 1e-30]), st.sampled_from([10000, 5]))
# near z = 0, |z - m| is about m: a bound on |a_(m+1)/a_m| |z| alone would
# stop after the tiny term a_1 z and drop a_2 z (z - 1), which is as large
@example(exact_series([0, 1, 1]), 2.0 ** -100, 53, 1e-12, 10000)
# every stored term summed, and an integer point whose later terms vanish
@example(exact_series([1, 1, 1]), 0.5, 53, 1e-12, 10000)
@example(exact_series([1, 2, 3, 4]), 2.0, 53, 1e-12, 10000)
# a cap ahead of the stop, where the ratios 1/(m+1)^2 still certify the rest
@example(exact_series([Fraction(1, math.factorial(n) ** 2) for n in range(12)]), 0.5, 53,
         1e-30, 3)
def test_tail_bound_covers_the_stored_remainder(s, z, bits, eps, n_max):
    # whatever stopped the sum, a finite tail_bound is at least the exact
    # sum of the stored terms left out (z as given, which casts exactly),
    # and 0.0 when none is left.  A "negligible" stop's radius covers the
    # exact sum of every stored term, and it comes no later than the old
    # loop's stop, unless that loop's window decision was too close to call
    from fallfact.exact import lift
    res = evaluate(s, z, eps, n_max, precision_bits=bits)
    event(res.reason)
    event("finite tail" if res.tail_bound < math.inf else "infinite tail")
    sums = _exact_partial_sums(s, z)
    full = sums(len(s.coeffs))
    if res.tail_bound < math.inf:
        rest = full - sums(res.terms_used)
        assert rest.abs_squared() <= Fraction(res.tail_bound) ** 2, res
    if res.reason in ("exhausted", "integer"):
        assert res.tail_bound == 0.0
    if res.reason != "negligible":
        return
    assert (lift(res.value) - full).abs_squared() <= Fraction(res.rounding_radius) ** 2
    assert res.converged and 0 <= res.tail_bound < math.inf
    margins = []
    old = _reference_evaluate(s, z, eps, n_max, precision_bits=bits, margins=margins)
    if min(margins, default=1) >= WINDOW_MARGIN:
        assert old[1] >= res.terms_used


def _tiny(shift):
    return [Fraction(1, 2 ** shift * math.factorial(2 * n)) for n in range(60)]


@pytest.mark.parametrize("coeffs, z, reason", [
    # a_n = 2^-shift/(2n)!: the window stops the sum with stored terms left
    # whose sum lies below the least subnormal
    *(pytest.param(_tiny(shift), z, "window", id=f"shift{shift}-{z_id}")
      for shift in (1050, 1200) for z, z_id in ((0.5, "0.5"), (complex(3.25, 1), "3.25+1i"))),
    # S[0] |z| = 2^-10 |z| rounds to 0.0 or loses bits below the normal range
    *(pytest.param([1, Fraction(1, 1024)], z, "negligible", id=f"short-{z}")
      for z in (5e-324, 1e-320, complex(5e-324, 5e-324))),
])
def test_tail_bound_below_the_float_range_is_not_zero(coeffs, z, reason):
    # tail_bound rounds the positive sum of the stored terms left out up
    from fallfact.exact import lift
    from fallfact.series import _exact_terms
    s = exact_series(coeffs)
    res = evaluate(s, z)
    assert res.reason == reason and res.terms_used < len(s.coeffs)
    rest = sum(list(_exact_terms(s, lift(z)))[res.terms_used:], ExactScalar())
    assert res.tail_bound > 0
    assert rest.abs_squared() <= Fraction(res.tail_bound) ** 2


# ---------------------------------------------------------------------------
# the rounding radius and the point, taken in integers
# ---------------------------------------------------------------------------

def _float_up_oracle(q: Fraction) -> float:
    """The least float >= q >= 0, inf above the float range, by Fraction."""
    if not q:
        return 0.0
    try:
        f = float(q)
    except OverflowError:
        return math.inf
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 200), st.integers(-1400, 1100),
       st.one_of(st.just(1), st.integers(1, 2 ** 90)))
@example(1, -1075, 1)                     # below the least subnormal
@example(3, -1076, 1)
@example(1, -1074, 1)                     # the least subnormal itself
@example(2 ** 52 + 1, -1074, 1)           # just above the normal range's start
@example(2 ** 53 + 1, 0, 1)               # needs 54 bits: rounds up
@example(2 ** 53 - 1, 971, 1)             # the largest float
@example(2 ** 54 - 1, 970, 1)             # just below 2^1024: inf
@example(1, 1024, 1)
@example(10 ** 40, -1200, 3)
def test_float_up_is_the_least_float_at_or_above(num, exp, den):
    from fallfact.series import _float_up
    want = _float_up_oracle(Fraction(num, den) * Fraction(2) ** exp)
    assert _float_up(num, exp, den) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 80), st.integers(-400, 400),
       st.one_of(st.just(1), st.integers(1, 2 ** 40)),
       st.integers(-2 ** 60, 2 ** 60), st.integers(-2 ** 60, 2 ** 60), st.integers(-300, 300),
       st.floats(1e-300, 1e300))
# at eps = 2^-10: a radius of exactly eps |value| stands, one bit more does not,
# and |value| = 1.5 widens what stands; a denominator off the power of two
@example(2 ** 20, -30, 1, 1, 0, 0, 2.0 ** -10)
@example(2 ** 20 + 1, -30, 1, 1, 0, 0, 2.0 ** -10)
@example(2 ** 20 + 1, -30, 1, 3, 0, -1, 2.0 ** -10)
@example(3 * 2 ** 20 + 1, -30, 3, 0, 1, -2, 2.0 ** -10)
@example(3 * 2 ** 20, -30, 3, 0, 1, -2, 2.0 ** -10)
def test_precision_verdict_compares_the_exact_radius(err, exp, den, v_re, v_im, ev, eps):
    # "precision" exactly when err/den 2^exp > eps max(1, |value|), also far
    # outside the float range on either side
    from mpmath.libmp import from_man_exp
    from fallfact.exact import lift
    from fallfact.series import EvaluationResult, _defended, _eps_squared
    ctx = make_context(128)
    value = ctx.make_mpc((from_man_exp(v_re, ev), from_man_exp(v_im, ev)))
    got = _defended(EvaluationResult(value, 1, 0.0, True, "window", 0.0),
                    *_eps_squared(eps, ctx), err, exp, den)
    radius = Fraction(err, den) * Fraction(2) ** exp
    stands = radius ** 2 <= Fraction(eps) ** 2 * max(1, lift(value).abs_squared())
    assert (got.converged, got.reason) == ((True, "window") if stands else (False, "precision"))


def _float_sample_series(values):
    from fallfact.interp import newton_series
    return newton_series(values)


_radius_series = st.one_of(
    _decaying_series(),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12).map(_float_sample_series))
_radius_points = st.one_of(
    _points,
    st.integers(-5, 40),
    st.sampled_from([1e-320, complex(1e-320, -3e-321), 5e-324, 1e300, complex(-1e300, 2e299),
                     40 + 1e-30j]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_radius_series, _radius_points, st.integers(53, 300), st.sampled_from([10000, 5, 2]))
@example(exact_series([1, 2, 3]), 1e300, 53, 5)           # a radius above the float range
@example(exact_series([Fraction(1, 3)] * 4), 1e-320, 200, 10000)
@example(exact_series([Fraction(1, 3), Fraction(2, 7)]), 7, 53, 10000)  # integer point
# terms near 1e8 cancel to 1e-8: at 53 bits the radius exceeds eps |value|
@example(exact_series([Fraction((-1) ** n, math.factorial(n)) for n in range(40)]), 30.5, 53,
         10000)
def test_rounding_radius_is_the_fraction_expression(s, z, bits, n_max):
    # the radius evaluate computes in integers equals, bit for bit, the least
    # float at or above the exact rational it bounds, written in Fraction:
    # units 2^exp + |sum - value| in the sum, |total - value| at an integer
    from unittest import mock
    import fallfact.series as series_mod
    from fallfact.exact import lift
    kernel = series_mod._fixed_point_sum
    sums = []

    def spy(*args):
        sums.append(kernel(*args))
        return sums[-1]

    with mock.patch.object(series_mod, "_fixed_point_sum", spy):
        res = evaluate(s, z, 1e-12, n_max, precision_bits=bits)
    value = lift(res.value)
    if sums:
        re, im, exp, units = sums[0][:4]
        scale = Fraction(2) ** exp
        err = ExactScalar(re * scale, im * scale) - value
        radius = units * scale + abs(err.re) + abs(err.im)
        event("summed, radius inf" if _float_up_oracle(radius) == math.inf else "summed")
    else:
        err = evaluate_exact(s, lift(z)) - value
        radius = abs(err.re) + abs(err.im)
        event("integer")
    assert res.rounding_radius == _float_up_oracle(radius)
    event(res.reason)
    # the verdict compares that exact radius, not its float
    defended = radius ** 2 <= Fraction(1e-12) ** 2 * max(1, value.abs_squared())
    if res.reason == "precision":
        assert not defended
    elif res.converged:
        assert defended


_SAMPLE_POINTS = [0, 0.0, -0.0, 5e-324, -1e-320, 2.2250738585072014e-308, 1e308,
                  -1.7976931348623157e308, 0.5, 1 / 3, -2.75, True, False, 1, -7, 2 ** 52 + 1,
                  2 ** 53 + 1, -(2 ** 200) + 1, 10 ** 40 + 1, complex(-0.0, 1e-320),
                  complex(1e308, -5e-324), complex(3, 0), 40 + 1e-30j]


@pytest.mark.parametrize("bits", [53, 64, 128, 300])
def test_points_are_taken_apart_as_their_cast_gives_them(bits):
    # floats, complex and ints that fit the precision are read without a
    # cast; larger ints are cast and rounded, as every other type is
    from fallfact.exact import to_mpc
    from fallfact.series import _gaussian, _point
    ctx = make_context(bits)
    points = _SAMPLE_POINTS + [2 ** bits - 1, 2 ** bits + 1, -(2 ** (bits + 7)) - 3]
    for z in points:
        assert _point(z, ctx) == _gaussian(to_mpc(z, ctx)._mpc_, 0), (z, bits)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.complex_numbers(allow_nan=False, allow_infinity=False),
                 st.integers(-2 ** 140, 2 ** 140)),
       st.sampled_from([53, 64, 128]))
def test_any_finite_point_is_taken_apart_as_its_cast_gives_it(z, bits):
    from fallfact.exact import to_mpc
    from fallfact.series import _gaussian, _point
    ctx = make_context(bits)
    assert _point(z, ctx) == _gaussian(to_mpc(z, ctx)._mpc_, 0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(math.nan, 0),
                               complex(0, -math.inf)])
def test_non_finite_points_are_refused(z):
    with pytest.raises(ValueError, match="cannot evaluate with a non-finite value"):
        evaluate(geometric_series(10), z)


def test_min_index_is_ceil_of_the_rounded_modulus():
    # |40 + 1e-30 i| exceeds 40 by 1.25e-62, which 128 bits round away, so
    # the window may close from n = 45 on, not 46.  The terms past n = 40
    # carry the factor z - 40 = 1e-30 i and are small at once; the ratios 1
    # certify no remainder, so the window closes at n = 49
    s = exact_series([1] * 61)
    z = 40 + 1e-30j
    res = evaluate(s, z)
    assert (res.terms_used, res.converged, res.reason) == (50, True, "window")
    assert _reference_evaluate(s, z)[1:] == (50, True, "window")


def test_threads_share_the_cast_memo_safely():
    # threads grow the same prefixes in different orders under a short switch
    # interval; a racing store may repeat a cast but never keep a wrong one
    import sys
    import threading
    from fallfact.exact import lift, to_mpc
    s, fresh = geometric_series(120), geometric_series(120)
    points = [complex(300 / (k + 1) * math.cos(k), 300 / (k + 1) * math.sin(k))
              for k in range(12)]
    want = {bits: [_fields(evaluate(fresh, z, precision_bits=bits)) for z in points]
            for bits in (128, 256)}
    got, errors = {}, []

    def work(k):
        try:
            order = points[k:] + points[:k]
            for bits in (128, 256) if k % 2 else (256, 128):
                res = {z: _fields(evaluate(s, z, precision_bits=bits)) for z in order}
                got[k, bits] = [res[z] for z in points]
        except Exception as exc:  # reported below with the thread's index
            errors.append((k, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    assert len(got) == 12
    for (k, bits), values in got.items():
        assert values == want[bits], (k, bits)
    for bits in (128, 256):
        ctx = make_context(bits)
        cast = s._memo[bits]
        assert len(cast) >= 100
        for a, (re, im, exp, rounded) in zip(s.coeffs, cast):
            value = lift(to_mpc(a, ctx))
            assert ExactScalar(Fraction(re) * Fraction(2) ** exp,
                               Fraction(im) * Fraction(2) ** exp) == value
            assert rounded == (value != a)


def test_one_context_per_precision_under_concurrent_first_use(monkeypatch):
    # threads meet an empty cache at once; each may build a context, but all
    # results come back in the one that was stored, at the right precision
    import sys
    import threading
    import time
    import fallfact.series as series_mod
    s = geometric_series(60)
    want = complex(evaluate(geometric_series(60), 2.25, precision_bits=192).value)
    monkeypatch.setattr(series_mod, "_CONTEXTS", {})
    built = []

    def slow_make_context(bits):
        built.append(bits)
        time.sleep(0.01)  # widen the window in which others miss the cache
        return make_context(bits)

    monkeypatch.setattr(series_mod, "make_context", slow_make_context)
    results, errors = [], []

    def work():
        try:
            results.append(evaluate(s, 2.25, precision_bits=192))
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors and len(results) == 6
    assert built and set(built) == {192}
    (shared,) = series_mod._CONTEXTS.values()
    assert shared.prec == 192
    for res in results:
        assert res.value.context is shared
        assert complex(res.value) == want
    # later calls reuse it and build nothing
    count = len(built)
    assert evaluate(s, complex(1, 3), precision_bits=192).value.context is shared
    assert len(built) == count
