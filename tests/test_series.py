import math
import random
from fractions import Fraction

import pytest

from fallfact.errors import EvaluationOverflowError
from fallfact.exact import ExactScalar, as_exact
from fallfact.polynomial import Polynomial, poly
from fallfact.series import (BinomialSeries, approx_series, binomial_from_taylor,
                             delta, evaluate, evaluate_exact, exact_series,
                             linear_combine, make_context, mul_by_poly,
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
    for _ in range(50):
        s = rand_series(rng)
        p = Polynomial(tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))))
        x = rand_point(rng)
        assert evaluate_exact(mul_by_poly(s, p), x) == p(x) * evaluate_exact(s, x)


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
    # numeric integer input takes the numeric fast path, same value
    res2 = evaluate(s, 8.0)
    assert res2.reason == "integer"
    assert abs(complex(res2.value)) < 1e-30


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
    # integer point but the cap stops short of it: that is a truncation
    s = approx_series([1.0] * 20)
    res = evaluate(s, 8, n_max=3)
    assert not res.converged
    assert res.reason == "n_max"
    # with an adequate cap the integer rule applies again
    ok = evaluate(s, 8, n_max=15)
    assert ok.converged and ok.reason == "integer"


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
    s = approx_series([1.0, 0.5, 0.25, 0.1], precision_bits=128)
    lifted = exact_series([Fraction(c) for c in s.coeffs])
    t = taylor_from_binomial(s, 3)
    assert t.coeffs == taylor_from_binomial(lifted, 3).coeffs
    assert binomial_from_taylor(t.coeffs, 3).coeffs == lifted.coeffs
    dyadic = [1.0, -0.25, 0.75]  # floats given to binomial_from_taylor
    back = binomial_from_taylor(dyadic, 2)
    assert back.regime == "exact"
    assert back.coeffs == binomial_from_taylor([Fraction(b) for b in dyadic], 2).coeffs


# ---------------------------------------------------------------------------
# evaluate on raw tuples: bit-identical to the context-object loop
# ---------------------------------------------------------------------------

def _reference_evaluate(series, z, eps=1e-12, n_max=10000, *, precision_bits=None,
                        window=5):
    """The ctx.mpc loop evaluate ran before the cast memo, kept as an oracle."""
    from fallfact.exact import to_mpc
    from fallfact.series import (OVERFLOW_EXPONENT, _as_integer_point,
                                 _exact_term_magnitude, _geometric_tail)
    if precision_bits is None:
        precision_bits = series.precision_bits
    ctx = make_context(precision_bits)
    zz = to_mpc(z, ctx)
    if series.regime == "exact" and isinstance(z, (int, Fraction, ExactScalar)) \
            and not isinstance(z, bool):
        ze = as_exact(z)
        if ze.is_integer() and ze.re >= 0:
            m = int(ze.re)
            stop = min(m, len(series.coeffs) - 1)
            return (to_mpc(evaluate_exact(series, ze), ctx), max(stop + 1, 0),
                    _exact_term_magnitude(series, m, stop), 0.0, True, "integer")
    m = _as_integer_point(zz, ctx)
    limit = len(series.coeffs) - 1
    reason = "exhausted"
    if m is not None and m < limit:
        limit, reason = m, "integer"
    capped = False
    if n_max < limit:
        limit, capped = n_max, True
    eps_mp = ctx.mpf(eps)
    overflow = ctx.mpf(10) ** OVERFLOW_EXPONENT
    min_index = int(ctx.ceil(abs(zz))) + 5
    partial, ff = ctx.mpc(0), ctx.mpc(1)
    mags, streak, terms_used, mag, by_window = [], 0, 0, ctx.mpf(0), False
    for n in range(limit + 1):
        term = to_mpc(series.coeffs[n], ctx) * ff
        partial += term
        mag = abs(term)
        mags.append(mag)
        terms_used = n + 1
        if mag > overflow:
            raise EvaluationOverflowError(n)
        if n >= min_index and mag < eps_mp * max(ctx.mpf(1), abs(partial)):
            streak += 1
            if streak >= window:
                by_window = True
                break
        else:
            streak = 0
        ff *= zz - n
    if by_window:
        converged, reason, tail = True, "window", _geometric_tail(mags, window)
    elif capped:
        converged, reason, tail = False, "n_max", math.inf
    else:
        converged, tail = True, 0.0
    last = float(mag) if terms_used else 0.0
    return partial, terms_used, last, tail, converged, reason


def _fields(res):
    return (res.value, res.terms_used, res.last_term_magnitude, res.tail_bound,
            res.converged, res.reason)


def _outcome(fn, *args, **kwargs):
    """Every field of the result, or the index at which it overflowed."""
    try:
        res = fn(*args, **kwargs)
    except EvaluationOverflowError as exc:
        return ("overflow", exc.index)
    return _fields(res) if hasattr(res, "reason") else res


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


def test_evaluate_bit_identical_to_object_loop():
    rng = random.Random(2024)
    points = [complex(1024.0 ** (k / 7) * math.cos(a), 1024.0 ** (k / 7) * math.sin(a))
              for k, a in ((k, rng.uniform(0, 2 * math.pi)) for k in range(8))]
    points += [7 + 0j, 7.0, 12, 2.25]
    settings = [dict(eps=eps, window=w) for eps in (1e-12, 1e-30) for w in (1, 7)]
    settings.append(dict(eps=1e-12, n_max=40))
    compared = 0
    for s in _identity_series():
        for bits in (128, 256):  # the same series object: memo keyed by precision
            for z in points:
                for kw in settings:
                    want = _outcome(_reference_evaluate, s, z, precision_bits=bits, **kw)
                    got = _outcome(evaluate, s, z, precision_bits=bits, **kw)
                    assert got == want, (s.origin, bits, z, kw)
                    compared += 1
    assert compared == 3 * 2 * len(points) * len(settings)


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


def test_evaluate_exact_integer_points_match_fraction_sum():
    rng = random.Random(31)
    for _ in range(40):
        s = rand_series(rng, n_max=20)
        m = rng.randint(0, 25)
        want = sum((a * math.perm(m, n) for n, a in enumerate(s.coeffs)), as_exact(0))
        assert evaluate_exact(s, m) == want
        assert evaluate_exact(s, as_exact(m)) == want


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
    assert set(s._memo) == {128, 256, "numerators"}
    assert s == fresh and fresh == s
    assert hash(s) == hash(fresh)
    assert repr(s) == repr(fresh)
    assert series_to_json(s) == series_to_json(fresh)


def test_window_test_decided_like_the_objects_near_its_threshold():
    # terms within a few binades of eps * max(1, |partial|), where the
    # exponent bounds must either be right or leave the test to the magnitudes
    from fallfact.series import _below_window, _top_exponent
    rng = random.Random(77)
    for bits in (128, 256):
        ctx = make_context(bits)
        prec, rnd = ctx._prec_rounding
        for eps in (1e-12, 1e-30, 0.75, 3.0):
            eps_mp = ctx.mpf(eps)
            eps_top = eps_mp._mpf_[2] + eps_mp._mpf_[3]
            for _ in range(400):
                size = ctx.mpf(2) ** rng.randint(-6, 6) * rng.uniform(0.5, 2)
                partial = ctx.mpc(*[size * rng.uniform(-1, 1) for _ in range(2)])
                target = eps_mp * max(ctx.mpf(1), abs(partial))
                scale = target * ctx.mpf(2) ** rng.randint(-4, 3) * rng.uniform(0.5, 2)
                parts = [scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1)]
                if rng.random() < 0.2:
                    parts[rng.randrange(2)] = ctx.mpf(0)
                term = ctx.mpc(*parts)
                want = abs(term) < eps_mp * max(ctx.mpf(1), abs(partial))
                got = _below_window(term._mpc_, _top_exponent(term._mpc_), partial._mpc_,
                                    eps_mp._mpf_, eps_top, prec, rnd)
                assert got == want, (bits, eps, term, partial)


def test_threads_share_the_cast_memo_safely():
    # threads grow the same prefixes in different orders under a short switch
    # interval; a racing store may repeat a cast but never keep a wrong one
    import sys
    import threading
    from fallfact.exact import to_mpc
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
        assert cast == tuple(to_mpc(a, ctx)._mpc_ for a in s.coeffs[:len(cast)])
