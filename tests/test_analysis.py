import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallfact.analysis import (ENTIRE, RIGHT_HALF_PLANE, UNKNOWN, ModulusProfile,
                               _exact_peak_of_an_nfact, _rounded_abs_squared_numerator,
                               chi_estimate, classify, fit_order_type, log_abs,
                               modulus_profile)
from fallfact.exact import ExactScalar
from fallfact.series import evaluate, exact_series


def inv_double_factorial(n_count):
    return [ExactScalar(Fraction((-1) ** n, math.factorial(2 * n)))
            for n in range(n_count)]


def inv_factorial(n_count):
    return [ExactScalar(Fraction((-1) ** n, math.factorial(n)))
            for n in range(n_count)]


# ---------------------------------------------------------------------------
# log_abs
# ---------------------------------------------------------------------------

def test_log_abs_kinds():
    assert log_abs(ExactScalar(0)) is None
    assert log_abs(Fraction(0)) is None
    assert log_abs(0) is None
    assert log_abs(Fraction(1, 8)) == pytest.approx(-3 * math.log(2))
    assert log_abs(ExactScalar(Fraction(3), Fraction(4))) == pytest.approx(math.log(5))
    assert log_abs(complex(0, 2)) == pytest.approx(math.log(2))
    # huge exact values must not overflow through float conversion
    assert log_abs(Fraction(10) ** 100000) == pytest.approx(100000 * math.log(10))


def _round53(n):
    """The positive int n rounded to 53 significant bits, ties to even, at any size."""
    shift = max(n.bit_length() - 53, 0)
    return round(Fraction(n, 1 << shift)) << shift


def _exact_squares(a):
    """X^2 + Y^2 = |a|^2 (q_re q_im)^2, formed exactly."""
    x = a.re.numerator * a.im.denominator
    y = a.im.numerator * a.re.denominator
    return x * x + y * y


def _sized(max_bits):
    return st.integers(1, max_bits).flatmap(
        lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def _near_midpoint(mant, k, offset):
    # (2 mant + 1) 2^k lies halfway between two doubles; p^2 lands within
    # about 2p of it, where the top bits of p cannot decide the rounding
    return math.isqrt((2 * mant + 1) << k) + offset


signed_parts = st.builds(lambda n, d, neg: Fraction(-n if neg else n, d),
                         _sized(20000), _sized(20000), st.booleans())
small_parts = st.builds(Fraction, st.integers(-9, 9), _sized(30))
gaussians = st.one_of(
    st.builds(ExactScalar, signed_parts, signed_parts),
    st.builds(ExactScalar, st.just(Fraction(0)), signed_parts),
    st.builds(ExactScalar, small_parts, signed_parts),
    st.builds(ExactScalar, signed_parts, small_parts),
    st.builds(lambda p, re, q: ExactScalar(re, Fraction(p, q)),
              st.builds(_near_midpoint, st.integers(1 << 52, (1 << 53) - 1),
                        st.integers(140, 4000), st.integers(-3, 3)),
              st.one_of(st.just(Fraction(0)), small_parts), _sized(8)),
).filter(lambda a: a.im)


@settings(max_examples=300, deadline=None)
@given(gaussians)
def test_log_abs_gaussian_equals_the_exact_squares_formula(a):
    exact = _exact_squares(a)
    assert _round53(_rounded_abs_squared_numerator(a)) == _round53(exact)
    assert log_abs(a) == 0.5 * math.log(exact) - math.log(a.re.denominator) \
        - math.log(a.im.denominator)


def test_log_abs_falls_back_to_exact_squares_where_top_bits_straddle():
    # p^2 sits just above the midpoint (2 mant + 1) 2^375 between two
    # doubles; p cut to its top 96 bits squares to below it
    p = _near_midpoint(6673978343867982, 375, 1)
    t = p.bit_length() - 96
    truncated = (p >> t << t) ** 2
    assert _round53(truncated) != _round53(p * p)
    a = ExactScalar(0, p)
    assert _round53(_rounded_abs_squared_numerator(a)) == _round53(p * p)
    # here the rounding reaches the last bit of ln|a|
    assert 0.5 * math.log(_round53(truncated)) != 0.5 * math.log(p * p)
    assert log_abs(a) == 0.5 * math.log(p * p)


# ---------------------------------------------------------------------------
# chi estimates
# ---------------------------------------------------------------------------

def test_chi_inverse_double_factorial_frozen():
    est = chi_estimate(inv_double_factorial(1001))
    # limit is 1/2; the finite-N window maximum sits slightly above
    assert est.value == pytest.approx(0.5255813059867875, abs=1e-12)
    assert 0.50 < est.value < 0.54
    tail = [s for n, s in est.s_trace if n >= 750]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_chi_inverse_factorial_frozen():
    est = chi_estimate(inv_factorial(1001))
    assert est.value == pytest.approx(1.189931377372822, abs=1e-12)
    assert est.value > 1.0


def test_chi_exact_on_constructed_sequence():
    # |a_n| = n^(-2n) gives s_n = 1/2 at every usable index
    coeffs = [ExactScalar(0), ExactScalar(1)] + [
        ExactScalar(Fraction(1, n ** (2 * n))) for n in range(2, 200)]
    est = chi_estimate(coeffs)
    assert est.value == pytest.approx(0.5, abs=1e-14)
    assert not est.undefined


def test_chi_zero_sequence_and_short_input():
    est = chi_estimate([ExactScalar(0)] * 40)
    assert est.value == 0.0
    assert est.zero_sequence
    with pytest.raises(ValueError):
        chi_estimate([ExactScalar(1)] * 10)


def test_chi_undefined_when_window_has_no_usable_terms():
    # |a_n| >= 1 throughout: s_n is undefined everywhere
    est = chi_estimate([ExactScalar(Fraction(n + 1)) for n in range(40)])
    assert est.undefined
    assert est.value == math.inf


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_entire_and_half_plane():
    fast = classify(inv_double_factorial(401))
    assert fast.kind == ENTIRE
    assert fast.chi < 0.9
    slow = classify(inv_factorial(401))
    assert slow.kind == RIGHT_HALF_PLANE
    assert slow.k_bound == pytest.approx(1.0)  # |a_n| n! = 1 for all n
    assert slow.k_index == 0


def test_classify_geometric_half_plane():
    coeffs = [ExactScalar(Fraction(1, 2) ** n / math.factorial(n))
              for n in range(101)]
    got = classify(coeffs)
    assert got.kind == RIGHT_HALF_PLANE
    assert got.chi == pytest.approx(1.0680700888207217, abs=1e-12)


def test_classify_everywhere_divergent_is_unknown():
    # a_n = n!: no K with |a_n| n! <= K, chi undefined
    got = classify([ExactScalar(Fraction(math.factorial(n))) for n in range(60)])
    assert got.kind == UNKNOWN
    assert got.chi_undefined


def _peaked(bumps=None):
    """a_n = s_n (3+4i)/n! over 40 indices, so |a_n|^2 n!^2 = 25 s_n^2, with
    s_n = bumps[n] where given and 1 elsewhere."""
    bumps = bumps or {}
    return [ExactScalar(Fraction(3), Fraction(4)) * bumps.get(n, 1)
            / math.factorial(n) for n in range(40)]


def _peak(coeffs):
    return _exact_peak_of_an_nfact(coeffs, [log_abs(c) for c in coeffs])


def test_peak_exact_ties_give_the_first_index():
    assert _peak(_peaked()) == (math.log(25), 0)
    lower_start = _peaked({n: Fraction(1, 2) for n in range(5)})
    assert _peak(lower_start)[1] == 5
    got = classify(lower_start)
    assert (got.kind, got.k_index) == (RIGHT_HALF_PLANE, 5)
    assert got.k_bound == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("eps", [Fraction(1, 10 ** 15), Fraction(1, 10 ** 30)])
def test_peak_near_ties_resolve_exactly(eps):
    # a bump of 1 + eps wins, at its own index, over exact ties before it
    _, idx = _peak(_peaked({7: 1 + eps}))
    assert idx == 7
    # a dip of 1 - eps loses to the first of the ties
    _, idx = _peak(_peaked({0: 1 - eps, 1: 1 - eps}))
    assert idx == 2
    # two bumps that differ by eps: the larger wins, wherever it sits
    _, idx = _peak(_peaked({3: 2, 9: 2 + eps}))
    assert idx == 9
    _, idx = _peak(_peaked({3: 2 + eps, 9: 2}))
    assert idx == 3


def test_peak_log_is_that_of_the_exact_winner():
    # parts of thousands of bits, |a_n| n! about 10.6^n / n!, so the peak is
    # near n = 10: log_best is the log of the winner's unreduced
    # |a_n|^2 n!^2, as the exact comparison forms it
    coeffs = [ExactScalar(Fraction(3 ** (n * 40) + 1, 2 ** (n * 60)),
                          Fraction(5 ** (n * 30), 7 ** (n * 25) + 2))
              / math.factorial(n) ** 2 for n in range(30)]
    log_best, idx = _peak(coeffs)
    values = [(c.abs_squared() * math.factorial(n) ** 2, n)
              for n, c in enumerate(coeffs)]
    _, want = max(values, key=lambda v: (v[0], -v[1]))
    assert idx == want == 10
    a = coeffs[want]
    den = (a.re.denominator * a.im.denominator) ** 2
    assert log_best == math.log(_exact_squares(a) * math.factorial(want) ** 2) \
        - math.log(den)


def test_classify_zero_sequence_is_entire():
    got = classify([ExactScalar(0)] * 20)
    assert got.kind == ENTIRE
    assert got.chi == 0.0


# ---------------------------------------------------------------------------
# modulus profile and order/type fitting
# ---------------------------------------------------------------------------

def test_modulus_profile_constant_series():
    s = exact_series([7])
    prof = modulus_profile(lambda z: evaluate(s, z), [2.0, 8.0],
                           samples_per_circle=12)
    assert prof.valid == (True, True)
    for m in prof.max_modulus:
        assert m == pytest.approx(7.0, rel=1e-9)


def test_modulus_profile_marks_failures():
    # coefficients 1: diverges at non-integer points, so every circle fails
    s = exact_series([1] * 300)
    prof = modulus_profile(lambda z: evaluate(s, z, 1e-12, n_max=80), [4.0],
                           samples_per_circle=6)
    assert prof.valid == (False,)
    assert prof.max_modulus == (None,)


@pytest.mark.parametrize("samples, per_circle", [(64, 64), (65, 66), (22, 22), (1, 2)])
def test_modulus_profile_samples_the_negative_axis_once(samples, per_circle):
    s = exact_series([7])
    seen = []

    def counting(z):
        seen.append(z)
        return evaluate(s, z)

    modulus_profile(counting, [2.0, 8.0], samples_per_circle=samples)
    assert len(seen) == 2 * per_circle
    assert seen.count(complex(-2.0, 2.0 * math.sin(math.pi))) == 1
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("bad", [-4.0, math.inf, math.nan])
def test_modulus_profile_refuses_bad_radii_before_evaluating(bad):
    seen = []
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad:g}$"):
        modulus_profile(seen.append, [2.0, bad, 8.0])
    assert seen == []


def test_fit_order_type_synthetic():
    # log M(r) = 2 sqrt(r): order 1/2, type 2
    radii = (16.0, 64.0, 256.0, 1024.0)
    prof = ModulusProfile(radii,
                          tuple(math.exp(2.0 * math.sqrt(r)) for r in radii),
                          (True,) * 4, 1)
    fit = fit_order_type(prof)
    assert fit.rho_fit == pytest.approx(0.5, abs=1e-9)
    assert fit.tau_fit == pytest.approx(2.0, rel=1e-9)
    assert fit.radii_used == radii


def test_fit_order_type_drops_unusable_radii():
    prof = ModulusProfile((2.0, 4.0, 8.0, 16.0, 32.0),
                          (0.5, math.e ** 2, math.e ** 4, None, math.e ** 8),
                          (True, True, True, False, True), 1)
    fit = fit_order_type(prof)
    assert fit.radii_used == (4.0, 8.0, 32.0)
    # r = 0 with M(0) > 1 is dropped too: ln 0 is undefined
    with_zero = fit_order_type(ModulusProfile((0.0,) + prof.radii, (2.0,) + prof.max_modulus,
                                              (True,) + prof.valid, 1))
    assert with_zero == fit
    with pytest.raises(ValueError):
        fit_order_type(ModulusProfile((4.0, 8.0), (10.0, 10.0), (True, True), 1))
