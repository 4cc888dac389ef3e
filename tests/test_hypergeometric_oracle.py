"""evaluate's verdicts against a random hypergeometric oracle.

Each series is first order: a_0 = 1 and

    a_(n+1) / a_n = C prod_i (n + alpha_i) / ((n + 1) prod_j (n + beta_j)),

with 0 <= p <= q <= 2 rational alpha_i and beta_j, no beta_j a nonpositive
integer, and |C| < 1 when p = q.  Since z^(n_) = (-1)^n (-z)_n, the infinite
series is y(z) = pFq(-z, alpha; beta; -C), which mpmath.hyper computes at
2 bits + 64 as the truth.  The stored series holds a_0..a_N, N in {40, 120};
the point is a nonnegative integer up to 2N, or has |z| log-uniform in
[0.1, 316]; (eps, bits) is (1e-12, 128) or (1e-30, 256).

A verdict is false when evaluate reports converged=True with
|value - truth| > rounding_radius + eps max(1, |value|).  Asserted, as what
holds today:
  * a "negligible" verdict is never false;
  * an "integer" verdict at m <= N is never false (past N the integer rule
    sums the stored terms only, as test_false_verdicts.py shows);
  * a "precision" verdict is never converged;
  * tail_bound covers the stored terms left unsummed, whatever the verdict.
False "window" and "exhausted" verdicts are recorded with hypothesis.event
(pytest --hypothesis-show-statistics lists them), not failed: the window
accepts slow geometric tails, and a stored series can be too short for its
point.
"""

import cmath
import math
from fractions import Fraction

import mpmath
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fallfact.series import evaluate, exact_series


def _oracle(bits: int) -> mpmath.MPContext:
    ctx = mpmath.MPContext()
    ctx.prec = 2 * bits + 64
    return ctx


ORACLES = {bits: _oracle(bits) for bits in (128, 256)}

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# a nonpositive integer b is replaced by the positive integer 1 - b
lower_parameters = rationals.map(lambda b: b if b.denominator > 1 or b > 0 else 1 - b)
# |z| = 10^e with e uniform on a grid of 2^20 steps in [-1, 2.5], and so is arg z
_STEPS = 1 << 20
points = st.builds(lambda e, t: cmath.rect(10.0 ** (-1 + 3.5 * e / _STEPS),
                                           2 * math.pi * t / _STEPS),
                   st.integers(0, _STEPS), st.integers(0, _STEPS))


@st.composite
def hypergeometric_cases(draw):
    q = draw(st.integers(0, 2))
    p = draw(st.integers(0, q))
    alpha = draw(st.lists(rationals, min_size=p, max_size=p))
    beta = draw(st.lists(lower_parameters, min_size=q, max_size=q))
    if p == q:
        c = Fraction(draw(st.integers(-9, 9)), 10)
    else:
        c = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 10)))
    n_top = draw(st.sampled_from([40, 120]))
    z = draw(st.integers(0, 2 * n_top) if draw(st.integers(0, 3)) == 0 else points)
    eps, bits = draw(st.sampled_from([(1e-12, 128), (1e-30, 256)]))
    return alpha, beta, c, n_top, z, eps, bits


def _coefficients(alpha, beta, c, n_top) -> list:
    coeffs = [Fraction(1)]
    for n in range(n_top):
        ratio = c / (n + 1)
        for a in alpha:
            ratio *= n + a
        for b in beta:
            ratio /= n + b
        coeffs.append(coeffs[-1] * ratio)
    return coeffs


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hypergeometric_cases())
def test_verdicts_against_the_hypergeometric_oracle(case):
    alpha, beta, c, n_top, z, eps, bits = case
    coeffs = _coefficients(alpha, beta, c, n_top)
    res = evaluate(exact_series(coeffs), z, eps, precision_bits=bits)
    ctx = ORACLES[bits]
    mpq = [ctx.mpf(x.numerator) / x.denominator for x in (*alpha, *beta, c)]
    zz = ctx.mpc(z)
    truth = ctx.hyper([-zz, *mpq[:len(alpha)]], mpq[len(alpha):-1], -mpq[-1])
    value = ctx.mpc(res.value)
    false = res.converged and \
        abs(value - truth) > res.rounding_radius + eps * max(1, abs(value))
    past_n = isinstance(z, int) and z > n_top
    event(f"{res.reason}{' past N' if past_n else ''}{', false' if false else ''}")

    assert not (false and res.reason == "negligible"), (case, res, truth)
    assert not (false and res.reason == "integer" and not past_n), (case, res, truth)
    assert res.reason != "precision" or not res.converged, (case, res)
    # sum_{terms_used <= m <= N} |a_m z^(m_)|, with z^(m_) built up term by term
    tail, falling = ctx.mpf(0), ctx.mpf(1)
    for m, a in enumerate(coeffs):
        if m >= res.terms_used:
            tail += abs(falling) * abs(a.numerator) / a.denominator
        falling *= zz - m
    assert tail <= res.tail_bound, (case, res, tail)
