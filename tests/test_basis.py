import math
import random
import time
from fractions import Fraction

from fallfact.basis import (StirlingTable, binomial_to_poly, default_table,
                            poly_to_binomial, verify_stirling_bounds)
from fallfact.exact import ExactScalar, as_exact
from fallfact.polynomial import Polynomial, poly


def brute_falling_factorial_coeffs(n):
    """Expand z(z-1)...(z-n+1) by direct convolution; no Stirling table."""
    coeffs = [Fraction(1)]
    for k in range(n):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= k * c
        coeffs = nxt
    return coeffs


def explicit_second_kind(n, k):
    """Classical alternating-sum formula, independent of the table recurrence."""
    total = 0
    for i in range(k + 1):
        total += (-1) ** (k - i) * math.comb(k, i) * i ** n
    return Fraction(total, math.factorial(k))


def test_first_kind_matches_brute_force():
    for n in range(26):
        row = default_table().first_kind_row(n)
        want = brute_falling_factorial_coeffs(n)
        assert [c.re for c in row] == want
        assert all(c.im == 0 for c in row)


def test_known_rows():
    t = default_table()
    assert [c.re for c in t.first_kind_row(4)] == [0, -6, 11, -6, 1]
    assert [c.re for c in t.second_kind_row(4)] == [0, 1, 7, 6, 1]


def test_second_kind_matches_explicit_formula():
    for n in range(18):
        row = default_table().second_kind_row(n)
        for k in range(n + 1):
            assert row[k].re == explicit_second_kind(n, k)


def test_pascal_type_recurrences():
    t = default_table()
    for n in range(1, 20):
        for j in range(1, n + 1):
            assert t.first_kind(n + 1, j) == t.first_kind(n, j - 1) - n * t.first_kind(n, j)
            assert t.second_kind(n + 1, j) == t.second_kind(n, j - 1) + j * t.second_kind(n, j)


def test_inverse_matrix_identity():
    # sum_k T2[n][k] T1[k][j] = delta_{nj}
    t = default_table()
    for n in range(16):
        for j in range(16):
            acc = as_exact(0)
            for k in range(min(n, 15) + 1):
                acc = acc + t.second_kind(n, k) * t.first_kind(k, j)
            assert acc == as_exact(1 if n == j else 0)


def test_bounds_hold_to_30():
    report = verify_stirling_bounds(30)
    assert report.all_hold
    assert report.failures == ()


def falling_factorial(n):
    """z^(n_) in the monomial basis: the binomial series with a_n = 1 alone."""
    return binomial_to_poly([0] * n + [1])


def test_falling_factorial_polynomial():
    assert falling_factorial(0) == poly(1)
    assert falling_factorial(1) == poly(0, 1)
    assert falling_factorial(3) == poly(0, 2, -3, 1)  # z(z-1)(z-2)
    # pointwise at integers: m^(n_) = m!/(m-n)!
    for n in range(8):
        p = falling_factorial(n)
        for m in range(n, 10):
            assert p(m).re == Fraction(math.factorial(m), math.factorial(m - n))


def test_round_trip_random_polynomials():
    rng = random.Random(23)
    for _ in range(80):
        p = Polynomial(tuple(
            ExactScalar(Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
            for _ in range(rng.randint(0, 13))))
        back = binomial_to_poly(poly_to_binomial(p))
        assert back == p


def test_binomial_to_poly_known():
    # z^(2_) + z = z^2
    assert binomial_to_poly([as_exact(0), as_exact(1), as_exact(1)]) == poly(0, 0, 1)
    assert poly_to_binomial(poly(0, 0, 1)) == (as_exact(0), as_exact(1), as_exact(1))
    assert poly_to_binomial(poly()) == ()


def test_table_extension_is_consistent():
    # growing a fresh table in one jump equals growing the default gradually
    t = StirlingTable()
    t.ensure(24)
    d = default_table()
    for n in (0, 1, 7, 24):
        assert t.first_kind_row(n) == d.first_kind_row(n)
        assert t.second_kind_row(n) == d.second_kind_row(n)


def test_generation_speed():
    start = time.monotonic()
    t = StirlingTable()
    t.ensure(30)
    verify_stirling_bounds(30, t)
    assert time.monotonic() - start < 5.0
