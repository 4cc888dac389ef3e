"""Output checks and references the benchmark computes on its own.

Exact outputs are compared with closed forms or with exact identities they
must satisfy, and hashed so that a change of any bit shows.  Numeric
outputs are compared with mpmath sums of the same stored coefficients at
twice the working precision.  Nothing here calls fallfact.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import mpmath


def digest_strings(strings) -> str:
    """SHA-256 of coefficient strings as they appear in fallfact's JSON."""
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def _int_bytes(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
    return len(raw).to_bytes(4, "big") + raw


def digest_scalars(coeffs) -> str:
    """SHA-256 of exact Gaussian rationals by their reduced numerators and
    denominators.  Bit for bit what str() would show, without printing
    numbers of tens of thousands of digits."""
    h = hashlib.sha256()
    for c in coeffs:
        for part in (c.re, c.im):
            h.update(_int_bytes(part.numerator))
            h.update(_int_bytes(part.denominator))
    return h.hexdigest()


def rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


# -- exact oracles -------------------------------------------------------------

def order_half_coeff(n: int, fact_2n: int) -> Fraction:
    """a_n = (-1)^n / (2n)! solves (4z+6) delta^2 y + 3 delta y + y = 0."""
    return Fraction(-1 if n % 2 else 1, fact_2n)


def order_half_matches(coeffs) -> bool:
    fact = 1
    for n, c in enumerate(coeffs):
        if n:
            fact *= (2 * n - 1) * (2 * n)
        if c.im or c.re != order_half_coeff(n, fact):
            return False
    return True


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gadd(*xs):
    return (sum(x[0] for x in xs), sum(x[1] for x in xs))


def riccati_recurrence_holds(coeffs, a, b, c) -> bool:
    """(az+b) delta^2 Y + c delta Y + Y = 0, coefficient by coefficient.

    With d_n = (n+1)(n+2) a_{n+2} the coefficients of delta^2 Y and
    (zW)_n = n w_n + w_{n-1}, index n of the left side reads
    a (n d_n + d_{n-1}) + b d_n + c (n+1) a_{n+1} + a_n; it must vanish for
    every n whose terms are stored.  a, b, c are (re, im) Fraction pairs.
    """
    x = [(Fraction(v.re), Fraction(v.im)) for v in coeffs]
    prev_d = (Fraction(0), Fraction(0))
    for n in range(len(x) - 2):
        k = (n + 1) * (n + 2)
        d = (k * x[n + 2][0], k * x[n + 2][1])
        lhs = _gadd(_gmul(a, (n * d[0] + prev_d[0], n * d[1] + prev_d[1])),
                    _gmul(b, d),
                    _gmul(c, ((n + 1) * x[n + 1][0], (n + 1) * x[n + 1][1])),
                    x[n])
        if lhs[0] or lhs[1]:
            return False
        prev_d = d
    return True


def stirling_first_rows(n_max: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind: z^(n_) = sum_j s[n][j] z^j."""
    rows = [[1]]
    for m in range(n_max):
        prev = rows[-1] + [0]
        rows.append([(prev[j - 1] if j else 0) - m * prev[j] for j in range(m + 2)])
    return rows


def order_half_taylor(m_max: int, k_cut: int) -> list[Fraction]:
    """b_n = sum_{k=n}^{k_cut} (-1)^k s(k, n) / (2k)!, over one common denominator."""
    s = stirling_first_rows(k_cut)
    top = math.factorial(2 * k_cut)
    scale = [top // math.factorial(2 * k) for k in range(k_cut + 1)]
    out = []
    for n in range(m_max + 1):
        num = sum((-1) ** k * s[k][n] * scale[k] for k in range(n, k_cut + 1))
        out.append(Fraction(num, top))
    return out


def newton_coeffs(samples: list[int]) -> list[Fraction]:
    """a_n = (delta^n f)(0) / n! from an integer difference triangle."""
    row = list(samples)
    out = []
    fact = 1
    for n in range(len(samples)):
        if n:
            fact *= n
        out.append(Fraction(row[0], fact))
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return out


# -- numeric references ----------------------------------------------------------

class RefSeries:
    """sum a_n z^(n_) over every stored coefficient, at a chosen precision."""

    def __init__(self, coeffs, prec: int) -> None:
        self.ctx = ctx = mpmath.MPContext()
        ctx.prec = prec
        self.coeffs = [self._cast(c) for c in coeffs]

    def _cast(self, c):
        ctx = self.ctx
        if isinstance(c, complex):
            return ctx.mpc(c)
        re, im = (c, Fraction(0)) if isinstance(c, Fraction) else (c.re, c.im)
        return ctx.mpc(ctx.mpf(re.numerator) / re.denominator,
                       ctx.mpf(im.numerator) / im.denominator)

    def value(self, z):
        """(sum, largest term magnitude); the sum ends early where z^(n_) vanishes."""
        ctx = self.ctx
        zz = ctx.mpc(z)
        total = ctx.mpc(0)
        ff = ctx.mpc(1)
        biggest = ctx.mpf(0)
        for n, a in enumerate(self.coeffs):
            if n:
                ff *= zz - (n - 1)
                if ff == 0:
                    break
            term = a * ff
            total += term
            biggest = max(biggest, abs(term))
        return total, biggest

    def matches(self, got, z) -> bool:
        return close_to_reference(self.ctx, got, *self.value(z))


def close_to_reference(ctx, got, ref, biggest) -> bool:
    """|got - ref| <= 1e-9 max(1, |ref|) + 1e-28 (largest term).

    1e-9 covers the evaluator's stopping rule (terms below 1e-12 of the
    partial sum); 1e-28 covers rounding at 128 bits where terms much larger
    than the sum cancel.
    """
    return abs(ctx.mpc(got) - ref) <= 1e-9 * max(1, abs(ref)) + 1e-28 * biggest


def shift_residual(ref: RefSeries, z, a, b, c) -> float:
    """Relative shift-form residual of (az+b) delta^2 y + c delta y + y = 0,
    using E^2: az+b, E^1: -2(az+b)+c, E^0: az+b-c+1."""
    ctx = ref.ctx
    zz = ctx.mpc(z)
    p = a * zz + b
    terms = [(p - c + 1) * ref.value(zz)[0], (-2 * p + c) * ref.value(zz + 1)[0],
             p * ref.value(zz + 2)[0]]
    scale = max(abs(t) for t in terms)
    return float(abs(sum(terms)) / scale) if scale else 0.0


def riccati_residual(ref: RefSeries, z, a, b, c) -> float:
    """|f(z+1)(1 - f(z)) - f(z) - A(z)| from the reference solution, with
    f = -(2P u + c) / (2P - c), u = delta y / y, P(z) = a(z-1) + b."""
    ctx = ref.ctx
    zz = ctx.mpc(z)

    def f(w):
        y0, y1 = ref.value(w)[0], ref.value(w + 1)[0]
        u = (y1 - y0) / y0
        p = a * (w - 1) + b
        return -(2 * p * u + c) / (2 * p - c)

    f0, f1 = f(zz), f(zz + 1)
    coeff = (4 * a * zz - 4 * a + 4 * b + 2 * a * c - c * c) / \
        ((2 * a * zz + 2 * b - c) * (2 * a * zz + 2 * b - 2 * a - c))
    return float(abs(f1 * (1 - f0) - f0 - coeff))
