"""Binomial series: finite coefficient lists against the falling-factorial basis.

A BinomialSeries stores a0..aN for Y(z) = sum a_n z^(n_).  The stored object
is always the exact finite sum it holds; operations transform that object
exactly.  When the input is a truncation of an infinite series, each
operation's docstring states through which index the output coefficients
remain faithful to the underlying series (delta: N-1, shift by m: N-m,
mul_by_z: N+1, and so on); beyond that the entries are still the exact
transform of the stored polynomial.  delta, mul_by_z, shift (as
(1 + delta)^m) and mul_by_poly (as p(z)) are each one application of
_SeqOperator, the operator calculus the solver also derives its recurrences
in, so how delta and z act on coefficients is decided in that one class; an
application sums integer numerators over one common denominator.

The regime says how the coefficients are stored: "exact" series hold
Gaussian rationals, "approx" series hold binary64 values (Python floats or
complex, as newton_series and the JSON reader give them).  Binary floats are
rationals, so every computation runs on the coefficients' exact image: the
coefficients themselves for an exact series, their lossless lift
(exact.lift) for an approx one.  Operators and Taylor conversions therefore
return exact series, also for approx input.  precision_bits (at least 53,
in every regime) is the precision evaluations cast to by default, not a
property of the stored data.

Evaluation sums in fixed point: z exactly as a Gaussian integer at one
binary exponent, z^(n_) and the partial sum as Gaussian integers carried
GUARD bits beyond the requested precision, and every truncation counted
into a rigorous rounding radius.  mpmath is used to cast the point and the
coefficients and to wrap the result, in one shared context per precision;
callers must not change that context's prec.  mpmath is imported inside
the functions that need it, so code that evaluates nothing never loads it.
What repeated calls share lives on the series: a private memo of values
derived from the coefficients alone, chiefly the exact image, the
coefficients' fixed-point mantissas (one prefix per precision) and their
integer numerators for exact sums at integer points.  Those are immutable
plain integers, so evaluation stays re-entrant; each coefficient is cast at
most once per precision.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .basis import StirlingTable, apply_table, default_table
from .errors import EvaluationOverflowError
from .exact import (ExactScalar, ONE, ZERO, as_exact, from_numerators,
                    integer_numerators, lift, magnitude, to_mpc)
from .polynomial import Polynomial, poly

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

EXACT = "exact"
APPROX = "approx"

DEFAULT_PRECISION_BITS = 128
DEFAULT_EPS = 1e-12
DEFAULT_N_MAX = 10000
DEFAULT_WINDOW = 5  # consecutive small terms required before stopping

# |term| beyond this aborts evaluation; mpmath itself would happily continue.
OVERFLOW_EXPONENT = 100000
# at most the bit length of 10^OVERFLOW_EXPONENT: terms below 2^(this - 2)
# cannot overflow, the others are compared exactly
_OVERFLOW_TOP = int(OVERFLOW_EXPONENT * math.log2(10))

# bits z^(n_) and the partial sum carry beyond the requested precision
GUARD = 20


def make_context(precision_bits: int = DEFAULT_PRECISION_BITS) -> MPContext:
    """A fresh mpmath context; precision below 53 bits is rejected."""
    if precision_bits < 53:
        raise ValueError(f"precision_bits must be >= 53, got {precision_bits}")
    from mpmath.ctx_mp import MPContext
    ctx = MPContext()
    ctx.prec = precision_bits
    return ctx


_CONTEXTS: dict = {}


def _context(precision_bits: int) -> MPContext:
    """The context shared by every result at this precision; never change its prec.

    Threads racing on the first use may each build one; only the first
    stored is kept, and every one of them has the same precision.
    """
    try:
        return _CONTEXTS[precision_bits]
    except KeyError:
        return _CONTEXTS.setdefault(precision_bits, make_context(precision_bits))


@dataclass(frozen=True)
class BinomialSeries:
    """Coefficients a0..aN of sum a_n z^(n_), plus regime and provenance."""

    coeffs: tuple = ()
    regime: str = EXACT
    origin: str = ""
    precision_bits: int = DEFAULT_PRECISION_BITS
    # values derived from the coefficients alone, by key: "exact", cast
    # prefixes by precision, "numerators", "classify"; outside ==, hash and repr
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        hash=False, repr=False)

    def __post_init__(self) -> None:
        if self.regime not in (EXACT, APPROX):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.precision_bits < 53:
            raise ValueError(f"precision_bits must be >= 53, got {self.precision_bits}")
        if self.regime == EXACT:
            object.__setattr__(self, "coeffs", tuple(as_exact(c) for c in self.coeffs))
        else:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def truncation_order(self) -> int:
        """Index of the last stored coefficient; -1 for the zero series."""
        return len(self.coeffs) - 1

    @property
    def _exact_coeffs(self) -> tuple:
        """The coefficients' exact image, which every computation runs on."""
        if self.regime == EXACT:
            return self.coeffs
        return self._memoized("exact", lambda: tuple(map(lift, self.coeffs)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._exact_coeffs)

    def with_coeffs(self, coeffs: Iterable) -> "BinomialSeries":
        """An exact series of these coefficients, with this one's origin and precision."""
        return BinomialSeries(tuple(coeffs), EXACT, self.origin, self.precision_bits)

    def _memoized(self, key, build: Callable):
        """build(), kept under key: it must depend on the coefficients only."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def _casts(self, ctx: MPContext, count: int) -> tuple:
        """The first count coefficients cast to ctx's precision, in fixed point.

        Entry n is (re, im, exp, rounded): (re + im i) 2^exp is a_n cast by
        to_mpc, and rounded says whether the cast changed a_n.  The stored
        prefix is replaced by a longer one, never extended in place, so a
        concurrent caller always reads a correct prefix; threads racing on
        one series may repeat a cast, never store a wrong one.
        """
        have = self._memo.get(ctx.prec, ())
        if len(have) < count:
            exact = self._exact_coeffs[len(have):count]
            casts = [to_mpc(a, ctx) for a in self.coeffs[len(have):count]]
            have += tuple(_gaussian(c._mpc_) + (lift(c) != a,) for c, a in zip(casts, exact))
            self._memo[ctx.prec] = have
        return have


def _gaussian(raw: tuple, max_exp: int | None = None) -> tuple:
    """(re, im, exp) with (re + im i) 2^exp equal to the raw mpc, exp <= max_exp."""
    exps = [] if max_exp is None else [max_exp]
    for sign, man, exp, bc in raw:
        if man:
            exps.append(exp)
        elif bc:  # mpmath marks inf and nan by a zero mantissa and bc != 0
            raise ValueError("cannot evaluate with a non-finite value")
    low = min(exps, default=0)
    re, im = ((-int(man) if sign else int(man)) << (exp - low) if man else 0
              for sign, man, exp, _ in raw)
    return re, im, low


def exact_series(coeffs: Iterable, origin: str = "") -> BinomialSeries:
    return BinomialSeries(tuple(coeffs), EXACT, origin)


def approx_series(coeffs: Iterable, precision_bits: int = DEFAULT_PRECISION_BITS,
                  origin: str = "") -> BinomialSeries:
    return BinomialSeries(tuple(coeffs), APPROX, origin, precision_bits)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

class _SeqOperator:
    """sum_s r_s(n) sigma^s acting on sequences, (sigma^s a)_n = a_{n+s}.

    delta_op and z_multiplication are the only action rules; all else composes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Polynomial]):
        self.terms = {s: r for s, r in terms.items() if not r.is_zero()}

    @staticmethod
    def identity() -> "_SeqOperator":
        return _SeqOperator({0: poly(1)})

    @staticmethod
    def z_multiplication() -> "_SeqOperator":
        # (zY)_n = n a_n + a_{n-1}
        return _SeqOperator({0: poly(0, 1), -1: poly(1)})

    @staticmethod
    def delta_op() -> "_SeqOperator":
        # (delta Y)_n = (n+1) a_{n+1}
        return _SeqOperator({1: poly(1, 1)})

    def compose(self, other: "_SeqOperator") -> "_SeqOperator":
        """self after other: coefficient polynomials shift their argument."""
        out: dict[int, Polynomial] = {}
        for s, r in self.terms.items():
            for u, t in other.terms.items():
                contrib = r * t.shift_argument(s)
                key = s + u
                out[key] = out.get(key, Polynomial()) + contrib
        return _SeqOperator(out)

    def __add__(self, other: "_SeqOperator") -> "_SeqOperator":
        out = dict(self.terms)
        for s, r in other.terms.items():
            out[s] = out.get(s, Polynomial()) + r
        return _SeqOperator(out)

    def scaled(self, c: ExactScalar) -> "_SeqOperator":
        return _SeqOperator({s: r * c for s, r in self.terms.items()})

    def polynomial(self, coeffs: Sequence) -> "_SeqOperator":
        """sum_k coeffs[k] self^k."""
        total, power = _SeqOperator({}), _SeqOperator.identity()
        for k, c in enumerate(coeffs):
            if k:
                power = power.compose(self)
            total = total + power.scaled(c)
        return total

    def apply(self, series: BinomialSeries, width: int) -> BinomialSeries:
        """Entries 0..width-1 of this operator on the series' exact image.

        a_k = 0 outside 0..N.  The r_s and the coefficients are taken to
        integer numerators over one denominator each, and every entry is
        summed in integers and reduced once.
        """
        shifts = list(self.terms)
        polys, den = _integer_polynomials([self.terms[s] for s in shifts])
        nums, a_den = integer_numerators(series._exact_coeffs)
        den *= a_den
        out = []
        for n in range(width):
            re = im = 0
            for s, r in zip(shifts, polys):
                if 0 <= n + s < len(nums):
                    a_re, a_im = nums[n + s]
                    r_re, r_im = _horner(r, n)
                    re += r_re * a_re - r_im * a_im
                    im += r_re * a_im + r_im * a_re
            out.append(from_numerators(re, im, den))
        return series.with_coeffs(out)


def _integer_polynomials(polys: Sequence[Polynomial]) -> tuple[list, int]:
    """The (re, im) integer coefficients of polys over their common denominator."""
    nums, den = integer_numerators([c for p in polys for c in p.coeffs])
    out, start = [], 0
    for p in polys:
        out.append(nums[start:start + len(p.coeffs)])
        start += len(p.coeffs)
    return out, den


def _horner(coeffs: Sequence[tuple[int, int]], m: int) -> tuple[int, int]:
    """A Gaussian-integer polynomial at the integer m, as (re, im)."""
    re = im = 0
    for c_re, c_im in reversed(coeffs):
        re = re * m + c_re
        im = im * m + c_im
    return re, im


def delta(series: BinomialSeries) -> BinomialSeries:
    """Forward difference: (delta Y)_n = (n+1) a_{n+1}.

    Faithful through index N-1 when the input truncates an infinite series.
    """
    return _SeqOperator.delta_op().apply(series, len(series.coeffs) - 1)


def mul_by_z(series: BinomialSeries) -> BinomialSeries:
    """z * Y: c_0 = 0, c_n = n a_n + a_{n-1}; the top entry is a_N alone.

    Output has one more coefficient than the input and is faithful through
    index N+1 for truncations (the missing a_{N+1} never enters c_{N+1}).
    """
    width = len(series.coeffs) + 1 if series.coeffs else 0
    return _SeqOperator.z_multiplication().apply(series, width)


def shift(series: BinomialSeries, m: int) -> BinomialSeries:
    """Y(z+m) = sum_j C(m,j) delta^j Y for integer m >= 0.

    Output keeps the input length (exact for the stored polynomial); entries
    are faithful through index N-m for truncations of infinite series.
    """
    if m < 0:
        raise ValueError("shift step must be a nonnegative integer")
    # (1 + delta)^m, binomially expanded; delta^j reads no stored
    # coefficient once j > N, so those powers are left out
    top = min(m, len(series.coeffs) - 1)
    op = _SeqOperator.delta_op().polynomial([math.comb(m, j) for j in range(top + 1)])
    return op.apply(series, len(series.coeffs))


def linear_combine(pairs: Sequence[tuple]) -> BinomialSeries:
    """sum_k s_k * Y_k, zero-extended to the longest input.

    Series of either regime mix; float and complex scalars are lifted exactly.
    """
    if not pairs:
        raise ValueError("no series to combine")
    out = [ZERO] * max(len(s.coeffs) for _, s in pairs)
    for scalar, s in pairs:
        sc = lift(scalar)
        if sc.is_zero():
            continue
        for n, v in enumerate(s._exact_coeffs):
            out[n] = out[n] + sc * v
    return pairs[0][1].with_coeffs(out)


def mul_by_poly(series: BinomialSeries, p: Polynomial) -> BinomialSeries:
    """p(z) * Y, zero-extended to length N + deg p + 1."""
    if p.is_zero() or not series.coeffs:
        return series.with_coeffs(())
    op = _SeqOperator.z_multiplication().polynomial(p.coeffs)
    return op.apply(series, len(series.coeffs) + len(p.coeffs) - 1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationResult:
    # an mpc of the context shared at the requested precision: compute with
    # it freely, but never change that context's prec
    value: object
    terms_used: int
    last_term_magnitude: float
    tail_bound: float
    converged: bool
    reason: str  # "window" | "integer" | "exhausted" | "n_max"
    # |value - sum_{n < terms_used} a_n z^(n_)| <= rounding_radius for the
    # stored exact a_n and z as cast to the precision; the neglected tail
    # sum_{n >= terms_used} is not covered (see tail_bound)
    rounding_radius: float

    def __complex__(self) -> complex:
        return complex(self.value)


def evaluate_exact(series: BinomialSeries, z) -> ExactScalar:
    """Exact finite sum of the series' exact image at an exact point."""
    zz = as_exact(z)
    if zz.is_integer() and zz.re >= 0:
        # z^(n_) is an integer here, and vanishes for every n > z: sum the
        # integer numerators over their common denominator, reduce once
        m = zz.re.numerator
        nums, den = series._memoized("numerators",
                                     lambda: integer_numerators(series._exact_coeffs))
        re = im = 0
        ff = 1
        for n, (a_re, a_im) in enumerate(nums[:m + 1]):
            if n:
                ff *= m - n + 1
            if a_re:
                re += a_re * ff
            if a_im:
                im += a_im * ff
        return from_numerators(re, im, den)
    total = ZERO
    ff = ONE
    for n, a in enumerate(series._exact_coeffs):
        if n:
            ff = ff * (zz - (n - 1))
        if not a.is_zero():
            total = total + a * ff
    return total


def evaluate(series: BinomialSeries, z, eps: float = DEFAULT_EPS,
             n_max: int = DEFAULT_N_MAX, *,
             precision_bits: int | None = None,
             window: int = DEFAULT_WINDOW) -> EvaluationResult:
    """Partial sum of sum a_n z^(n_) with multiplicative falling-factorial updates.

    Stopping rules, in order of priority:
      * z a nonnegative integer m: terms beyond n = m vanish identically, so
        the sum terminates at min(m, N) and is converged unconditionally.
      * window rule: |term| < eps * max(1, |partial|) for `window` consecutive
        terms, allowed only once n >= ceil(|z|) + 5 (|z^(n_)| can grow before
        coefficient decay takes over).
      * exhaustion: all stored coefficients consumed; the value is then the
        exact finite sum of the stored object and is reported converged.
      * n_max reached first: returned with converged=False.  The cap holds
        at integer points too, for every series.

    An exact nonnegative integer z (int, Fraction or ExactScalar) whose sum
    ends within the cap is summed exactly and cast once.  Otherwise z is
    cast to precision_bits (default: the series' own precision_bits) and
    the terms are summed in fixed point by _fixed_point_sum; the cast
    coefficients are kept on the series.  The value is an mpc of the
    context shared at that precision.
    """
    if precision_bits is None:
        precision_bits = series.precision_bits
    ctx = _context(precision_bits)
    zz = to_mpc(z, ctx)
    top_index = len(series.coeffs) - 1

    if isinstance(z, (int, Fraction, ExactScalar)) and not isinstance(z, bool):
        ze = as_exact(z)
        if ze.is_integer() and ze.re >= 0 and min(ze.re, top_index) <= n_max:
            # exact finite sum, cast once at the end
            m = int(ze.re)
            total = evaluate_exact(series, ze)
            value = to_mpc(total, ctx)
            stop = min(m, top_index)
            err = total - lift(value)
            return EvaluationResult(value, max(stop + 1, 0),
                                    _exact_term_magnitude(series, m, stop), 0.0, True,
                                    "integer", _float_up(abs(err.re) + abs(err.im)))

    point = _gaussian(zz._mpc_, 0)
    zr, zi, ez = point
    m = zr >> -ez if not zi and zr >= 0 and not zr & ((1 << -ez) - 1) else None
    limit = top_index
    reason = "exhausted"
    if m is not None and m < limit:
        limit, reason = m, "integer"
    capped = n_max < limit
    if capped:
        limit = n_max
    min_index = int(ctx.ceil(abs(zz))) + 5

    re, im, exp, units, recent, terms_used, by_window = _fixed_point_sum(
        series, ctx, point, limit, min_index, eps, window)
    from mpmath.libmp import from_man_exp
    value = ctx.make_mpc((from_man_exp(re, exp, precision_bits, "n"),
                          from_man_exp(im, exp, precision_bits, "n")))
    scale = Fraction(2) ** exp
    # the final cast is the last rounding counted
    err = ExactScalar(re * scale, im * scale) - lift(value)
    radius = _float_up(units * scale + abs(err.re) + abs(err.im))

    # |term| of the final window for the tail bound, else of the last term alone
    mags = _term_abs(recent if by_window else list(recent)[-1:], ctx)
    if by_window:
        converged, reason = True, "window"
        tail = _geometric_tail(mags, window)
    elif capped:
        # the cap cut the sum short of its natural end, integer point or not
        converged, reason, tail = False, "n_max", math.inf
    else:
        converged, tail = True, 0.0  # an integer point's or the stored object's full sum
    last = float(mags[-1]) if mags else 0.0
    return EvaluationResult(value, terms_used, last, tail, converged, reason, radius)


def _fixed_point_sum(series: BinomialSeries, ctx: MPContext, point: tuple, limit: int,
                     min_index: int, eps, window: int) -> tuple:
    """Terms 0..limit of sum a_n z^(n_), summed in Gaussian-integer fixed point.

    point is z as (re, im, exp) with exp <= 0, so z - n is exact.  z^(n_) is
    carried at width = precision + GUARD bits, floored after each product;
    a term is the exact product of that and the cast coefficient; the
    partial sum's exponent rises with the largest term, keeping width bits
    of it, and each term is floored into it.  The window rule stops the
    sum early; the overflow test rounds the term to the precision first.

    Returns (re, im, exp, units, recent, terms_used, by_window): the partial
    sum is (re + im i) 2^exp, and units 2^exp bounds its distance from the
    exact sum of the terms used (stored a_n, z as point holds it) before the
    final cast.  The bound adds, with k the rescales of z^(n_) and u = 2^-width:
      * |a_n - cast a_n| <= 4 2^-prec |cast a_n| for a rounded cast (mpmath
        rounds numerator, denominator and quotient to nearest), else 0;
      * |z^(n_) - carried z^(n_)| <= rho |carried z^(n_)|, with each floor
        losing at most sqrt(2) 2^(1-width) relative, so
        rho <= (1 + 4u)^k - 1 <= 8uk while 4uk <= 1/2;
      * less than sqrt(2) units for each floor of a term or of the sum,
        counted at the final exponent, which only rises.
    recent holds the last `window` terms as exact (re, im, exp).
    """
    prec = ctx.prec
    width = prec + GUARD
    zr, zi, ez = point
    unit = 1 << -ez
    eps = ctx.mpf(eps)
    sign, man, exp, bc = eps._mpf_
    positive = not sign and man  # and finite
    eps_exact = lift(eps).re if positive else None
    eps_top = exp + bc           # eps in [2^(eps_top-1), 2^eps_top)
    every_small = eps._mpf_ == ctx.inf._mpf_
    overflow_top = _OVERFLOW_TOP
    fr, fi, ef = 1, 0, 0  # carried z^(n_) = (fr + fi i) 2^ef
    dr = zr               # re(z - n) at exponent ez
    pr = pi = 0
    es = None             # the sum's exponent, set by the first nonzero term
    total = rounded_total = 0  # bounds of sum |term| in units of 2^es: all, rounded casts
    rescales = floors = 0
    casts = ()
    # the final window of terms, for the tail bound (a window <= 0 slices
    # from the front in _geometric_tail, so then every term is kept)
    recent: deque = deque(maxlen=window if window > 0 else None)
    streak = 0
    by_window = False
    for n in range(limit + 1):
        if n:
            # z^(n_) = z^((n-1)_) (z - n + 1) exactly, then floored to width bits
            if zi:
                fr, fi = fr * dr - fi * zi, fr * zi + fi * dr
            else:
                fr, fi = fr * dr, fi * dr
            dr -= unit
            ef += ez
            s = (abs(fr) | abs(fi)).bit_length() - width  # the larger part's bits
            if s > 0:
                fr >>= s
                fi >>= s
                ef += s
                rescales += 1
        if n == len(casts):
            casts = series._casts(ctx, min(limit + 1, 2 * n + 16))
        ar, ai, ea, rounded = casts[n]
        if ai:
            tr, ti = ar * fr - ai * fi, ar * fi + ai * fr
        else:
            tr, ti = ar * fr, ar * fi
        et = ea + ef
        recent.append((tr, ti, et))
        b = (abs(tr) | abs(ti)).bit_length()
        if b:
            top = b + et  # |term| in [2^(top-1), 2^(top+1/2))
            if top + 2 > overflow_top and \
                    _term_abs([(tr, ti, et)], ctx)[0] > ctx.mpf(10) ** OVERFLOW_EXPONENT:
                raise EvaluationOverflowError(n)
            if es is None:
                es = top - width
            elif top - width > es:
                s = top - width - es
                if (pr | pi) & ((1 << s) - 1):
                    floors += 1
                pr >>= s
                pi >>= s
                total = -(-total >> s)
                rounded_total = -(-rounded_total >> s)
                es += s
            s = es - et
            if s > 0:
                ur, ui = tr >> s, ti >> s
                floors += 1
            else:
                ur, ui = tr << -s, ti << -s
            pr += ur
            pi += ui
            bound = abs(ur) + abs(ui) + 2  # >= |term| in units
            total += bound
            if rounded:
                rounded_total += bound
        if n >= min_index:
            if not positive:
                small = every_small
            elif not b:
                small = True
            else:
                # exponents decide unless the two sides come within a few binades
                pb = (abs(pr) | abs(pi)).bit_length()
                p_top = pb + es if pb else 0  # max(1, |partial|) in [2^lo, 2^(hi+1/2))
                lo, hi = (p_top - 1, p_top) if p_top > 0 else (0, 0)
                if top + 2 <= eps_top + lo:
                    small = True
                elif top >= eps_top + hi + 2:
                    small = False
                else:
                    small = _below(tr, ti, et, pr, pi, es, eps_exact)
            if small:
                streak += 1
                if streak >= window:
                    by_window = True
                    break
            else:
                streak = 0
    # 4 2^-prec (1 + rho) rounded_total + rho total with rho <= rescales 2^-d,
    # rounded up; 4uk <= 1/2 holds, as 2^(width - 3) terms are never stored
    d = width - 3
    bound = rounded_total * ((1 << d) + rescales) * 4 + (total * rescales << prec)
    units = -(-bound >> (d + prec)) + 2 * floors
    terms_used = n + 1 if by_window else max(limit + 1, 0)
    return pr, pi, es or 0, units, recent, terms_used, by_window


def _below(tr: int, ti: int, et: int, pr: int, pi: int, es: int, eps: Fraction) -> bool:
    """|t| < eps max(1, |p|) exactly, for t = (tr + ti i) 2^et and p = (pr + pi i) 2^es."""
    t_squared = (tr * tr + ti * ti) * Fraction(4) ** et
    p_squared = (pr * pr + pi * pi) * Fraction(4) ** es
    return t_squared < eps * eps * max(1, p_squared)


def _term_abs(terms: Iterable[tuple], ctx: MPContext) -> list:
    """|term| as a ctx.mpf for each term (re, im, exp), rounded to ctx's precision."""
    from mpmath.libmp import from_man_exp, mpc_abs
    prec = ctx.prec
    return [ctx.make_mpf(mpc_abs((from_man_exp(tr, et, prec, "n"),
                                  from_man_exp(ti, et, prec, "n")), prec, "n"))
            for tr, ti, et in terms]


def _float_up(q: Fraction) -> float:
    """The least float >= q, for q >= 0; inf above the float range."""
    if not q:
        return 0.0
    try:
        f = float(q)
    except OverflowError:
        return math.inf
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _geometric_tail(mags: Sequence, window: int) -> float:
    """Ratio-test style bound from the final window of term magnitudes."""
    tail_ratio = 0.0
    recent = mags[-window:]
    for prev, cur in zip(recent, recent[1:]):
        if prev == 0:
            continue
        tail_ratio = max(tail_ratio, float(cur / prev))
    if tail_ratio >= 1.0:
        return math.inf
    last = float(recent[-1]) if recent else 0.0
    return last * tail_ratio / (1.0 - tail_ratio) if tail_ratio else last


def _exact_term_magnitude(series: BinomialSeries, m: int, stop: int) -> float:
    if stop < 0:
        return 0.0
    return magnitude(series._exact_coeffs[stop] * math.perm(m, stop))


# ---------------------------------------------------------------------------
# sequence acceleration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcceleratedResult:
    value: object  # ctx.mpc at the series' precision
    terms_used: int
    error_estimate: float  # |L_k - L_(k-1)|: an estimate, not a bound
    converged: bool
    reason: str  # "integer" | "terminated" | "levin" | "unsettled" | "singular"


def evaluate_accelerated(series: BinomialSeries, z) -> AcceleratedResult:
    """Levin t-transform of the partial sums of sum a_n z^(n_), computed exactly.

    With terms t_n = a_n z^(n_), partial sums s_n and remainder estimates
    omega_n = t_n, the order-k transform started at the first nonzero term n0
    (Levin 1973; Weniger 1989, Comput. Phys. Rep. 10, with beta = 1) is

        L_k = sum_j w_j s_(n0+j) / t_(n0+j)  /  sum_j w_j / t_(n0+j),
        w_j = (-1)^j C(k, j) (n0 + j + 1)^(k-1),   j = 0..k,

    with k = N - n0, so every stored term is used.  The sums run in Gaussian
    rationals from the stored coefficients and the value is cast once at the
    end, at series.precision_bits.  error_estimate is |L_k - L_(k-1)|: an
    estimate of the error, not a bound, and it leaves out the rounding of
    that cast.  The result is converged when the estimate is at most
    DEFAULT_EPS * max(1, |L_k|); samples whose terms have no regular tail
    read unconverged.

    Verdicts, in order of priority:
      * z a nonnegative integer: the exact finite sum, reason "integer".
      * the last two stored terms vanish (or none is stored): the terms are
        taken to terminate and the exact finite sum is returned, reason
        "terminated".  For samples of a polynomial this asks for two samples
        beyond the ones that fix it; a single zero last term, which samples
        that are no polynomial can give by chance, is no such evidence and
        is treated like any other zero term.
      * no transform value to compare: a zero term after n0 (a zero
        remainder estimate), no nonzero term, a single nonzero term, or a
        vanishing denominator of L_k or L_(k-1).  No division by zero is
        made; the result is L_k if it exists, else the exact finite sum,
        with error_estimate inf, converged False, reason "singular".
      * otherwise L_k, reason "levin" when converged, else "unsettled".
    """
    ctx = _context(series.precision_bits)
    zz = as_exact(z)

    if zz.is_integer() and zz.re >= 0:
        stop = min(int(zz.re), len(series.coeffs) - 1)
        return AcceleratedResult(to_mpc(evaluate_exact(series, zz), ctx),
                                 max(stop + 1, 0), 0.0, True, "integer")

    terms, sums = [], []
    total, ff = ZERO, ONE
    for n, a in enumerate(series._exact_coeffs):
        if n:
            ff = ff * (zz - (n - 1))
        term = a * ff
        total = total + term
        terms.append(term)
        sums.append(total)
    used = len(terms)
    if used != 1 and all(t.is_zero() for t in terms[-2:]):
        return AcceleratedResult(to_mpc(total, ctx), used, 0.0, True, "terminated")

    def singular(value=None) -> AcceleratedResult:
        return AcceleratedResult(to_mpc(total if value is None else value, ctx),
                                 used, math.inf, False, "singular")

    n0 = next((n for n, t in enumerate(terms) if not t.is_zero()), used)
    if n0 == used or any(t.is_zero() for t in terms[n0:]):
        return singular()
    inverses = [1 / t for t in terms[n0:]]
    ratios = [s * r for s, r in zip(sums[n0:], inverses)]
    k = used - 1 - n0
    value = _levin(ratios, inverses, n0, k)
    previous = _levin(ratios, inverses, n0, k - 1)
    if value is None or previous is None:
        return singular(value)
    diff = value - previous
    converged = (diff.abs_squared()
                 <= Fraction(DEFAULT_EPS) ** 2 * max(1, value.abs_squared()))
    return AcceleratedResult(to_mpc(value, ctx), used, magnitude(diff),
                             converged, "levin" if converged else "unsettled")


def _levin(ratios: Sequence, inverses: Sequence, n0: int, k: int):
    """L_k from s_n/t_n and 1/t_n (n = n0..n0+k); None when undefined."""
    if k < 0:
        return None
    num = den = ZERO
    for j in range(k + 1):
        # k = 0 has a single weight, which cancels; the clamp keeps it an int
        w = (-1) ** j * math.comb(k, j) * (n0 + j + 1) ** max(k - 1, 0)
        num = num + w * ratios[j]
        den = den + w * inverses[j]
    return None if den.is_zero() else num / den


# ---------------------------------------------------------------------------
# Taylor conversions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorCoefficients:
    coeffs: tuple
    chi_flagged: bool  # True when the source's growth estimate is >= 1 (conversion conditional)
    chi_value: float | None = None


def taylor_from_binomial(series: BinomialSeries, m_max: int,
                         k_cut: int | None = None,
                         table: StirlingTable | None = None) -> TaylorCoefficients:
    """b_n = sum_{k=n}^{k_cut} a_k * T1[k][n]: Taylor coefficients at 0.

    Exact for either regime: the sums run on the coefficients' exact image.
    The inner sums are only absolutely convergent when the source decays
    fast enough (growth estimate below 1); otherwise the result is flagged
    but still returned, truncated at k_cut.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    order = series.truncation_order
    if k_cut is None:
        k_cut = order
    if k_cut > order:
        raise ValueError(f"k_cut {k_cut} exceeds truncation order {order}")
    table = table or default_table()
    out = apply_table(series._exact_coeffs[:k_cut + 1], table.first_kind_ints, m_max + 1)

    flagged = False
    chi_val: float | None = None
    if len(series.coeffs) >= 16:
        from .analysis import chi_estimate  # local import keeps analysis series-free
        est = chi_estimate(series.coeffs)
        chi_val = est.value
        flagged = est.undefined or est.value >= 1.0
    return TaylorCoefficients(tuple(out), flagged, chi_val)


def binomial_from_taylor(taylor_coeffs: Sequence, n_max: int | None = None,
                         k_cut: int | None = None,
                         table: StirlingTable | None = None,
                         precision_bits: int = DEFAULT_PRECISION_BITS,
                         origin: str = "") -> BinomialSeries:
    """a_n = sum_{k=n}^{k_cut} b_k * T2[k][n]: mirror of taylor_from_binomial.

    Float, complex and mpmath inputs are lifted exactly, so the result is an
    exact series whatever the input; precision_bits is its evaluation
    precision.
    """
    top = len(taylor_coeffs) - 1
    if k_cut is None:
        k_cut = top
    if k_cut > top:
        raise ValueError(f"k_cut {k_cut} exceeds available Taylor order {top}")
    if n_max is None:
        n_max = k_cut
    table = table or default_table()
    out = apply_table([lift(b) for b in taylor_coeffs[:k_cut + 1]],
                      table.second_kind_ints, n_max + 1)
    return BinomialSeries(tuple(out), EXACT, origin, precision_bits)
