"""Binomial series: finite coefficient lists against the falling-factorial basis.

A BinomialSeries stores a0..aN for Y(z) = sum a_n z^(n_).  The stored object
is always the exact finite sum it holds; operations transform that object
exactly.  When the input is a truncation of an infinite series, each
operation's docstring states through which index the output coefficients
remain faithful to the underlying series (delta: N-1, shift by m: N-m,
mul_by_z: N+1, and so on); beyond that the entries are still the exact
transform of the stored polynomial.  delta, mul_by_z and mul_by_poly (by
Horner's rule in z) apply _SeqOperator, the operator calculus the solver
also derives its recurrences in; an application sums integer numerators
over one common denominator.  How delta and z act on coefficients is
written there, and repeated on purpose in two loops that multiply by small
integers only: shift (as (1 + delta)^m, in O(N min(m, N))) runs delta's
rule inline, and basis._change_basis runs z's rule towards falling
factorials.

The regime says how the coefficients are stored: "exact" series hold
Gaussian rationals, "approx" series hold binary64 values (Python floats or
complex, as newton_series and the JSON reader give them).  Binary floats are
rationals, so every computation runs on the coefficients' exact image: the
coefficients themselves for an exact series, their lossless lift
(exact.lift) for an approx one.  Operators and Taylor conversions therefore
return exact series, also for approx input.  A series stores no
precision: every evaluation casts to the precision its caller passes
(DEFAULT_PRECISION_BITS unless told otherwise, at least 53).

Evaluation sums in fixed point: z exactly as a Gaussian integer at one
binary exponent, z^(n_) and the partial sum as Gaussian integers carried
GUARD bits beyond the requested precision, and every truncation counted
into a rigorous rounding radius.  mpmath is used to cast the point and the
coefficients and to wrap the result, in one shared context per precision;
callers must not change that context's prec.  mpmath is imported inside
the functions that need it, so code that evaluates nothing never loads it.
What repeated calls share lives on the series: a private memo of values
derived from the coefficients alone, chiefly the exact image, the
coefficients' fixed-point mantissas (one prefix per precision), their
integer numerators for exact sums at integer points, the suffix maxima of
their ratios that certify the stored terms left unsummed, and classify's
growth verdict.  Those are immutable values, so evaluation stays re-entrant; each
coefficient is cast at most once per precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

# default_table is not called here; it stays importable because perfbench's
# CLI tour replay swaps it on this module
from .basis import StirlingTable, _change_basis, default_table  # noqa: F401
from .errors import EvaluationOverflowError
from .exact import (ExactScalar, ONE, ZERO, _Value, _float_up, as_exact, from_numerators,
                    integer_numerators, lift, magnitude, to_mpc)
from .polynomial import Polynomial, poly

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

EXACT = "exact"
APPROX = "approx"

DEFAULT_PRECISION_BITS = 128
DEFAULT_EPS = 1e-12
DEFAULT_N_MAX = 10000
WINDOW = 5  # consecutive small terms required before stopping

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


class BinomialSeries(_Value):
    """Coefficients a0..aN of sum a_n z^(n_), and how they are stored."""

    _fields = ("coeffs", "regime")

    def __init__(self, coeffs: Iterable = (), regime: str = EXACT) -> None:
        if regime not in (EXACT, APPROX):
            raise ValueError(f"unknown regime {regime!r}")
        object.__setattr__(self, "coeffs", tuple(as_exact(c) for c in coeffs)
                           if regime == EXACT else tuple(coeffs))
        object.__setattr__(self, "regime", regime)
        # values derived from the coefficients alone, by key: "exact", cast
        # prefixes by precision, "numerators", "ratios", "classify"; outside
        # ==, hash and repr, and a copy starts without them
        object.__setattr__(self, "_memo", {})

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


def exact_series(coeffs: Iterable) -> BinomialSeries:
    return BinomialSeries(coeffs, EXACT)


def approx_series(coeffs: Iterable) -> BinomialSeries:
    return BinomialSeries(coeffs, APPROX)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

class _SeqOperator:
    """sum_s r_s(n) sigma^s acting on sequences, (sigma^s a)_n = a_{n+s}.

    delta_op and z_multiplication are the action rules; all else composes.
    shift runs delta's rule, and basis._change_basis z's, in a loop of its
    own, which keeps their multipliers small.
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
        """Entries 0..width-1 of this operator on the series' exact image, each
        summed on integer numerators and reduced once."""
        nums, den = integer_numerators(series._exact_coeffs)
        out, r_den = self.apply_to_numerators(nums, width)
        return exact_series(from_numerators(re, im, den * r_den) for re, im in out)

    def apply_to_numerators(self, nums: Sequence, width: int) -> tuple[list, int]:
        """Entries 0..width-1 on the Gaussian integers nums (a_k = 0 outside them)
        as (re, im) numerators over the r_s' common denominator, returned too."""
        shifts = list(self.terms)
        polys, den = _integer_polynomials([self.terms[s] for s in shifts])
        out = []
        for n in range(width):
            re = im = 0
            for s, r in zip(shifts, polys):
                if 0 <= n + s < len(nums):
                    a_re, a_im = nums[n + s]
                    r_re, r_im = _horner(r, n)
                    re += r_re * a_re - r_im * a_im
                    im += r_re * a_im + r_im * a_re
            out.append((re, im))
        return out, den


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
    # (1 + delta)^m = sum_{j <= K} C(m,j) delta^j with K = min(m, N): delta^j
    # reads no stored coefficient once j > N.  Horner's rule with the ratio
    # C(m,j)/C(m,j-1) = (m-j+1)/j inside it multiplies by small integers
    # only: H_K = A and H_(j-1) = (K!/(j-1)!) A + (m-j+1) delta H_j give
    # Y(z+m) = H_0 / K!, A being the series' integer numerators.  delta acts
    # by its rule (n+1) a_(n+1), as in _SeqOperator.delta_op
    nums, den = integer_numerators(series._exact_coeffs)
    top = min(m, max(len(nums) - 1, 0))
    acc = scaled = nums
    for j in range(top, 0, -1):
        scaled = [(j * re, j * im) for re, im in scaled]
        acc = [(s_re + (m - j + 1) * n * a_re, s_im + (m - j + 1) * n * a_im)
               for n, ((s_re, s_im), (a_re, a_im)) in enumerate(zip(scaled, acc[1:]), 1)
               ] + scaled[-1:]
    return exact_series(from_numerators(re, im, den * math.factorial(top))
                        for re, im in acc)


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
    return exact_series(out)


def mul_by_poly(series: BinomialSeries, p: Polynomial) -> BinomialSeries:
    """p(z) * Y, zero-extended to length N + deg p + 1: Horner's rule in z,
    acc = z acc + p_k A, on integer numerators in O(N deg p), reduced once."""
    if p.is_zero() or not series.coeffs:
        return exact_series(())
    nums, den = integer_numerators(series._exact_coeffs)
    p_nums, p_den = integer_numerators(p.coeffs)
    z = _SeqOperator.z_multiplication()
    acc = [(0, 0)] * len(nums)
    for k, (c_re, c_im) in enumerate(reversed(p_nums)):
        if k:  # z's rule has integer coefficients: over the denominator 1
            acc = z.apply_to_numerators(acc, len(acc) + 1)[0]
        acc[:len(nums)] = [(x_re + c_re * a_re - c_im * a_im, x_im + c_re * a_im + c_im * a_re)
                           for (x_re, x_im), (a_re, a_im) in zip(acc, nums)]
    return exact_series(from_numerators(re, im, den * p_den) for re, im in acc)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class EvaluationResult(NamedTuple):
    # an mpc of the context shared at the requested precision: compute with
    # it freely, but never change that context's prec
    value: object
    terms_used: int
    # a certified bound on sum_{terms_used <= m <= N} |a_m z^(m_)|, the
    # stored terms not summed, rounded up: 0.0 only when none is left or
    # they are certified zero, inf where the ratios certify nothing or were
    # not read (eps not positive and finite).  Nothing here bounds the terms
    # of the infinite series beyond the stored a_N
    tail_bound: float
    converged: bool
    # "window" | "negligible" | "integer" | "exhausted" | "n_max" | "precision"
    reason: str
    # |value - sum_{n < terms_used} a_n z^(n_)| <= rounding_radius for the
    # stored exact a_n and z as cast to the precision ("negligible": the
    # sum of every stored term); any other neglected tail is not covered
    # (see tail_bound)
    rounding_radius: float

    def __complex__(self) -> complex:
        return complex(self.value)


def evaluate_exact(series: BinomialSeries, z) -> ExactScalar:
    """Exact finite sum of the series' exact image at the point's (exact.lift)."""
    zz = lift(z)
    if zz.is_integer() and zz.re >= 0:
        # z^(n_) is an integer here, and vanishes for every n > z: sum the
        # integer numerators over their common denominator, reduce once
        m = zz.re.numerator
        nums, den = series._memoized("numerators",
                                     lambda: integer_numerators(series._exact_coeffs))
        # Horner's rule: S <- a_n + (m - n) S, from n = min(m, N) down to 0
        re = im = 0
        for n in range(min(m, len(nums) - 1), -1, -1):
            a_re, a_im = nums[n]
            re = a_re + (m - n) * re
            im = a_im + (m - n) * im
        return from_numerators(re, im, den)
    return sum(_exact_terms(series, zz), ZERO)


def _exact_terms(series: BinomialSeries, z: ExactScalar) -> Iterator[ExactScalar]:
    """a_n z^(n_) for each stored a_n, with z^(n_) = z^((n-1)_) (z - n + 1)."""
    ff = ONE
    for n, a in enumerate(series._exact_coeffs):
        if n:
            ff = ff * (z - (n - 1))
        yield a * ff


def evaluate(series: BinomialSeries, z, eps: float = DEFAULT_EPS,
             n_max: int = DEFAULT_N_MAX, *,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> EvaluationResult:
    """Partial sum of sum a_n z^(n_) with multiplicative falling-factorial updates.

    Stopping rules, in order of priority:
      * z a nonnegative integer m, as its exact image (exact.lift) reads,
        whatever its type: 8, 8.0, mpf(8) and ExactScalar(8) alike.  Terms
        beyond n = m vanish identically, so the sum terminates at min(m, N);
        it is summed exactly, cast once and converged unconditionally.
      * negligible remainder: after a term n short of the last one the sum
        may reach, a certified bound on sum_{m > n} |a_m z^(m_)| over the
        stored a_m is at most one unit of the fixed-point partial sum, so no
        term left can change the sum beyond its rounding (see
        _fixed_point_sum).
      * window rule: |term| < eps * max(1, |partial|), tested exactly, for
        WINDOW consecutive terms, allowed only once n >= ceil(|z|) + 5
        (|z^(n_)| can grow before coefficient decay takes over).
      * exhaustion: all stored coefficients consumed; the value is then the
        exact finite sum of the stored object and is reported converged.
      * n_max reached first: returned with converged=False.  The cap holds
        at integer points too, for every series.
    eps <= 0, NaN and inf stop no sum early.  For positive finite eps, a
    result the rules call converged whose rounding_radius exceeds
    eps * max(1, |value|) is reported not converged, with reason
    "precision": the precision cannot defend its digits.

    Other points, and integer ones past the cap, are cast to precision_bits
    and summed in fixed point by _fixed_point_sum, which also bounds the
    stored terms left unsummed (tail_bound); the cast coefficients are kept
    on the series.  The value is an mpc of the context shared at that
    precision.  The rounding radius and the "precision" verdict are computed
    in integers, so both hold also where the radius or |value| leaves the
    float range; the radius then reads inf.
    """
    from mpmath.libmp import from_man_exp, mpc_abs, mpf_ceil, to_int
    ctx = _context(precision_bits)
    point = _point(z, ctx)
    zr, zi, ez = point
    top_index = len(series.coeffs) - 1
    e_sq, e_exp = _eps_squared(eps, ctx)

    # a nonnegative integer casts to one, so only such a cast is lifted
    if not zi and zr >= 0 and not zr & ((1 << -ez) - 1):
        ze = lift(z)
        if ze.is_integer() and ze.re >= 0 and min(ze.re, top_index) <= n_max:
            # exact finite sum (re + im i) / den, cast once at the end
            total = evaluate_exact(series, ze)
            value = to_mpc(total, ctx)
            ((re, im),), den = integer_numerators([total])
            err, exp = _cast_error(0, re, im, 0, den, value)
            stop = min(int(ze.re), top_index)
            return _defended(EvaluationResult(
                value, max(stop + 1, 0), 0.0, True, "integer", _float_up(err, exp, den)),
                e_sq, e_exp, err, exp, den)

    capped = n_max < top_index
    limit = n_max if capped else top_index
    # ceil(|z|) + 5 as mpmath rounds |z| and its ceiling at the precision
    raw = from_man_exp(zr, ez), from_man_exp(zi, ez)
    min_index = to_int(mpf_ceil(mpc_abs(raw, precision_bits, "n"), precision_bits, "n")) + 5

    re, im, exp, units, terms_used, reason, tail = _fixed_point_sum(
        series, ctx, point, limit, min_index, e_sq, e_exp)
    value = ctx.make_mpc((from_man_exp(re, exp, precision_bits, "n"),
                          from_man_exp(im, exp, precision_bits, "n")))
    # the final cast is the last rounding counted
    err, exp = _cast_error(units, re, im, exp, 1, value)

    if reason:  # "window" or "negligible"
        converged = True
    elif capped:
        # the cap cut the sum short of its natural end, integer point or not
        converged, reason = False, "n_max"
    else:
        converged, reason = True, "exhausted"  # the stored object's full sum
    return _defended(EvaluationResult(value, terms_used, tail, converged, reason,
                                      _float_up(err, exp)), e_sq, e_exp, err, exp, 1)


def _point(z, ctx: MPContext) -> tuple:
    """z as cast to ctx's precision, (re, im, exp) with (re + im i) 2^exp
    its value and exp <= 0, as _gaussian(to_mpc(z, ctx)._mpc_, 0) gives it.

    A Python float or complex, and an int of at most ctx.prec bits, cast
    exactly, so they are taken apart without a cast; other points are cast.
    """
    if isinstance(z, (float, complex)):
        parts = z.real, z.imag
        if not all(map(math.isfinite, parts)):
            raise ValueError("cannot evaluate with a non-finite value")
        # the denominators are powers of two
        (p_re, q_re), (p_im, q_im) = (x.as_integer_ratio() for x in parts)
        k = max(q_re, q_im).bit_length()
        return p_re << k - q_re.bit_length(), p_im << k - q_im.bit_length(), 1 - k
    if isinstance(z, int) and z.bit_length() <= ctx.prec:
        return int(z), 0, 0
    return _gaussian(to_mpc(z, ctx)._mpc_, 0)


def _eps_squared(eps, ctx: MPContext) -> tuple:
    """(e_sq, e_exp) with eps^2 = e_sq 4^e_exp for eps as ctx casts it; e_sq
    is 0 for eps <= 0, NaN and inf, which stop no sum.  A float casts
    exactly, so it is taken apart without a cast."""
    if isinstance(eps, float):
        if not 0 < eps < math.inf:
            return 0, 0
        num, den = eps.as_integer_ratio()  # den is a power of two
        return num * num, 1 - den.bit_length()
    sign, man, exp, _ = ctx.mpf(eps)._mpf_
    return 0 if sign else man * man, exp


def _cast_error(units: int, re: int, im: int, exp: int, den: int, value) -> tuple:
    """The radius of the mpc value cast from a sum S = (re + im i)/den 2^exp
    that lies within units/den 2^exp of what it stands for: units plus
    |re(S - value)| + |im(S - value)|, as (err, e) with the radius
    err/den 2^e.  e is exp, or lower where a part of value lies lower
    (which needs exp <= 0: at integer points exp is 0)."""
    v_re, v_im, e = _gaussian(value._mpc_, exp)
    s = exp - e
    return (units << s) + abs((re << s) - den * v_re) + abs((im << s) - den * v_im), e


def _defended(result: EvaluationResult, e_sq: int, e_exp: int, err: int, exp: int,
              den: int) -> EvaluationResult:
    """result, not converged for reason "precision" when its radius
    err/den 2^exp exceeds eps max(1, |value|), eps^2 = e_sq 4^e_exp; as it
    is for e_sq = 0.

    Decided exactly, as err^2 2^gap > rhs for integers at one exponent, the
    side at the higher exponent shifted down to the other's (as the window
    rule in _fixed_point_sum does), so it also holds where the radius or
    |value| overflows a float.
    """
    if not (result.converged and e_sq):
        return result
    v_re, v_im, ev = _gaussian(result.value._mpc_)
    v_sq = v_re * v_re + v_im * v_im
    if v_sq.bit_length() + 2 * ev > 0:  # |value| >= 1
        rhs, gap = e_sq * v_sq * den * den, 2 * (exp - e_exp - ev)
    else:
        rhs, gap = e_sq * den * den, 2 * (exp - e_exp)
    # x 2^gap > r iff x > floor(r 2^-gap), and iff ceil(x 2^gap) > r
    lhs = err * err
    if (lhs > rhs >> gap) if gap >= 0 else (-(-lhs >> -gap) > rhs):
        return result._replace(converged=False, reason="precision")
    return result


# a float sum, product or quotient, rounded to nearest and then multiplied by
# _UP (rounded again), is at least its exact value: each rounding loses less
# than 2^-53 relative
_UP = 1 + 2.0 ** -48
_SQRT2_UP = 1.41421356237311  # >= sqrt(2) _UP


def _ratio_maxima(coeffs: Sequence) -> tuple[list, list]:
    """Suffix maxima of the coefficient ratios, as floats rounded up.

    S[n] >= |a_(m+1)/a_m| and U[n] >= m |a_(m+1)/a_m| for every n <= m < N,
    and S[N] = U[N] = 0.  A zero a_(m+1) gives the ratio 0; a zero a_m
    before a nonzero a_(m+1) gives inf, so nothing is certified across it.
    Each |a_m| is bracketed from its parts' quotients, each rounded up to a
    float once (_bracket).
    """
    brackets = [_abs_bracket(a) for a in coeffs]
    s, u = [0.0] * len(brackets), [0.0] * len(brackets)
    s_max = u_max = 0.0
    for m in range(len(brackets) - 2, -1, -1):
        cur, nxt = brackets[m], brackets[m + 1]
        if nxt is None:
            r = 0.0
        elif cur is None:
            r = math.inf
        else:
            # the mantissa quotient lies within 2^+-3, so 2^+-900 keeps it
            # normal; a larger exponent gap only makes r larger
            gap = nxt[2] - cur[2]
            r = math.inf if gap > 900 else \
                math.ldexp(nxt[1] / cur[0] * _UP, gap if gap > -900 else -900)
        s_max = max(s_max, r)
        u_max = max(u_max, m * r * _UP)  # 0 inf is NaN, which max passes over
        s[m], u[m] = s_max, u_max
    return s, u


def _abs_bracket(a: ExactScalar):
    """(lo, hi, e) with lo 2^e <= |a| <= hi 2^e, lo and hi floats; None for 0.

    A Gaussian a lies between its larger part and sqrt(2) times it.
    """
    parts = [_bracket(p.numerator, p.denominator) for p in (a.re, a.im) if p]
    if len(parts) < 2:
        return parts[0] if parts else None
    e = max(parts[0][2], parts[1][2])
    # a part ldexp flushes towards 0 lies below 2^-900 times the other, so
    # neither maximum changes
    lo = max(math.ldexp(lo, pe - e) for lo, _, pe in parts)
    hi = max(math.ldexp(hi, pe - e) for _, hi, pe in parts) * _SQRT2_UP
    return lo, hi, e


def _bracket(num: int, den: int) -> tuple:
    """(lo, hi, e) with lo 2^e <= |num/den| <= hi 2^e, for num != 0, den > 0:
    hi is |num/den| 2^-e, which lies in (1/2, 2), rounded up, and lo the
    float below hi."""
    e = num.bit_length() - den.bit_length()
    hi = _float_up(abs(num), -e, den)
    return math.nextafter(hi, 0.0), hi, e


def _fixed_point_sum(series: BinomialSeries, ctx: MPContext, point: tuple, limit: int,
                     min_index: int, e_sq: int, e_exp: int) -> tuple:
    """Terms 0..limit of sum a_n z^(n_), summed in Gaussian-integer fixed point.

    point is z as (re, im, exp) with exp <= 0, so z - n is exact.  z^(n_) is
    carried at width = precision + GUARD bits, floored after each product;
    a term is the exact product of that and the cast coefficient; the
    partial sum's exponent rises with the largest term, keeping width bits
    of it, and each term is floored into it.  The overflow test rounds the
    term to the precision first.  eps enters as eps^2 = e_sq 4^e_exp, e_sq
    0 where eps is not positive and finite.  Two rules may stop the sum
    before limit, for e_sq > 0 only:
      * negligible remainder, tested after each term n < limit.  For
        m >= n, |t_(m+1)| = |a_(m+1)/a_m| |z - m| |t_m| <= rho |t_m| with
        rho = S[n] |z| + U[n] from the series' memo of ratio suffix maxima
        (_ratio_maxima; |z - m| <= |z| + m), so once rho < 1 every stored
        term after n adds up to at most |t_n| rho/(1 - rho).  When that is
        at most one unit 2^exp of the partial sum, the sum stops and the
        unit joins the rounding bound, which then covers all N + 1 stored
        terms.  Every float in the test is rounded up (_UP), and
        |t_n| < 2^(top + 1/2) (1 + 2^(2-prec)) (1 + rho_ff) for the
        carried term's top bit top, so 2^(top + 1) bounds the exact term
        while the rescales k stay below 2^(width - 10).  O(1) float work
        per term; the memo is built once per series.
      * the window rule (see evaluate), by one exact integer comparison.

    Returns (re, im, exp, units, terms_used, reason, remainder): the partial
    sum is (re + im i) 2^exp, and units 2^exp bounds its distance from the
    exact sum of the terms used (stored a_n, z as point holds it) before the
    final cast, or, when reason is "negligible", from the exact sum of every
    stored term.  reason is None when the sum ran to limit.  remainder
    bounds sum |t_m| over the stored terms after the last one summed, n,
    whatever ended the sum: 2^(top + 1) rho/(1 - rho) with rho at n, as in
    the negligible rule, computed once after the loop and rounded up; 0
    when rho < 1 follows a zero term, and at the natural end n = N (S[N] =
    U[N] = 0); inf when rho >= 1, or when terms are left and eps left the
    ratios unread.  The units bound adds, with k the rescales of z^(n_) and
    u = 2^-width:
      * |a_n - cast a_n| <= 4 2^-prec |cast a_n| for a rounded cast (mpmath
        rounds numerator, denominator and quotient to nearest), else 0;
      * |z^(n_) - carried z^(n_)| <= rho_ff |carried z^(n_)|, with each
        floor losing at most sqrt(2) 2^(1-width) relative, so
        rho_ff <= (1 + 4u)^k - 1 <= 8uk while 4uk <= 1/2;
      * less than sqrt(2) units for each floor of a term or of the sum,
        counted at the final exponent, which only rises.
    """
    prec = ctx.prec
    width = prec + GUARD
    zr, zi, ez = point
    unit = 1 << -ez
    if e_sq:
        ratio_max, ratio_m = series._memoized(
            "ratios", lambda: _ratio_maxima(series._exact_coeffs))
        # |z| rounded up, from the top 53 bits of its parts
        s = max((abs(zr) | abs(zi)).bit_length() - 53, 0)
        z_num, z_den = (math.hypot((abs(zr) >> s) + (s > 0), (abs(zi) >> s) + (s > 0))
                        * _UP).as_integer_ratio()
        z_abs = _float_up(z_num, ez + s, z_den)
    overflow_top = _OVERFLOW_TOP
    fr, fi, ef = 1, 0, 0  # carried z^(n_) = (fr + fi i) 2^ef
    dr = zr               # re(z - n) at exponent ez
    pr = pi = 0
    es = None             # the sum's exponent, set by the first nonzero term
    total = rounded_total = 0  # bounds of sum |term| in units of 2^es: all, rounded casts
    rescales = floors = 0
    casts = ()
    run = 0  # the length of the current run of small terms
    reason = None
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
        b = (abs(tr) | abs(ti)).bit_length()
        if b:
            top = b + et  # |term| in [2^(top-1), 2^(top+1/2))
            if top + 2 > overflow_top and \
                    _term_abs(tr, ti, et, ctx) > ctx.mpf(10) ** OVERFLOW_EXPONENT:
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
        if e_sq:
            # a product below the normal range may lose half the least
            # subnormal, which _UP does not cover
            p = ratio_max[n] * z_abs
            if p < 2.0 ** -1022 and ratio_max[n] and z_abs:
                p += math.ulp(0.0)
            rho = (p + ratio_m[n]) * _UP
            if rho < 1 and n < limit and es is not None:
                q = rho / (1 - rho) * _UP
                # the remainder is at most 2^(top + 1) q: 0 after a zero term
                if not b or es - top - 1 > 1000 or q <= math.ldexp(1.0, es - top - 1):
                    reason = "negligible"
                    break
        if n >= min_index:
            # |t|^2 < eps^2 max(1, |p|^2) as t_sq 2^gap < rhs, both integers:
            # the side at the higher exponent is shifted down to the other's,
            # exact as t < x iff t < ceil(x) and x < r iff floor(x) < r
            t_sq = tr * tr + ti * ti
            p_sq = pr * pr + pi * pi
            if p_sq and p_sq.bit_length() + 2 * es > 0:  # |p| >= 1
                rhs, gap = e_sq * p_sq, 2 * (et - e_exp - es)
            else:
                rhs, gap = e_sq, 2 * (et - e_exp)
            if (t_sq < -(-rhs >> gap)) if gap >= 0 else (t_sq >> -gap < rhs):
                run += 1
                if run == WINDOW:
                    reason = "window"
                    break
            else:
                run = 0
    # 4 2^-prec (1 + rho_ff) rounded_total + rho_ff total with rho_ff <=
    # rescales 2^-d, rounded up; 4uk <= 1/2 holds, as 2^(width - 3) terms
    # are never stored; a negligible remainder adds one unit
    d = width - 3
    bound = rounded_total * ((1 << d) + rescales) * 4 + (total * rescales << prec)
    units = -(-bound >> (d + prec)) + 2 * floors + (reason == "negligible")
    terms_used = n + 1 if reason else max(limit + 1, 0)
    remainder = 0.0 if terms_used == len(series.coeffs) else math.inf
    if remainder and e_sq and terms_used and rho < 1:  # rho at the last n summed
        q_num, q_den = (rho / (1 - rho) * _UP).as_integer_ratio()
        remainder = _float_up(q_num, top + 1, q_den) if b else 0.0
    return pr, pi, es or 0, units, terms_used, reason, remainder


def _term_abs(tr: int, ti: int, et: int, ctx: MPContext):
    """|(tr + ti i) 2^et| as a ctx.mpf, rounded to ctx's precision."""
    from mpmath.libmp import from_man_exp, mpc_abs
    prec = ctx.prec
    return ctx.make_mpf(mpc_abs((from_man_exp(tr, et, prec, "n"),
                                 from_man_exp(ti, et, prec, "n")), prec, "n"))


# ---------------------------------------------------------------------------
# sequence acceleration
# ---------------------------------------------------------------------------

class AcceleratedResult(NamedTuple):
    value: object  # an mpc of the context shared at the requested precision
    terms_used: int
    error_estimate: float  # |L_k - L_(k-1)|: an estimate, not a bound
    converged: bool
    reason: str  # "integer" | "terminated" | "levin" | "unsettled" | "singular"


def evaluate_accelerated(series: BinomialSeries, z, *,
                         precision_bits: int = DEFAULT_PRECISION_BITS) -> AcceleratedResult:
    """Levin t-transform of the partial sums of sum a_n z^(n_), computed exactly.

    With terms t_n = a_n z^(n_), partial sums s_n and remainder estimates
    omega_n = t_n, the order-k transform started at the first nonzero term n0
    (Levin 1973; Weniger 1989, Comput. Phys. Rep. 10, with beta = 1) is

        L_k = sum_j w_j s_(n0+j) / t_(n0+j)  /  sum_j w_j / t_(n0+j),
        w_j = (-1)^j C(k, j) (n0 + j + 1)^(k-1),   j = 0..k,

    with k = N - n0, so every stored term is used.  The sums run in Gaussian
    rationals from the stored coefficients and the value is cast once at the
    end, at precision_bits.  error_estimate is |L_k - L_(k-1)|: an
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
    ctx = _context(precision_bits)
    zz = lift(z)

    if zz.is_integer() and zz.re >= 0:
        stop = min(int(zz.re), len(series.coeffs) - 1)
        return AcceleratedResult(to_mpc(evaluate_exact(series, zz), ctx),
                                 max(stop + 1, 0), 0.0, True, "integer")

    terms = list(_exact_terms(series, zz))
    sums = list(accumulate(terms))
    total = sums[-1] if sums else ZERO
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

class TaylorCoefficients(NamedTuple):
    coeffs: tuple
    # True when the source's growth estimate is >= 1 or was not taken
    # (too few coefficients): the conversion is then conditional
    chi_flagged: bool
    chi_value: float | None = None  # None when not estimated


def taylor_from_binomial(series: BinomialSeries, m_max: int,
                         k_cut: int | None = None,
                         table: StirlingTable | None = None) -> TaylorCoefficients:
    """b_n = sum_{k=n}^{k_cut} a_k * T1[k][n]: Taylor coefficients at 0.

    Exact for either regime: the sums run on the coefficients' exact image,
    by Horner's rule in z - k, so no table row is read.
    The inner sums are only absolutely convergent when the source decays
    fast enough (classify's growth estimate below 1); otherwise, or when
    there are too few coefficients to estimate it, the result is flagged
    but still returned, truncated at k_cut.
    """
    # table is accepted and unread, because perfbench's exact-core workload passes one
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    order = series.truncation_order
    if k_cut is None:
        k_cut = order
    elif k_cut < 0:
        raise ValueError("k_cut must be nonnegative")
    if k_cut > order:
        raise ValueError(f"k_cut {k_cut} exceeds truncation order {order}")
    out = _change_basis(series._exact_coeffs[:k_cut + 1], m_max + 1, False)

    from .analysis import classify  # keeps analysis series-free
    cls = series._memoized("classify", lambda: classify(series.coeffs))
    return TaylorCoefficients(tuple(out), cls.chi_undefined or cls.chi >= 1.0,
                              None if math.isnan(cls.chi) else cls.chi)


def binomial_from_taylor(taylor_coeffs: Sequence, n_max: int | None = None,
                         k_cut: int | None = None) -> BinomialSeries:
    """a_n = sum_{k=n}^{k_cut} b_k * T2[k][n]: mirror of taylor_from_binomial.

    The sums run by Horner's rule in z on the falling-factorial side.  Float,
    complex and mpmath inputs are lifted exactly, so the result is an exact
    series whatever the input.
    """
    top = len(taylor_coeffs) - 1
    if k_cut is None:
        k_cut = top
    elif k_cut < 0:
        raise ValueError("k_cut must be nonnegative")
    if k_cut > top:
        raise ValueError(f"k_cut {k_cut} exceeds available Taylor order {top}")
    if n_max is None:
        n_max = k_cut
    elif n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = _change_basis([lift(b) for b in taylor_coeffs[:k_cut + 1]], n_max + 1, True)
    return exact_series(out)
