"""Binomial series: finite coefficient lists against the falling-factorial basis.

A BinomialSeries stores a0..aN for Y(z) = sum a_n z^(n_).  The stored object
is always the exact finite sum it holds; operations transform that object
exactly.  When the input is a truncation of an infinite series, each
operation's docstring states through which index the output coefficients
remain faithful to the underlying series (delta: N-1, shift by m: N-m,
mul_by_z: N+1, and so on); beyond that the entries are still the exact
transform of the stored polynomial.

The regime says how the coefficients are stored: "exact" series hold
Gaussian rationals, "approx" series hold binary64 values (Python floats or
complex, as newton_series and the JSON reader give them).  Binary floats are
rationals, so every computation runs on the coefficients' exact image: the
coefficients themselves for an exact series, their lossless lift
(exact.lift) for an approx one.  Operators and Taylor conversions therefore
return exact series, also for approx input.  precision_bits is the
precision evaluations cast to by default, not a property of the stored
data.

Evaluation builds an isolated mpmath context per call.  What repeated calls
share lives on the series: a private memo of values derived from the
coefficients alone, chiefly the exact image, the coefficients cast to raw
libmp mpc tuples (one prefix per precision) and their integer numerators
for exact sums at integer points.  Those tuples are immutable and belong
to no context, so evaluation stays re-entrant; each coefficient is cast at
most once per precision.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (fone, fzero, from_int, mpc_abs, mpc_add, mpc_mul,
                          mpc_sub_mpf, mpf_gt, mpf_lt, mpf_mul)

from .basis import StirlingTable, apply_table, default_table
from .errors import EvaluationOverflowError
from .exact import (ExactScalar, ONE, ZERO, as_exact, from_numerators,
                    integer_numerators, lift, magnitude, to_mpc)
from .polynomial import Polynomial

EXACT = "exact"
APPROX = "approx"

DEFAULT_PRECISION_BITS = 128
DEFAULT_EPS = 1e-12
DEFAULT_N_MAX = 10000
DEFAULT_WINDOW = 5  # consecutive small terms required before stopping

# |term| beyond this aborts evaluation; mpmath itself would happily continue.
OVERFLOW_EXPONENT = 100000


def make_context(precision_bits: int = DEFAULT_PRECISION_BITS) -> MPContext:
    """A fresh mpmath context; precision below 53 bits is rejected."""
    if precision_bits < 53:
        raise ValueError(f"precision_bits must be >= 53, got {precision_bits}")
    ctx = MPContext()
    ctx.prec = precision_bits
    return ctx


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
        if self.regime == EXACT:
            object.__setattr__(self, "coeffs", tuple(as_exact(c) for c in self.coeffs))
        else:
            if self.precision_bits < 53:
                raise ValueError("precision_bits must be >= 53")
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
        """The first count coefficients as raw mpc tuples at ctx's precision.

        The stored prefix is replaced by a longer one, never extended in
        place, so a concurrent caller always reads a correct prefix; threads
        racing on one series may repeat a cast, never store a wrong one.
        """
        have = self._memo.get(ctx.prec, ())
        if len(have) < count:
            have += tuple(to_mpc(a, ctx)._mpc_ for a in self.coeffs[len(have):count])
            self._memo[ctx.prec] = have
        return have


def exact_series(coeffs: Iterable, origin: str = "") -> BinomialSeries:
    return BinomialSeries(tuple(coeffs), EXACT, origin)


def approx_series(coeffs: Iterable, precision_bits: int = DEFAULT_PRECISION_BITS,
                  origin: str = "") -> BinomialSeries:
    return BinomialSeries(tuple(coeffs), APPROX, origin, precision_bits)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def delta(series: BinomialSeries) -> BinomialSeries:
    """Forward difference: (delta Y)_n = (n+1) a_{n+1}.

    Faithful through index N-1 when the input truncates an infinite series.
    """
    a = series._exact_coeffs
    return series.with_coeffs((n + 1) * a[n + 1] for n in range(len(a) - 1))


def mul_by_z(series: BinomialSeries) -> BinomialSeries:
    """z * Y: c_0 = 0, c_n = n a_n + a_{n-1}; the top entry is a_N alone.

    Output has one more coefficient than the input and is faithful through
    index N+1 for truncations (the missing a_{N+1} never enters c_{N+1}).
    """
    a = series._exact_coeffs
    if not a:
        return series.with_coeffs(())
    out = [ZERO]
    for n in range(1, len(a)):
        out.append(n * a[n] + a[n - 1])
    out.append(a[-1])
    return series.with_coeffs(out)


def shift(series: BinomialSeries, m: int) -> BinomialSeries:
    """Y(z+m) = sum_j C(m,j) delta^j Y for integer m >= 0.

    Output keeps the input length (exact for the stored polynomial); entries
    are faithful through index N-m for truncations of infinite series.
    """
    if m < 0:
        raise ValueError("shift step must be a nonnegative integer")
    a = series._exact_coeffs
    if not a or m == 0:
        return series.with_coeffs(a)
    out = [ZERO] * len(a)
    cur = a
    for j in range(m + 1):
        c = math.comb(m, j)
        for n, v in enumerate(cur):
            out[n] = out[n] + c * v
        cur = [(n + 1) * cur[n + 1] for n in range(len(cur) - 1)]
        if not cur:
            break
    return series.with_coeffs(out)


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
    """p(z) * Y via iterated mul_by_z, zero-extended to length N + deg p + 1."""
    if p.is_zero() or not series.coeffs:
        return series.with_coeffs(())
    width = len(series.coeffs) + len(p.coeffs) - 1
    out = [ZERO] * width
    power = series
    for k, c in enumerate(p.coeffs):
        if k:
            power = mul_by_z(power)
        if c.is_zero():
            continue
        for n, v in enumerate(power._exact_coeffs):
            out[n] = out[n] + c * v
    return series.with_coeffs(out)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationResult:
    value: object  # ctx.mpc at the requested precision
    terms_used: int
    last_term_magnitude: float
    tail_bound: float
    converged: bool
    reason: str  # "window" | "integer" | "exhausted" | "n_max"

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


def _as_integer_point(z, ctx):
    """Return nonnegative int when z is exactly a nonnegative integer, else None."""
    if z.imag != 0:
        return None
    r = z.real
    if r < 0 or r != ctx.floor(r):
        return None
    return int(r)


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
      * n_max reached first: returned with converged=False.

    The result value is an mpc from an isolated context at precision_bits
    (default: the series' own precision_bits).  The coefficients are cast
    once per precision and kept on the series.
    """
    if precision_bits is None:
        precision_bits = series.precision_bits
    ctx = make_context(precision_bits)
    zz = to_mpc(z, ctx)

    if series.regime == EXACT and isinstance(z, (int, Fraction, ExactScalar)) \
            and not isinstance(z, bool):
        ze = as_exact(z)
        if ze.is_integer() and ze.re >= 0:
            # exact finite sum, cast once at the end
            m = int(ze.re)
            total = evaluate_exact(series, ze)
            stop = min(m, len(series.coeffs) - 1)
            last = _exact_term_magnitude(series, m, stop)
            return EvaluationResult(to_mpc(total, ctx), max(stop + 1, 0), last, 0.0,
                                    True, "integer")

    m = _as_integer_point(zz, ctx)

    limit = len(series.coeffs) - 1
    reason = "exhausted"
    if m is not None and m < limit:
        limit = m
        reason = "integer"
    capped = False
    if n_max < limit:
        limit = n_max
        capped = True

    # The loop runs on raw libmp tuples, with the same operations in the
    # same order as ctx.mpc arithmetic, so every result is bit-identical.
    prec, rnd = ctx._prec_rounding
    eps_mp = ctx.mpf(eps)._mpf_
    # binary exponents (exp + bitcount) of a positive finite eps and the cap
    eps_top = eps_mp[2] + eps_mp[3] if eps_mp[0] == 0 and eps_mp[1] else None
    overflow = (ctx.mpf(10) ** OVERFLOW_EXPONENT)._mpf_
    overflow_top = overflow[2] + overflow[3]
    min_index = int(ctx.ceil(abs(zz))) + 5
    z_raw = zz._mpc_
    partial = ctx.mpc(0)._mpc_
    ff = ctx.mpc(1)._mpc_
    casts = ()
    # the final window of terms, for the tail bound (a window <= 0 slices
    # from the front in _geometric_tail, so then every term is kept)
    recent: deque = deque(maxlen=window if window > 0 else None)
    streak = 0
    terms_used = 0
    stopped_by_window = False

    for n in range(limit + 1):
        if n == len(casts):
            casts = series._casts(ctx, min(limit + 1, 2 * n + 16))
        term = mpc_mul(casts[n], ff, prec, rnd)
        partial = mpc_add(partial, term, prec, rnd)
        recent.append(term)
        terms_used = n + 1
        top = _top_exponent(term)
        # |term| <= 2^(top+1) <= 2^(overflow_top-1) <= overflow: no overflow
        if top is None or top + 2 > overflow_top:
            if mpf_gt(mpc_abs(term, prec, rnd), overflow):
                raise EvaluationOverflowError(n)
        if n >= min_index and _below_window(term, top, partial, eps_mp, eps_top,
                                            prec, rnd):
            streak += 1
            if streak >= window:
                stopped_by_window = True
                break
        else:
            streak = 0
        ff = mpc_mul(ff, mpc_sub_mpf(z_raw, from_int(n), prec, rnd), prec, rnd)

    if stopped_by_window:
        converged, reason = True, "window"
        mags = [ctx.make_mpf(mpc_abs(t, prec, rnd)) for t in recent]
        tail = _geometric_tail(mags, window)
    elif capped:
        # the cap cut the sum short of its natural end, integer point or not
        converged, reason, tail = False, "n_max", math.inf
    elif m is not None and reason == "integer":
        converged, tail = True, 0.0
    else:
        converged, tail = True, 0.0  # full stored sum, exact for the object

    last = float(ctx.make_mpf(mpc_abs(recent[-1], prec, rnd))) if terms_used else 0.0
    return EvaluationResult(ctx.make_mpc(partial), terms_used, last, tail,
                            converged, reason)


def _top_exponent(z: tuple):
    """e with the larger part of the raw mpc z in [2^(e-1), 2^e).

    -inf for zero; None when a part is infinite or nan, where no bound holds.
    Rounded to nearest, |z| then lies in [2^(e-1), 2^(e+1)].
    """
    top = -math.inf
    for part in z:
        if part[1]:
            top = max(top, part[2] + part[3])
        elif part != fzero:
            return None
    return top


def _below_window(term: tuple, top, partial: tuple, eps: tuple, eps_top,
                  prec: int, rnd: str) -> bool:
    """|term| < eps * max(1, |partial|), rounded as the mpf objects round it.

    eps_top is None unless eps is finite and positive.  Then eps lies in
    [2^(eps_top-1), 2^eps_top) and, with p the top exponent of partial,
    max(1, |partial|) in [2^max(0, p-1), 2^max(0, p+1)], so exponent bounds
    decide the test unless the two sides come within a few binades; only
    then are the magnitudes taken.
    """
    if top is not None and eps_top is not None:
        p = _top_exponent(partial)
        if p is not None:
            if top + 1 < eps_top - 1 + max(0, p - 1):
                return True
            if top - 1 >= eps_top + max(0, p + 1):
                return False
    size = mpc_abs(partial, prec, rnd)
    scale = mpf_mul(eps, size if mpf_gt(size, fone) else fone, prec, rnd)
    return mpf_lt(mpc_abs(term, prec, rnd), scale)


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
    ctx = make_context(series.precision_bits)
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
