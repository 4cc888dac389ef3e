"""Growth diagnostics for coefficient sequences and evaluated functions.

The central desk-scale estimator: for coefficients a_n,

    s_n = n ln n / (-ln |a_n|),

whose limsup is the convergence exponent chi of the binomial series.  A sum
with chi < 1 defines an entire function of order chi; |a_n| <= K/n! gives
convergence on the right half plane.  The classifier reports raw numbers
next to every verdict, never a bare label.

classify is the one place a growth verdict is formed.  formal_solve returns
its Classification and keeps it on the solved series, where
continuation_eval and taylor_from_binomial read it instead of estimating
again; the CLI's solve and analyze print it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .exact import ExactScalar, lift

ENTIRE = "entire"
RIGHT_HALF_PLANE = "right-half-plane"
UNKNOWN = "unknown"

MIN_GROWTH_COEFFS = 16  # fewest coefficients a window estimate is taken from
_ENTIRE_MARGIN = 0.1  # an entire verdict needs chi < 1 - _ENTIRE_MARGIN


def _abs_squared_ints(a: ExactScalar) -> tuple[int, int]:
    """|a|^2 as an unreduced integer numerator and denominator."""
    re, im = a.re, a.im
    return ((re.numerator * im.denominator) ** 2 + (im.numerator * re.denominator) ** 2,
            (re.denominator * im.denominator) ** 2)


_TOP_BITS = 96  # bits kept of each factor when bracketing |a|^2
_WINDOW_BITS = 160  # bits kept of the bracket's ends


def _top(f: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo 2^t <= f <= hi 2^t for f >= 0: lo is f's top bits,
    and hi adds 1 to them only when bits were cut off."""
    t = f.bit_length() - _TOP_BITS
    if t <= 0:
        return f, f, 0
    lo = f >> t
    return lo, lo + 1, t


def _product_bounds(f: int, g: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo 2^t <= f g <= hi 2^t, from the top bits of f and g."""
    f_lo, f_hi, f_t = _top(f)
    g_lo, g_hi, g_t = _top(g)
    return f_lo * g_lo, f_hi * g_hi, f_t + g_t


def _scaled(v: int, k: int, up: bool) -> int:
    """v 2^k, rounded down (or up, when up is set) to an integer."""
    if k >= 0:
        return v << k
    return -((-v) >> -k) if up else v >> -k


def _rounded_abs_squared_numerator(a: ExactScalar) -> int:
    """An integer that rounds to the same double as X^2 + Y^2, where
    X = p_re q_im and Y = p_im q_re: |a|^2 (q_re q_im)^2 for a = p_re/q_re +
    (p_im/q_im) i.

    X and Y are bracketed from the top bits of their factors, which gives
    lo 2^e <= X^2 + Y^2 <= hi 2^e with lo and hi of about _WINDOW_BITS bits.
    Rounding to nearest is monotone, so when lo and hi round to the same
    double, so does every integer between them: that double's mantissa at
    exponent e is returned.  Otherwise X^2 + Y^2 is formed exactly.
    """
    p_re, p_im = abs(a.re.numerator), abs(a.im.numerator)
    q_re, q_im = a.re.denominator, a.im.denominator
    x_lo, x_hi, x_t = _product_bounds(p_re, q_im)
    y_lo, y_hi, y_t = _product_bounds(p_im, q_re)
    # X^2 + Y^2 < 2^(2 top + 1), so lo and hi stay below 2^(_WINDOW_BITS + 1)
    top = max(x_hi.bit_length() + x_t, y_hi.bit_length() + y_t)
    e = max(2 * top - _WINDOW_BITS, 0)
    lo = _scaled(x_lo * x_lo, 2 * x_t - e, False) + _scaled(y_lo * y_lo, 2 * y_t - e, False)
    hi = _scaled(x_hi * x_hi, 2 * x_t - e, True) + _scaled(y_hi * y_hi, 2 * y_t - e, True)
    rounded = float(lo)
    if rounded == float(hi):
        return int(rounded) << e
    x, y = p_re * q_im, p_im * q_re
    return x * x + y * y


def log_abs(a) -> float | None:
    """ln|a| as float, None for zero; no float overflow at any size.

    a is lifted exactly (exact.lift) and taken apart into integers: ln|p| -
    ln q for a real p/q, and for a Gaussian rational half the log of |a|^2
    from its unreduced integer numerator and denominator.  math.log of an
    int depends only on the int rounded to 53 significant bits, so that
    numerator is formed exactly only where its top bits leave the rounding
    open (_rounded_abs_squared_numerator); the float is the same.
    """
    a = lift(a)
    re, im = a.re, a.im
    if im:
        return 0.5 * math.log(_rounded_abs_squared_numerator(a)) \
            - math.log(re.denominator) - math.log(im.denominator)
    if not re:
        return None
    return math.log(abs(re.numerator)) - math.log(re.denominator)


class ChiEstimate(NamedTuple):
    value: float
    window: tuple[int, int]
    s_trace: tuple[tuple[int, float], ...]  # (n, s_n) over all usable indices
    undefined: bool = False
    zero_sequence: bool = False


def _s_trace(logs: Sequence[float | None]) -> list[tuple[int, float]]:
    trace = []
    for n in range(2, len(logs)):
        la = logs[n]
        if la is None or la >= 0:  # zero or |a_n| >= 1: s_n undefined there
            continue
        trace.append((n, n * math.log(n) / (-la)))
    return trace


def chi_estimate(coeffs: Sequence) -> ChiEstimate:
    """Max of s_n over the trailing half, n = floor(N/2) .. N - 1; +inf with a
    flag when undefined.

    Zero coefficients are skipped, not treated as -inf.  The all-zero
    sequence has chi 0 by convention.  Needs MIN_GROWTH_COEFFS coefficients.
    """
    return _chi_from_logs([log_abs(c) for c in coeffs])


def _chi_from_logs(logs: Sequence[float | None]) -> ChiEstimate:
    """chi_estimate of the coefficients whose log_abs values are logs."""
    lo, hi = len(logs) // 2, max(len(logs) - 1, 0)
    if all(la is None for la in logs):
        return ChiEstimate(0.0, (lo, hi), (), False, True)
    if len(logs) < MIN_GROWTH_COEFFS:
        raise ValueError(f"a window estimate needs {MIN_GROWTH_COEFFS} coefficients")
    trace = _s_trace(logs)
    in_window = [s for n, s in trace if lo <= n <= hi]
    if not in_window:
        return ChiEstimate(math.inf, (lo, hi), tuple(trace), True)
    return ChiEstimate(max(in_window), (lo, hi), tuple(trace))


class Classification(NamedTuple):
    kind: str  # ENTIRE | RIGHT_HALF_PLANE | UNKNOWN
    chi: float
    chi_undefined: bool
    window: tuple[int, int]  # the chi estimate's window
    k_bound: float | None = None  # finite K with |a_n| n! <= K, when verified
    k_index: int | None = None    # first index attaining the bound


def classify(coeffs: Sequence) -> Classification:
    """Entire if chi < 1 - _ENTIRE_MARGIN; else right-half-plane when
    |a_n| n! peaks early (before the last quartile); else unknown.  Raw
    numbers included: chi, whether it is undefined, and the window it was
    estimated over.  A nonzero sequence shorter than MIN_GROWTH_COEFFS is
    unknown with chi nan."""
    lifted = [lift(c) for c in coeffs]
    logs = [log_abs(a) for a in lifted]  # None for a zero
    if len(coeffs) < MIN_GROWTH_COEFFS and any(la is not None for la in logs):
        return Classification(UNKNOWN, math.nan, True, (0, len(coeffs) - 1))
    est = _chi_from_logs(logs)
    if est.zero_sequence:
        return Classification(ENTIRE, 0.0, False, est.window)
    if not est.undefined and est.value < 1.0 - _ENTIRE_MARGIN:
        return Classification(ENTIRE, est.value, False, est.window)

    log_best, best_idx = _exact_peak_of_an_nfact(lifted, logs)
    if best_idx < math.floor(0.75 * len(coeffs)) and log_best < 1400.0:
        return Classification(RIGHT_HALF_PLANE, est.value, est.undefined, est.window,
                              math.exp(0.5 * log_best), best_idx)
    return Classification(UNKNOWN, est.value, est.undefined, est.window)


# Each key 2 ln|a_n| + 2 ln n! is a few rounded logs of integers and their
# sum, so it lies within 1e-14 (1 + bits) of the value it stands for, bits
# being the summed bit lengths of a_n's parts and of n!.
_KEY_TOLERANCE = 1e-12


def _exact_peak_of_an_nfact(lifted: Sequence[ExactScalar],
                            logs: Sequence[float | None]) -> tuple[float, int]:
    """First argmax of |a_n| n! by exact cross-multiplied comparison, over
    the coefficients' exact images and their log_abs values.

    Returns (log of the squared peak, index); float log only at the end.  A
    float key screens the indices first: one whose key falls short of the
    best by more than _KEY_TOLERANCE (1 + the most bits of any index) cannot
    be an argmax, so only the others are compared exactly.
    """
    keys: list[float | None] = []
    fact = 1
    most_bits = 0
    for n, (a, la) in enumerate(zip(lifted, logs)):
        if n:
            fact *= n
        keys.append(None if la is None else 2.0 * la + 2.0 * math.log(fact))
        most_bits = max(most_bits, fact.bit_length() + sum(
            v.bit_length() for v in (a.re.numerator, a.re.denominator,
                                     a.im.numerator, a.im.denominator)))
    cutoff = max(key for key in keys if key is not None) \
        - _KEY_TOLERANCE * (1 + most_bits)
    best_num = best_den = best_idx = None
    fact = 1
    for n, (a, key) in enumerate(zip(lifted, keys)):
        if n:
            fact *= n
        if key is None or key < cutoff:
            continue
        num, den = _abs_squared_ints(a)
        num *= fact * fact
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den, best_idx = num, den, n
    return math.log(best_num) - math.log(best_den), best_idx


# ---------------------------------------------------------------------------
# modulus profiles and order/type fitting
# ---------------------------------------------------------------------------

class ModulusProfile(NamedTuple):
    radii: tuple[float, ...]
    max_modulus: tuple[float | None, ...]  # None for invalid circles
    valid: tuple[bool, ...]
    samples_per_circle: int


def _checked_radii(radii: Sequence[float]) -> tuple[float, ...]:
    """The radii as floats; ValueError naming every negative or non-finite one."""
    radii = tuple(float(r) for r in radii)
    bad = [r for r in radii if not 0.0 <= r < math.inf]  # NaN too
    if bad:
        raise ValueError("radii must be finite and nonnegative, got "
                         + " ".join(f"{r:g}" for r in bad))
    return radii


def modulus_profile(evaluator: Callable, radii: Sequence[float],
                    samples_per_circle: int = 64) -> ModulusProfile:
    """M(r) = max |Y(z)| over equally spaced angles on |z| = r.

    The negative real axis is always included, once: for real-coefficient
    series of positive order that is where the modulus typically peaks.  An
    even count takes theta = pi exactly at k = s/2; an odd one adds it.
    A circle with any non-converged evaluation is marked invalid.  Negative
    or non-finite radii raise ValueError before anything is evaluated.
    """
    s = samples_per_circle
    if s < 1:
        raise ValueError("need at least one sample per circle")
    radii = _checked_radii(radii)
    angles = [math.pi if 2 * k == s else 2.0 * math.pi * k / s for k in range(s)]
    if s % 2:
        angles.append(math.pi)
    maxima: list[float | None] = []
    valid: list[bool] = []
    for r in radii:
        best = 0.0
        ok = True
        for theta in angles:
            z = complex(r * math.cos(theta), r * math.sin(theta))
            res = evaluator(z)
            if not res.converged:
                ok = False
                break
            mag = abs(res.value)
            best = max(best, float(mag) if mag < 1e308 else math.inf)
        maxima.append(best if ok else None)
        valid.append(ok)
    return ModulusProfile(radii, tuple(maxima), tuple(valid), samples_per_circle)


class OrderTypeFit(NamedTuple):
    rho_fit: float
    tau_fit: float
    radii_used: tuple[float, ...]


def fit_order_type(profile: ModulusProfile) -> OrderTypeFit:
    """Least-squares slope of ln ln M(r) against ln r, then
    tau = max ln M(r) / r^rho over the used radii.

    Radii with invalid circles, M(r) <= 1 (ln ln undefined) or r = 0 (ln r
    undefined) are dropped; at least three usable radii must remain.
    """
    used = [(r, m) for r, m, ok in zip(profile.radii, profile.max_modulus, profile.valid)
            if ok and m is not None and math.isfinite(m) and m > 1.0 and r > 0.0]
    if len(used) < 3:
        raise ValueError(f"only {len(used)} usable radii; need at least 3")
    import statistics  # here, so that importing analysis does not load it
    fit = statistics.linear_regression([math.log(r) for r, _ in used],
                                       [math.log(math.log(m)) for _, m in used])
    rho = float(fit.slope)
    tau = max(math.log(m) / (r ** rho) for r, m in used)
    return OrderTypeFit(rho, tau, tuple(r for r, _ in used))
