"""Growth diagnostics for coefficient sequences and evaluated functions.

The central desk-scale estimator: for coefficients a_n,

    s_n = n ln n / (-ln |a_n|),

whose limsup is the convergence exponent chi of the binomial series.  A sum
with chi < 1 defines an entire function of order chi; |a_n| <= K/n! gives
convergence on the right half plane.  The classifier reports raw numbers
next to every verdict, never a bare label.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from .exact import ExactScalar, lift

ENTIRE = "entire"
RIGHT_HALF_PLANE = "right-half-plane"
UNKNOWN = "unknown"


def _abs_squared_ints(a: ExactScalar) -> tuple[int, int]:
    """|a|^2 as an unreduced integer numerator and denominator."""
    re, im = a.re, a.im
    return ((re.numerator * im.denominator) ** 2 + (im.numerator * re.denominator) ** 2,
            (re.denominator * im.denominator) ** 2)


def log_abs(a) -> float | None:
    """ln|a| as float, None for zero; no float overflow at any size.

    a is lifted exactly (exact.lift) and taken apart into integers: ln|p| -
    ln q for a real p/q, and for a Gaussian rational half the log of |a|^2
    from its unreduced integer numerator and denominator.
    """
    a = lift(a)
    if a.im:
        num, _ = _abs_squared_ints(a)
        return 0.5 * math.log(num) - math.log(a.re.denominator) \
            - math.log(a.im.denominator)
    if not a.re:
        return None
    return math.log(abs(a.re.numerator)) - math.log(a.re.denominator)


@dataclass(frozen=True)
class ChiEstimate:
    value: float
    window: tuple[int, int]
    s_trace: tuple[tuple[int, float], ...]  # (n, s_n) over all usable indices
    undefined: bool = False
    zero_sequence: bool = False


def _window_bounds(length: int, window_fraction: float) -> tuple[int, int]:
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must lie in (0, 1]")
    lo = int(math.floor(length * (1.0 - window_fraction)))
    return lo, length - 1


def _s_trace(logs: Sequence[float | None]) -> list[tuple[int, float]]:
    trace = []
    for n in range(2, len(logs)):
        la = logs[n]
        if la is None or la >= 0:  # zero or |a_n| >= 1: s_n undefined there
            continue
        trace.append((n, n * math.log(n) / (-la)))
    return trace


def chi_estimate(coeffs: Sequence, window_fraction: float = 0.5) -> ChiEstimate:
    """Max of s_n over the trailing window; +inf with a flag when undefined.

    Zero coefficients are skipped, not treated as -inf.  The all-zero
    sequence has chi 0 by convention.  Requires at least 16 coefficients.
    """
    logs = [log_abs(c) for c in coeffs]
    if all(la is None for la in logs):
        lo, hi = _window_bounds(max(len(coeffs), 1), window_fraction)
        return ChiEstimate(0.0, (lo, hi), (), False, True)
    if len(coeffs) < 16:
        raise ValueError("need at least 16 coefficients for a window estimate")
    lo, hi = _window_bounds(len(coeffs), window_fraction)
    trace = _s_trace(logs)
    in_window = [s for n, s in trace if lo <= n <= hi]
    if not in_window:
        return ChiEstimate(math.inf, (lo, hi), tuple(trace), True)
    return ChiEstimate(max(in_window), (lo, hi), tuple(trace))


def order_from_taylor(coeffs: Sequence, window_fraction: float = 0.5) -> ChiEstimate:
    """Same estimator applied to Taylor coefficients (Lindeloef-Pringsheim).

    A finite tail of zeros is a polynomial: order 0 by convention instead of
    the undefined flag.
    """
    est = chi_estimate(coeffs, window_fraction)
    if est.undefined and all(log_abs(c) is None for c in coeffs[est.window[0]:]):
        return ChiEstimate(0.0, est.window, est.s_trace, False)
    return est


@dataclass(frozen=True)
class Classification:
    kind: str  # ENTIRE | RIGHT_HALF_PLANE | UNKNOWN
    chi: float
    chi_undefined: bool
    k_bound: float | None = None  # finite K with |a_n| n! <= K, when verified
    k_index: int | None = None    # first index attaining the bound


def classify(coeffs: Sequence, margin: float = 0.1,
             window_fraction: float = 0.5) -> Classification:
    """Entire if chi < 1 - margin; else right-half-plane when |a_n| n! peaks
    early (before the last quartile); else unknown.  Raw numbers included."""
    return _classify_estimate(coeffs, chi_estimate(coeffs, window_fraction), margin)


def _classify_estimate(coeffs: Sequence, est: ChiEstimate,
                       margin: float) -> Classification:
    """classify, given the chi estimate of coeffs that it starts from."""
    if est.zero_sequence:
        return Classification(ENTIRE, 0.0, False)
    if not est.undefined and est.value < 1.0 - margin:
        return Classification(ENTIRE, est.value, False)

    log_best, best_idx = _exact_peak_of_an_nfact(coeffs)
    if log_best is not None and best_idx < math.floor(0.75 * len(coeffs)) \
            and log_best < 1400.0:
        return Classification(RIGHT_HALF_PLANE, est.value, est.undefined,
                              math.exp(0.5 * log_best), best_idx)
    return Classification(UNKNOWN, est.value, est.undefined)


def _exact_peak_of_an_nfact(coeffs: Sequence) -> tuple[float | None, int | None]:
    """First argmax of |a_n| n! by exact cross-multiplied comparison.

    The coefficients are lifted exactly.  Returns (log of the squared peak,
    index); float log only at the end.
    """
    best_num = best_den = None
    best_idx = None
    fact = 1
    for n, a in enumerate(coeffs):
        if n:
            fact *= n
        a = lift(a)
        if a.is_zero():
            continue
        num, den = _abs_squared_ints(a)
        num *= fact * fact
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den, best_idx = num, den, n
    if best_num is None:
        return None, None
    return math.log(best_num) - math.log(best_den), best_idx


# ---------------------------------------------------------------------------
# modulus profiles and order/type fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusProfile:
    radii: tuple[float, ...]
    max_modulus: tuple[float | None, ...]  # None for invalid circles
    valid: tuple[bool, ...]
    samples_per_circle: int


def modulus_profile(evaluator: Callable, radii: Sequence[float],
                    samples_per_circle: int = 64) -> ModulusProfile:
    """M(r) = max |Y(z)| over equally spaced angles on |z| = r.

    The negative real axis is always included: for real-coefficient series
    of positive order that is where the modulus typically peaks.
    A circle with any non-converged evaluation is marked invalid.
    """
    if samples_per_circle < 1:
        raise ValueError("need at least one sample per circle")
    maxima: list[float | None] = []
    valid: list[bool] = []
    for r in radii:
        angles = [2.0 * math.pi * k / samples_per_circle for k in range(samples_per_circle)]
        angles.append(math.pi)
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
    return ModulusProfile(tuple(float(r) for r in radii), tuple(maxima),
                          tuple(valid), samples_per_circle)


@dataclass(frozen=True)
class OrderTypeFit:
    rho_fit: float
    tau_fit: float
    radii_used: tuple[float, ...]


def fit_order_type(profile: ModulusProfile) -> OrderTypeFit:
    """Least-squares slope of ln ln M(r) against ln r, then
    tau = max ln M(r) / r^rho over the used radii.

    Radii with invalid circles or M(r) <= 1 (ln ln undefined) are dropped;
    at least three usable radii must remain.
    """
    xs, ys, used = [], [], []
    for r, m, ok in zip(profile.radii, profile.max_modulus, profile.valid):
        if not ok or m is None or not math.isfinite(m) or m <= 1.0:
            continue
        xs.append(math.log(r))
        ys.append(math.log(math.log(m)))
        used.append(r)
    if len(xs) < 3:
        raise ValueError(f"only {len(xs)} usable radii; need at least 3")
    fit = statistics.linear_regression(xs, ys)
    rho = float(fit.slope)
    tau = max(math.log(m) / (r ** rho)
              for r, m, ok in zip(profile.radii, profile.max_modulus, profile.valid)
              if ok and m is not None and math.isfinite(m) and m > 1.0)
    return OrderTypeFit(rho, tau, tuple(used))


@dataclass(frozen=True)
class GrowthEstimate:
    chi_estimate: float
    chi_window: tuple[int, int]
    classification: Classification
    rho_fit: float | None = None
    tau_fit: float | None = None
