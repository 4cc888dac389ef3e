"""Linear difference equations with polynomial coefficients.

Equations come in two equivalent forms:

  delta form:   sum_j p_j(z) (delta^j y)(z) = 0
  shift form:   sum_j b_j(z) y(z+j) = 0

Substituting Y(z) = sum a_n z^(n_) turns the delta form into an exact linear
recurrence for the coefficients.  The derivation works in the operator
calculus of series._SeqOperator, which the series operators apply too: the
action of z-multiplication and of delta on the coefficient sequence are both
of the shape sum_s r_s(n) a_{n+s} (with a_k = 0 for k < 0), and such
operators compose exactly.  Collecting the image's coefficient of z^(n_)
yields polynomials q_i(n) plus a finite block of low-index equations.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

# chi_estimate is not called here; perfbench's tracer patches it on this module
from .analysis import (Classification, UNKNOWN, chi_estimate,  # noqa: F401
                       classify)
from .errors import (DeterminacyError, InputFormatError, PoleError,
                     SingularRecurrenceError)
from .exact import (ExactScalar, ONE, ZERO, _Value, as_exact, from_numerators,
                    integer_numerators, magnitude, to_mpc)
from .polynomial import Polynomial
# make_context is not called here; it stays importable because perfbench's
# tracer patches it on this module
from .series import (BinomialSeries, DEFAULT_EPS, DEFAULT_N_MAX,  # noqa: F401
                     DEFAULT_PRECISION_BITS, _context, _horner, _integer_polynomials,
                     _SeqOperator, evaluate, exact_series, make_context)

DELTA_FORM = "delta"
SHIFT_FORM = "shift"


class LinearDifferenceEquation(_Value):
    """Coefficient polynomials indexed by operator power; trailing zeros trimmed."""

    _fields = ("form", "coeffs")

    def __init__(self, form: str, coeffs: Sequence) -> None:
        if form not in (DELTA_FORM, SHIFT_FORM):
            raise InputFormatError(f"unknown equation form {form!r}")
        polys = [c if isinstance(c, Polynomial) else Polynomial(tuple(c))
                 for c in coeffs]
        while polys and polys[-1].is_zero():
            polys.pop()
        if not polys:
            raise InputFormatError("equation has no nonzero coefficient")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeffs", tuple(polys))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int) -> Polynomial:
        return self.coeffs[j] if 0 <= j <= self.order else Polynomial()


def to_shift_form(eq: LinearDifferenceEquation) -> LinearDifferenceEquation:
    """Rewrite via delta^j = sum_i C(j,i) (-1)^(j-i) E^i; exact and invertible."""
    return eq if eq.form == SHIFT_FORM else _binomial_transform(eq, SHIFT_FORM, -1)


def to_delta_form(eq: LinearDifferenceEquation) -> LinearDifferenceEquation:
    """Rewrite via E^i = sum_j C(i,j) delta^j; exact inverse of to_shift_form."""
    return eq if eq.form == DELTA_FORM else _binomial_transform(eq, DELTA_FORM, 1)


def _binomial_transform(eq: LinearDifferenceEquation, form: str,
                        sign: int) -> LinearDifferenceEquation:
    """The equation in the other form: coefficient j moves to every i <= j
    with weight C(j,i) sign^(j-i), as E = 1 + delta and delta = E - 1."""
    out = [Polynomial() for _ in range(eq.order + 1)]
    for j, pj in enumerate(eq.coeffs):
        if pj.is_zero():
            continue
        for i in range(j + 1):
            out[i] = out[i] + pj * as_exact(sign ** (j - i) * math.comb(j, i))
    return LinearDifferenceEquation(form, tuple(out))


# ---------------------------------------------------------------------------
# coefficient-sequence operators
# ---------------------------------------------------------------------------

def _equation_operator(eq: LinearDifferenceEquation) -> _SeqOperator:
    """sum_j p_j(z) delta^j, each p_j(z) a polynomial in the z operator."""
    eq = to_delta_form(eq)
    z_op = _SeqOperator.z_multiplication()
    d_op = _SeqOperator.delta_op()
    total = _SeqOperator({})
    d_power = _SeqOperator.identity()
    for j, pj in enumerate(eq.coeffs):
        if j:
            d_power = d_op.compose(d_power)
        if not pj.is_zero():
            total = total + z_op.polynomial(pj.coeffs).compose(d_power)
    return total


class CoefficientRecurrence(NamedTuple):
    """sum_i q_i(n) a_{n+i} = 0 for n >= n_start, plus low-index constraints.

    prefix_constraints are homogeneous rows over a_0 .. a_{n_start + d - 1}
    (d = order); together with user-supplied free values they pin down the
    initial block, after which the recurrence iterates forward.
    """

    q: tuple[Polynomial, ...]
    n_start: int
    prefix_constraints: tuple[tuple[ExactScalar, ...], ...]

    @property
    def order(self) -> int:
        return len(self.q) - 1

    @property
    def block_size(self) -> int:
        return self.n_start + self.order


def derive_recurrence(eq: LinearDifferenceEquation) -> CoefficientRecurrence:
    """Exact coefficient recurrence of the substituted binomial series.

    Negative shifts (from z-multiplication) produce dropped-term equations at
    small n; those become prefix constraints.  Positive minimal shift moves
    the generic range up instead (n_start > 0) and frees the low block.
    """
    op = _equation_operator(eq)
    if not op.terms:
        raise InputFormatError("equation operator collapsed to zero")
    s_min = min(op.terms)
    s_max = max(op.terms)
    d = s_max - s_min

    q = []
    for i in range(d + 1):
        r = op.terms.get(s_min + i, Polynomial())
        q.append(r.shift_argument(-s_min))  # substitute n -> m - s_min
    n_start = max(0, s_min)

    prefix: list[tuple[ExactScalar, ...]] = []
    for t in range(max(0, -s_min)):
        width = n_start + d
        row = [ZERO] * width
        for s, r in op.terms.items():
            col = t + s
            if col < 0:
                continue  # a_{<0} is identically zero
            row[col] = row[col] + r(t)
        if any(not c.is_zero() for c in row):
            prefix.append(tuple(row))
    return CoefficientRecurrence(tuple(q), n_start, tuple(prefix))


def _solve_initial_block(rec: CoefficientRecurrence,
                         free_values: Mapping[int, object]) -> list[ExactScalar]:
    b = rec.block_size
    # rank of the homogeneous part decides how many values the caller must pin
    rank, _ = _gauss_jordan([list(row) + [ZERO] for row in rec.prefix_constraints], b)
    needed = b - rank
    if len(free_values) < needed:
        raise DeterminacyError(
            f"under-determined: {needed} free value(s) required, got {len(free_values)}")
    if len(free_values) > needed:
        raise DeterminacyError(
            f"over-determined: {needed} free value(s) required, got {len(free_values)}")

    rows = [list(row) + [ZERO] for row in rec.prefix_constraints]
    for idx, val in sorted(free_values.items()):
        if not 0 <= idx < b:
            raise DeterminacyError(
                f"free value index a{idx} outside the initial block [0, {b})")
        unit = [ZERO] * b
        unit[idx] = ONE
        rows.append(unit + [as_exact(val)])
    _, values = _gauss_jordan(rows, b)
    missing = [col for col, v in enumerate(values) if v is None]
    if missing:
        raise DeterminacyError(
            f"free values leave coordinates a{missing} undetermined")
    return values


def _gauss_jordan(rows: list[list[ExactScalar]],
                  width: int) -> tuple[int, list[ExactScalar | None]]:
    """Reduce augmented rows [c_0 .. c_(width-1), rhs] in place.

    Returns the rank of the coefficient part and the solution, with None for
    each coordinate that no pivot fixes.  A row that reduces to 0 = rhs with
    rhs nonzero raises DeterminacyError.
    """
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col] / lead
                for c in range(col, width + 1):
                    rows[i][c] = rows[i][c] - f * rows[r][c]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if any(not row[width].is_zero() for row in rows[r:]):
        raise DeterminacyError("constraints and free values are inconsistent")
    values: list[ExactScalar | None] = [None] * width
    for i, col in enumerate(pivots):
        values[col] = rows[i][width] / rows[i][col]
    return r, values


def solve_recurrence(rec: CoefficientRecurrence,
                     free_values: Mapping[int, object],
                     n_target: int) -> tuple[ExactScalar, ...]:
    """Coefficients a_0..a_N in exact arithmetic.

    Fraction-free (Bareiss 1968): the q_i are scaled to Gaussian-integer
    polynomials, and the last `order` coefficients are kept as Gaussian-
    integer numerators over one positive running denominator.  Each step
    divides by the leading value through its conjugate, so the denominator
    grows by a positive integer; the window and the denominator are then
    divided by their gcd (_reduced), and the new coefficient is reduced once
    as it is emitted.

    Raises SingularRecurrenceError when the leading recurrence polynomial
    vanishes at a needed index (no resonance analysis is attempted) and
    DeterminacyError when free_values do not match the solution dimension.
    """
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    a = _solve_initial_block(rec, free_values)
    d = rec.order
    m = rec.n_start
    (*q, lead), _ = _integer_polynomials(rec.q)
    window, den = integer_numerators(a[m:m + d])
    while len(a) <= n_target:
        l_re, l_im = _horner(lead, m)
        if not l_re and not l_im:
            raise SingularRecurrenceError(m)
        s_re = s_im = 0
        for qi, (x_re, x_im) in zip(q, window):
            q_re, q_im = _horner(qi, m)
            s_re += q_re * x_re - q_im * x_im
            s_im += q_re * x_im + q_im * x_re
        # with lead = c u, c the gcd of its parts (|lead| when it is real):
        # a_(m+d) = -s / (den lead) = -s conj(u) / (den c |u|^2)
        c = math.gcd(l_re, l_im)
        u_re, u_im = l_re // c, l_im // c
        scale = c * (u_re * u_re + u_im * u_im)
        new = (-(s_re * u_re + s_im * u_im), s_re * u_im - s_im * u_re)
        window = [(x_re * scale, x_im * scale) for x_re, x_im in window[1:]]
        window.append(new)
        window, den = _reduced(window, den, scale)
        a.append(from_numerators(*window[-1], den))
        m += 1
    return tuple(a[:n_target + 1])


def _reduced(window: list, den: int, scale: int) -> tuple[list, int]:
    """The window over den scale, divided by the gcd of all its numerators
    and that denominator: (window, denominator).

    With w the window's gcd and g1 = gcd(w, scale), the gcd is
    g1 gcd(w/g1, den), as w/g1 and scale/g1 are coprime: den, the large
    one, is read only when w/g1 > 1.  An all-zero window (w = 0) is 0/1.
    """
    # newest first: its numerators are usually the smallest, and gcd stops at 1
    w = math.gcd(*(x for pair in reversed(window) for x in pair))
    if not w:
        return window, 1
    g = math.gcd(w, scale)
    h = math.gcd(w // g, den) if w > g else 1
    den = (den // h if h > 1 else den) * (scale // g)
    g *= h
    if g > 1:
        window = [(x_re // g, x_im // g) for x_re, x_im in window]
    return window, den


def formal_solve(eq: LinearDifferenceEquation,
                 free_values: Mapping[int, object],
                 n_target: int,
                 origin: str = "solver") -> tuple[BinomialSeries, Classification]:
    """derive -> solve -> wrap as an exact series, with classify's growth
    verdict, which stays memoized on the series for later callers."""
    rec = derive_recurrence(eq)
    series = exact_series(solve_recurrence(rec, free_values, n_target), origin)
    return series, series._memoized("classify", lambda: classify(series.coeffs))


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

class NewtonPolygon(NamedTuple):
    points: tuple[tuple[int, int], ...]
    hull: tuple[tuple[int, int], ...]
    slopes: tuple[Fraction, ...]


def newton_polygon(eq: LinearDifferenceEquation) -> NewtonPolygon:
    """Upper-left boundary of the quadrant union generated by
    (j, deg a_{p-j} - (p-j)); slopes are exact rationals, decreasing."""
    eq = to_delta_form(eq)
    p = eq.order
    pts: list[tuple[int, int]] = []
    for j in range(p + 1):
        c = eq.coefficient(p - j)
        if c.is_zero():
            continue
        pts.append((j, (len(c.coeffs) - 1) - (p - j)))

    hull: list[tuple[int, int]] = []
    for pt in pts:  # points arrive sorted by x
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y2) - (y2 - y1) * (pt[0] - x2) >= 0:
                hull.pop()  # middle vertex is on or below the chord
            else:
                break
        hull.append(pt)

    # each generating point owns the quadrant to its lower right, so the
    # boundary turns horizontal at the first maximal-y vertex: keep only the
    # strictly ascending prefix
    boundary = [hull[0]]
    slopes: list[Fraction] = []
    for a, b in zip(hull, hull[1:]):
        s = Fraction(b[1] - a[1], b[0] - a[0])
        if s <= 0:
            break
        slopes.append(s)
        boundary.append(b)
    return NewtonPolygon(tuple(pts), tuple(boundary), tuple(slopes))


def candidate_orders(polygon: NewtonPolygon) -> tuple[Fraction, ...]:
    """Slopes in the open interval (0, 1): candidate orders of subnormal
    entire solutions.  Slopes >= 1 concern faster-growing solutions and are
    excluded; an empty result predicts no entire solution of order < 1."""
    return tuple(s for s in polygon.slopes if 0 < s < 1)


# ---------------------------------------------------------------------------
# continuation and verification
# ---------------------------------------------------------------------------

class ContinuationResult(NamedTuple):
    value: object
    converged: bool
    steps: int  # backward recursion depth
    direct_evaluations: int
    threshold: float

    def __complex__(self) -> complex:
        return complex(self.value)


def default_re_threshold(series: BinomialSeries, eps: float) -> float:
    """5 plus truncation-dependent slack: right of this line the stored tail
    dominates eps, so direct summation is trustworthy."""
    n = max(series.truncation_order, 1)
    return 5.0 + math.log(1.0 / eps) / math.log(n + 2)


MAX_CONTINUATION_STEPS = 10000  # backward steps continuation_eval takes at most


def continuation_eval(eq: LinearDifferenceEquation, series: BinomialSeries, z,
                      eps: float = DEFAULT_EPS,
                      re_threshold: float | None = None,
                      n_max: int = DEFAULT_N_MAX,
                      precision_bits: int = DEFAULT_PRECISION_BITS) -> ContinuationResult:
    """Evaluate left of the reliable half plane by unrolling the shift form:

        y(z) = -(1/b_0(z)) sum_{j>=1} b_j(z) y(z+j),

    stepping right until Re z crosses re_threshold, then summing directly.
    A needed point w where |b_0(w)| <= 2^(-precision_bits/2) sum_k |c_k| |w|^k
    (c_k the coefficients of b_0) is taken for a zero of b_0, where the
    division would return cancellation garbage: PoleError.  A non-finite z or
    a NaN re_threshold raises ValueError, a series that classify leaves
    unknown or a point more than MAX_CONTINUATION_STEPS steps left of the
    threshold InputFormatError.  re_threshold -inf sums directly.
    """
    if re_threshold is not None and math.isnan(re_threshold):
        raise ValueError("re_threshold must not be NaN")
    shift_eq = to_shift_form(eq)
    p = shift_eq.order
    if p < 1:
        raise InputFormatError("continuation needs an equation of order >= 1")
    cls = series._memoized("classify", lambda: classify(series.coeffs))
    if cls.kind == UNKNOWN:
        raise InputFormatError(
            "series not classified entire or right-half-plane; "
            "continuation would propagate garbage")
    if re_threshold is None:
        re_threshold = default_re_threshold(series, eps)

    ctx = _context(precision_bits)
    zz = to_mpc(z, ctx)
    if not ctx.isfinite(zz):  # refused as evaluate refuses it, before the step count
        raise ValueError("cannot evaluate with a non-finite value")
    re_z = float(zz.real)
    if re_z > re_threshold:
        res = evaluate(series, zz, eps, n_max, precision_bits=precision_bits)
        return ContinuationResult(res.value, res.converged, 0, 1, re_threshold)

    gap = re_threshold - re_z
    k_steps = math.floor(gap) + 1 if gap < math.inf else gap  # inf has no floor
    if k_steps > MAX_CONTINUATION_STEPS:
        raise InputFormatError(
            f"continuation would need {k_steps} steps (cap {MAX_CONTINUATION_STEPS})")

    values: dict[int, object] = {}
    converged = True
    for j in range(p):
        w = zz + (k_steps + j)
        res = evaluate(series, w, eps, n_max, precision_bits=precision_bits)
        converged = converged and res.converged
        values[k_steps + j] = res.value

    b0_poly = shift_eq.coeffs[0]
    # the floor test needs no precision: |c_k| as floats, highest power first
    b0_sizes = [magnitude(c) for c in reversed(b0_poly.coeffs)]
    floor = 2.0 ** (-precision_bits / 2)
    # each b_j cast once for every step
    b0_at = b0_poly.cast(ctx)
    b_at = [(j, bj.cast(ctx)) for j, bj in enumerate(shift_eq.coeffs) if j and not bj.is_zero()]
    for k in range(k_steps - 1, -1, -1):
        w = zz + k
        b0 = b0_at(w)
        r, size = abs(complex(w)), 0.0
        for c in b0_sizes:
            size = size * r + c
        if abs(complex(b0)) <= floor * size:
            raise PoleError(complex(w))
        acc = ctx.mpc(0)
        for j, bj in b_at:
            acc += bj(w) * values[k + j]
        values[k] = -acc / b0
    return ContinuationResult(values[0], converged, k_steps, p, re_threshold)


class VerificationReport(NamedTuple):
    points: tuple            # points verified, cast to the working precision
    residuals: tuple[float, ...]
    skipped: tuple           # (point, reason) pairs the residual declined
    max_residual: float
    eps: float | None
    passed: bool | None      # None without eps or without a verified point


def _report(ctx, points: Sequence, residual: Callable, evaluator: Callable,
            eps: float | None) -> VerificationReport:
    """residual(zz, y) at each point zz cast into ctx: a float, or why zz is
    skipped.  y(w) evaluates lazily, once per distinct w in the call."""
    y = functools.cache(lambda w: ctx.mpc(evaluator(w)))
    used: list = []
    residuals: list[float] = []
    skipped: list = []
    for z in points:
        zz = to_mpc(z, ctx)
        outcome = residual(zz, y)
        if isinstance(outcome, str):
            skipped.append((complex(zz), outcome))
        else:
            residuals.append(outcome)
            used.append(complex(zz))
    worst = max(residuals, default=0.0)
    return VerificationReport(tuple(used), tuple(residuals), tuple(skipped), worst,
                              eps, None if eps is None or not residuals else worst < eps)


def verify_solution(eq: LinearDifferenceEquation,
                    evaluator: Callable,
                    points: Sequence,
                    eps: float | None = None,
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Shift-form residual |sum_j b_j(z) y(z+j)| relative to the largest term.

    evaluator maps a point to a value (any complex-like); evaluation failures
    propagate to the caller.
    """
    ctx = _context(precision_bits)
    b_at = [(j, bj.cast(ctx)) for j, bj in enumerate(to_shift_form(eq).coeffs)
            if not bj.is_zero()]

    def residual(zz, y):
        terms = [bj(zz) * y(zz + j) for j, bj in b_at]
        scale = max((abs(t) for t in terms), default=ctx.mpf(0))
        total = abs(sum(terms, ctx.mpc(0)))
        return float(total / scale) if scale > 0 else 0.0

    return _report(ctx, points, residual, evaluator, eps)
