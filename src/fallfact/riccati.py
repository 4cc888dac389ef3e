"""Difference Riccati companion of (az+b) delta^2 y + c delta y + y = 0.

With u = delta y / y the second-order linear equation collapses to the
first-order rational recursion

    u(z+1) = ((az+b-c) u(z) - 1) / ((az+b)(1 + u(z))),

and the affine-normalized variable

    f(z) = -(2 P(z) u(z) + c) / (2 P(z) - c),      P(z) = a(z-1) + b,

satisfies the canonical difference Riccati equation

    f(z+1) = (f(z) + A(z)) / (1 - f(z)),

whose coefficient A is an explicit rational function of z.  Everything here
is parametrized by the exact triple (a, b, c); verification routines compare
both recursions against a supplied solution evaluator.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import InputFormatError, PoleError
from .exact import ExactScalar, as_exact, to_mpc
from .polynomial import Polynomial, RationalFunction
# make_context is not called here; it stays importable because perfbench's
# tracer patches it on this module
from .series import DEFAULT_PRECISION_BITS, _context, make_context  # noqa: F401
from .solver import DELTA_FORM, LinearDifferenceEquation, VerificationReport, _report

# breakdown guards for the verification routines
_DENOMINATOR_FLOOR = 0.1   # stay away from poles of A and of the transform
_TRANSFORM_FLOOR = 1e-6    # |1 - f| below this makes the Moebius step meaningless


def riccati_coefficient(a, b, c) -> RationalFunction:
    """A(z) in canonical form.

    A(z) = (4az - 4a + 4b + 2ac - c^2) / ((2az+2b-c)(2az+2b-2a-c)).
    Raises InputFormatError when the denominator degenerates to zero.
    """
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    num = Polynomial((4 * b - 4 * a + 2 * a * c - c * c, 4 * a))
    den = Polynomial((2 * b - c, 2 * a)) * Polynomial((2 * b - 2 * a - c, 2 * a))
    try:
        return RationalFunction(num, den)
    except ZeroDivisionError as exc:
        raise InputFormatError(
            f"parameters (a={a}, b={b}, c={c}) give a degenerate coefficient") from exc


def riccati_equation(a, b, c) -> LinearDifferenceEquation:
    """The linear source equation (az+b) delta^2 y + c delta y + y = 0."""
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    one = Polynomial((as_exact(1),))
    return LinearDifferenceEquation(DELTA_FORM,
                                    (one, Polynomial((c,)), Polynomial((b, a))))


class RiccatiInstance(NamedTuple):
    a: ExactScalar
    b: ExactScalar
    c: ExactScalar
    coefficient: RationalFunction      # A(z)
    equation: LinearDifferenceEquation

    def normalizer(self) -> Polynomial:
        """2 P(z) - c with P(z) = a(z-1) + b."""
        return Polynomial((2 * self.b - 2 * self.a - self.c, 2 * self.a))

    def shifted_argument(self) -> Polynomial:
        """az + b, the leading coefficient of the source equation."""
        return Polynomial((self.b, self.a))


def riccati_instance(a, b, c) -> RiccatiInstance:
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    return RiccatiInstance(a, b, c, riccati_coefficient(a, b, c),
                           riccati_equation(a, b, c))


def riccati_transform(instance: RiccatiInstance, evaluator: Callable, z,
                      precision_bits: int = DEFAULT_PRECISION_BITS):
    """f(z) computed from a solution evaluator of the linear equation.

    Needs y(z) and y(z+1); raises PoleError when y(z) or the normalizing
    denominator 2P(z) - c is too small to divide by.
    """
    ctx = _context(precision_bits)
    return _transformer(instance, ctx)(lambda w: ctx.mpc(evaluator(w)), to_mpc(z, ctx))


def _ratio(ctx, y: Callable, zz):
    """u(z) = delta y / y; PoleError where |y(z)| < 10^-(dps/2)."""
    y0, y1 = y(zz), y(zz + 1)
    if abs(y0) < ctx.mpf(10) ** (-(ctx.dps // 2)):
        raise PoleError(complex(zz))
    return (y1 - y0) / y0


def _transformer(instance: RiccatiInstance, ctx) -> Callable:
    """(y, zz) -> f(z), with 2P - c and c cast to ctx once."""
    p2c_at = instance.normalizer().cast(ctx)  # 2P(z) - c
    c_val = to_mpc(instance.c, ctx)

    def transform(y: Callable, zz):
        u = _ratio(ctx, y, zz)
        p2c = p2c_at(zz)
        if abs(p2c) < _DENOMINATOR_FLOOR:
            raise PoleError(complex(zz))
        return -((p2c + c_val) * u + c_val) / p2c  # 2P = p2c + c
    return transform


def verify_riccati(instance: RiccatiInstance, evaluator: Callable,
                   points: Sequence, eps: float | None = None,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Absolute residual |f(z+1)(1 - f(z)) - f(z) - A(z)| pointwise.

    Points too close to poles of A, to zeros of the solution, or to the
    f = 1 breakdown set of the Moebius step are reported as skipped rather
    than verified.
    """
    ctx = _context(precision_bits)
    transform = _transformer(instance, ctx)
    num_at, den_at = instance.coefficient.num.cast(ctx), instance.coefficient.den.cast(ctx)

    def residual(zz, y):
        den = den_at(zz)
        if abs(den) < _DENOMINATOR_FLOOR:
            return "near pole of A"
        try:
            f0 = transform(y, zz)
            f1 = transform(y, zz + 1)
        except PoleError:
            return "transform breakdown"
        if abs(1 - f0) < _TRANSFORM_FLOOR:
            return "f too close to 1"
        return float(abs(f1 * (1 - f0) - f0 - num_at(zz) / den))

    return _report(ctx, points, residual, evaluator, eps)


def g_step_check(instance: RiccatiInstance, evaluator: Callable,
                 points: Sequence, eps: float | None = None,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Check the raw first-order recursion for g = -delta y / y:

        g(z+1) (az+b)(1 - g(z)) = 1 + (az+b-c) g(z).

    Residuals are relative to max(1, |lhs|, |rhs|).
    """
    ctx = _context(precision_bits)
    azb_at = instance.shifted_argument().cast(ctx)
    c_val = to_mpc(instance.c, ctx)

    def residual(zz, y):
        try:
            g0 = -_ratio(ctx, y, zz)
            g1 = -_ratio(ctx, y, zz + 1)
        except PoleError:
            return "zero of the solution"
        azb = azb_at(zz)
        lhs = g1 * azb * (1 - g0)
        rhs = 1 + (azb - c_val) * g0
        scale = max(ctx.mpf(1), abs(lhs), abs(rhs))
        return float(abs(lhs - rhs) / scale)

    return _report(ctx, points, residual, evaluator, eps)
