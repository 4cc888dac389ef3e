"""Exact Gaussian-rational scalars.

The toolkit computes over Q(i): every scalar is a pair of reduced
rationals (re, im). fractions.Fraction already guarantees reduced form and
a positive denominator, so this module only adds the complex structure,
parsing, and formatting.  Binary floats (float, complex, mpmath mpf and
mpc) are rationals too: lift gives their exact image, so approximate data
enters the same arithmetic without rounding.

The integer hot paths (basis conversion, the recurrence solver, the Newton
triangle) work on integer numerators over one common denominator instead:
integer_numerators takes scalars apart that way and from_numerators puts
each result back together, reducing it once.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union["ExactScalar", Fraction, int, str]

# "p/q", optionally followed by +/- "p/q i".  No decimals are ever emitted;
# the parser tolerates them because Fraction('2.5') is still exact.
_NUMBER = r"(?:\d+(?:\.\d+)?|\.\d+)(?:\s*/\s*\d+)?"
_REAL_PART = _re.compile(rf"\s*([+-]?\s*{_NUMBER})\s*")
_IMAG_PART = _re.compile(rf"\s*({_NUMBER})?\s*")


def _fraction(text: str) -> Fraction:
    return Fraction(text.replace(" ", ""))


class _Value:
    """An immutable value over the fields that _fields names, in order.

    ==, hash and repr read those fields, and only an object of the same class
    compares equal.  Assignment raises AttributeError, so __init__ stores
    through object.__setattr__.  copy and pickle rebuild through __init__,
    whose parameters are the fields in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class ExactScalar(_Value):
    """A Gaussian rational re + im*i with both parts reduced Fractions."""

    __slots__ = ("re", "im")
    _fields = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> None:
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    # the exact core's hot object: both read the two fields directly
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "ExactScalar":
        """Parse "p/q" or "re+im i" (spaces optional, i or I)."""
        body = text.rstrip()
        try:
            if body.endswith(("i", "I")):
                # no number holds a sign, so the last sign (if any) ends the
                # real part; each part is matched once, in linear time
                body = body[:-1]
                k = max(body.rfind("+"), body.rfind("-"))
                head = body[:max(k, 0)]
                real = _REAL_PART.fullmatch(head) if head.strip() else None
                imag = _IMAG_PART.fullmatch(body[k + 1:])
                if imag and (real or not head.strip()):
                    mag = _fraction(imag.group(1)) if imag.group(1) else Fraction(1)
                    if k >= 0 and body[k] == "-":
                        mag = -mag
                    return ExactScalar(_fraction(real.group(1)) if real else Fraction(0), mag)
            return ExactScalar(_fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact scalar: {text!r}") from exc

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RationalLike) -> "ExactScalar":
        o = as_exact(other)
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "ExactScalar":
        o = as_exact(other)
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: RationalLike) -> "ExactScalar":
        return as_exact(other) - self

    def __mul__(self, other: RationalLike) -> "ExactScalar":
        o = as_exact(other)
        return ExactScalar(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExactScalar":
        o = as_exact(other)
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar((self.re * o.re + self.im * o.im) / n,
                           (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other: RationalLike) -> "ExactScalar":
        return as_exact(other) / self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __pow__(self, k: int) -> "ExactScalar":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        """|self|^2 as an exact Fraction (no square roots taken)."""
        return self.re * self.re + self.im * self.im

    # -- conversions -------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"ExactScalar({str(self)!r})"


ZERO = ExactScalar()
ONE = ExactScalar(Fraction(1))
I = ExactScalar(Fraction(0), Fraction(1))


def as_exact(x: RationalLike) -> ExactScalar:
    """Coerce to ExactScalar.  Floats are rejected: lossy intent must be explicit."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return ExactScalar(Fraction(x))
    if isinstance(x, str):
        return ExactScalar.parse(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")


def lift(x) -> ExactScalar:
    """Exact image of a scalar: exact input as as_exact reads it, and a
    float, complex, mpf or mpc as the binary rational it holds."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, float):
        return ExactScalar(Fraction(x))
    if isinstance(x, complex):
        return ExactScalar(Fraction(x.real), Fraction(x.imag))
    if hasattr(x, "_mpf_"):
        return ExactScalar(_binary_fraction(x._mpf_))
    if hasattr(x, "_mpc_"):
        return ExactScalar(*map(_binary_fraction, x._mpc_))
    return as_exact(x)


def _binary_fraction(raw: tuple) -> Fraction:
    """The rational (-1)^sign * man * 2^exp of a raw mpf (sign, man, exp, bc)."""
    sign, man, exp, bc = raw
    if not man:
        if bc:  # mpmath marks inf and nan by a zero mantissa and bc < 0
            raise ValueError("cannot lift a non-finite value")
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def magnitude(x: ExactScalar) -> float:
    """|x| as a float: inf above the float range, the least subnormal below it.

    Only x = 0 reads 0.0.  |x|^2 is rounded up at an even exponent 2k that
    brings it near 1, so its square root never leaves the normal float range
    before it is scaled back by 2^k.
    """
    sq = x.abs_squared()
    if not sq:
        return 0.0
    k = (sq.numerator.bit_length() - sq.denominator.bit_length()) // 2
    try:
        return max(math.ldexp(math.sqrt(_float_up(sq.numerator, -2 * k, sq.denominator)), k),
                   math.ulp(0.0))
    except OverflowError:
        return math.inf


def _float_up(num: int, exp: int, den: int = 1) -> float:
    """The least float >= num/den 2^exp, for num >= 0 and den > 0; inf above
    the float range, and the least subnormal for any positive value below it."""
    if not num:
        return 0.0
    # 2^(top - 2) < num/den 2^exp < 2^top
    top = num.bit_length() - den.bit_length() + 1 + exp
    if top > 1026:
        return math.inf
    if top < -1074:
        return math.ulp(0.0)
    # the floats next to the value lie 2^u or 2^(u + 1) apart: m 2^u, the
    # least multiple of 2^u at or above it, is a float unless m > 2^53 is odd
    u = max(top - 54, -1074)
    s = exp - u
    m = -(-(num << s) // den) if s >= 0 else -(-num // (den << -s))
    if m > 1 << 53:
        m += m & 1
    try:
        return math.ldexp(m, u)
    except OverflowError:
        return math.inf


def integer_numerators(values: Iterable[ExactScalar]) -> tuple[list[tuple[int, int]], int]:
    """Integer numerators (re, im) of values over their least common denominator."""
    values = list(values)
    den = math.lcm(*(d for v in values for d in (v.re.denominator, v.im.denominator)))
    return [(v.re.numerator * (den // v.re.denominator),
             v.im.numerator * (den // v.im.denominator)) for v in values], den


def from_numerators(re: int, im: int, den: int) -> ExactScalar:
    """(re + im i) / den, reduced; den must be positive."""
    # a zero part skips the reduction, which would divide den by itself
    return ExactScalar(Fraction(re, den) if re else ZERO.re,
                       Fraction(im, den) if im else ZERO.im)


def to_mpc(x, ctx):
    """Convert an exact or numeric scalar to ctx.mpc at the context's precision."""
    if isinstance(x, ExactScalar):
        return ctx.mpc(_to_mpf(x.re, ctx), _to_mpf(x.im, ctx))
    if isinstance(x, Fraction):
        return ctx.mpc(_to_mpf(x, ctx))
    return ctx.mpc(x)


def _to_mpf(q: Fraction, ctx):
    """ctx.mpf(numerator) / ctx.mpf(denominator), bit for bit."""
    den = q.denominator
    if den & (den - 1) == 0:
        # a power of two: dividing by it is an exact shift, and skips
        # normalising den, which strips its zeros a few bits at a time
        return ctx.ldexp(ctx.mpf(q.numerator), 1 - den.bit_length())
    return ctx.mpf(q.numerator) / ctx.mpf(den)
