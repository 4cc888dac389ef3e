"""Univariate polynomials and rational functions over Gaussian rationals.

Coefficients are stored little-endian with trailing zeros stripped, so the
zero polynomial has an empty coefficient tuple and degree -inf.  Everything
here is exact; numeric evaluation happens through an mpmath context supplied
by the caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .exact import ExactScalar, ONE, ZERO, _Value, as_exact, integer_numerators, to_mpc

CoeffLike = Union[ExactScalar, Fraction, int, str]

NEG_INF = float("-inf")


def _normalize(coeffs: Iterable[CoeffLike]) -> tuple[ExactScalar, ...]:
    out = [as_exact(c) for c in coeffs]
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


class Polynomial(_Value):
    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike] = ()) -> None:
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        """Degree, or -inf for the zero polynomial (distinct from degree 0)."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> ExactScalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def leading(self) -> ExactScalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial(tuple((a[k] if k < len(a) else ZERO) +
                                (b[k] if k < len(b) else ZERO) for k in range(n)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["Polynomial", CoeffLike]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = as_exact(other)
            return Polynomial(tuple(c * s for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(tuple(out))

    def __rmul__(self, other: CoeffLike) -> "Polynomial":
        return self * other

    def __call__(self, z: CoeffLike) -> ExactScalar:
        """Exact Horner evaluation at an exact point."""
        x = as_exact(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_numeric(self, z, ctx):
        """Horner evaluation at an mpc point under the given mpmath context."""
        acc = ctx.mpc(0)
        zz = to_mpc(z, ctx)
        for c in reversed(self.coeffs):
            acc = acc * zz + to_mpc(c, ctx)
        return acc

    def shift_argument(self, s: CoeffLike) -> "Polynomial":
        """Return p(X + s), exact Taylor shift via Horner in (X + s)."""
        shifted_x = Polynomial((as_exact(s), ONE))
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * shifted_x + Polynomial((c,))
        return acc

    # -- division / gcd ----------------------------------------------------

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [ZERO] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Polynomial(tuple(quot)), Polynomial(tuple(rem))

    def monic(self) -> "Polynomial":
        return self if self.is_zero() else self * (ONE / self.leading())


def poly(*coeffs: CoeffLike) -> Polynomial:
    """Convenience constructor, little-endian: poly(6, 4) is 6 + 4z."""
    return Polynomial(tuple(coeffs))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm (monic at each step for stability)."""
    a, b = a.monic() if not a.is_zero() else a, b.monic() if not b.is_zero() else b
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a


def format_poly(p: Polynomial, var: str = "z") -> str:
    """Human formatting, descending powers, no spaces: "64z^2+80z+9"."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c.is_zero():
            continue
        if k == 0:
            mon = ""
        elif k == 1:
            mon = var
        else:
            mon = f"{var}^{k}"
        if not c.is_real():
            body = f"({c})" + mon
            parts.append(("+" if parts else "") + body)
            continue
        sign = "-" if c.re < 0 else ("+" if parts else "")
        mag = abs(c.re)
        if mon and mag == 1:
            parts.append(f"{sign}{mon}")
        else:
            parts.append(f"{sign}{mag}{mon}")
    return "".join(parts)


class RationalFunction(_Value):
    """num/den in canonical reduced form, so field equality is semantic.

    Canonicalization: cancel the monic gcd, divide num and den by den's
    leading coefficient, then multiply both by the one positive rational that
    makes their coefficient components jointly integer and primitive.  The
    denominator's leading coefficient is then a positive integer.
    """

    _fields = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial) -> None:
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", Polynomial())
            object.__setattr__(self, "den", Polynomial((ONE,)))
            return
        g = poly_gcd(num, den)
        if g.degree != 0:
            num, _ = divmod(num, g)
            den, _ = divmod(den, g)
        inv = ONE / den.leading()
        num, den = num * inv, den * inv
        nums, common = integer_numerators(num.coeffs + den.coeffs)
        scale = Fraction(common, math.gcd(*(x for pair in nums for x in pair)))
        object.__setattr__(self, "num", num * scale)
        object.__setattr__(self, "den", den * scale)

    def __call__(self, z: CoeffLike) -> ExactScalar:
        return self.num(z) / self.den(z)

    def eval_numeric(self, z, ctx):
        return self.num.eval_numeric(z, ctx) / self.den.eval_numeric(z, ctx)

    def __str__(self) -> str:
        def wrap(p: Polynomial) -> str:
            s = format_poly(p)
            inner = s[1:] if s.startswith("-") else s
            return f"({s})" if ("+" in inner or "-" in inner) else s

        if self.den.degree == 0 and self.den[0] == ONE:
            return format_poly(self.num)
        return f"{wrap(self.num)}/{wrap(self.den)}"
