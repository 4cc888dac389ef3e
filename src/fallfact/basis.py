"""Falling factorials and conversion between the monomial and binomial bases.

z^(n_) denotes z(z-1)...(z-n+1).  Two triangular tables drive everything:

  first kind:   z^(n_) = sum_j  T1[n][j] * z^j      (signed entries)
  second kind:  z^n    = sum_k  T2[n][k] * z^(k_)

Both satisfy one-step Pascal-type recurrences, are exact integers, and are
mutual inverses as lower-triangular matrices.  Rows are cached and extended
on demand; extension is serialized by a lock and rows are immutable, so
concurrent readers are safe.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from .exact import ExactScalar, ZERO, as_exact, from_numerators, integer_numerators
from .polynomial import Polynomial


class StirlingTable:
    """Cached rows of both conversion tables as plain ints, grown on demand.

    The *_ints accessors hand out the integer rows; the others lift them to
    ExactScalar for callers of the public API.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._first: list[tuple[int, ...]] = [(1,)]
        self._second: list[tuple[int, ...]] = [(1,)]

    def ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if n < len(self._first):
            return
        with self._lock:
            while len(self._first) <= n:
                m = len(self._first) - 1  # extend row m -> m+1
                prev1 = self._first[m]
                prev2 = self._second[m]
                # the row beyond m is implicitly zero, so the top entry is prev[m] = 1
                row2 = (0,) + tuple(left + k * above for k, (left, above)
                                    in enumerate(zip(prev2, prev2[1:]), 1)) + (1,)
                row1 = (0,) + tuple(left - m * above
                                    for left, above in zip(prev1, prev1[1:])) + (1,)
                # readers test len(self._first), so it grows last
                self._second.append(row2)
                self._first.append(row1)

    def first_kind_ints(self, n: int) -> tuple[int, ...]:
        self.ensure(n)
        return self._first[n]

    def second_kind_ints(self, n: int) -> tuple[int, ...]:
        self.ensure(n)
        return self._second[n]

    def first_kind_row(self, n: int) -> tuple[ExactScalar, ...]:
        return tuple(map(as_exact, self.first_kind_ints(n)))

    def second_kind_row(self, n: int) -> tuple[ExactScalar, ...]:
        return tuple(map(as_exact, self.second_kind_ints(n)))

    def first_kind(self, n: int, j: int) -> ExactScalar:
        row = self.first_kind_ints(n)
        return as_exact(row[j]) if 0 <= j <= n else ZERO

    def second_kind(self, n: int, k: int) -> ExactScalar:
        row = self.second_kind_ints(n)
        return as_exact(row[k]) if 0 <= k <= n else ZERO


_DEFAULT_TABLE = StirlingTable()


def default_table() -> StirlingTable:
    return _DEFAULT_TABLE


def stirling_first_row(n: int) -> tuple[ExactScalar, ...]:
    return _DEFAULT_TABLE.first_kind_row(n)


def stirling_second_row(n: int) -> tuple[ExactScalar, ...]:
    return _DEFAULT_TABLE.second_kind_row(n)


def falling_factorial(n: int) -> Polynomial:
    """The monomial expansion of z^(n_); n = 0 gives the constant 1."""
    return Polynomial(_DEFAULT_TABLE.first_kind_ints(n))


def apply_table(coeffs: Sequence[ExactScalar], rows: Callable[[int], tuple[int, ...]],
                width: int) -> list[ExactScalar]:
    """out_n = sum_k coeffs[k] * rows(k)[n] for 0 <= n < width, exactly.

    rows(k) is an integer table row such as StirlingTable.first_kind_ints.
    The sums run on integer numerators over the coefficients' common
    denominator, which each output coefficient is reduced against once.
    """
    nums, den = integer_numerators(coeffs)
    re = [0] * width
    im = [0] * width
    for k, (c_re, c_im) in enumerate(nums):
        if not c_re and not c_im:
            continue
        row = rows(k)
        top = min(k + 1, width)
        if c_re:
            for n in range(top):
                re[n] += c_re * row[n]
        if c_im:
            for n in range(top):
                im[n] += c_im * row[n]
    return [from_numerators(r, i, den) for r, i in zip(re, im)]


def binomial_to_poly(coeffs: Sequence, table: StirlingTable | None = None) -> Polynomial:
    """Expand sum a_n z^(n_) into the monomial basis, exactly."""
    table = table or _DEFAULT_TABLE
    return Polynomial(tuple(apply_table([as_exact(a) for a in coeffs],
                                        table.first_kind_ints, len(coeffs))))


def poly_to_binomial(p: Polynomial, table: StirlingTable | None = None) -> tuple[ExactScalar, ...]:
    """Rewrite a polynomial as sum c_n z^(n_); output length = deg + 1."""
    table = table or _DEFAULT_TABLE
    return tuple(apply_table(p.coeffs, table.second_kind_ints, len(p.coeffs)))


@dataclass(frozen=True)
class BoundsReport:
    n_max: int
    all_hold: bool
    failures: tuple[tuple[str, int, int], ...]  # (kind, n, j)


def verify_stirling_bounds(n_max: int, table: StirlingTable | None = None) -> BoundsReport:
    """Check |entry(j,n)| <= ((n-1)!/(j-1)!)^2 / (n-j)! for 1 <= j <= n <= n_max.

    The bound applies to both kinds; the j = 0 column is excluded (those
    entries vanish for n >= 1).  The comparison is exact, in integers:
    |entry| (n-j)! against the square of the integer (n-1)!/(j-1)!.
    """
    table = table or _DEFAULT_TABLE
    failures: list[tuple[str, int, int]] = []
    for n in range(1, n_max + 1):
        row1 = table.first_kind_ints(n)
        row2 = table.second_kind_ints(n)
        for j in range(1, n + 1):
            bound = math.perm(n - 1, n - j) ** 2  # ((n-1)!/(j-1)!)^2
            scale = math.factorial(n - j)
            for kind, row in (("first", row1), ("second", row2)):
                if abs(row[j]) * scale > bound:
                    failures.append((kind, n, j))
    return BoundsReport(n_max=n_max, all_hold=not failures, failures=tuple(failures))
