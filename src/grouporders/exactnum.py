"""Exact arithmetic in Q[sqrt(2)].

Numbers are stored as ``rational + root2 * sqrt(2)`` with Fraction
coefficients.  All sign, comparison, and floor decisions reduce to integer
arithmetic (squaring against 2*b^2), never to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
from typing import Union

Scalar = Union[int, Fraction]


def _sign_int_pair(a: int, c: int) -> int:
    """Sign of a + c*sqrt(2) for integers a, c."""
    if a == 0 and c == 0:
        return 0
    if a >= 0 and c >= 0:
        return 1
    if a <= 0 and c <= 0:
        return -1
    if a > 0:  # c < 0
        return 1 if a * a > 2 * c * c else -1
    return 1 if 2 * c * c > a * a else -1  # a < 0 < c


def _floor_ratio(a: int, c: int, q: int) -> int:
    """floor((a + c*sqrt(2)) / q) for integers, q > 0.

    With e = floor(c*sqrt(2)) exact, a + c*sqrt(2) lies in [a+e, a+e+1), and
    no multiple of q can separate that from (a+e)//q.
    """
    if c == 0:
        return a // q
    if c > 0:
        e = isqrt(2 * c * c)
    else:
        e = -isqrt(2 * c * c) - 1  # c*sqrt(2) is irrational, never an integer
    return (a + e) // q


def int_form(*nums: "Sqrt2Num") -> tuple[int, ...]:
    """Integers a1, c1, a2, c2, ..., L > 0 with nums[i] = (a_i + c_i*sqrt(2)) / L."""
    parts = [q for n in nums for q in (n.rational, n.root2)]
    L = lcm(*(q.denominator for q in parts))
    return (*(q.numerator * (L // q.denominator) for q in parts), L)


@total_ordering
@dataclass(frozen=True)
class Sqrt2Num:
    rational: Fraction
    root2: Fraction

    @staticmethod
    def of(rational: Scalar = 0, root2: Scalar = 0) -> "Sqrt2Num":
        return Sqrt2Num(Fraction(rational), Fraction(root2))

    def __add__(self, other):
        other = _coerce(other)
        return Sqrt2Num(self.rational + other.rational, self.root2 + other.root2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Sqrt2Num(self.rational - other.rational, self.root2 - other.root2)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Sqrt2Num(-self.rational, -self.root2)

    def __mul__(self, other):
        other = _coerce(other)
        return Sqrt2Num(
            self.rational * other.rational + 2 * self.root2 * other.root2,
            self.rational * other.root2 + self.root2 * other.rational,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        return _sign_int_pair(*int_form(self)[:2])

    def floor(self) -> int:
        return _floor_ratio(*int_form(self))

    def scaled_floor(self, bits: int) -> int:
        """floor(self * 2**bits), computed exactly."""
        return (self * (1 << bits)).floor()

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.rational == other.rational and self.root2 == other.root2

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash(self.rational) if self.root2 == 0 else hash((self.rational, self.root2))

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __float__(self):
        # Display/diagnostics only; never used for order decisions.
        return float(self.rational) + float(self.root2) * 2.0 ** 0.5

    def __repr__(self):
        return f"Sqrt2Num({self.rational} + {self.root2}*sqrt2)"


def _coerce(value) -> Sqrt2Num:
    if isinstance(value, Sqrt2Num):
        return value
    if isinstance(value, (int, Fraction)):
        return Sqrt2Num(Fraction(value), Fraction(0))
    raise TypeError(f"cannot coerce {value!r} to Sqrt2Num")


SQRT2 = Sqrt2Num.of(0, 1)
