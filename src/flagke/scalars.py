"""Scalar tower for exact root-system computations.

Three kinds of scalar circulate in this package:

* ``Fraction`` (or ``int``) -- exact rationals, the default;
* ``Quad`` -- exact elements a + b*sqrt(r) of a real quadratic field,
  produced when a rational vector is normalized to unit length;
* ``float`` -- for numeric searches, with explicit tolerances.

Arithmetic between a ``Quad`` and a rational stays exact; arithmetic with a
``float`` degrades to ``float``.  All exact values admit exact sign tests, so
vanishing and chamber conditions are decidable without tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "Quad", float]

_TRIAL_LIMIT = 20000


def _square_free_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*d and return (s, d) with d square-free.

    Trial division is bounded; a huge prime-square factor may stay inside d,
    which only makes the representation non-canonical, never wrong.
    """
    s, d = 1, 1
    p = 2
    while p * p <= n and p <= _TRIAL_LIMIT:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def sqrt_parts(num: int, den: int) -> tuple[int, int, int]:
    """(s, d, e) with sqrt(num / den) = (s / e) sqrt(d), for integers num >= 0 and den > 0, in integers.

    s / e is in lowest terms and d is the square-free-reduced radicand of
    `_square_free_split`, 1 when num / den is a rational square:
    sqrt(num / den) = sqrt(num den) / den in lowest terms.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    s, d = _square_free_split(num * den)
    g = math.gcd(s, den)
    return s // g, d, den // g


def rescale_sqrt(b: Fraction, r: Fraction, r_to: Fraction) -> Fraction:
    """The coefficient b' with b*sqrt(r) = b'*sqrt(r_to).

    Two radicands name one field exactly when their product is a rational
    square s^2, and then sqrt(r) = (s / r_to) sqrt(r_to).  Radicands past the
    trial-division limit are not canonical, so this test, not r == r_to,
    decides whether two Quads share a field.  Different fields raise.
    """
    if r == r_to:
        return b
    prod = r * r_to
    num, den = math.isqrt(prod.numerator), math.isqrt(prod.denominator)
    if num * num != prod.numerator or den * den != prod.denominator:
        raise ValueError("mixed radicands %s and %s" % (r_to, r))
    return b * Fraction(num, den) / r_to


class Quad:
    """Exact number a + b*sqrt(r), with a, b rational and r a non-square > 1.

    Instances always have b != 0; operations collapsing to a rational return a
    plain ``Fraction``.  Mixing two different fields is rejected: a single
    configuration only ever lives in one quadratic field.  Radicands of one
    field, which may differ by a square factor, are rescaled to the smaller
    of the two, so a result prints the same in either operand order.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a: Fraction, b: Fraction, r: Fraction):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.r = Fraction(r)
        if self.b == 0:
            raise ValueError("rational value; use Fraction instead")
        if self.r <= 1:
            raise ValueError("radicand must exceed 1 after reduction")

    @staticmethod
    def make(a: Fraction, b: Fraction, r: Fraction) -> Union[Fraction, "Quad"]:
        return Fraction(a) if b == 0 else Quad(a, b, r)

    def _coerce(self, other) -> Union[tuple, None]:
        """(a, b, c, d, r) with self = a + b sqrt(r) and other = c + d sqrt(r); None for floats."""
        if isinstance(other, Quad):
            r = min(self.r, other.r)
            return self.a, rescale_sqrt(self.b, self.r, r), other.a, rescale_sqrt(other.b, other.r, r), r
        if isinstance(other, (int, Fraction)):
            return self.a, self.b, Fraction(other), Fraction(0), self.r
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) + other if isinstance(other, float) else NotImplemented
        a, b, c, d, r = co
        return Quad.make(a + c, b + d, r)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.r)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) - other if isinstance(other, float) else NotImplemented
        a, b, c, d, r = co
        return Quad.make(a - c, b - d, r)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) * other if isinstance(other, float) else NotImplemented
        a, b, c, d, r = co
        return Quad.make(a * c + b * d * r, a * d + b * c, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) / other if isinstance(other, float) else NotImplemented
        a, b, c, d, r = co
        den = c * c - d * d * r
        if den == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return Quad.make((a * c - b * d * r) / den, (b * c - a * d) / den, r)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):  # a Quad numerator is handled by its __truediv__
            return other / float(self) if isinstance(other, float) else NotImplemented
        den = self.a * self.a - self.b * self.b * self.r
        return Quad.make(other * self.a / den, -other * self.b / den, self.r)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out: Scalar = Fraction(1)
        for _ in range(n):
            out = self * out
        return out

    def __abs__(self) -> "Quad":
        return self if self.sign() >= 0 else -self

    # -- order and equality ----------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if a == 0:
            return 1 if b > 0 else -1
        if b == 0:  # unreachable by construction
            return 1 if a > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 r
        lhs, rhs = a * a, b * b * self.r
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def _key(self) -> tuple:
        """(a, b|b| r): the same for every representation of one number."""
        return self.a, self.b * abs(self.b) * self.r

    def __eq__(self, other):
        if isinstance(other, Quad):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 makes this irrational
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, float):
            return (diff > 0) - (diff < 0)
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions ------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.r))

    def __repr__(self) -> str:
        return "%s + %s*sqrt(%s)" % (self.a, self.b, self.r)


def scalar_is_zero(x: Scalar) -> bool:
    """Exact zero test: a Quad is never zero (b != 0)."""
    return not isinstance(x, Quad) and x == 0


def scalar_sign(x: Scalar, tol: float = 0.0) -> int:
    if isinstance(x, float):
        if abs(x) <= tol:
            return 0
        return 1 if x > 0 else -1
    if isinstance(x, Quad):
        return x.sign()
    return (x > 0) - (x < 0)


def format_scalar(x: Scalar) -> str:
    """Render a scalar for reports: exact values as exact strings."""
    if isinstance(x, Quad):
        return repr(x)
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return "%.12e" % x
