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


def exact_sqrt(q: Union[int, Fraction]) -> Union[Fraction, "Quad"]:
    """Exact square root of a nonnegative rational.

    Returns a ``Fraction`` when q is a perfect square, otherwise a ``Quad``
    representing sqrt(q) in Q(sqrt(d)) with d the square-free-reduced radicand.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q) / q
    m = q.numerator * q.denominator
    s, d = _square_free_split(m)
    if d == 1:
        return Fraction(s, q.denominator)
    return Quad(Fraction(0), Fraction(s, q.denominator), Fraction(d))


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
    field, which may differ by a square factor, are rescaled to the left
    operand's.
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
        if isinstance(other, Quad):
            return other.a, rescale_sqrt(other.b, other.r, self.r)
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) + other if isinstance(other, float) else NotImplemented
        return Quad.make(self.a + co[0], self.b + co[1], self.r)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.r)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) - other if isinstance(other, float) else NotImplemented
        return Quad.make(self.a - co[0], self.b - co[1], self.r)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) * other if isinstance(other, float) else NotImplemented
        c, d = co
        return Quad.make(self.a * c + self.b * d * self.r, self.a * d + self.b * c, self.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return float(self) / other if isinstance(other, float) else NotImplemented
        c, d = co
        den = c * c - d * d * self.r
        if den == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        num = self * Quad.make(c, -d, self.r)
        if isinstance(num, Fraction):
            return num / den
        return Quad.make(num.a / den, num.b / den, self.r)

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return other / float(self) if isinstance(other, float) else NotImplemented
        den = self.a * self.a - self.b * self.b * self.r
        conj = Quad.make(self.a, -self.b, self.r)
        inv = Quad.make(conj.a / den, conj.b / den, self.r) if isinstance(conj, Quad) else conj / den
        return inv * Fraction(co[0]) if co[1] == 0 else inv * Quad.make(*co, self.r)

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


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction, Quad))


def scalar_is_zero(x: Scalar, tol: float = 0.0) -> bool:
    """Exact zero test for exact scalars; |x| <= tol for floats."""
    if isinstance(x, float):
        return abs(x) <= tol
    if isinstance(x, Quad):
        return False  # b != 0
    return x == 0


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
