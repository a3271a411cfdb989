"""Exact polynomials as integer coefficient lists, and the exact scalars they stand for.

The obstruction's product E(y) = prod alpha(Zk - y Z) takes its factors
as isotropy modules (a, k) -> d, keyed in integers over one common
denominator, each coefficient carried as a pair (u, v) meaning
u + v sqrt(R) (see `int_linear_product`).  Over Q, and when every factor
is a - k sqrt(R) x, the product is one integer list; only factors with
both parts take the pair product.  The segment polynomial is E shifted,
P(x) = E(x - m1), an integer Taylor shift of both lists
(`int_taylor_shift`).  Its signs, its floats and its exact coefficients are
read off the integer pairs (`pair_sign`, `pair_float`, `pair_scalar`); the
float layer, `einstein`, forms P's antiderivative and derivative on the
pairs too.  A float obstruction's product is `float_linear_product`.  These
helpers import no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import Quad, Scalar, rescale_sqrt


# ---------------------------------------------------------------------------
# products of linear factors


def split_exact(values: Sequence[Scalar]) -> Tuple[List[int], List[int], int, Optional[Fraction]]:
    """Write exact values of Q or of one field Q(sqrt r) as x_i = (u_i + v_i sqrt(R)) / den.

    Returns (u, v, den, r) with one common denominator den.  R is the integer
    r.numerator * r.denominator, so sqrt(r) = sqrt(R) / r.denominator; r is
    None and every v_i is 0 when all values are rational.  A radicand of the
    same field as r, whose product with r is a rational square, is rescaled
    to r (`scalars.rescale_sqrt`); one gcd reduces its b / r.denominator.
    """
    if not any(isinstance(x, Quad) for x in values):  # all rational: one lcm, no Fraction built
        den = math.lcm(*(x.denominator for x in values))
        return [x.numerator * (den // x.denominator) for x in values], [0] * len(values), den, None
    r = next(x.r for x in values if isinstance(x, Quad))
    rd = r.denominator
    pairs = []
    for x in values:
        if isinstance(x, Quad):
            b = rescale_sqrt(x.b, x.r, r)
            g = math.gcd(b.numerator, rd)
            pairs.append((x.a.numerator, x.a.denominator, b.numerator // g, b.denominator * (rd // g)))
        else:
            pairs.append((x.numerator, x.denominator, 0, 1))
    den = math.lcm(*(d for _, d1, _, d2 in pairs for d in (d1, d2)))
    return [a * (den // d) for a, d, _, _ in pairs], [b * (den // d) for _, _, b, d in pairs], den, r


def pair_scalar(u: int, v: int, den: int, r: Optional[Fraction]) -> Scalar:
    """(u + v sqrt(R)) / den as a Fraction, or as a Quad when v != 0; inverts `split_exact`."""
    if v == 0:
        return Fraction(u, den)
    return Quad(Fraction(u, den), Fraction(v * r.denominator, den), r)


def pair_float(u: int, v: int, den: int, r: Optional[Fraction]) -> float:
    """float(pair_scalar(u, v, den, r)) bit for bit, with no Fraction or Quad built.

    int / int is correctly rounded, as float(Fraction(u, den)) is, and a
    sqrt(R) part takes `Quad.__float__`'s three float operations in its order.
    """
    if v == 0:
        return u / den
    return u / den + v * r.denominator / den * math.sqrt(float(r))


def pair_sign(u: int, v: int, r: Optional[Fraction]) -> int:
    """The sign of u + v sqrt(R), R = r.numerator * r.denominator, in integers.

    Equal signs, or one zero part, give it at once; opposite signs compare
    u^2 with v^2 R, as `scalars.Quad.sign` does.
    """
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv or not sv:
        return su
    if not su:
        return sv
    lhs, rhs = u * u, v * v * r.numerator * r.denominator
    return su if lhs > rhs else (-su if lhs < rhs else 0)


def int_linear_product(modules: Dict[Tuple[int, int, int, int], int], r: Optional[Fraction]) -> Tuple[List[int], List[int]]:
    """Integer coefficient pairs of prod ((a0 + a1 sqrt(R)) - (k0 + k1 sqrt(R)) x)^d.

    ``modules`` maps keys (a0, a1, k0, k1) of `split_exact` integers for the
    field Q(sqrt r) to multiplicities d; r is None for Q, where every a1 and
    k1 is 0.  Returns (u, v) with the product equal to
    sum (u_n + v_n sqrt(R)) x^n.  When every a1 and k1 is 0 the product is
    one integer list in x.  When every a1 and k0 is 0, as for a rational Zk
    against a normalized direction, it is one list c in t = sqrt(R) x, and
    c_n R^(n // 2) goes to u_n for even n and to v_n for odd n; there the
    factors with k = 0 are one constant, and the others are multiplied in
    two at a time.  Otherwise each factor is one pass of integer
    multiply-adds over the pairs.
    """
    R = 0 if r is None else r.numerator * r.denominator
    rational = all(a1 == k1 == 0 for _, a1, _, k1 in modules)
    if rational or all(a1 == k0 == 0 for _, a1, k0, _ in modules):
        cs, factors, constants = [1], [], 0
        for (a0, _, k0, k1), d in modules.items():
            k = k0 if rational else k1
            if k:
                factors += [(a0, k)] * d
            else:
                cs[0] *= a0 ** d
                constants += d
        for (a, k), (b, l) in zip(factors[::2], factors[1::2]):
            p, q, s = a * b, a * l + b * k, k * l
            # (a - k x)(b - l x) = ab - (al + bk) x + kl x^2
            cs = [p * x - q * y + s * z for x, y, z in zip(cs + [0, 0], [0] + cs + [0], [0, 0] + cs)]
        if len(factors) % 2:
            a, k = factors[-1]
            cs = [a * x - k * y for x, y in zip(cs + [0], [0] + cs)]
        cs += [0] * constants  # one entry per factor, as one pass per factor gives
        if rational:
            return cs, [0] * len(cs)
        us, vs, power = [0] * len(cs), [0] * len(cs), 1
        for n, c in enumerate(cs):
            if n % 2:
                vs[n] = c * power
                power *= R
            else:
                us[n] = c * power
        return us, vs
    us, vs = [1], [0]
    for (a0, a1, k0, k1), d in modules.items():
        ra1, rk1 = R * a1, R * k1
        for _ in range(d):
            u0, v0, u1, v1 = us + [0], vs + [0], [0] + us, [0] + vs
            us = [a0 * u + ra1 * v - k0 * x - rk1 * y for u, v, x, y in zip(u0, v0, u1, v1)]
            vs = [a0 * v + a1 * u - k0 * y - k1 * x for u, v, x, y in zip(u0, v0, u1, v1)]
    return us, vs


def float_linear_product(factors: Iterable[Tuple[float, float]]) -> List[float]:
    """Ascending float coefficients of prod (a - k x) over the factors (a, k), in the order given, trimmed.

    One pass a c_n - k c_(n-1) per factor: a sum of two products, as
    np.convolve forms it and as a Fraction chain of the floats rounds it,
    bit for bit.
    """
    cs = [1.0]
    for a, k in factors:
        cs = [a * x - k * y for x, y in zip(cs + [0.0], [0.0] + cs)]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def int_taylor_shift(cs: Sequence[int], s: int) -> List[int]:
    """The coefficients of sum c_n (x + s)^n in integers; the length is kept.

    A shift by 1 is n passes of suffix sums, each one C-level `accumulate`;
    another s scales c_n by s^n, shifts by 1 and divides by s^n, exactly.
    """
    if not s or not any(cs):  # the sqrt(R) list of a rational product
        return list(cs)
    if s != 1:
        powers = [s ** n for n in range(len(cs))]
        return [c // w for c, w in zip(int_taylor_shift(list(map(mul, cs, powers)), 1), powers)]
    out = list(cs)
    for i in range(len(out) - 1):  # out[j] += out[j + 1] for j from the top down to i: suffix sums of out[i:]
        out[i:] = list(accumulate(reversed(out[i:])))[::-1]
    return out
