"""Dense univariate polynomials over the exact scalar tower.

Coefficients are stored ascending (c[k] multiplies x**k) and may be any exact
scalar (Fraction or Quad).  These helpers stay exact end to end and import no
numpy; the float twins of these polynomials live in `einstein`, the float
layer.

Products of linear factors prod (a - k x), the segment polynomial and the
obstruction integrand, take their factors as isotropy modules (a, k) -> d.
Exact products are formed in Python integers: one common denominator is
cleared, and each coefficient is carried as a pair (u, v) meaning
u + v sqrt(R) (see `int_linear_product`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import Quad, Scalar, rescale_sqrt, scalar_is_zero

Poly = List[Scalar]

ZERO = Fraction(0)


def p_trim(p: Sequence[Scalar]) -> Poly:
    out = list(p)
    while out and scalar_is_zero(out[-1]):
        out.pop()
    return out


def p_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> Poly:
    if not a or not b:
        return []
    out: Poly = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if scalar_is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return p_trim(out)


def p_deriv(a: Sequence[Scalar]) -> Poly:
    return p_trim([k * c for k, c in enumerate(a)][1:])


def p_antideriv(a: Sequence[Scalar]) -> Poly:
    """Antiderivative with zero constant term."""
    return p_trim([ZERO] + [c / (k + 1) for k, c in enumerate(a)])


def p_eval(a: Sequence[Scalar], x: Scalar) -> Scalar:
    out: Scalar = ZERO
    for c in reversed(list(a)):
        out = out * x + c
    return out


def p_low_order(a: Sequence[Scalar]) -> int:
    """Order of vanishing at 0 (exact); len(a) for the zero polynomial."""
    for k, c in enumerate(a):
        if not scalar_is_zero(c):
            return k
    return len(a)


# ---------------------------------------------------------------------------
# products of linear factors


def split_exact(values: Sequence[Scalar]) -> Tuple[List[int], List[int], int, Optional[Fraction]]:
    """Write exact values of Q or of one field Q(sqrt r) as x_i = (u_i + v_i sqrt(R)) / den.

    Returns (u, v, den, r) with one common denominator den.  R is the integer
    r.numerator * r.denominator, so sqrt(r) = sqrt(R) / r.denominator; r is
    None and every v_i is 0 when all values are rational.  A radicand of the
    same field as r, whose product with r is a rational square, is rescaled
    to r (`scalars.rescale_sqrt`).
    """
    r: Optional[Fraction] = None
    parts = []
    for x in values:
        if isinstance(x, Quad):
            if r is None:
                r = x.r
            parts.append((x.a, rescale_sqrt(x.b, x.r, r) / r.denominator))
        else:
            parts.append((Fraction(x), ZERO))
    den = math.lcm(*(p.denominator for pair in parts for p in pair))
    u = [p.numerator * (den // p.denominator) for p, _ in parts]
    v = [q.numerator * (den // q.denominator) for _, q in parts]
    return u, v, den, r


def pair_scalar(u: int, v: int, den: int, r: Optional[Fraction]) -> Scalar:
    """(u + v sqrt(R)) / den as a Fraction, or as a Quad when v != 0; inverts `split_exact`."""
    if v == 0:
        return Fraction(u, den)
    return Quad(Fraction(u, den), Fraction(v * r.denominator, den), r)


def int_linear_product(modules: Dict[Tuple[int, int, int, int], int], r: Optional[Fraction]) -> Tuple[List[int], List[int]]:
    """Integer coefficient pairs of prod ((a0 + a1 sqrt(R)) - (k0 + k1 sqrt(R)) x)^d.

    ``modules`` maps keys (a0, a1, k0, k1) of `split_exact` integers for the
    field Q(sqrt r) to multiplicities d; r is None for Q, where every a1 and
    k1 is 0.  Returns (u, v) with the product equal to
    sum (u_n + v_n sqrt(R)) x^n.  Each factor is one pass of integer
    multiply-adds over the coefficient pairs.
    """
    R = 0 if r is None else r.numerator * r.denominator
    us, vs = [1], [0]
    for (a0, a1, k0, k1), d in modules.items():
        ra1, rk1 = R * a1, R * k1
        for _ in range(d):
            u0, v0, u1, v1 = us + [0], vs + [0], [0] + us, [0] + vs
            us = [a0 * u + ra1 * v - k0 * x - rk1 * y for u, v, x, y in zip(u0, v0, u1, v1)]
            vs = [a0 * v + a1 * u - k0 * y - k1 * x for u, v, x, y in zip(u0, v0, u1, v1)]
    return us, vs


def p_linear_product(modules: Dict[Tuple[Scalar, Scalar], int]) -> Poly:
    """Coefficients of prod (a - k x)^d over exact modules (a, k) -> d, trimmed.

    The factors, in Q or in one field Q(sqrt r), are multiplied in integers
    over one common denominator; the Fraction or Quad coefficients are built
    once, at the end.
    """
    u, v, den, r = split_exact([x for key in modules for x in key])
    keyed = {(u[i], v[i], u[i + 1], v[i + 1]): d for i, d in zip(range(0, len(u), 2), modules.values())}
    us, vs = int_linear_product(keyed, r)
    total = den ** sum(modules.values())
    return p_trim([pair_scalar(x, y, total, r) for x, y in zip(us, vs)])
