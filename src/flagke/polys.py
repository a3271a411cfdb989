"""Dense univariate polynomials over the exact scalar tower.

Coefficients are stored ascending (c[k] multiplies x**k) and may be any exact
scalar (Fraction or Quad).  These helpers stay exact end to end; callers
convert to numpy float arrays only at the numerics boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .scalars import Scalar, scalar_is_zero

Poly = List[Scalar]

ZERO = Fraction(0)


def p_trim(p: Sequence[Scalar]) -> Poly:
    out = list(p)
    while out and scalar_is_zero(out[-1]):
        out.pop()
    return out


def p_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> Poly:
    n = max(len(a), len(b))
    return p_trim([(a[k] if k < len(a) else ZERO) + (b[k] if k < len(b) else ZERO) for k in range(n)])


def p_scale(a: Sequence[Scalar], s: Scalar) -> Poly:
    return p_trim([s * c for c in a])


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


def p_compose_linear(a: Sequence[Scalar], c0: Scalar, c1: Scalar) -> Poly:
    """Exact composition p(c0 + c1*x) by Horner; the test oracle for reversed segments."""
    out: Poly = []
    lin: Poly = [c0, c1]
    for coeff in reversed(list(a)):
        out = p_add(p_mul(out, lin), [coeff])
    return out


def p_low_order(a: Sequence[Scalar]) -> int:
    """Order of vanishing at 0 (exact); len(a) for the zero polynomial."""
    for k, c in enumerate(a):
        if not scalar_is_zero(c):
            return k
    return len(a)


def p_to_float(a: Sequence[Scalar]) -> np.ndarray:
    return np.array([float(c) for c in a], dtype=float)


def p_eval_float(coeffs: np.ndarray, x):
    """Horner evaluation of ascending float coefficients, numpy-vectorized."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in coeffs[::-1]:
        out = out * x + c
    return out
