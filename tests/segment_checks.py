"""Constructions on segment polynomials that only the tests use.

The first-integral identity and the scaled-Ricci negative control, shared
by `test_einstein.py` and `test_acceptance.py`.
"""

from fractions import Fraction

from flagke import einstein as ein
from flagke.polys import p_add, p_deriv, p_mul, p_scale, p_trim


def first_integral_identity_numerator(sp):
    """Numerator polynomial of (1/2) u' - u F + H over a common denominator.

    With u = A/B, A = -2Q, B = P, F = C/D, C = -P', D = 2P and H = f - m1,
    (1/2) u' - u F + H = (1/2)(A'B - A B')/B^2 - A C/(B D) + H, whose
    numerator over 2 B^2 D is N = (A'B - A B') D - 2 A C B + 2 H B^2 D.  For a
    genuine first integral N is the zero polynomial, exactly.
    """
    A = p_scale(sp.q_coeffs, Fraction(-2))
    B = list(sp.coeffs)
    C = p_scale(sp.d_coeffs, Fraction(-1))
    D = p_scale(B, Fraction(2))
    H = [-Fraction(sp.m1), Fraction(1)]
    term1 = p_mul(p_add(p_mul(p_deriv(A), B), p_scale(p_mul(A, p_deriv(B)), Fraction(-1))), D)
    term2 = p_scale(p_mul(p_mul(A, C), B), Fraction(-2))
    term3 = p_scale(p_mul(H, p_mul(p_mul(B, B), D)), Fraction(2))
    return p_trim(p_add(p_add(term1, term2), term3))


def scaled_ricci_control(base, m1, m2, lam):
    """The segment polynomial with the metric endpoint built from lam * Zk + m1 * Z.

    The modules of the true segment with alpha(Z1) replaced by
    lam * alpha(Zk) + m1 * alpha(Z).  The Ricci data keeps the true Zk, so
    for lam != 1 the tangential Einstein residuals are bounded away from
    zero: the negative control.
    """
    modules = ein.SegmentPolynomial.from_base(base, m1, m2, validate_degrees=False).modules
    scaled = {(lam * zk + m1 * k, k, zk): roots for (_, k, zk), roots in modules.items()}
    return ein.SegmentPolynomial(scaled, m1, m2, validate_degrees=True)
