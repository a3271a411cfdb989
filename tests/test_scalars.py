import math
from fractions import Fraction

import pytest

from flagke.polys import pair_scalar, split_exact
from flagke.scalars import Quad, exact_sqrt, format_scalar, scalar_is_zero, scalar_sign


def test_exact_sqrt_perfect_squares():
    assert exact_sqrt(Fraction(4)) == 2
    assert exact_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert exact_sqrt(Fraction(0)) == 0


def test_exact_sqrt_irrational():
    r = exact_sqrt(Fraction(2))
    assert isinstance(r, Quad)
    assert r * r == 2
    # sqrt(1/2) = (1/2) sqrt(2)
    s = exact_sqrt(Fraction(1, 2))
    assert s == Quad(Fraction(0), Fraction(1, 2), Fraction(2))
    assert abs(float(s) - math.sqrt(0.5)) < 1e-15


def test_exact_sqrt_square_part_extracted():
    assert exact_sqrt(Fraction(8)) == Quad(Fraction(0), Fraction(2), Fraction(2))
    assert exact_sqrt(Fraction(49)) == 7


def test_quad_field_operations():
    x = Quad(Fraction(1), Fraction(1), Fraction(2))  # 1 + sqrt(2)
    y = Quad(Fraction(3), Fraction(-1), Fraction(2))
    assert x + y == 4
    assert x * y == Quad(Fraction(1), Fraction(2), Fraction(2))
    inv = 1 / x
    assert inv * x == 1
    assert x - x == 0
    assert (x / y) * y == x


def test_quad_collapses_to_fraction():
    x = Quad(Fraction(1), Fraction(2), Fraction(3))
    y = Quad(Fraction(5), Fraction(-2), Fraction(3))
    s = x + y
    assert isinstance(s, Fraction) and s == 6


def test_quad_sign_and_order():
    # 3 - 2 sqrt(2) > 0 since 9 > 8
    assert Quad(Fraction(3), Fraction(-2), Fraction(2)).sign() == 1
    # 1 - sqrt(2) < 0
    assert Quad(Fraction(1), Fraction(-1), Fraction(2)).sign() == -1
    assert Quad(Fraction(-3), Fraction(2), Fraction(2)).sign() == -1
    assert Quad(Fraction(0), Fraction(1), Fraction(2)) > 1
    assert Quad(Fraction(0), Fraction(1), Fraction(2)) < Fraction(3, 2)


def test_quad_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        Quad(Fraction(0), Fraction(1), Fraction(2)) + Quad(Fraction(0), Fraction(1), Fraction(3))


def test_quad_radicands_past_the_trial_limit_share_their_field():
    # 20011 is a prime above the trial-division limit, so its square stays in
    # the radicand: two radicands of one field, told apart by no factoring
    big, small = exact_sqrt(20011 ** 2 * 20021), exact_sqrt(20021)
    assert big.r != small.r
    assert big == 20011 * small and hash(big) == hash(20011 * small)
    assert big + small == 20012 * small and small - big == -20010 * small
    assert big * small == 20011 * 20021 and big / small == 20011
    u, v, den, r = split_exact([big, small, Fraction(1, 3)])
    assert r == big.r and [pair_scalar(x, y, den, r) for x, y in zip(u, v)] == [big, small, Fraction(1, 3)]
    with pytest.raises(ValueError, match="mixed radicands"):
        split_exact([small, exact_sqrt(20023)])


def test_scalar_helpers():
    assert scalar_is_zero(Fraction(0))
    assert not scalar_is_zero(Quad(Fraction(0), Fraction(1), Fraction(2)))
    assert scalar_is_zero(1e-15, tol=1e-12)
    assert scalar_sign(-0.5) == -1
    assert scalar_sign(Fraction(-1, 3)) == -1
    assert format_scalar(Fraction(1, 3)) == "1/3"
