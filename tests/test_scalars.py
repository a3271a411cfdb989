import collections
import math
import random
from fractions import Fraction

import pytest

from flagke.polys import pair_scalar, split_exact
from flagke.scalars import Quad, format_scalar, scalar_is_zero, scalar_sign, sqrt_parts
from segment_checks import exact_sqrt, fraction_split_exact


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


def test_sqrt_parts_in_integers():
    # sqrt(num / den) = (s / e) sqrt(d) with s / e in lowest terms and d square-free, the parts of exact_sqrt
    assert sqrt_parts(8, 1) == (2, 2, 1) and sqrt_parts(9, 16) == (3, 1, 4) and sqrt_parts(0, 5) == (0, 1, 1)
    assert sqrt_parts(2, 4) == (1, 2, 2) and sqrt_parts(12, 27) == (2, 1, 3)
    for num in range(60):
        for den in range(1, 60):
            s, d, e = sqrt_parts(num, den)
            assert num * e * e == s * s * d * den and math.gcd(s, e) == 1 and e > 0
            assert all(d % (p * p) for p in range(2, 12))
            assert exact_sqrt(Fraction(num, den)) == (Fraction(s, e) if d == 1 else Quad(0, Fraction(s, e), d))


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


def test_split_exact_matches_the_fraction_oracle():
    # seeded vectors of rationals and Quads of one radicand, of two radicands of one field (rescaled to
    # the first) and of rationals alone; radicands with a denominator, sqrt parts sharing factors with
    # it, and int, Fraction and Quad entries: the same integers, denominator and r
    rng = random.Random(35)
    radicands = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(6, 5), Fraction(15, 4)]
    paths = collections.Counter()

    def rational():
        return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-30, 30), rng.randint(1, 36))])

    for _ in range(600):
        r = rng.choice(radicands)
        # one field: r itself, or r times a rational square above 1
        squares = [Fraction(3, 2), Fraction(2), Fraction(5, 3), Fraction(3)]
        field = [r, r * rng.choice(squares) ** 2] if rng.random() < 0.3 else [r]
        values = []
        for _ in range(rng.randint(1, 8)):
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 36)) * rng.choice([1, r.denominator, 6])
            values.append(Quad(rational(), b, rng.choice(field)) if b and rng.random() < 0.6 else rational())
        quads = {x.r for x in values if isinstance(x, Quad)}
        paths["rational" if not quads else "one radicand" if len(quads) == 1 else "rescaled"] += 1
        got, want = split_exact(values), fraction_split_exact(values)
        assert got == want and [type(x) for x in got[:3]] == [type(x) for x in want[:3]], values
        assert all(type(x) is int for x in got[0] + got[1]) and type(got[2]) is int
    assert min(paths.values()) >= 50, paths


def test_quad_arithmetic_keeps_the_smaller_radicand():
    # one field, two radicands: a result carries the smaller, so it prints the same in either order
    big, small = exact_sqrt(20011 ** 2 * 20021), exact_sqrt(20021)
    assert big + small == small + big == 20012 * small
    assert format_scalar(big + small) == format_scalar(small + big) == "0 + 20012*sqrt(20021)"
    for x, y in [(big, small), (small, big)]:
        assert (x - y).r == (x * (y + 1)).r == (x / (y + 1)).r == small.r
        assert x / (y + 1) * (y + 1) == x and 1 / (x + 1) * (x + 1) == 1


def test_scalar_helpers():
    assert scalar_is_zero(Fraction(0))
    assert not scalar_is_zero(Quad(Fraction(0), Fraction(1), Fraction(2)))
    assert scalar_is_zero(0.0) and not scalar_is_zero(1e-300)
    assert scalar_sign(-0.5) == -1
    assert scalar_sign(Fraction(-1, 3)) == -1
    assert format_scalar(Fraction(1, 3)) == "1/3"
