"""The diameter search: the zeros of the obstruction on the sphere of the center, found exactly.

For degrees (1, 1) the obstruction at the direction of a nonzero integer
center vector Q, homogenized, is the integer form

    F_h(Q) = sum over odd i <= J of 2/(i+2) c_i(Q) e^((J-i)/2) = e^(J/2) F(Q / sqrt(e)),

with c_i(Q) the coefficient of y^i in prod over R_m+ of alpha(Zk - y Q),
e = E(Q, Q) / period_scale^2 and J the largest odd number <= |R_m+|.  It
has the sign of the obstruction that `model.futaki` gives at Q normalized,
vanishes exactly with it, and is odd and homogeneous of degree J.  On the
plane spanned by two integer center vectors Q1 and Q2, F_h(s Q1 + Q2) is
one integer polynomial in s (`_plane_form`), whose real roots are the
plane's zeros, one per direction up to sign; Q1 itself is a zero when the
degree drops below J.  The roots are isolated by Descartes' rule of signs
with bisection (Collins-Akritas 1976; Rouillier-Zimmermann, J. Comput.
Appl. Math. 162, 2004) and refined on exact integer signs (`_real_roots`).
A rational root is an exact direction, normalized and given its exact
verdict; every other root is rounded to a float direction, between two
exact sign changes, with a float verdict, which `model` forms without
numpy too: a search loads none.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Tuple, Union

from . import linalg
from .errors import InputError
from .flag import SphereCheck, _center_gram, _center_modules, _unpainted_vector, ricci_invariant, sphere_in_chamber
from .model import CenterLine, KEVerdict, _integral_weights, ke_verdict, make_base
from .polys import int_taylor_shift
from .records import Record
from .rootsys import CartanVector
from .scalars import Scalar

# the depth of Descartes bisection, in halvings of (0, 1), past which the roots are found on the square-free
# part: the isolating ends stay exact floats, and only a multiple root or two roots this close go deeper
_DEPTH = 53


class DiameterCandidate(Record):
    """A zero of the obstruction on the sphere, with its verdict for degrees (1, 1)."""

    _fields = ("z_values", "verdict", "confirmed_exact")

    def __init__(self, z_values: Tuple[Scalar, ...], verdict: KEVerdict, confirmed_exact: bool):
        self.__dict__.update(z_values=z_values, verdict=verdict, confirmed_exact=confirmed_exact)

    @property
    def ke_ok(self) -> bool:
        return self.verdict.ok


class DiameterSearchResult(Record):
    _fields = ("hypothesis", "candidates")

    def __init__(self, hypothesis: SphereCheck, candidates: Tuple[DiameterCandidate, ...]):
        self.__dict__.update(hypothesis=hypothesis, candidates=candidates)


def search_diameters(base: CenterLine) -> DiameterSearchResult:
    """Zeros of the obstruction on the sphere E(Z, Z) = period_scale^2 of the center, m1 = m2 = 1.

    The sphere-in-chamber hypothesis is evaluated exactly and reported; the
    search runs regardless, since the hypothesis is sufficient but not
    necessary for admissible diameters.  Directions are integer vectors in
    center coordinates (the unpainted values), found on lines or planes
    (`_planes`).  A 1-dimensional center is the line of Q1 = (1,), Q2 = 0,
    whose form s^J F_h(Q1) loses its top coefficient when Q1 is a zero.  A
    2-dimensional one is the plane of Q1 = (1, 0) and Q2 = (0, 1), so every
    zero is found, each direction once: as Q1 or with a positive Q2
    coefficient.  A 3-dimensional one is scanned on the 13 planes n.Q = 0,
    n in {-1, 0, 1}^3 up to sign; J is odd, so each has a zero, and an exact
    direction on two planes is reported once.  A form that vanishes on its whole plane gives Q1 and Q2.
    Exact candidates come first, then float ones, each in the order of their
    float values.
    """
    flag, j, ps, d = base.flag, base.j, base.period_scale, base.flag.center_dim
    if d < 1 or d > 3:
        raise InputError("diameter search supports center dimension 1..3, got %d" % d)
    zk = ricci_invariant(flag, j)
    modules, gram = _center_modules(flag, j, zk), _center_gram(flag)
    exact, floats = {}, []  # the primitive Q of each exact direction, keyed up to sign; the float ones

    def add_exact(q: List[int]) -> None:
        if any(q):
            q = tuple(x // math.gcd(*q) for x in q)
            exact.setdefault(max(q, tuple(-x for x in q)), q)

    for q1, q2 in _planes(d):
        form = _plane_form(gram, modules, q1, q2, ps)
        if not form[-1]:
            add_exact(q1)
        for s in _real_roots(form) if any(form) else [Fraction(0)]:
            if isinstance(s, Fraction):
                add_exact([s.numerator * x + s.denominator * y for x, y in zip(q1, q2)])
            else:
                floats.append(dict(zip(flag.unpainted, (s * x + y for x, y in zip(q1, q2)))))

    def candidate(z: CartanVector, confirmed: bool) -> DiameterCandidate:
        b = make_base(flag, j, z, period_scale=ps)
        return DiameterCandidate(b.z.values, ke_verdict(b, zk, 1, 1), confirmed_exact=confirmed)

    out = [candidate(_unpainted_vector(flag, q, [0] * d, 1, None), True) for q in exact.values()]
    out += [candidate(CartanVector(tuple(z.get(i, 0.0) for i in range(flag.rs.rank))), False) for z in floats]
    out.sort(key=lambda c: (not c.confirmed_exact, tuple(float(v) for v in c.z_values)))
    return DiameterSearchResult(sphere_in_chamber(flag, j), tuple(out))


def _planes(d: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The planes (Q1, Q2) that a search of a d-dimensional center scans, as integer bases; for d = 1, a line.

    For d = 3, the plane n.Q = 0 with n_k = +-1, k its last nonzero entry,
    has the lattice basis Q1 = e_i - n_k n_i e_k, Q2 = e_j - n_k n_j e_k for
    the other two indices i < j.
    """
    if d < 3:
        return [((1, 0), (0, 1)) if d == 2 else ((1,), (0,))]
    out = []
    for n in itertools.product((0, 1, -1), repeat=3):
        if any(n) and next(x for x in n if x) == 1:
            k = max(i for i in range(3) if n[i])
            out.append(tuple(tuple(int(x == i) - n[k] * n[i] * (x == k) for x in range(3)) for i in range(3) if i != k))
    return out


def _plane_form(gram, modules, q1, q2, period_scale: Fraction) -> List[int]:
    """The primitive integer coefficients, ascending in s, of a positive multiple of F_h(s Q1 + Q2); J + 1 of them.

    ``modules`` is `flag._center_modules` of (flag, j, Zk) and ``gram`` the
    integer center Gram matrix M_c (`flag._center_gram`).  A center module
    with restriction rho has alpha(Zk) = at_zk / z_den, so its factor is
    at_zk - y z_den rho.(s Q1 + Q2) over z_den: a polynomial in y whose
    coefficient of y^i is an integer polynomial in s of degree i, a row of
    ``rows``.  E(s Q1 + Q2) = (s Q1 + Q2)^T M_c (s Q1 + Q2) is a quadratic
    in s, and the weighted odd rows, times powers of E and of the period
    scale, sum by Horner's rule in E.  The positive denominators and the
    content are dropped.
    """
    table, at_zk, z_den = modules
    rows = [[1]]
    for rho, roots, a in zip(table, table.values(), at_zk):
        k1, k0 = z_den * sum(map(mul, rho, q1)), z_den * sum(map(mul, rho, q2))
        for _ in roots:
            rows = [[a * x - k0 * y - k1 * z for x, y, z in zip(p, q + [0], [0] + q)]
                    for p, q in zip(rows + [[0] * (len(rows) + 1)], [[]] + rows)]
    weights, _ = _integral_weights(len(rows), 1, 1)
    num2, den2 = period_scale.numerator ** 2, period_scale.denominator ** 2
    e0, e1, e2 = (den2 * linalg.form(gram, u, v) for u, v in ((q2, q2), (q1, q2), (q1, q1)))
    acc: List[int] = []
    for k, i in enumerate(range(1, len(rows), 2)):  # acc E + the weighted row i, times num2^k
        acc = [e0 * x + 2 * e1 * y + e2 * z + weights[i] * num2 ** k * t
               for x, y, z, t in zip(acc + [0, 0], [0] + acc + [0], [0, 0] + acc, rows[i])]
    g = math.gcd(*acc)
    return [x // g for x in acc] if g else acc


def _real_roots(p: List[int], depth: float = _DEPTH) -> List[Union[Fraction, float]]:
    """The distinct real roots of a nonzero integer polynomial, ascending coefficients, in increasing order.

    A rational root is a Fraction: s = 0, a point of the bisection, or a
    root found in its final interval by the rational root theorem.  Every
    other root is its correctly rounded float.  The positive roots of
    p(+-2^e x), with 2^e above twice the largest
    |a_i / a_n|^(1/(n-i)) over the coefficients of sign opposite to the
    leading one, a bound on the positive roots (Kioustelidis, J. Comput.
    Appl. Math. 16, 1986), are isolated in (0, 1) (`_isolate`) and refined
    (`_refine`).  Bisection deeper than ``depth`` means a multiple root or
    two very close ones, and the roots are then those of the square-free
    part (`_square_free`), isolated to any depth.
    """
    nonzero = [i for i, c in enumerate(p) if c]
    p, roots = p[nonzero[0]:nonzero[-1] + 1], [Fraction(0)] * (nonzero[0] > 0)
    n, b = len(p) - 1, p[-1].bit_length()
    for sign in (1, -1):
        e = max([0] + [2 + (c.bit_length() - b) // (n - i) for i, c in enumerate(p) if c * p[-1] * sign ** (n - i) < 0])
        leaves = _isolate([x * sign ** i << e * i for i, x in enumerate(p)], depth)
        if leaves is None:
            return sorted(roots[:nonzero[0] > 0] + _real_roots(_square_free(p), math.inf))
        for c, k, s in leaves:
            lo, hi = sorted(Fraction(sign * x << e, 1 << k) for x in (c, c + 1))
            roots.append(_refine(p, lo, hi, sign * s) if s else Fraction(sign * c << e, 1 << k))
    return sorted(roots)


def _isolate(q: List[int], depth: float) -> Optional[List[Tuple[int, int, int]]]:
    """The roots of an integer q in (0, 1), q(0) != 0: (c, k, s) for each, by Descartes bisection; None past depth.

    s = 0 is the root c / 2^k; otherwise the root is the one in (c / 2^k,
    (c + 1) / 2^k), and q has the sign s just right of c / 2^k.  A node
    (r, c, k) holds that interval as r(y) = (y + 1)^n q_I(1 / (y + 1)), up
    to a positive factor, where q_I(x) = q((c + x) / 2^k): the positive
    roots of r are the roots in the interval, and their number is bounded
    by the sign variations of r (Descartes); the sign of q_I near 0 is that
    of the top nonzero coefficient of r.  A node with more than one is
    bisected: its halves are r(2y + 1), whose constant term vanishes at a
    root on the midpoint, and (y + 2)^n r(y / (y + 2)), one Taylor shift
    by 1 each.
    """
    out, todo = [], [(int_taylor_shift(q[::-1], 1), 0, 0)]
    while todo:
        r, c, k = todo.pop()
        signs = [x > 0 for x in r if x]
        count = sum(map(bool.__ne__, signs, signs[1:]))
        if count == 1:
            out.append((c, k, 1 if signs[-1] else -1))
        elif count and k == depth:
            return None
        elif count:
            left = [x << i for i, x in enumerate(int_taylor_shift(r, 1))]
            right = [x << i for i, x in enumerate(int_taylor_shift(r[::-1], 1))][::-1]
            out += [(2 * c + 1, k + 1, 0)] * (not left[0])
            todo += [(right, 2 * c + 1, k + 1), (left, 2 * c, k + 1)]
    return out


def _refine(p: List[int], lo: Fraction, hi: Fraction, s: int) -> Union[Fraction, float]:
    """The one root of p in (lo, hi), where p has the sign s on (lo, root): its float, or itself if rational.

    The ends are floats: isolating ends are dyadic, and exact in a float
    while the isolation is less than 53 bisections deep, as it is unless
    two roots are closer than 2^(e - 53).  Each step reads the exact sign
    of p at a float g inside and keeps the side that holds the root, until
    the ends are neighbouring floats; the sign at their
    midpoint then says which one the root rounds to.  g is a Newton step on
    exact values of p and p' while that step at least halves the one
    before, one float past a converged guess, and the midpoint otherwise.
    A rational root a / b in lowest terms has b | p_n (the rational root
    theorem), so it is k / |p_n| for an integer k between the last two
    floats: those k are bisected on exact signs until one is left, which is
    returned when it is a root.
    """
    lo, hi = float(lo), float(hi)
    g, last = (lo + hi) / 2, math.inf
    while math.nextafter(lo, hi) != hi:
        if not lo < g < hi:
            g, last = lo + (hi - lo) / 2, math.inf
        u, v = g.as_integer_ratio()
        at, slope = _at(p, u, v)
        if not at:
            return Fraction(u, v)
        lo, hi = (g, hi) if at * s > 0 else (lo, g)
        h = g - at / (slope * v) if abs(at) < abs(slope * v) << 1000 else math.nan
        if h == g:
            g, last = math.nextafter(g, hi if g == lo else lo), math.inf
        else:
            g, last = (h, abs(h - g)) if abs(h - g) < last / 2 else (math.nan, last)
    n, (a, b), (c, d) = abs(p[-1]), lo.as_integer_ratio(), hi.as_integer_ratio()
    k_lo, k_hi = a * n // b + 1, -(-c * n // d) - 1  # the k with lo < k / n < hi
    while k_lo <= k_hi:
        k = (k_lo + k_hi) // 2
        at = _at(p, k, n)[0]
        if not at:
            return Fraction(k, n)
        k_lo, k_hi = (k + 1, k_hi) if at * s > 0 else (k_lo, k - 1)
    at = _at(p, *((Fraction(lo) + Fraction(hi)) / 2).as_integer_ratio())[0]  # not 0: the midpoint is no root
    return hi if at * s > 0 else lo


def _at(p: List[int], u: int, v: int) -> Tuple[int, int]:
    """v^n p(u / v) and v^(n - 1) p'(u / v) in integers, v > 0, by one Horner pass: they have the signs of p and p'."""
    w, at, slope = 1, p[-1], 0
    for c in reversed(p[:-1]):
        w *= v
        at, slope = at * u + c * w, slope * u + at
    return at, slope


def _square_free(p: List[int]) -> List[int]:
    """p over gcd(p, p'), the last primitive pseudo-remainder (`_gcd`), with the roots of p once each."""
    g, out = _gcd(p, [i * c for i, c in enumerate(p)][1:]), []
    while len(p) >= len(g):
        out.append(p[-1] // g[-1])
        p = [x - out[-1] * y for x, y in zip(p, [0] * (len(p) - len(g)) + g)][:-1]
    return out[::-1]


def _gcd(a: List[int], b: List[int]) -> List[int]:
    """A primitive gcd of integer a and b, b[-1] != 0, by pseudo-remainders, each divided by the gcd of its entries."""
    while b:
        g = math.gcd(*b)
        b = [x // g for x in b]
        while len(a) >= len(b):
            a = [b[-1] * x - a[-1] * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)][:-1]
            while a and not a[-1]:
                a = a[:-1]
        a, b = b, a
    return a
