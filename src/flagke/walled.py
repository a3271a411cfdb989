"""The walled search: Kahler-Einstein candidates whose segment ends on walls, in exact arithmetic.

For declared degrees (m1, m2) with m1 + m2 >= 3 the candidates sit where
enough roots vanish at the segment's ends.  Each line of the center cut
out by wall hyperplanes is one integer elimination (`linalg.solve`), its
points on the sphere E(Z, Z) = period_scale^2 are integer splits, and
only a point with the right walls becomes a vector for `model.ke_verdict`.
The module imports no numpy: it is an exact command, which `flagke` and
the CLI load only for a walled search.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, Tuple

from . import linalg
from .errors import InputError
from .flag import _center_gram, _center_modules, _unpainted_vector, ricci_invariant
from .model import CenterLine, KEVerdict, ke_verdict
from .records import Record
from .rootsys import Root
from .scalars import Scalar, _square_free_split

# the most lines, each cut out by d - 1 wall hyperplanes, that one search solves
MAX_WALL_SYSTEMS = 20000


class WalledCandidate(Record):
    _fields = ("w1", "w2", "z_values", "verdict")

    def __init__(self, w1: Tuple[Root, ...], w2: Tuple[Root, ...], z_values: Tuple[Scalar, ...], verdict: KEVerdict):
        self.__dict__.update(w1=w1, w2=w2, z_values=z_values, verdict=verdict)


def search_walled(base: CenterLine, m1: int, m2: int) -> Tuple[WalledCandidate, ...]:
    """Walled Kahler-Einstein candidates for declared degrees (m1, m2).

    Roots with one restriction rho to the center form a center module and
    share one alpha(Zk).  So a wall at Z1 = Zk + m1 Z is one of the module
    hyperplanes rho(Z) = -alpha(Zk)/m1, and a wall at Z2 = Zk - m2 Z one of
    rho(Z) = alpha(Zk)/m2.  With alpha(Zk) = a / z_den, scaled by
    z_den m1 m2 these read rho(Y) = -a m2 and rho(Y) = a m1 for Y = z_den
    m1 m2 Z, all integers.  Each line cut out by d - 1 of these 2M
    hyperplanes whose modules give at most m1 - 1 walls at Z1 and m2 - 1 at
    Z2, from one integer elimination (`linalg.solve`), is intersected with
    the sphere E(Z, Z) = period_scale^2 in integers (`_unit_norm_points`),
    and its points are told apart by their integer splits.  A point whose
    modules give exactly m1 - 1 walls at Z1 and m2 - 1 at Z2, counted once
    per line by `_line_walls`, becomes an exact vector and goes to
    `ke_verdict`, and the ok ones are returned, with the walls of the
    verdict in R_m+ order.  Candidates on no such line lie in continuous
    families and are out of scope.  For m1 = m2 the direction -Z is the
    segment of Z reversed and is skipped after Z.  More than
    MAX_WALL_SYSTEMS lines is an InputError.
    """
    if m1 < 1 or m2 < 1:
        raise InputError("degrees must be >= 1")
    if m1 + m2 < 3:
        raise InputError("walled search needs m1 + m2 >= 3; use search_diameters")
    flag, j = base.flag, base.j
    zk = ricci_invariant(flag, j)
    d = flag.center_dim
    ps2 = Fraction(base.period_scale) ** 2
    gram = _center_gram(flag)
    # the center modules (rho, multiplicity, rho(Y) on their walls at Z1 and at Z2), and the wall
    # hyperplanes (end, multiplicity, rho, rho(Y)); with those of Z1 first, of a pair Z, -Z
    # (m1 = m2, d >= 2) the one met first has the earlier first Z1 wall in R_m+
    table, at_zk, z_den = _center_modules(flag, j, zk)
    modules = [(rho, len(roots), (-a * m2, a * m1)) for (rho, roots), a in zip(table.items(), at_zk)]
    planes = [(end, mult, rho, values[end]) for end in (0, 1) for rho, mult, values in modules]
    systems = list(itertools.islice(_wall_subsets(planes, d - 1, (m1 - 1, m2 - 1)), MAX_WALL_SYSTEMS + 1))
    if len(systems) > MAX_WALL_SYSTEMS:
        raise InputError("walled search too large (more than %d wall systems)" % MAX_WALL_SYSTEMS)
    out: List[WalledCandidate] = []
    seen: set = set()
    for subset in systems:
        line = linalg.solve([p[2] for p in subset], [p[3] for p in subset], d)
        if line is None or len(line[2]) != 1:
            continue
        s, den, (v,) = line
        walls = None
        for t, point in _unit_norm_points(s, v, den * z_den * m1 * m2, gram, ps2):
            if point in seen:
                continue
            seen.add(point)
            if m1 == m2:
                seen.add((tuple(-x for x in point[0]), tuple(-x for x in point[1])) + point[2:])
            walls = walls or _line_walls(modules, s, v, den)
            if walls(t) != [m1 - 1, m2 - 1]:
                continue
            z = _unpainted_vector(flag, *point)
            verdict = ke_verdict(CenterLine(flag=flag, j=j, z=z, period_scale=base.period_scale), zk, m1, m2)
            if verdict.ok:
                seg = verdict.segment
                w1, w2 = (tuple(a for a in j.positive if a in w) for w in (seg.w1, seg.w2))
                out.append(WalledCandidate(w1, w2, z.values, verdict))
    out.sort(key=lambda c: tuple(float(v) for v in c.z_values))
    return tuple(out)


def _line_walls(modules, s: List[int], v: List[int], den: int):
    """The wall count of the points of the line (s + t v) / den: t -> [walls at Z1, walls at Z2].

    ``modules`` holds (rho, multiplicity, (value at Z1, value at Z2)), the
    two integer wall planes rho(Y) = value of each center module, in the
    scaled coordinates Y of the line.  On the line rho(Y) den = rho.s +
    t rho.v, both integers.  A plane with rho.v = 0 holds the whole line or
    none of it.  Any other plane meets the line at the one rational t =
    (value den - rho.s) / rho.v, keyed by that integer pair in lowest terms
    with a positive second entry, as `_unit_norm_points` gives a rational
    t.  So each module costs two integer dot products per line, and a point
    one lookup of its t; an irrational point, t None, meets none of those
    planes and has the line's count alone.
    """
    on_line = [0, 0]
    meets: Dict[Tuple[int, int], List[int]] = {}
    for rho, mult, values in modules:
        at_s, slope = sum(map(mul, rho, s)), sum(map(mul, rho, v))
        for end, value in enumerate(values):
            if slope:
                num = value * den - at_s
                g = math.gcd(num, slope) if slope > 0 else -math.gcd(num, slope)
                meets.setdefault((num // g, slope // g), [0, 0])[end] += mult
            elif at_s == value * den:
                on_line[end] += mult
    return lambda t: list(map(add, on_line, meets.get(t, (0, 0))))


def _wall_subsets(planes, size: int, budget: Tuple[int, int], start: int = 0):
    """The size-subsets of planes[start:] within a wall budget, in `itertools.combinations` order.

    A subset's planes at end e carry at most budget[e] wall roots.  Every
    plane carries at least one, so a branch is cut as soon as the budget
    left cannot take the planes still to choose.
    """
    if size == 0:
        yield ()
        return
    for i in range(start, len(planes) - size + 1):
        left = tuple(b - planes[i][1] * (end == planes[i][0]) for end, b in enumerate(budget))
        if min(left) >= 0 and sum(left) >= size - 1:
            for rest in _wall_subsets(planes, size - 1, left, i + 1):
                yield (planes[i],) + rest


def _unit_norm_points(s: List[int], v: List[int], den: int, gram, ps2: Fraction):
    """The points (t, (u, w, d, r)) where the line (s + t v) / den meets E(Z, Z) = ps2, in integers.

    ``gram`` is the integer center Gram matrix.  With ps2 = p / q the sphere
    is a t^2 + 2 b t + c = 0, a = q v.v, b = q s.v and c = q s.s - p den^2, so
    t = (-b +- k sqrt(R)) / a, where b^2 - a c = k^2 R with R square-free
    (`scalars._square_free_split`).  A point is (u + w sqrt(R)) / d with
    every entry divided by the gcd of them all, and r = R; a rational one
    has w = 0 and r None, and its t is the integer pair (numerator,
    denominator) in lowest terms, a positive denominator; t is None for an
    irrational one.  The point of the larger t comes first; a tangent line
    has one.
    """
    p, q = ps2.numerator, ps2.denominator
    a, b = q * linalg.form(gram, v, v), q * linalg.form(gram, s, v)
    disc = b * b - a * (q * linalg.form(gram, s, s) - p * den * den)
    if disc < 0:
        return
    k, big_r = _square_free_split(disc)
    for sign in ((1, -1) if disc else (1,)):
        if big_r == 1:
            g = math.gcd(sign * k - b, a)
            t, r, w = ((sign * k - b) // g, a // g), None, [0] * len(v)
            u = [a * x + (sign * k - b) * y for x, y in zip(s, v)]
        else:
            t, r, w = None, Fraction(big_r), [sign * k * y for y in v]
            u = [a * x - b * y for x, y in zip(s, v)]
        g = math.gcd(*u, *w, a * den)
        yield t, (tuple(x // g for x in u), tuple(x // g for x in w), a * den // g, r)
