"""Segment geometry in the center of k and the exact Kahler-Einstein verdict.

A ``CenterLine`` fixes the flag data, an invariant complex structure and a
unit direction Z inside the center of k.  Candidate segments Z1 - [0, C] * Z
are then classified exactly: the chamber condition, the endpoint wall sets
and degrees, the projective-space test at each singular endpoint, and the
holomorphic-projection closure condition.  The roots of R_m+ enter through
their isotropy modules (`isotropy_modules`), keyed (X, Z) with the ends at
X + c Z: a verdict reads one table, of (Zk, Z).  On exact input Z, Zk and
the endpoints are integer vectors over one denominator
(`CartanVector.from_split`), so the modules are keyed, multiplied and
signed in integers, once per restriction class of R_m+
(`flag._restriction_classes`).

The verdict for degrees (m1, m2) puts together the Einstein endpoints
Z1 = m1 Z + Zk and Z2 = -m2 Z + Zk, the obstruction integral
integral_{-m1}^{m2} y prod alpha(Zk - y Z) dy (`futaki`) and the
admissibility of the segment between them (`ke_verdict`).  This module
imports no numpy, on any input.  The sampled profile check
`check_parametrization` works on plain floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .flag import (FLOAT_WALL_TOL, FlagData, InvariantComplexStructure, _center_gram, _restriction_classes,
                   require_complex_structure, ricci_invariant)
from .polys import float_linear_product, int_linear_product, pair_float, pair_scalar, pair_sign
from .records import Record
from .rootsys import CartanVector, Root, root_values, value_sign
from .scalars import Scalar, scalar_is_zero, scalar_sign, sqrt_parts

# check_parametrization: the bound on each boundary, symmetry and curvature check
PARAMETRIZATION_TOL = 1e-4
# a float obstruction at most this large (or at most its roundoff bound) vanishes
FUTAKI_FLOAT_TOL = 1e-10


class CenterLine(Record):
    """Flag data plus a choice of unit direction Z in the center of k.

    ``z`` is normalized so that E(Z, Z) equals ``period_scale`` squared
    (default 1).  For an exact input direction `make_base` builds Z as
    lambda q, q the input's integer split (u + v sqrt(R)) and lambda =
    period_scale / sqrt(E(q, q)) a rational or a pure radical, and keeps it
    split in integers (`CartanVector.from_split`), so the verdict runs on
    integers and its values, in an exact quadratic extension, are built
    only when read.  ``j`` is a valid complex structure: `make_base` checks it,
    `default_complex_structure` returns one that is parabolic by
    construction, and the segment classification relies on it (a wall-free
    end skips the closure test), so build a CenterLine directly only from
    such a ``j``.
    """

    _fields = ("flag", "j", "z", "period_scale")

    def __init__(self, flag: FlagData, j: InvariantComplexStructure, z: CartanVector,
                 period_scale: Fraction = Fraction(1)):
        self.__dict__.update(flag=flag, j=j, z=z, period_scale=period_scale)


def make_base(
    flag: FlagData,
    j: InvariantComplexStructure,
    z_direction: CartanVector,
    period_scale: Fraction = Fraction(1),
    tol: float = 1e-12,
) -> CenterLine:
    """Normalize a nonzero center direction to E(Z, Z) = period_scale**2.

    An exact direction x = (u + v sqrt(R)) / den, split in integers as in
    `polys.split_exact`, has E(x, x) = (u^T M_c u + R v^T M_c v + 2 u^T M_c v
    sqrt(R)) / den^2 on the integer center Gram matrix M_c
    (`flag._center_gram`); a nonzero sqrt(R) part is an input error.  Z is
    lambda (u + v sqrt(R)) with lambda = period_scale / sqrt(u^T M_c u + R
    v^T M_c v), held split in integers (`CartanVector.from_split`).  A float
    direction is normalized by E(x, x) = x^T M x summed as `rootsys.killing`
    sums it, term for term; one whose squared norm is not a finite positive
    float is an input error.

    It checks, raising InputError, that period_scale is positive, that tol
    is a finite number >= 0, that j is a valid complex structure on the flag
    and that the direction is nonzero and in the center of k.  The check of
    j is `require_complex_structure`'s, which skips a j already known valid
    on this flag object: one that `default_complex_structure` built for it,
    or that passed the check on it.
    """
    if period_scale <= 0:
        raise InputError("period scale must be positive")
    if not 0 <= tol < math.inf:
        raise InputError("tolerance must be a finite number >= 0, got %r" % (tol,))
    require_complex_structure(flag, j)
    if z_direction.kind == "float":
        return _float_base(flag, j, z_direction, period_scale, tol)
    u, v, _, r = z_direction.split
    if not any(u) and not any(v):
        raise InputError("zero direction for Z")
    for i in sorted(flag.painted):
        if u[i] or v[i]:
            raise InputError("direction not in the center of k: alpha_%d(Z) != 0" % i)
    gram = _center_gram(flag)
    uc = [u[i] for i in flag.unpainted]
    norm, R = linalg.form(gram, uc, uc), 0
    if any(v):  # the sqrt(R) part of E(x, x) den^2 is 2 u^T M_c v
        vc = [v[i] for i in flag.unpainted]
        if linalg.form(gram, uc, vc):
            raise InputError("pass an unnormalized rational (or float) direction")
        R = r.numerator * r.denominator
        norm += R * linalg.form(gram, vc, vc)
    tau = Fraction(period_scale)
    s, d, e = sqrt_parts(tau.numerator ** 2, tau.denominator ** 2 * norm)  # lambda = s sqrt(d) / e
    if d == 1:
        z = CartanVector.from_split([s * x for x in u], [s * y for y in v], e, r)
    else:  # Z = s (u sqrt(d) + v sqrt(d R)) / e, in Q(sqrt(d)) when d R is a square t^2
        t = math.isqrt(d * R)
        if t * t != d * R:
            raise InputError("direction and its norm lie in two quadratic fields; pass a rational direction")
        z = CartanVector.from_split([s * t * y for y in v], [s * x for x in u], e, Fraction(d))
    return CenterLine(flag=flag, j=j, z=z, period_scale=tau)


def _float_base(flag: FlagData, j: InvariantComplexStructure, x: CartanVector, period_scale: Fraction,
                tol: float) -> CenterLine:
    """`make_base` of a float direction: E(x, x) in `rootsys.killing`'s order of terms, so bit for bit its float."""
    values = x.values
    if x.is_zero:
        raise InputError("zero direction for Z")
    for i in sorted(flag.painted):
        if scalar_sign(values[i], tol) != 0:
            raise InputError("direction not in the center of k: alpha_%d(Z) != 0" % i)
    norm_sq = 0
    for vi, row in zip(values, flag.rs.gram):
        acc = 0
        for m, vj in zip(row, values):
            if m:
                acc = acc + m * vj
        norm_sq = norm_sq + vi * acc
    if not 0 < norm_sq < math.inf:
        raise InputError("float direction has squared norm %r; rescale it" % (norm_sq,))
    z = x.scale(float(period_scale) / float(norm_sq) ** 0.5)
    return CenterLine(flag=flag, j=j, z=z, period_scale=Fraction(period_scale))


class AdmissibleSegment(Record):
    """A segment's walls w1, w2 at its ends, their degrees m1, m2, and its three tests with their failures."""

    _fields = ("w1", "w2", "m1", "m2", "chamber_ok", "degrees_ok", "projection_ok", "failures")

    def __init__(self, w1: Tuple[Root, ...], w2: Tuple[Root, ...], m1: int, m2: int, chamber_ok: bool,
                 degrees_ok: bool, projection_ok: bool, failures: Tuple[str, ...]):
        self.__dict__.update(w1=w1, w2=w2, m1=m1, m2=m2, chamber_ok=chamber_ok, degrees_ok=degrees_ok,
                             projection_ok=projection_ok, failures=failures)

    @property
    def overall_ok(self) -> bool:
        return self.chamber_ok and self.degrees_ok and self.projection_ok


def isotropy_modules(flag: FlagData, j: InvariantComplexStructure, x: CartanVector, z: CartanVector):
    """The isotropy modules of R_m+ under (X, Z): ({key: roots}, den, r), signed at X + c Z by `segment_walls`.

    Roots with equal (alpha(X), alpha(Z)) form one module, a tuple; keys
    and roots are in R_m+ order.  Exact X and Z, rational or in one field
    Q(sqrt r), are split over one denominator den (`CartanVector.split`):
    the key (x0, x1, z0, z1) means alpha(X) = (x0 + x1 sqrt(R))/den and
    alpha(Z) = (z0 + z1 sqrt(R))/den, R and r as in `polys.split_exact`.
    When both lie in the center of k, each class of
    `flag._restriction_classes` is keyed by dot products over the unpainted
    nodes, and classes with equal keys merge; otherwise each root is its
    own class.  A part zero on every coordinate, such as x1 of a rational
    Zk, is 0 in every key without a dot product.  On a float X or Z den is
    None and the key is (alpha(X), alpha(Z)): a float vector's value as
    `rootsys.evaluate` gives it, an exact one's as the integers (u, v, den, r)
    of its split, meaning (u + v sqrt(R))/den, with no Fraction built.
    """
    positive, den, r = j.positive, None, None
    exact = x.kind != "float" and z.kind != "float"
    if exact:
        *parts, den, r = x.joint_split(z)
    if exact and not any(any(map(w.__getitem__, flag.painted)) for w in parts):
        classes = _restriction_classes(flag, j)
        parts = [[w[i] for i in flag.unpainted] for w in parts]
    else:  # one class per root: a float vector, or an exact one off the center
        classes = [(alpha.coords, (alpha,)) for alpha in positive]
    coords = [rho for rho, _ in classes]
    if exact:
        columns = [[sum(map(mul, rho, w)) for rho in coords] if any(w) else [0] * len(coords) for w in parts]
    else:
        columns = [root_values(coords, h) for h in (x, z)]
    keys = list(zip(*columns))
    table = dict(zip(keys, [roots for _, roots in classes]))
    if len(table) < len(keys):  # classes of one key merge, their roots in R_m+ order
        key_of = {alpha: key for key, (_, roots) in zip(keys, classes) for alpha in roots}
        merged: Dict[tuple, List[Root]] = {}
        for alpha in positive:
            merged.setdefault(key_of[alpha], []).append(alpha)
        table = {key: tuple(roots) for key, roots in merged.items()}
    return table, den, r


def _key_float(value) -> float:
    """A float key's value as a float: itself, or an exact vector's (u, v, den, r) rounded once (`polys.pair_float`)."""
    return pair_float(*value) if isinstance(value, tuple) else value


def _float_key_sign(key: tuple, c: int) -> int:
    """The sign of a float key (X, Z) at X + c Z within FLOAT_WALL_TOL, or exactly where c = 0 and X is exact."""
    x, z = key
    if c:
        return scalar_sign(_key_float(x) + c * _key_float(z), FLOAT_WALL_TOL)
    return value_sign(x, FLOAT_WALL_TOL)


def segment_walls(modules: dict, den: Optional[int], r: Optional[Fraction], a: int, b: int):
    """The signs of a table's modules, keyed (X, Z), at X + c Z, c = a, b, and each end's walls.

    Exact keys are signed in integers, float keys within FLOAT_WALL_TOL
    (`_float_key_sign`).  A wall of an end is a module vanishing there and
    positive at the other: its roots and their negatives, sorted.
    """
    signs = {key: (pair_sign(key[0] + a * key[2], key[1] + a * key[3], r),
                   pair_sign(key[0] + b * key[2], key[1] + b * key[3], r)) if den else
             (_float_key_sign(key, a), _float_key_sign(key, b)) for key in modules}
    walls = tuple(tuple(sorted(root for key, s in signs.items() if s[end] == 0 < s[1 - end]
                               for alpha in modules[key] for root in (alpha, -alpha))) for end in (0, 1))
    return signs, walls


def analyze_segment(base: CenterLine, z1: CartanVector, length: Scalar) -> AdmissibleSegment:
    """Classify the segment from Z1 to Z2 = Z1 - C*Z on one table, of (Z1, C*Z), its ends at c = 0, -1.

    All verdicts are exact on exact inputs; a float value within
    FLOAT_WALL_TOL of zero is a wall.  A root vanishing at both ends is a
    chamber failure, not a wall.
    """
    if scalar_sign(length, FLOAT_WALL_TOL) <= 0:
        raise InputError("segment length must be positive")
    return _classify(base.flag, base.j, isotropy_modules(base.flag, base.j, z1, base.z.scale(length)), (0, -1))


def _classify(flag: FlagData, j: InvariantComplexStructure, table: tuple, ends: tuple) -> AdmissibleSegment:
    """`analyze_segment` on a table alone, its ends at c in ``ends``."""
    signs, walls = segment_walls(*table, *ends)
    # roots outside the chamber: True when negative at an end, False when vanishing at both
    outside = {alpha: min(s) < 0 for key, s in signs.items() if min(s) < 0 or max(s) == 0 for alpha in table[0][key]}
    failures = [("chamber: alpha=%s negative at an endpoint" if outside[alpha] else
                 "chamber: alpha=%s vanishes on the whole segment") % (alpha.coords,)
                for alpha in j.positive if alpha in outside] if outside else []
    chamber_ok = not failures

    degree_failures: List[str] = []
    projection_failures: List[str] = []
    for tag, w in zip(("endpoint 1", "endpoint 2"), walls):
        degree_failures += ["%s %s" % (tag, f) for f in _projective_space_test(flag, w)]
        bad = _projection_violation(flag, j, frozenset(r.coords for r in w))
        if bad is not None:
            projection_failures.append("%s holomorphic projection fails at %s + %s" % (tag, bad[0], bad[1]))
    failures += degree_failures + projection_failures

    w1, w2 = walls
    return AdmissibleSegment(w1, w2, len(w1) // 2 + 1, len(w2) // 2 + 1, chamber_ok, not degree_failures,
                             not projection_failures, tuple(failures))


def _projection_violation(flag: FlagData, j: InvariantComplexStructure, walls: frozenset):
    """First pair (alpha, beta) violating (R_m+ \\ W) + (R_K u W) closure, W an end's walls and their negatives.

    Only beta in W can violate it.  Take alpha in R_m+ \\ W and beta in R_K
    with alpha + beta a root.  A validated complex structure closes R_m+
    under R_K, so alpha + beta lies in R_m+; beta vanishes on the center, so
    alpha + beta takes alpha's values at both ends, and W, a union of
    modules, holds it exactly when it holds alpha.  So alpha + beta lies in
    R_m+ \\ W, R_K never gives a violation, and the loop over W alone
    reports the first pair of the loop over R_K, then W.  No walls give None.
    """
    if not walls:
        return None
    all_roots = flag.rs.root_set()
    pos_nonwall = frozenset(r.coords for r in j.positive) - walls
    wall_roots = sorted(walls)
    for a in sorted(pos_nonwall):
        for b in wall_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in all_roots and s not in pos_nonwall:
                return a, b
    return None


def _projective_space_test(flag: FlagData, walls: Tuple[Root, ...]) -> List[str]:
    """Why the endpoint centralizer does not fiber over K as CP^m; empty when it does.

    Builds the closed subsystem R_K u W, extracts its simple system, and
    checks the textbook characterization: exactly one component meets the
    walls, it is a simple-laced path (type A) of length |W|/2, and removing
    one terminal node lands on painted roots only.  The pairings are the
    integers a^T D b of `RootSystem.dual_form` (M^-1 = D / den): den > 0 only
    rescales them, so adjacency, root lengths and single bonds read the same.
    """
    if not walls:
        return []
    dual, _ = flag.rs.dual_form
    wall_pos = sorted({r.coords for r in walls if r.is_positive})
    sub = {r.coords for r in flag.r_k if r.is_positive} | set(wall_pos)
    # simple roots of the subsystem: positive roots that are not sums of two
    nodes = sorted(sub - {tuple(map(add, a, b)) for a, b in itertools.combinations(sub, 2)})
    pair = {(a, b): linalg.form(dual, a, b) for a in nodes for b in nodes}
    adj = {a: [b for b in nodes if b != a and pair[a, b]] for a in nodes}
    comp: Dict[tuple, frozenset] = {}
    for a in nodes:  # merge a with the components of its neighbours labelled so far
        merged = frozenset([a]).union(*(comp[b] for b in adj[a] if b in comp))
        comp.update(dict.fromkeys(merged, merged))
    wall_nodes = [a for a in wall_pos if a in comp]
    meet = {comp[a] for a in wall_nodes}
    if len(meet) != 1:
        return ["wall roots spread over %d simple components" % len(meet)]
    # Two clauses of the textbook test cannot fire past this point, so none is
    # written.  (1) No non-painted node lies outside the wall component: a
    # positive root of R_K other than a painted simple root is a sum of two
    # positive roots of R_K, so every node is a painted simple root or a wall
    # node, and the wall nodes lie in the one component of ``meet``.  Hence
    # the non-painted nodes are the wall nodes.  (2) No wall root escapes the
    # span of that component C: a wall root w is a sum of nodes, those outside
    # C painted simple roots alpha_q, and its support is connected in the
    # Dynkin diagram and meets that of C (w is not in R_K).  If some q in it
    # lay outside the support of C, an edge i - q with i in the support of C
    # would give a node c of C with c_i > 0 and c_q = 0, so (c, alpha_q) < 0
    # and alpha_q would be adjacent to c, in C.
    (nodes_w,) = meet
    failures: List[str] = []
    if len(nodes_w) != len(wall_pos):
        failures.append("wall component has %d nodes, expected %d" % (len(nodes_w), len(wall_pos)))
    # type A: connected path, single bonds, equal lengths; a neighbour is in the same component
    if any(len(adj[a]) > 2 for a in nodes_w):
        failures.append("wall component branches; not a path")
    if len({pair[a, a] for a in nodes_w}) != 1:
        failures.append("wall component has roots of two lengths")
    failures += ["multiple bond inside wall component"
                 for a in nodes_w for b in adj[a] if 4 * pair[a, b] ** 2 != pair[a, a] * pair[b, b]]
    if len(wall_nodes) != 1:
        failures.append("expected exactly one non-painted node, found %d" % len(wall_nodes))
    elif len(adj[wall_nodes[0]]) > 1:
        failures.append("non-painted node is not terminal in the path")
    return failures


# ---------------------------------------------------------------------------
# endpoints, the obstruction integral and the verdict


def ke_endpoints(zk: CartanVector, z: CartanVector, m1: int, m2: int) -> Tuple[CartanVector, CartanVector]:
    """Endpoints forced by the Einstein condition: Z1 = m1*Z + Zk, Z2 = -m2*Z + Zk."""
    if m1 < 1 or m2 < 1:
        raise InputError("degrees must be >= 1")
    return zk + z.scale(m1), zk + z.scale(-m2)


class FutakiReport(Record):
    """The obstruction integral, with the module table it integrated and, when exact, its product.

    Those are `isotropy_modules`' (table, den, r) under (Zk, Z) and its
    `int_linear_product`, read by the segment and its polynomial; not
    fields, they are not compared, hashed or shown.
    """

    _fields = ("value", "vanishes", "exact", "tol", "error_bound")

    def __init__(self, value: Scalar, vanishes: bool, exact: bool, tol: float, error_bound: Optional[float] = None,
                 table: Optional[tuple] = None, product: Optional[Tuple[List[int], List[int]]] = None):
        self.__dict__.update(value=value, vanishes=vanishes, exact=exact, tol=tol, error_bound=error_bound, table=table,
                             product=product)


def futaki(flag: FlagData, j: InvariantComplexStructure, z: CartanVector, m1: int, m2: int) -> FutakiReport:
    """The obstruction integral over [-m1, m2], exact on exact inputs.

    y * prod alpha(Zk - y Z) is expanded over the (Zk, Z) table of
    `isotropy_modules`, which the report keeps.  Exact keys are multiplied
    and integrated in integers, one Fraction or Quad built for the value,
    and the report keeps the product too.  Float keys take each module's
    factor once per root (`polys.float_linear_product`), alpha(Zk) rounded
    once from its integers, and a crude roundoff bound comes with the value.
    """
    if m1 < 1 or m2 < 1:
        raise InputError("degrees must be >= 1")
    modules, den, r = table = isotropy_modules(flag, j, ricci_invariant(flag, j), z)
    if den is None:  # float keys: alpha(Zk) the integers of its split, rounded once, and alpha(Z)
        poly = float_linear_product((pair_float(*a), k) for (a, k), roots in modules.items() for _ in roots)
        value = sum((c * ((float(m2) ** p - float(-m1) ** p) / p) for p, c in enumerate(poly, 2)), 0.0)
        scale = sum(abs(c) * (2.0 * float(max(m1, m2)) ** p / p) for p, c in enumerate(poly, 2))
        bound = scale * (len(poly) + 1) * math.ulp(1.0) * 8
        vanishes = abs(value) <= max(FUTAKI_FLOAT_TOL, bound)
        return FutakiReport(value=value, vanishes=vanishes, exact=False, tol=FUTAKI_FLOAT_TOL, error_bound=bound,
                            table=table)
    us, vs = product = int_linear_product({key: len(roots) for key, roots in modules.items()}, r)
    weights, scale = _integral_weights(len(us), m1, m2)
    total = scale * den ** len(j.positive)
    value = pair_scalar(sum(map(mul, us, weights)), sum(map(mul, vs, weights)), total, r)
    return FutakiReport(value=value, vanishes=scalar_is_zero(value), exact=True, tol=0.0, table=table,
                        product=product)


@functools.lru_cache(maxsize=None)
def _integral_weights(n: int, m1: int, m2: int) -> Tuple[Tuple[int, ...], int]:
    """Integer weights w_i and a scale with integral_{-m1}^{m2} y^(i+1) dy = w_i / scale, i < n; built once.

    The integral is (m2^(i+2) - (-m1)^(i+2)) / (i+2); scale = lcm(1..n+1)
    makes every weight an integer.
    """
    scale = math.lcm(*range(1, n + 2))
    return tuple((m2 ** (i + 2) - (-m1) ** (i + 2)) * (scale // (i + 2)) for i in range(n)), scale


class KEVerdict(Record):
    """Whether the direction of ``base`` carries a Kahler-Einstein metric with degrees (m1, m2).

    The one place where the obstruction, the admissibility of the segment
    between the Einstein endpoints and the degrees of its walls are put
    together.  The segment is classified on first read, so a caller that
    stops at a nonvanishing obstruction never classifies it.
    """

    _fields = ("base", "zk", "m1", "m2", "futaki")

    def __init__(self, base: CenterLine, zk: CartanVector, m1: int, m2: int, futaki: FutakiReport):
        self.__dict__.update(base=base, zk=zk, m1=m1, m2=m2, futaki=futaki)

    @functools.cached_property
    def endpoints(self) -> Tuple[CartanVector, CartanVector]:
        return ke_endpoints(self.zk, self.base.z, self.m1, self.m2)

    @functools.cached_property
    def segment(self) -> AdmissibleSegment:
        """The segment between the Einstein endpoints, read off the obstruction's table at c = m1, -m2."""
        return _classify(self.base.flag, self.base.j, self.futaki.table, (self.m1, -self.m2))

    @property
    def degrees(self) -> Tuple[int, int]:
        """The degrees (m1, m2) that the walls of the segment give."""
        return self.segment.m1, self.segment.m2

    @property
    def degrees_match(self) -> bool:
        return self.degrees == (self.m1, self.m2)

    @property
    def admissible(self) -> bool:
        """The segment is admissible and its walls give the declared degrees."""
        return self.segment.overall_ok and self.degrees_match

    @property
    def ok(self) -> bool:
        """The obstruction vanishes and the segment is admissible."""
        return self.futaki.vanishes and self.admissible

    @property
    def failures(self) -> Tuple[str, ...]:
        """Why the segment is not admissible, the degree mismatch last."""
        if self.degrees_match:
            return self.segment.failures
        return self.segment.failures + ("degree mismatch: declared (%d, %d), walls give (%d, %d)"
                                        % ((self.m1, self.m2) + self.degrees),)


def ke_verdict(base: CenterLine, zk: CartanVector, m1: int, m2: int) -> KEVerdict:
    """The Kahler-Einstein verdict of base's direction; zk is the Ricci element of (base.flag, base.j)."""
    return KEVerdict(base, zk, m1, m2, futaki(base.flag, base.j, base.z, m1, m2))


# ---------------------------------------------------------------------------
# profile parametrization checks


class ParametrizationVerdict(Record):
    _fields = ("ok", "boundary_ok", "monotone_ok", "symmetry_ok", "curvature_ok", "fpp0", "fpp_delta", "details")

    def __init__(self, ok: bool, boundary_ok: bool, monotone_ok: bool, symmetry_ok: bool, curvature_ok: bool,
                 fpp0: float, fpp_delta: float, details: Tuple[str, ...]):
        self.__dict__.update(ok=ok, boundary_ok=boundary_ok, monotone_ok=monotone_ok, symmetry_ok=symmetry_ok,
                             curvature_ok=curvature_ok, fpp0=fpp0, fpp_delta=fpp_delta, details=details)


def check_parametrization(t: Sequence[float], f: Sequence[float], delta: float, length: float) -> ParametrizationVerdict:
    """Validate a sampled profile f on a grid over [0, delta].

    Checks boundary values f(0) = 0 and f(delta) = C, strict monotonicity,
    evenness about both ends (first one-sided derivatives vanish to second
    order), and the curvature normalization f''(0) = 1 = -f''(delta), each
    within PARAMETRIZATION_TOL.  Uses one-sided Richardson stencils, so the
    grid must resolve the ends: at least 16 points, with step t[1] - t[0] > 0.
    """
    if len(t) < 16:
        raise InputError("grid resolution must be at least 16 points")
    f = list(map(float, f))
    details: List[str] = []

    tol = PARAMETRIZATION_TOL
    boundary_ok = abs(f[0]) <= tol and abs(f[-1] - length) <= tol
    if not boundary_ok:
        details.append("boundary values f(0)=%g f(delta)=%g" % (f[0], f[-1]))

    monotone_ok = all(b - a > 0 for a, b in zip(f, f[1:]))
    if not monotone_ok:
        details.append("profile not strictly increasing")

    h = float(t[1]) - float(t[0])
    if not h > 0:
        raise InputError("grid must be increasing")
    # one-sided stencils of f' and f'' (with the h^4 end correction, odd derivatives vanishing) at each end; the
    # right end is the left end of the samples reversed, where f' changes sign
    (fp0, fpp0), (fpd, fppd) = [((4 * b - c - 3 * a) / (2 * h), (16 * (b - a) - (c - a)) / (6 * h * h))
                                for a, b, c in (f[:3], f[:-4:-1])]
    fpd = -fpd
    # evenness about 0 and delta: odd first derivative must vanish
    bound = tol * max(1.0, abs(length) / max(delta, 1e-30))
    symmetry_ok = abs(fp0) <= bound and abs(fpd) <= bound
    if not symmetry_ok:
        details.append("end derivatives f'(0)=%g f'(delta)=%g" % (fp0, fpd))

    curvature_ok = abs(fpp0 - 1.0) <= tol and abs(fppd + 1.0) <= tol
    if not curvature_ok:
        details.append("end curvature f''(0)=%g f''(delta)=%g" % (fpp0, fppd))

    ok = boundary_ok and monotone_ok and symmetry_ok and curvature_ok
    return ParametrizationVerdict(ok, boundary_ok, monotone_ok, symmetry_ok, curvature_ok, fpp0, fppd, tuple(details))
