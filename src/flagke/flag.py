"""Flag-manifold data attached to a painted set of simple roots.

Painting a subset of the simple roots selects the isotropy subgroup K: its
semisimple part is generated by the painted roots, so the root system splits
as R = R_K + R_m with R_K the roots supported on painted indices.  An
invariant complex structure is a choice of positive half R_m+ of R_m closed
under addition of R_K and of itself (a parabolic choice).  The module also
computes the center of k, wall roots, chamber membership, the Ricci
element Z_kappa = sum of coroots over R_m+, the classes of R_m+ by
restriction to the center, and the exact sphere-in-chamber test of diameter
segments, all in exact arithmetic.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from fractions import Fraction
from operator import itemgetter, mul, neg
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError
from .records import Record
from .rootsys import CartanVector, Root, RootSystem, coroot_vector, root_values, value_sign

# a float alpha(X) this close to zero puts X on the wall of alpha
FLOAT_WALL_TOL = 1e-9


class FlagData(Record):
    """The split of R by a painted set, with the center basis.

    It also keeps, uncompared, ``unpainted``: the unpainted nodes in order.
    The center basis is their unit vectors, so the coordinates of a center
    vector are its values at these nodes.
    """

    _fields = ("rs", "painted", "r_k", "r_m", "center_basis")

    def __init__(self, rs: RootSystem, painted: FrozenSet[int], r_k: Tuple[Root, ...], r_m: Tuple[Root, ...],
                 center_basis: Tuple[CartanVector, ...]):
        self.__dict__.update(rs=rs, painted=painted, r_k=r_k, r_m=r_m, center_basis=center_basis,
                             unpainted=tuple(i for i in range(rs.rank) if i not in painted))

    @property
    def center_dim(self) -> int:
        return len(self.center_basis)

    @cached_property
    def r_m_plus(self) -> Tuple[Root, ...]:
        """The roots of R_m positive in the standard simple-root order, in the order of R_m; `build_flag` sets it."""
        return tuple(r for r in self.r_m if r.is_positive)

    def r_m_set(self) -> frozenset:
        return frozenset(r.coords for r in self.r_m)


class InvariantComplexStructure(Record):
    """Sign assignment on R_m, stored as the positive half R_m+.

    It also keeps, uncompared, the flag it is known to be valid on, or None:
    the flag `default_complex_structure` built it for, or the last flag on
    which it passed `require_complex_structure`; and its Ricci element and
    restriction classes, each with the flag object it was built for
    (`_kept_on`).
    """

    _fields = ("positive",)

    def __init__(self, positive: Tuple[Root, ...]):
        self.__dict__.update(positive=positive, valid_on=None)

    def positive_set(self) -> frozenset:
        return frozenset(r.coords for r in self.positive)

    def reversed(self) -> "InvariantComplexStructure":
        return InvariantComplexStructure(tuple(sorted(-r for r in self.positive)))


class StructureVerdict(Record):
    _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: Tuple[str, ...] = ()):
        self.__dict__.update(ok=ok, violations=violations)


class ChamberPosition(Record):
    """Where X lies: "interior", "boundary" or "outside"; at a boundary, the roots of R_m vanishing on X."""

    _fields = ("position", "walls")

    def __init__(self, position: str, walls: Tuple[Root, ...] = ()):
        self.__dict__.update(position=position, walls=walls)


def build_flag(rs: RootSystem, painted: Sequence[int]) -> FlagData:
    """Split R into R_K, R_m and R_m+ and compute the center of k.

    In the values representation (values[i] = alpha_i(H)) the center {H :
    alpha(H) = 0 for all painted alpha} is the coordinate subspace of the
    unpainted nodes; its basis is their unit vectors, in node order.  A root
    is in R_m when its support meets the unpainted nodes, one AND of
    bitmasks (`RootSystem.root_masks`), and in R_m+ when it is also positive.
    """
    painted_set = frozenset(int(i) for i in painted)
    rank = rs.rank
    for i in painted_set:
        if not 0 <= i < rank:
            raise InputError("painted index %d out of range" % i)
    unpainted = [i for i in range(rank) if i not in painted_set]
    mask = sum(1 << i for i in unpainted)
    r_k, r_m, r_m_plus = [], [], []
    for r, (support, positive) in zip(rs.roots, rs.root_masks):
        if support & mask:
            r_m.append(r)
            if positive:
                r_m_plus.append(r)
        else:
            r_k.append(r)
    zeros = [0] * rank
    basis = [CartanVector.from_split(zeros[:i] + [1] + zeros[i + 1:], zeros, 1, None) for i in unpainted]
    flag = FlagData(rs=rs, painted=painted_set, r_k=tuple(r_k), r_m=tuple(r_m), center_basis=tuple(basis))
    flag.__dict__["r_m_plus"] = tuple(r_m_plus)
    return flag


def default_complex_structure(flag: FlagData) -> InvariantComplexStructure:
    """R_m+ = roots of R_m positive in the standard simple-root order (`FlagData.r_m_plus`).

    It needs no check, and is marked valid on ``flag``: a root of R_m+ has
    a positive unpainted coefficient, and adding a root of R_K (no unpainted
    coefficient) or of R_m+ (nonnegative ones) keeps that coefficient
    positive, so a sum that is a root is a positive root of R_m.
    """
    j = InvariantComplexStructure(flag.r_m_plus)
    j.__dict__["valid_on"] = flag
    return j


def validate_complex_structure(flag: FlagData, j: InvariantComplexStructure) -> StructureVerdict:
    """Check that R_m+ halves R_m, names no root twice, and is closed under R_K- and self-addition.

    A half is closed exactly when its Ricci element Zk, the sum of its
    coroots, lies in the center of k and is positive on R_m+.  Zk is the
    first Chern class of the structure (Koszul), positive exactly when the
    structure is integrable (Borel-Hirzebruch, Amer. J. Math. 80, 1958):
    if both hold, a sum alpha + beta with alpha in R_m+ and beta in R_K or
    R_m+ is positive on Zk, so it is not in R_K or -R_m+; conversely the
    closed set R_K + R_m+ contains a positive system (Bourbaki, Lie Groups
    VI 1.7 Prop. 20), against which 2 rho of R_m+ vanishes on R_K and is at
    least 2 on every other simple coroot.  Both conditions are read in
    integers: w = D (sum of R_m+), with M^-1 = D / den from
    `RootSystem.dual_form`, gives alpha(Zk) = alpha . w / den.
    """
    rm = flag.r_m_set()
    pos = j.positive_set()
    if not pos <= rm:
        return StructureVerdict(False, ("positive set not contained in R_m",))
    negatives = {tuple(map(neg, p)) for p in pos}
    counts = Counter(r.coords for r in j.positive)
    violations = ["root %s declared positive more than once" % (c,) for c in sorted(c for c in counts if counts[c] > 1)]
    if pos & negatives:
        violations.append("some root and its negative both declared positive")
    if pos | negatives != rm:
        violations.append("positive and negative halves do not cover R_m")
    if violations:
        return StructureVerdict(False, tuple(violations))
    dual, den = flag.rs.dual_form
    total = [sum(c) for c in zip(*pos)]
    w = [sum(map(mul, row, total)) for row in dual]
    violations = ["closure fails: Zk is off the center of k, alpha_%d(Zk) = %s" % (i, Fraction(w[i], den))
                  for i in sorted(flag.painted) if w[i]]
    for p in sorted(pos):
        at = sum(map(mul, p, w))
        if at <= 0:
            violations.append("closure fails: alpha(Zk) = %s <= 0 at %s" % (Fraction(at, den), p))
    return StructureVerdict(not violations, tuple(violations))


def require_complex_structure(flag: FlagData, j: InvariantComplexStructure) -> None:
    """Raise InputError naming the violations unless j is a valid complex structure on the flag.

    A structure already known valid on this flag object (``j.valid_on``) is
    not checked again; one that passes is marked valid on it.
    """
    if j.valid_on is flag:
        return
    verdict = validate_complex_structure(flag, j)
    if not verdict.ok:
        raise InputError("invalid complex structure: %s" % "; ".join(verdict.violations))
    j.__dict__["valid_on"] = flag


def _kept_on(flag: FlagData, j: InvariantComplexStructure, name: str, build):
    """build(flag, j), kept on j under ``name`` with the flag object it was built for; another flag builds anew."""
    kept = j.__dict__.get(name)
    if kept is None or kept[0] is not flag:
        kept = j.__dict__[name] = (flag, build(flag, j))
    return kept[1]


def ricci_invariant(flag: FlagData, j: InvariantComplexStructure) -> CartanVector:
    """Z_kappa = sum over alpha in R_m+ of the coroot H_alpha; exact rational.

    H_alpha = M^{-1} alpha is linear in alpha, so this is the one coroot
    vector of the summed root coordinates, built once per (flag, j) and kept
    on j (`_kept_on`).
    """
    return _kept_on(flag, j, "ricci_invariant", _ricci_element)


def _ricci_element(flag: FlagData, j: InvariantComplexStructure) -> CartanVector:
    return coroot_vector(flag.rs, Root(tuple(sum(c) for c in zip(*(alpha.coords for alpha in j.positive)))))


def wall_roots(flag: FlagData, x: CartanVector) -> Tuple[Root, ...]:
    """Roots of R_m vanishing on X; X is regular iff this is empty.  Exact X is signed in integers."""
    values = root_values([alpha.coords for alpha in flag.r_m], x)
    return tuple(alpha for alpha, value in zip(flag.r_m, values) if value_sign(value, FLOAT_WALL_TOL) == 0)


def chamber_position(flag: FlagData, j: InvariantComplexStructure, x: CartanVector) -> ChamberPosition:
    """Locate X relative to the positive chamber {alpha > 0 on R_m+}.  Exact X is signed in integers."""
    signs = [value_sign(value, FLOAT_WALL_TOL) for value in root_values([alpha.coords for alpha in j.positive], x)]
    if -1 in signs:
        return ChamberPosition("outside")
    walls = [root for alpha, s in zip(j.positive, signs) if s == 0 for root in (alpha, -alpha)]
    if walls:
        return ChamberPosition("boundary", tuple(sorted(walls)))
    return ChamberPosition("interior")


class SphereCheck(Record):
    """Exact test of the sphere-in-chamber hypothesis for diameter segments: the minimum distance
    squared in the full dual norm, as specified, and in the dual norm restricted to the center."""

    _fields = ("ok", "min_distance_sq", "min_distance_sq_center", "binding_root")

    def __init__(self, ok: bool, min_distance_sq: Fraction, min_distance_sq_center: Fraction, binding_root: Root):
        self.__dict__.update(ok=ok, min_distance_sq=min_distance_sq, min_distance_sq_center=min_distance_sq_center,
                             binding_root=binding_root)


def sphere_in_chamber(flag: FlagData, j: InvariantComplexStructure) -> SphereCheck:
    """min over R_m+ of alpha(Zk)^2 / |alpha|^2, exactly, both norm variants.

    The restricted variant measures the distance inside the center of k,
    where the sphere actually lives; both minima agree on a full flag.  A
    center module (`_center_modules`) has one alpha(Zk) and one restricted
    norm, each formed once; |alpha|^2 comes per root from the integer dual
    form `RootSystem.dual_form`.  Everything is an integer up to the two
    minima.  The binding root is the first root of R_m+ at the minimum of
    the full variant.
    """
    if not j.positive:
        raise InputError("flag has no transverse roots; paint fewer simple roots")
    zk = ricci_invariant(flag, j)
    table, at_zk, z_den = _center_modules(flag, j, zk)
    # |alpha|^2 = alpha^T M^-1 alpha, with M^-1 = dual / dual_den
    dual, dual_den = flag.rs.dual_form
    # the restricted norm of rho is rho^T adj rho / det, where adj and det = minors[-1] are the
    # adjugate and determinant of the integer center Gram matrix
    minors, adj = linalg.bareiss(_center_gram(flag))
    a_sq = {}
    best_center = None
    for (rho, roots), a in zip(table.items(), at_zk):
        center = Fraction(a * a, linalg.form(adj, rho, rho))
        best_center = center if best_center is None else min(best_center, center)
        a_sq.update((alpha, a * a) for alpha in roots)

    def full(alpha: Root) -> Fraction:
        return Fraction(a_sq[alpha], linalg.form(dual, alpha.coords, alpha.coords))

    binding = min(j.positive, key=full)
    best = full(binding) * Fraction(dual_den, z_den * z_den)
    best_center *= Fraction(minors[-1], z_den * z_den)
    return SphereCheck(ok=bool(best > 1), min_distance_sq=best, min_distance_sq_center=best_center, binding_root=binding)


def _center_modules(flag: FlagData, j: InvariantComplexStructure, zk: CartanVector):
    """The roots of R_m+ by their restriction to the center, in R_m+ order: (table, at_zk, z_den).

    The table maps each restriction rho of `_restriction_classes` to its
    roots, in a fresh list.  Zk lies in the center, so a module has one
    alpha(Zk) = at_zk[i] / z_den, integers over the denominator of Zk's
    split (`CartanVector.split`), in table order.
    """
    z_int, _, z_den, _ = zk.split
    classes = _restriction_classes(flag, j)
    return ({rho: list(roots) for rho, roots in classes},
            [sum(map(mul, roots[0].coords, z_int)) for _, roots in classes], z_den)


def _restriction_classes(flag: FlagData, j: InvariantComplexStructure) -> Tuple[Tuple[tuple, Tuple[Root, ...]], ...]:
    """The roots of R_m+ grouped by their restriction to the center: (rho, roots) in R_m+ order.

    The center basis is the unit vectors of the unpainted nodes, so a
    root's restriction rho, its T-root (Alekseevsky-Perelomov, Funct. Anal.
    Appl. 20, 1986), is its tuple of unpainted coordinates.  Each class
    holds its roots in R_m+ order, and the classes come in the order of
    their first roots.  A center vector takes one value on each class.  The
    grouping (`_group_by_restriction`) runs once per (flag, j) and is kept
    on j (`_kept_on`).
    """
    return _kept_on(flag, j, "restriction_classes", _group_by_restriction)


def _group_by_restriction(flag: FlagData, j: InvariantComplexStructure) -> Tuple[Tuple[tuple, Tuple[Root, ...]], ...]:
    u = flag.unpainted
    # a root's unpainted coordinates as a tuple: itemgetter gives one for two or more indices, a slice for one
    rho = itemgetter(*u) if len(u) > 1 else itemgetter(slice(u[0], u[0] + 1)) if u else (lambda coords: ())
    groups: Dict[tuple, List[Root]] = {}
    for alpha in j.positive:
        groups.setdefault(rho(alpha.coords), []).append(alpha)
    return tuple((key, tuple(roots)) for key, roots in groups.items())


def _center_gram(flag: FlagData) -> List[List[int]]:
    """E on the center in center coordinates: the integer submatrix of M on the unpainted nodes."""
    return [[flag.rs.gram[i][k] for k in flag.unpainted] for i in flag.unpainted]


def _unpainted_vector(flag: FlagData, u: Sequence[int], w: Sequence[int], den: int,
                      r: Optional[Fraction]) -> CartanVector:
    """The exact center vector (u + w sqrt(R)) / den, given by its coordinates at the unpainted nodes."""
    full = [[0] * flag.rs.rank for _ in range(2)]
    for i, x, y in zip(flag.unpainted, u, w):
        full[0][i], full[1][i] = x, y
    return CartanVector.from_split(*full, den, r)
