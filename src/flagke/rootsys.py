"""Exact root systems of compact semisimple Lie algebras.

Roots are stored by their integer coordinates in the simple-root basis, so a
product algebra is block-structured and every evaluation is a dot product.
The bilinear form used throughout is

    E(H, H') = sum over all roots beta of beta(H) * beta(H'),

the positive-definite form on the real Cartan that the Killing form induces
(up to sign) on a compact algebra.  In coordinates E(H, H') = v^T M v' with
M = sum of outer products of root coordinate vectors, and the coroot of alpha
is H_alpha = M^{-1} alpha, characterized by E(H_alpha, .) = alpha(.).  Every
product with M^{-1} is read from one integer form, M^{-1} = D / den
(`RootSystem.dual_form`).

Each simple factor's positive roots come from its integer Cartan matrix by
root strings, in Bourbaki numbering (painted indices depend on it):

    A_n      chain 1-2-...-n
    B_n      chain, node n short
    C_n      chain, node n long
    D_n      chain 1-...-(n-1), and node n attached to n-2
    E_6,7,8  edges 1-3, 3-4, 4-5, 2-4, then a chain 5-6-...-r
    F_4      chain, nodes 1, 2 long and 3, 4 short
    G_2      alpha_1 short, alpha_2 long

Every built system is validated: the classical root count, no duplicates,
definite signs, support inside one simple factor, a positive-definite M, and
then that the set S is W.Pi, a reduced root system with simple roots Pi
(`_validate`).  All of it is plain integer arithmetic; this module, like
every exact layer of the package, imports no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import InputError, InternalError
from .polys import pair_scalar, pair_sign, split_exact
from .records import Record
from .scalars import Quad, Scalar, scalar_sign

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def classical_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    if family == "G":
        return 12
    if family == "F":
        return 48
    if family == "E":
        return {6: 72, 7: 126, 8: 240}[rank]
    raise InputError("unknown family %r" % family)


class LieAlgebraSpec(Record):
    """Ordered product of simple factors, e.g. A2 x B3."""

    _fields = ("components",)

    def __init__(self, components: Tuple[Tuple[str, int], ...]):
        if not components:
            raise InputError("at least one simple component required")
        for fam, rank in components:
            if fam not in FAMILIES:
                raise InputError("unknown family %r" % fam)
            if rank < 1:
                raise InputError("rank must be positive")
            if fam == "D" and rank < 2:
                raise InputError("D requires rank >= 2")
            if fam == "E" and rank not in (6, 7, 8):
                raise InputError("E requires rank in {6,7,8}")
            if fam == "F" and rank != 4:
                raise InputError("F requires rank 4")
            if fam == "G" and rank != 2:
                raise InputError("G requires rank 2")
        self.__dict__["components"] = components

    @staticmethod
    def parse(text: str) -> "LieAlgebraSpec":
        """Parse notation like 'A2', 'A1xA1' or 'B3 x C2'."""
        parts = [p.strip() for p in text.replace("X", "x").split("x") if p.strip()]
        comps = []
        for p in parts:
            fam = p[0].upper()
            try:
                rank = int(p[1:])
            except ValueError as exc:
                raise InputError("cannot parse component %r" % p) from exc
            comps.append((fam, rank))
        return LieAlgebraSpec(tuple(comps))

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.components)

    def blocks(self) -> List[Tuple[int, int]]:
        """Index ranges [start, stop) of each component in the simple basis."""
        out, start = [], 0
        for _, r in self.components:
            out.append((start, start + r))
            start += r
        return out

    def __str__(self) -> str:
        return "x".join("%s%d" % (f, r) for f, r in self.components)


class Root(Record):
    """A root, as integer coefficients in the simple-root basis; roots compare, order and hash as
    their coordinate tuples."""

    __slots__ = ("coords",)
    _fields = __slots__

    def __init__(self, coords: Tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    def __reduce__(self):  # copy and pickle rebuild a root by __init__, since assigning its slot raises
        return Root, (self.coords,)

    def __eq__(self, other):
        return self.coords == other.coords if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __lt__(self, other):
        return self.coords < other.coords if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self.coords <= other.coords if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self.coords > other.coords if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self.coords >= other.coords if other.__class__ is self.__class__ else NotImplemented

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))

    @property
    def is_positive(self) -> bool:
        return sum(self.coords) > 0

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)


class CartanVector:
    """Element H of the real Cartan subalgebra, stored by its simple-root
    evaluations: values[i] = alpha_i(H).  Evaluation of any root is then a
    dot product with the root's coordinates.

    An exact vector may instead be held as integers, values[i] =
    (u_i + v_i sqrt(R)) / den as in `polys.split_exact`
    (`CartanVector.from_split`).  Its values are built on first read; sums,
    differences and exact multiples of such vectors in one field are formed
    in integers and stay split.  ``split`` gives the integer form of any
    exact vector.  Vectors are equal when their values are.
    """

    __slots__ = ("_values", "_split")

    def __init__(self, values: Tuple[Scalar, ...]):
        self._values, self._split = values, None

    @classmethod
    def from_split(cls, u: Sequence[int], v: Sequence[int], den: int, r: Optional[Fraction]) -> "CartanVector":
        out = cls.__new__(cls)
        out._values, out._split = None, (list(u), list(v), den, r)
        return out

    @property
    def values(self) -> Tuple[Scalar, ...]:
        if self._values is None:
            u, v, den, r = self._split
            self._values = tuple(pair_scalar(a, b, den, r) for a, b in zip(u, v))
        return self._values

    @property
    def split(self) -> Tuple[List[int], List[int], int, Optional[Fraction]]:
        """(u, v, den, r) with values[i] = (u_i + v_i sqrt(R)) / den; exact vectors only."""
        return self._split if self._split is not None else split_exact(self.values)

    def joint_split(self, other: "CartanVector") -> Tuple[List[int], List[int], List[int], List[int], int, Optional[Fraction]]:
        """(u, v, u', v', den, r): the splits of self and of other over one denominator and one field."""
        (u1, v1, d1, r1), (u2, v2, d2, r2) = self.split, other.split
        if r1 is not None and r2 is not None and r1 != r2:  # one field under two radicands: split the values together
            n = len(u1)
            u, v, den, r = split_exact(self.values + other.values)
            return u[:n], v[:n], u[n:], v[n:], den, r
        den = math.lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        return ([x * f1 for x in u1], [x * f1 for x in v1], [x * f2 for x in u2], [x * f2 for x in v2], den,
                r2 if r1 is None else r1)

    def _split_with(self, other) -> bool:
        """Whether self is split and other, a vector or an int, Fraction or Quad, is split in a field that agrees."""
        if self._split is None:
            return False
        if isinstance(other, CartanVector):
            if other._split is None:
                return False
            r2 = other._split[3]
        elif isinstance(other, Quad):
            r2 = other.r
        elif isinstance(other, (int, Fraction)):
            r2 = None
        else:
            return False
        r1 = self._split[3]
        return r1 is None or r2 is None or r1 == r2

    def _elementwise(self, other: "CartanVector", op) -> "CartanVector":
        if not self._split_with(other):
            return CartanVector(tuple(map(op, self.values, other.values)))
        u1, v1, u2, v2, den, r = self.joint_split(other)
        return CartanVector.from_split(list(map(op, u1, u2)), list(map(op, v1, v2)), den, r)

    def __add__(self, other: "CartanVector") -> "CartanVector":
        return self._elementwise(other, add)

    def __sub__(self, other: "CartanVector") -> "CartanVector":
        return self._elementwise(other, sub)

    def __neg__(self) -> "CartanVector":
        return self.scale(-1) if self._split is not None else CartanVector(tuple(-a for a in self.values))

    def scale(self, s: Scalar) -> "CartanVector":
        """s H; a split H times an exact s of its field stays split."""
        if not self._split_with(s):
            return CartanVector(tuple(s * a for a in self.values))
        if isinstance(s, Quad):
            (a,), (b,), d, rs = split_exact([s])
        else:
            a, b, d, rs = s.numerator, 0, s.denominator, None
        u, v, den, r = self._split
        r = rs if r is None else r
        R = 0 if r is None else r.numerator * r.denominator
        return CartanVector.from_split([x * a + y * b * R for x, y in zip(u, v)], [x * b + y * a for x, y in zip(u, v)],
                                       den * d, r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CartanVector):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return "CartanVector(values=%r)" % (self.values,)

    @property
    def is_zero(self) -> bool:
        if self._split is not None:
            return not any(self._split[0]) and not any(self._split[1])
        return all(v == 0 for v in self.values)

    @property
    def kind(self) -> str:
        if self._split is not None:
            return "quadratic" if any(self._split[1]) else "rational"
        if any(isinstance(v, float) for v in self.values):
            return "float"
        if any(isinstance(v, Quad) for v in self.values):
            return "quadratic"
        return "rational"


class RootSystem(Record):
    _fields = ("spec", "roots", "gram", "gram_inverse")

    def __init__(self, spec: LieAlgebraSpec, roots: Tuple[Root, ...], gram: Tuple[Tuple[int, ...], ...],
                 gram_inverse: Tuple[Tuple[Fraction, ...], ...]):
        self.__dict__.update(spec=spec, roots=roots, gram=gram, gram_inverse=gram_inverse)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def positive_roots(self) -> Tuple[Root, ...]:
        return tuple(r for r in self.roots if r.is_positive)

    def root_set(self) -> frozenset:
        return frozenset(r.coords for r in self.roots)

    def simple_roots(self) -> Tuple[Root, ...]:
        n = self.rank
        return tuple(Root(tuple(int(i == j) for j in range(n))) for i in range(n))

    @cached_property
    def dual_form(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """(D, den) with D an integer matrix and M^-1 = D / den, den the lcm of the denominators of
        gram_inverse; every product with M^-1 is read from it."""
        den = math.lcm(*(x.denominator for row in self.gram_inverse for x in row))
        return tuple(tuple(int(x * den) for x in row) for row in self.gram_inverse), den

    @cached_property
    def root_masks(self) -> Tuple[Tuple[int, bool], ...]:
        """(support, positive) for each root, in the order of ``roots``: the support as a bitmask of nodes.

        A root lies in R_m of a flag exactly when its support meets the mask of
        the unpainted nodes (`flag.build_flag`).
        """
        return tuple((sum(1 << i for i, c in enumerate(r.coords) if c), r.is_positive) for r in self.roots)


# ---------------------------------------------------------------------------
# positive roots from Cartan matrices


def cartan_matrix(family: str, rank: int) -> List[List[int]]:
    """A[i][j] = <alpha_i, alpha_j^v> = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), Bourbaki numbering.

    Built from the Dynkin diagram: its edges and each node's squared length
    (1 short, 2 or 3 long), so an edge i-j gives A[i][j] = -max(len)/len_j.
    """
    edges = [(i, i + 1) for i in range(rank - 1)]
    lengths = [1] * rank
    if family == "B":
        lengths = [2] * (rank - 1) + [1]
    elif family == "C":
        lengths = [1] * (rank - 1) + [2]
    elif family == "D":
        edges = edges[:-1] + ([(rank - 3, rank - 1)] if rank > 2 else [])
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + edges[4:]
    elif family == "F":
        lengths = [2, 2, 1, 1]
    elif family == "G":
        lengths = [1, 3]
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        top = max(lengths[i], lengths[j])
        a[i][j], a[j][i] = -top // lengths[j], -top // lengths[i]
    return a


def _positive_roots(cartan: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Positive roots by root strings, level by level (Humphreys, GTM 9, 10.2).

    A root beta of height h plus alpha_i is a root iff q > 0 in the alpha_i
    string beta - p alpha_i, ..., beta + q alpha_i, where p - q = <beta, alpha_i^v>
    and p is read off the roots of lower height, which are all known.  Each
    root found keeps its pairings <beta, alpha_j^v>, row j of the Cartan
    matrix for alpha_j, and beta + alpha_i adds row i to beta's.
    """
    n = len(cartan)
    level = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pairings, out = dict(zip(level, map(tuple, cartan))), list(level)
    while level:
        above = []
        for beta in level:
            pair = pairings[beta]
            for i in range(n):
                p, down = 0, list(beta)
                down[i] -= 1
                while tuple(down) in pairings:
                    p, down[i] = p + 1, down[i] - 1
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if p > pair[i] and up not in pairings:
                    pairings[up] = tuple(map(add, pair, cartan[i]))
                    above.append(up)
        out += above
        level = above
    return out


# ---------------------------------------------------------------------------
# public operations


@lru_cache(maxsize=None)
def build_root_system(spec: LieAlgebraSpec) -> RootSystem:
    """All roots plus the Gram matrix M = 2 A^T A of E, A the positive roots as rows, and its exact inverse."""
    n = spec.rank
    pos = []
    for (fam, rank), (start, stop) in zip(spec.components, spec.blocks()):
        pos += [(0,) * start + c + (0,) * (n - stop) for c in _positive_roots(cartan_matrix(fam, rank))]
    cols = list(zip(*pos))
    gram = tuple(tuple(2 * sum(map(mul, a, b)) for b in cols) for a in cols)
    minors, adj = linalg.bareiss(gram)
    if adj is None:
        raise InternalError("Gram matrix of %s is singular" % spec)
    rs = RootSystem(
        spec=spec,
        roots=tuple(sorted([Root(c) for c in pos] + [Root(tuple(-x for x in c)) for c in pos])),
        gram=gram,
        gram_inverse=tuple(tuple(Fraction(x, minors[-1]) for x in row) for row in adj),
    )
    _validate(rs)
    return rs


def _validate(rs: RootSystem) -> None:
    """Check that the roots of rs form the reduced root system W.Pi of its simple roots Pi.

    After the count, sign, block and definiteness checks, three clauses
    (Bourbaki, Lie Groups VI 1.5): S is closed under the simple reflections
    s_i(b) = b - n_bi alpha_i, n_bi = 2 (b . K e_i) / (e_i . K e_i) an
    integer, with K = adj(M) a positive multiple of M^-1; S contains Pi;
    and no root is k alpha_i with |k| >= 2.  Then S contains W.Pi, since the
    s_i generate W, and S lies in W.Pi by induction on height: a positive b
    outside Pi has (b, alpha_i) > 0 for some i with b_i > 0, as (b, b) > 0,
    and s_i(b) is a lower positive root of S.
    """
    count = sum(classical_root_count(f, r) for f, r in rs.spec.components)
    if len(rs.roots) != count:
        raise InputError("root count %d != classical %d for %s" % (len(rs.roots), count, rs.spec))
    if len(set(rs.roots)) != count:
        raise InputError("duplicate roots for %s" % rs.spec)
    blocks = rs.spec.blocks()
    for r in rs.roots:
        signs = {(-1 if c < 0 else 1) for c in r.coords if c != 0}
        if len(signs) != 1:
            raise InputError("root of indefinite sign: %s" % (r.coords,))
        sup = r.support()
        if not any(start <= sup[0] and sup[-1] < stop for start, stop in blocks):
            raise InputError("root crosses component blocks: %s" % (r.coords,))
    minors, adj = linalg.bareiss(rs.gram)
    if adj is None or min(minors) <= 0:
        raise InputError("Gram matrix not positive definite")
    roots = rs.root_set()
    # adj is symmetric: row i is K e_i, and its entry i is e_i . K e_i
    pairs = [(b, [2 * sum(map(mul, b, row)) for row in adj]) for b in sorted(roots)]
    if any(p % adj[i][i] for _, row in pairs for i, p in enumerate(row)):
        raise InternalError("non-integer Cartan pairing")
    for b, row in pairs:
        for i, p in enumerate(row):
            if b[:i] + (b[i] - p // adj[i][i],) + b[i + 1:] not in roots:
                raise InputError("root system not reflection-closed at alpha_%d, %s" % (i, b))
    for i in range(rs.rank):
        if tuple(int(k == i) for k in range(rs.rank)) not in roots:
            raise InputError("root system lacks the simple root alpha_%d" % i)
    for b in roots:
        if sum(map(bool, b)) == 1 and max(map(abs, b)) > 1:
            raise InputError("root system not reduced: %s is a multiple of a simple root" % (b,))


def evaluate(root: Root, h: CartanVector) -> Scalar:
    """alpha(H), a dot product in the simple-root representation."""
    if len(root.coords) != len(h.values):
        raise InputError("dimension mismatch")
    out: Scalar = Fraction(0)
    for c, v in zip(root.coords, h.values):
        if c:
            out = out + c * v
    return out


def root_values(coords: Sequence[Tuple[int, ...]], h: CartanVector) -> list:
    """alpha(H) for the roots of coordinates ``coords``, with no per-root start; signed by `value_sign`.

    An exact H gives the integers (u, v, den, r) of its split, which
    `polys.pair_scalar` would take to the value `evaluate` gives; a float H
    gives the float sum of the terms c v over the nonzero coordinates c in
    order, which is evaluate's sum from Fraction(0) bit for bit.  Roots of
    another rank than H raise evaluate's InputError.
    """
    if h.kind == "float":
        values = h.values
        if coords and len(coords[0]) != len(values):
            raise InputError("dimension mismatch")
        return [sum(c * v for c, v in zip(cs, values) if c) for cs in coords]
    u, v, den, r = h.split
    if coords and len(coords[0]) != len(u):
        raise InputError("dimension mismatch")
    return [(sum(map(mul, cs, u)), sum(map(mul, cs, v)), den, r) for cs in coords]


def value_sign(value, tol: float) -> int:
    """The sign of a `root_values` value: an exact one's in integers (`polys.pair_sign`), a float within tol."""
    return pair_sign(value[0], value[1], value[3]) if isinstance(value, tuple) else scalar_sign(value, tol)


def killing(rs: RootSystem, h1: CartanVector, h2: CartanVector) -> Scalar:
    """E(H1, H2) = v1^T M v2; positive definite, exact on exact inputs."""
    m = rs.gram
    out: Scalar = Fraction(0)
    for i, vi in enumerate(h1.values):
        row = m[i]
        acc: Scalar = Fraction(0)
        for j, vj in enumerate(h2.values):
            if row[j]:
                acc = acc + row[j] * vj
        out = out + vi * acc
    return out


def coroot_vector(rs: RootSystem, alpha: Root) -> CartanVector:
    """H_alpha with E(H_alpha, H) = alpha(H) for every H; exact rational."""
    dual, den = rs.dual_form
    return CartanVector.from_split([sum(map(mul, row, alpha.coords)) for row in dual], [0] * rs.rank, den, None)
