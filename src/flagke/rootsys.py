"""Exact root systems of compact semisimple Lie algebras.

Roots are stored by their integer coordinates in the simple-root basis, so a
product algebra is block-structured and every evaluation is a dot product.
The bilinear form used throughout is

    E(H, H') = sum over all roots beta of beta(H) * beta(H'),

the positive-definite form on the real Cartan that the Killing form induces
(up to sign) on a compact algebra.  In coordinates E(H, H') = v^T M v' with
M = sum of outer products of root coordinate vectors, and the coroot of alpha
is H_alpha = M^{-1} alpha, characterized by E(H_alpha, .) = alpha(.).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from . import linalg
from .errors import InputError, InternalError
from .scalars import Scalar

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


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Ordered product of simple factors, e.g. A2 x B3."""

    components: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        if not self.components:
            raise InputError("at least one simple component required")
        for fam, rank in self.components:
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


@dataclass(frozen=True, order=True)
class Root:
    """A root, as integer coefficients in the simple-root basis."""

    coords: Tuple[int, ...]

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))

    @property
    def is_positive(self) -> bool:
        return sum(self.coords) > 0

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)


@dataclass(frozen=True)
class CartanVector:
    """Element H of the real Cartan subalgebra, stored by its simple-root
    evaluations: values[i] = alpha_i(H).  Evaluation of any root is then a
    dot product with the root's coordinates."""

    values: Tuple[Scalar, ...]

    def __add__(self, other: "CartanVector") -> "CartanVector":
        return CartanVector(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "CartanVector") -> "CartanVector":
        return CartanVector(tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "CartanVector":
        return CartanVector(tuple(-a for a in self.values))

    def scale(self, s: Scalar) -> "CartanVector":
        return CartanVector(tuple(s * a for a in self.values))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    @property
    def kind(self) -> str:
        from .scalars import Quad

        if any(isinstance(v, float) for v in self.values):
            return "float"
        if any(isinstance(v, Quad) for v in self.values):
            return "quadratic"
        return "rational"


@dataclass(frozen=True)
class RootSystem:
    spec: LieAlgebraSpec
    roots: Tuple[Root, ...]
    gram: Tuple[Tuple[int, ...], ...]
    gram_inverse: Tuple[Tuple[Fraction, ...], ...]

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

    def dual_pairing(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        """E*(a, b) = a^T M^{-1} b for covectors in simple-root coordinates."""
        mi = self.gram_inverse
        return sum(
            (Fraction(ai) * sum((Fraction(bj) * mi[i][j] for j, bj in enumerate(b)), Fraction(0))
             for i, ai in enumerate(a)),
            Fraction(0),
        )


# ---------------------------------------------------------------------------
# positive-root generation, one simple family at a time


def _solve_integer_coords(simples: List[List[Fraction]], vec: List[Fraction]) -> Tuple[int, ...]:
    # coordinates c with sum_i c[i] * simple[i] = vec, solved in the ambient
    # Euclidean model; roots always have integer coordinates
    cols = list(zip(*simples))
    sol = linalg.solve([list(row) for row in cols], vec)
    if sol is None:
        raise InternalError("root outside the simple-root lattice")
    out = []
    for c in sol:
        if c.denominator != 1:
            raise InternalError("non-integer root coordinate")
        out.append(int(c))
    return tuple(out)


def _euclid_positive_roots(family: str, rank: int):
    """(simple roots, positive roots) as exact vectors in a Euclidean model."""
    F = Fraction

    def e(i: int, dim: int, val=1) -> List[Fraction]:
        v = [F(0)] * dim
        v[i] = F(val)
        return v

    def add(u, v):
        return [a + b for a, b in zip(u, v)]

    def sub(u, v):
        return [a - b for a, b in zip(u, v)]

    if family == "A":
        dim = rank + 1
        simples = [sub(e(i, dim), e(i + 1, dim)) for i in range(rank)]
        pos = [sub(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        return simples, pos

    if family == "B":
        dim = rank
        simples = [sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)] + [e(rank - 1, dim)]
        pos = [sub(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        pos += [add(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        pos += [e(i, dim) for i in range(dim)]
        return simples, pos

    if family == "C":
        dim = rank
        simples = [sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)] + [e(rank - 1, dim, 2)]
        pos = [sub(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        pos += [add(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        pos += [e(i, dim, 2) for i in range(dim)]
        return simples, pos

    if family == "D":
        dim = rank
        simples = [sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        simples.append(add(e(rank - 2, dim), e(rank - 1, dim)))
        pos = [sub(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        pos += [add(e(i, dim), e(j, dim)) for i in range(dim) for j in range(i + 1, dim)]
        return simples, pos

    if family == "F":
        dim = 4
        simples = [
            sub(e(1, dim), e(2, dim)),
            sub(e(2, dim), e(3, dim)),
            e(3, dim),
            [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)],
        ]
        pos = [e(i, dim) for i in range(4)]
        pos += [sub(e(i, dim), e(j, dim)) for i in range(4) for j in range(i + 1, 4)]
        pos += [add(e(i, dim), e(j, dim)) for i in range(4) for j in range(i + 1, 4)]
        for signs in itertools.product((F(1, 2), F(-1, 2)), repeat=3):
            pos.append([F(1, 2), *signs])
        return simples, pos

    if family == "E":
        # Bourbaki E8; E6 and E7 are cut out downstream by simple-root support
        dim = 8
        simples = [
            [F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), F(1, 2)],
            add(e(0, dim), e(1, dim)),
            sub(e(1, dim), e(0, dim)),
            sub(e(2, dim), e(1, dim)),
            sub(e(3, dim), e(2, dim)),
            sub(e(4, dim), e(3, dim)),
            sub(e(5, dim), e(4, dim)),
            sub(e(6, dim), e(5, dim)),
        ]
        pos = []
        for j in range(8):
            for i in range(j):
                pos.append(add(e(i, dim), e(j, dim)))
                pos.append(sub(e(j, dim), e(i, dim)))
        for signs in itertools.product((1, -1), repeat=7):
            if (sum(signs) + 1) % 4 == 0:  # even number of minus signs overall
                pos.append([F(1, 2)] + [F(s, 2) for s in signs[:6]] + [F(signs[6], 2)])
        # keep only vectors with positive pairing against the fundamental coweight
        # of the chosen simple system: here positivity is encoded instead by
        # integer coordinates below, so return the raw candidates.
        return simples, pos

    raise InputError("no Euclidean model for family %r" % family)


def _component_positive_coords(family: str, rank: int) -> List[Tuple[int, ...]]:
    if family == "G":
        # alpha1 short, alpha2 long
        return [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]

    if family == "E" and rank in (6, 7):
        full = _component_positive_coords("E", 8)
        keep = rank  # Bourbaki numbering: E_r spans the first r simple roots
        out = []
        for c in full:
            if all(v == 0 for v in c[keep:]):
                out.append(c[:keep])
        return out

    simples, pos = _euclid_positive_roots(family, rank)
    out = []
    for v in pos:
        c = _solve_integer_coords(simples, v)
        if sum(c) < 0:
            c = tuple(-x for x in c)
        out.append(c)
    if len(set(out)) != len(out):
        raise InternalError("duplicate roots generated")
    return out


# ---------------------------------------------------------------------------
# public operations


@lru_cache(maxsize=None)
def build_root_system(spec: LieAlgebraSpec) -> RootSystem:
    """All roots plus the Gram matrix M of E and its exact inverse."""
    n = spec.rank
    blocks = spec.blocks()
    coords: List[Tuple[int, ...]] = []
    for (fam, rank), (start, stop) in zip(spec.components, blocks):
        for c in _component_positive_coords(fam, rank):
            padded = [0] * n
            padded[start:stop] = c
            coords.append(tuple(padded))
    roots = [Root(c) for c in coords] + [Root(tuple(-x for x in c)) for c in coords]

    gram = [[0] * n for _ in range(n)]
    for r in roots:
        c = r.coords
        for i in range(n):
            if c[i]:
                for j in range(n):
                    if c[j]:
                        gram[i][j] += c[i] * c[j]
    gram_t = tuple(tuple(row) for row in gram)
    inv = linalg.invert(gram)
    rs = RootSystem(
        spec=spec,
        roots=tuple(sorted(roots)),
        gram=gram_t,
        gram_inverse=tuple(tuple(row) for row in inv),
    )
    _validate(rs)
    return rs


def _validate(rs: RootSystem) -> None:
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
    if not linalg.leading_minors_positive([list(row) for row in rs.gram]):
        raise InputError("Gram matrix not positive definite")
    # closure under Weyl reflections, using only Gram data
    rset = rs.root_set()

    def block_of(root: Root) -> int:
        lead = root.support()[0]
        return next(k for k, (s, t) in enumerate(blocks) if s <= lead < t)

    by_block: dict = {}
    for r in rs.roots:
        by_block.setdefault(block_of(r), []).append(r)
    coroots = {r: linalg.mat_vec([list(row) for row in rs.gram_inverse], list(r.coords)) for r in rs.roots}
    for group in by_block.values():
        for a in group:
            ha = coroots[a]
            aa = sum(c * v for c, v in zip(a.coords, ha))
            for b in group:
                n_ab = 2 * sum(c * v for c, v in zip(b.coords, ha)) / aa
                if n_ab.denominator != 1:
                    raise InternalError("non-integer Cartan pairing")
                refl = tuple(bc - int(n_ab) * ac for bc, ac in zip(b.coords, a.coords))
                if refl not in rset:
                    raise InputError("root system not reflection-closed at %s, %s" % (a, b))


def evaluate(root: Root, h: CartanVector) -> Scalar:
    """alpha(H), a dot product in the simple-root representation."""
    if len(root.coords) != len(h.values):
        raise InputError("dimension mismatch")
    out: Scalar = Fraction(0)
    for c, v in zip(root.coords, h.values):
        if c:
            out = out + c * v
    return out


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


def killing_brute(rs: RootSystem, h1: CartanVector, h2: CartanVector) -> Scalar:
    """E(H1, H2) summed root by root; the independent oracle for `killing`."""
    out: Scalar = Fraction(0)
    for beta in rs.roots:
        out = out + evaluate(beta, h1) * evaluate(beta, h2)
    return out


def coroot_vector(rs: RootSystem, alpha: Root) -> CartanVector:
    """H_alpha with E(H_alpha, H) = alpha(H) for every H; exact rational."""
    vals = linalg.mat_vec([list(row) for row in rs.gram_inverse], list(alpha.coords))
    return CartanVector(tuple(vals))


def zero_vector(rs: RootSystem) -> CartanVector:
    return CartanVector(tuple(Fraction(0) for _ in range(rs.rank)))
