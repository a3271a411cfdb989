import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from flagke.errors import InputError
from flagke.flag import (
    FLOAT_WALL_TOL,
    ChamberPosition,
    build_flag,
    chamber_position,
    default_complex_structure,
    ricci_invariant,
    validate_complex_structure,
    wall_roots,
    InvariantComplexStructure,
)
from flagke.rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    build_root_system,
    coroot_vector,
    evaluate,
)
from flagke.model import make_base
from flagke.scalars import Quad, scalar_sign
from segment_checks import (CENTER_FLAGS, center_flags, dual_pairing, fraction_solve, pairwise_closure,
                            per_root_build_flag, per_root_complex_structure)
from sweep_searches import GROUPS as SWEEP_GROUPS
from test_rootsys import RANK_8_SPECS

with open(os.path.join(os.path.dirname(__file__), "rootsys_golden.json")) as _fh:
    GOLDEN_SPECS = sorted(json.load(_fh))


def rs(text):
    return build_root_system(LieAlgebraSpec.parse(text))


def test_build_flag_examples():
    a1 = build_flag(rs("A1"), [])
    assert len(a1.r_m) == 2 and a1.center_dim == 1

    a2 = build_flag(rs("A2"), [0])
    assert len(a2.r_k) == 2 and len(a2.r_m) == 4 and a2.center_dim == 1

    prod = build_flag(rs("A1xA1"), [])
    assert len(prod.r_m) == 4 and prod.center_dim == 2


def test_default_complex_structure_examples():
    a1 = build_flag(rs("A1"), [])
    assert [r.coords for r in default_complex_structure(a1).positive] == [(1,)]

    prod = build_flag(rs("A1xA1"), [])
    assert sorted(r.coords for r in default_complex_structure(prod).positive) == [(0, 1), (1, 0)]

    a2 = build_flag(rs("A2"), [])
    assert sorted(r.coords for r in default_complex_structure(a2).positive) == [(0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("text, flags", CENTER_FLAGS)
def test_default_complex_structure_passes_validation(text, flags):
    # default_complex_structure does not check itself: the standard order is parabolic on every flag
    for painted in center_flags(text, flags):
        flag = build_flag(rs(text), painted)
        j = default_complex_structure(flag)
        verdict = validate_complex_structure(flag, j)
        assert verdict.ok and verdict.violations == (), painted
        assert pairwise_closure(flag, j), painted


def test_validate_complex_structure_examples():
    a2 = build_flag(rs("A2"), [])
    good = InvariantComplexStructure((Root((1, 0)), Root((0, 1)), Root((1, 1))))
    assert validate_complex_structure(a2, good).ok

    bad = InvariantComplexStructure((Root((1, 0)), Root((0, 1)), Root((-1, -1))))
    verdict = validate_complex_structure(a2, bad)
    assert not verdict.ok
    assert any("closure" in v for v in verdict.violations)

    prod = build_flag(rs("A1xA1"), [])
    mixed = InvariantComplexStructure((Root((1, 0)), Root((0, -1))))
    assert validate_complex_structure(prod, mixed).ok


ORACLE_GROUPS = ["A1xA1", "A1xA1xA1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA2", "B2xG2"]


def test_ricci_criterion_matches_the_pairwise_closure_scan():
    # every sign choice of R_m+ on every flag with |R_m+| <= 8, and two non-halving sets per flag
    structures = valid = 0
    decisive = {"halving": 0, "center": 0, "positivity": 0}
    for text in ORACLE_GROUPS:
        system = rs(text)
        for k in range(system.rank + 1):
            for painted in itertools.combinations(range(system.rank), k):
                flag = build_flag(system, painted)
                half = default_complex_structure(flag).positive
                if len(half) > 8:
                    continue
                for signs in itertools.product((1, -1), repeat=len(half)):
                    j = InvariantComplexStructure(tuple(sorted(r if s > 0 else -r for r, s in zip(half, signs))))
                    verdict = validate_complex_structure(flag, j)
                    assert verdict.ok == pairwise_closure(flag, j), (text, painted, j)
                    structures += 1
                    valid += verdict.ok
                    center = any("off the center" in v for v in verdict.violations)
                    positivity = any("<= 0 at" in v for v in verdict.violations)
                    decisive["center"] += center and not positivity
                    decisive["positivity"] += positivity and not center
                if not half:
                    continue
                for j, violation in [(half[1:], "positive and negative halves do not cover R_m"),
                                     (half + (-half[0],), "some root and its negative both declared positive")]:
                    verdict = validate_complex_structure(flag, InvariantComplexStructure(j))
                    assert verdict.violations == (violation,) and not verdict.ok
                    assert not pairwise_closure(flag, InvariantComplexStructure(j))
                    decisive["halving"] += 1
    assert (structures, valid) == (5136, 318)
    assert all(decisive.values()), decisive


def test_mask_split_matches_the_per_root_split():
    # on every flag of the rank-8 specs and the sweep groups: R_K, R_m and R_m+ by support masks are the
    # per-root split, in order; unpainted and R_m+ are kept off the flag's equality and repr
    flags = 0
    for text in sorted(set(RANK_8_SPECS) | set(SWEEP_GROUPS)):
        system = rs(text)
        for k in range(system.rank + 1):
            for painted in itertools.combinations(range(system.rank), k):
                flag, want = build_flag(system, painted), per_root_build_flag(system, painted)
                assert flag == want and flag.r_k == want.r_k and flag.r_m == want.r_m, (text, painted)
                assert flag.unpainted == tuple(i for i in range(system.rank) if i not in painted)
                j = default_complex_structure(flag)
                assert j == per_root_complex_structure(want) and j.positive == want.r_m_plus and j.valid_on is flag
                flags += 1
    assert flags == 2682
    assert "unpainted" not in repr(flag) and "r_m_plus" not in repr(flag)


def test_ricci_invariant_examples():
    a1 = build_flag(rs("A1"), [])
    j = default_complex_structure(a1)
    zk = ricci_invariant(a1, j)
    assert evaluate(a1.rs.simple_roots()[0], zk) == Fraction(1, 2)

    prod = build_flag(rs("A1xA1"), [])
    jp = default_complex_structure(prod)
    zkp = ricci_invariant(prod, jp)
    assert zkp.values == (Fraction(1, 2), Fraction(1, 2))

    a2 = build_flag(rs("A2"), [])
    j2 = default_complex_structure(a2)
    zk2 = ricci_invariant(a2, j2)
    assert evaluate(a2.rs.simple_roots()[0], zk2) == Fraction(1, 3)


def test_wall_roots_examples():
    a2 = build_flag(rs("A2"), [])
    j = default_complex_structure(a2)
    zk = ricci_invariant(a2, j)
    assert wall_roots(a2, zk) == ()
    assert set(wall_roots(a2, zero_vector(a2.rs))) == set(a2.r_m)

    prod = build_flag(rs("A1xA1"), [])
    walls = wall_roots(prod, CartanVector((Fraction(1), Fraction(0))))
    assert sorted(r.coords for r in walls) == [(0, -1), (0, 1)]


def test_chamber_position_examples():
    a2 = build_flag(rs("A2"), [])
    j = default_complex_structure(a2)
    zk = ricci_invariant(a2, j)
    assert chamber_position(a2, j, zk).position == "interior"
    assert chamber_position(a2, j, -zk).position == "outside"

    prod = build_flag(rs("A1xA1"), [])
    jp = default_complex_structure(prod)
    pos = chamber_position(prod, jp, CartanVector((Fraction(1), Fraction(0))))
    assert pos.position == "boundary"
    assert sorted(r.coords for r in pos.walls) == [(0, -1), (0, 1)]


def test_float_walls_use_the_segment_wall_tolerance():
    # alpha_1(X) = 5e-12 is a wall for the segment verdict (FLOAT_WALL_TOL), so it is one here too
    prod = build_flag(rs("A1xA1"), [])
    x = CartanVector((5e-12, 1.0))
    assert sorted(r.coords for r in wall_roots(prod, x)) == [(-1, 0), (1, 0)]
    pos = chamber_position(prod, default_complex_structure(prod), x)
    assert pos.position == "boundary"
    assert sorted(r.coords for r in pos.walls) == [(-1, 0), (1, 0)]


def per_root_wall_roots(flag, x):
    """`wall_roots` with each alpha(X) evaluated and signed root by root."""
    return tuple(alpha for alpha in flag.r_m if scalar_sign(evaluate(alpha, x), FLOAT_WALL_TOL) == 0)


def per_root_chamber_position(flag, j, x):
    """`chamber_position` with each alpha(X) evaluated and signed root by root."""
    signs = [scalar_sign(evaluate(alpha, x), FLOAT_WALL_TOL) for alpha in j.positive]
    if any(s < 0 for s in signs):
        return ChamberPosition("outside")
    walls = tuple(sorted(r for alpha, s in zip(j.positive, signs) if s == 0 for r in (alpha, -alpha)))
    return ChamberPosition("boundary", walls) if walls else ChamberPosition("interior")


def _seeded_vectors(rng, flag, j):
    """Rational, quadratic and float vectors: split ones, ones in the closed chamber and ones on a wall of R_m.

    The flag has a center: at least one node is unpainted.
    """
    n = flag.rs.rank
    yield ricci_invariant(flag, j)
    q = [rng.randint(-2, 2) if i in flag.unpainted else 0 for i in range(n)]
    q[flag.unpainted[0]] = q[flag.unpainted[0]] or 1
    for tau in (Fraction(1), Fraction(1, 3)):
        yield make_base(flag, j, CartanVector(tuple(map(Fraction, q))), period_scale=tau).z
    r = rng.choice((Fraction(2), Fraction(8), Fraction(3, 2)))
    draws = {
        "rational": lambda lo: Fraction(rng.randint(lo, 4), rng.randint(1, 3)),
        "quadratic": lambda lo: Quad.make(Fraction(rng.randint(lo, 3), 2), Fraction(rng.randint(max(lo, -1), 2), 3), r),
        "float": lambda lo: rng.uniform(lo, 3.0),
    }
    for kind, draw in draws.items():
        # on the closed positive Weyl chamber, some values zero: inside or on the boundary of R_m+'s chamber
        zeros = set(rng.sample(range(n), rng.randint(0, n)))
        values = [0 * draw(0) if i in zeros else draw(1) for i in range(n)]
        if kind == "float":  # within FLOAT_WALL_TOL of the walls, and clear of them
            values = [v + rng.choice((5e-12, -5e-12, 1e-7)) if i in zeros else v for i, v in enumerate(values)]
        yield CartanVector(tuple(values))
        # any signs, then moved onto the wall of one root of R_m
        values = [draw(-3) for _ in range(n)]
        yield CartanVector(tuple(values))
        alpha = rng.choice(flag.r_m).coords
        i = next(i for i, c in enumerate(alpha) if c)
        values[i] = -sum(c * v for k, (c, v) in enumerate(zip(alpha, values)) if k != i) / alpha[i]
        yield CartanVector(tuple(values))


def test_chamber_position_and_wall_roots_match_the_per_root_oracle():
    # seeded over the sweep groups and E6, random paintings and both structures: the positions and wall sets that
    # root_values signs in integers (or in floats within FLOAT_WALL_TOL) are the per-root oracle's
    rng = random.Random(40)
    counts = {}
    for text in SWEEP_GROUPS + ["E6"]:
        system = rs(text)
        for _ in range(2):
            flag = build_flag(system, sorted(rng.sample(range(system.rank), rng.randint(0, system.rank - 1))))
            j = default_complex_structure(flag)
            for jj in (j, j.reversed()):
                for x in _seeded_vectors(rng, flag, jj):
                    pos = chamber_position(flag, jj, x)
                    assert pos == per_root_chamber_position(flag, jj, x), (text, flag.painted, x)
                    walls = wall_roots(flag, x)
                    assert walls == per_root_wall_roots(flag, x), (text, flag.painted, x)
                    for key in (x.kind, pos.position, "walls" if walls else "regular"):
                        counts[key] = counts.get(key, 0) + 1
    kinds = ("rational", "quadratic", "float", "interior", "boundary", "outside", "walls", "regular")
    assert min(counts.get(k, 0) for k in kinds) >= 20, counts
    # a vector of the wrong rank is evaluate's InputError: rational, split in integers, quadratic or float
    flag = build_flag(rs("A2xA2"), [1, 3])
    j = default_complex_structure(flag)
    a2 = build_flag(rs("A2"), [])
    for x in (CartanVector((Fraction(1),) * 3), ricci_invariant(a2, default_complex_structure(a2)),
              CartanVector((Quad(0, 1, 2),) * 5), CartanVector((1.0,) * 5)):
        with pytest.raises(InputError, match="^dimension mismatch$"):
            evaluate(flag.r_m[0], x)
        with pytest.raises(InputError, match="^dimension mismatch$"):
            wall_roots(flag, x)
        with pytest.raises(InputError, match="^dimension mismatch$"):
            chamber_position(flag, j, x)


def _all_flags_up_to_rank(max_rank):
    specs = ["A%d" % r for r in range(1, max_rank + 1)]
    specs += ["B%d" % r for r in range(2, max_rank + 1)]
    specs += ["C%d" % r for r in range(2, max_rank + 1)]
    specs += ["D%d" % r for r in range(2, max_rank + 1)]
    specs += ["G2", "F4"]
    for text in specs:
        system = rs(text)
        for k in range(system.rank + 1):
            for painted in itertools.combinations(range(system.rank), k):
                yield build_flag(system, painted)


def test_ricci_invariant_interior_for_every_painting_up_to_rank_5():
    count = 0
    for flag in _all_flags_up_to_rank(5):
        j = default_complex_structure(flag)
        if not j.positive:
            continue  # fully painted: no invariant structure to test
        zk = ricci_invariant(flag, j)
        assert chamber_position(flag, j, zk).position == "interior", flag.painted
        count += 1
    assert count > 200


def test_ricci_invariant_additive_across_products():
    a2 = build_flag(rs("A2"), [0])
    b2 = build_flag(rs("B2"), [])
    prod = build_flag(rs("A2xB2"), [0])
    zk_a = ricci_invariant(a2, default_complex_structure(a2))
    zk_b = ricci_invariant(b2, default_complex_structure(b2))
    zk = ricci_invariant(prod, default_complex_structure(prod))
    assert zk.values == zk_a.values + zk_b.values


def center_coordinates(flag, x):
    """Exact coordinates of a rational X in the center basis, or None."""
    rows = [[b.values[i] for b in flag.center_basis] for i in range(flag.rs.rank)]
    solved = fraction_solve(rows, list(x.values), flag.center_dim)
    return solved and solved[0]


def zero_vector(rs):
    return CartanVector(tuple(Fraction(0) for _ in range(rs.rank)))


def test_center_coordinates_roundtrip():
    flag = build_flag(rs("A2xA2"), [1, 3])
    x = CartanVector((Fraction(3, 2), Fraction(0), Fraction(-5, 7), Fraction(0)))
    coords = center_coordinates(flag, x)
    rebuilt = [Fraction(0)] * 4
    for c, b in zip(coords, flag.center_basis):
        rebuilt = [u + c * v for u, v in zip(rebuilt, b.values)]
    assert tuple(rebuilt) == x.values
    # a vector off the center has no coordinates
    off = CartanVector((Fraction(1), Fraction(1), Fraction(0), Fraction(0)))
    assert center_coordinates(flag, off) is None


def test_reversing_structure_negates_ricci_invariant():
    for text, painted in [("A2", []), ("A2", [1]), ("B2", [0]), ("A1xA1", [])]:
        flag = build_flag(rs(text), painted)
        j = default_complex_structure(flag)
        assert validate_complex_structure(flag, j.reversed()).ok
        assert pairwise_closure(flag, j.reversed())
        assert ricci_invariant(flag, j.reversed()).values == (-ricci_invariant(flag, j)).values


@pytest.mark.parametrize("text", GOLDEN_SPECS)
def test_ricci_invariant_equals_per_root_coroot_sum_on_full_flags(text):
    flag = build_flag(rs(text), [])
    j = default_complex_structure(flag)
    vals = [Fraction(0)] * flag.rs.rank
    for alpha in j.positive:
        vals = [a + b for a, b in zip(vals, coroot_vector(flag.rs, alpha).values)]
    zk = ricci_invariant(flag, j)
    assert zk.values == tuple(vals)
    assert repr(zk.values) == repr(tuple(vals))


def _fraction_inverse_product(system, v):
    """M^-1 v as Fractions, row by row from gram_inverse."""
    return [sum((Fraction(a) * x for a, x in zip(row, v)), Fraction(0)) for row in system.gram_inverse]


@pytest.mark.parametrize("text", GOLDEN_SPECS)
def test_dual_form_products_equal_the_fraction_inverse_products(text):
    # pairs of positive roots only: E*(-a, b) = -E*(a, b) on both sides, and all pairs take four times as long
    system = rs(text)
    for b in system.roots:
        h_b = _fraction_inverse_product(system, b.coords)
        values = coroot_vector(system, b).values
        assert (values, repr(values)) == (tuple(h_b), repr(tuple(h_b)))
        if b.is_positive:
            for a in system.positive_roots:
                pairing = sum((Fraction(x) * h for x, h in zip(a.coords, h_b)), Fraction(0))
                value = dual_pairing(system, a.coords, b.coords)
                assert (value, repr(value)) == (pairing, repr(pairing))
    flag = build_flag(system, [])
    j = default_complex_structure(flag)
    total = [sum(c) for c in zip(*(r.coords for r in j.positive))]
    zk = ricci_invariant(flag, j)
    assert zk.values == tuple(_fraction_inverse_product(system, total))
    assert repr(zk.values) == repr(tuple(_fraction_inverse_product(system, total)))
