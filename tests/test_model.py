import collections
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from flagke.errors import DegreeMismatchError, InputError
from flagke import linalg
from flagke import flag as flag_module
from flagke import model as model_module
from flagke.flag import (InvariantComplexStructure, _center_gram, _center_modules, _restriction_classes, build_flag,
                         default_complex_structure, require_complex_structure, ricci_invariant, sphere_in_chamber)
from flagke.diameters import search_diameters
from flagke.einstein import build_segment_polynomial
from flagke.model import (FutakiReport, _integral_weights, _projection_violation, _projective_space_test,
                          analyze_segment, check_parametrization, futaki, isotropy_modules, ke_endpoints, ke_verdict,
                          make_base)
from flagke.rootsys import (CartanVector, LieAlgebraSpec, Root, RootSystem, build_root_system, coroot_vector, evaluate,
                            killing)
from flagke.polys import pair_scalar
from flagke.scalars import Quad
from flagke.walled import search_walled
from segment_checks import (closure_violation, exact_sqrt, fraction_projective_space_test, killing_make_base,
                            per_root_build_flag, per_root_center_modules, per_root_complex_structure,
                            per_root_exact_isotropy_modules, per_root_isotropy_modules, per_root_segment)
from sweep_searches import GROUPS as SWEEP_GROUPS
from sweep_searches import paintings


def rs(text):
    return build_root_system(LieAlgebraSpec.parse(text))


def _flag_j(text, painted=()):
    flag = build_flag(rs(text), painted)
    return flag, default_complex_structure(flag)


def test_make_base_a1_normalization():
    flag, j = _flag_j("A1")
    h = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    base = make_base(flag, j, h)
    # Z = sqrt(2) H_alpha, alpha(Z) = sqrt(2)/2
    val = evaluate(flag.rs.simple_roots()[0], base.z)
    assert val == Quad(Fraction(0), Fraction(1, 2), Fraction(2))
    assert killing(flag.rs, base.z, base.z) == 1


def test_make_base_product_difference_is_unit():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    assert base.z.values == (Fraction(1, 2), Fraction(-1, 2))
    a1_, a2_ = flag.rs.simple_roots()
    assert evaluate(a1_, base.z) == Fraction(1, 2)
    assert evaluate(a2_, base.z) == Fraction(-1, 2)


def test_make_base_rejects_bad_directions():
    flag, j = _flag_j("A2", [0])
    with pytest.raises(InputError):
        make_base(flag, j, CartanVector((Fraction(1), Fraction(0))))  # alpha_1(Z) != 0
    with pytest.raises(InputError):
        make_base(flag, j, CartanVector((Fraction(0), Fraction(0))))



@pytest.mark.parametrize("tau", [Fraction(1), Fraction(1, 3)])
def test_integer_center_norm_matches_killing_on_sweep_flags(tau):
    # on every flag of the sweep groups: E(q, q) on the integer center Gram matrix is killing's, and Z is the
    # old normalization z_direction.scale(1 / exact_sqrt(E / tau^2)), value for value and repr for repr
    rng = random.Random(str(tau))
    for group in SWEEP_GROUPS:
        system = rs(group)
        for painted in paintings(group):
            flag = build_flag(system, painted)
            if not flag.center_dim:
                continue
            j = default_complex_structure(flag)
            q = [0] * system.rank
            while not any(q):
                q = [rng.randint(-2, 2) if i in flag.unpainted else 0 for i in range(system.rank)]
            g = math.gcd(*q)
            q = [x // g for x in q]
            center = [q[i] for i in flag.unpainted]
            e = killing(system, *[CartanVector(tuple(map(Fraction, q)))] * 2)
            assert linalg.form(_center_gram(flag), center, center) == e
            for s in (Fraction(1), Fraction(2, 3), Fraction(-1)):
                direction = CartanVector(tuple(s * x for x in q))
                old = direction.scale(1 / exact_sqrt(s * s * e / (tau * tau)))  # E(s q, s q) = s^2 E(q, q)
                z = make_base(flag, j, direction, period_scale=tau).z
                assert z == old and repr(z.values) == repr(old.values) and z.kind == old.kind
            if painted:
                off = CartanVector(tuple(Fraction(x + (i == painted[0])) for i, x in enumerate(q)))
                with pytest.raises(InputError, match="not in the center"):
                    make_base(flag, j, off, period_scale=tau)
            floats = CartanVector(tuple(float(x) for x in q))
            norm = killing(system, floats, floats)
            assert isinstance(norm, float)
            z = make_base(flag, j, floats, period_scale=tau).z
            assert z.values == floats.scale(float(tau) / norm ** 0.5).values and z.kind == "float"


def _outcome(make, flag, j, x, tau):
    """("ok", base) or ("error", exception type, message) of one make_base route."""
    try:
        return "ok", make(flag, j, x, period_scale=tau)
    except (InputError, ValueError) as exc:
        return "error", type(exc), str(exc)


def _directions(rng, flag):
    """Seeded center directions of a flag: (kind, vector), rational, quadratic and float, exact in two forms."""
    rank = flag.rs.rank
    q = [0] * rank
    while not any(q):
        q = [rng.randint(-2, 2) if i in flag.unpainted else 0 for i in range(rank)]
    s = rng.choice((Fraction(1), Fraction(2, 3), Fraction(-5, 2)))
    out = [("rational", CartanVector(tuple(s * x for x in q))),
           ("rational", CartanVector.from_split([x * s.numerator for x in q], [0] * rank, s.denominator, None))]
    j = default_complex_structure(flag)
    for tau in (Fraction(1), Fraction(1, 3)):  # the normalized Z of q, split and as values
        z = make_base(flag, j, CartanVector(tuple(map(Fraction, q))), period_scale=tau).z
        out += [(z.kind, z), (z.kind, CartanVector(z.values))]
    floats = [float(x) + (1e-13 * rng.choice((1, -1)) if i in flag.painted else 0.0) for i, x in enumerate(q)]
    return out + [("float", CartanVector(tuple(float(x) for x in q))), ("float", CartanVector(tuple(floats)))]


def test_make_base_matches_the_killing_route():
    # on every flag of the sweep groups, at a seeded period scale of 1 or 1/3: the integer split gives killing's Z,
    # equal in value and kind, a float Z bit for bit, and an exact Z split in integers
    rng = random.Random(3)
    kinds = {"rational": 0, "quadratic": 0, "float": 0}
    for group in SWEEP_GROUPS:
        system = rs(group)
        for painted in paintings(group):
            flag = build_flag(system, painted)
            if not flag.center_dim:
                continue
            j, tau = default_complex_structure(flag), rng.choice((Fraction(1), Fraction(1, 3)))
            for kind, x in _directions(rng, flag):
                got, want = (_outcome(make, flag, j, x, tau) for make in (make_base, killing_make_base))
                assert got[0] == want[0] == "ok" and x.kind == kind, (group, painted, x)
                z, oracle = got[1].z, want[1].z
                assert z == oracle and z.kind == oracle.kind and got[1].period_scale == tau
                if kind == "float":
                    assert [v.hex() for v in z.values] == [v.hex() for v in oracle.values]
                else:
                    assert z._split is not None
                kinds[kind] += 1
    assert all(kinds.values()), kinds


def test_make_base_errors_match_the_killing_route():
    # a zero, off-center, irrational-norm or non-finite float direction and a period scale <= 0 raise the same
    # InputError on both routes
    rng = random.Random(5)
    seen = set()
    for group in ["A2", "B3", "G2", "A1xA2", "A2xA2", "B2xG2"]:
        system = rs(group)
        for painted in paintings(group):
            flag = build_flag(system, painted)
            if not flag.center_dim:
                continue
            j = default_complex_structure(flag)
            rank = system.rank
            directions = _directions(rng, flag)
            z = next((x for kind, x in directions if kind == "quadratic"), None)
            x, floats = directions[0][1], directions[-2][1]
            zeros = [0] * rank
            cases = [(CartanVector((Fraction(0),) * rank), 1), (CartanVector.from_split(zeros, zeros, 1, None), 1),
                     (CartanVector((0.0,) * rank), 1), (x, 0), (directions[-1][1], Fraction(-1, 3)),
                     (CartanVector(tuple(1e200 * v for v in floats.values)), 1)]
            if painted:
                off = CartanVector(tuple(Fraction(int(i == painted[0])) for i in range(rank)))
                moved = tuple(v + 1e-9 * float(o) for v, o in zip(floats.values, off.values))
                cases += [(x + off, 1), (CartanVector(moved), 1)]
            if z is not None:  # Z + q has the sqrt(R) part 2 E(Z, q) of its norm, nonzero unless Z and q are orthogonal
                cases += [(z + x, 1), (CartanVector((z + x).values), Fraction(1, 3))]
            for y, tau in cases:
                got, want = (_outcome(make, flag, j, y, tau) for make in (make_base, killing_make_base))
                assert got[0] == want[0]
                if got[0] == "error":
                    assert got[1:] == want[1:] and got[1] is InputError, (group, painted, y, got, want)
                    seen.add(got[2].split(":")[0].split(" has ")[0])
                else:
                    assert got[1].z == want[1].z
    assert seen == {"period scale must be positive", "zero direction for Z", "direction not in the center of k",
                    "float direction", "pass an unnormalized rational (or float) direction"}, seen


def test_make_base_on_radicands_of_one_field_and_of_two():
    # (1, sqrt(8)) on A1 x A1 has E = 18 and Z = (sqrt(2)/6, 2/3), split over sqrt(2); (1, sqrt(2)) has E = 6, and Z
    # would need sqrt(2) and sqrt(3) at once: an input error, where killing's route fails on mixed radicands
    flag, j = _flag_j("A1xA1")
    x = CartanVector((Fraction(1), Quad(Fraction(0), Fraction(1), Fraction(8))))
    z = make_base(flag, j, x).z
    want = (Quad(Fraction(0), Fraction(1, 6), Fraction(2)), Fraction(2, 3))
    assert z.values == want == killing_make_base(flag, j, x).z.values
    assert z._split is not None and z.kind == "quadratic" and killing(flag.rs, z, z) == 1
    # a rational direction split over a radicand, as a difference of two quadratic vectors can be, is rational
    for x in (CartanVector.from_split([1, 0], [0, 0], 1, Fraction(3)), (z + CartanVector((1, 0))) - z):
        assert make_base(flag, j, x).z == killing_make_base(flag, j, x).z == make_base(flag, j, CartanVector((1, 0))).z
    y = CartanVector((Fraction(1), Quad(Fraction(0), Fraction(1), Fraction(2))))
    with pytest.raises(InputError, match="two quadratic fields"):
        make_base(flag, j, y)
    with pytest.raises(ValueError, match="mixed radicands"):
        killing_make_base(flag, j, y)


def test_make_base_calls_no_killing():
    # make_base normalizes exact and float directions without rootsys.killing, by any route
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is killing.__code__:
            calls.append(frame)

    flag, j = _flag_j("B2xG2", (1,))
    directions = _directions(random.Random(1), flag)
    sys.setprofile(profile)
    try:
        for _, x in directions:
            make_base(flag, j, x, period_scale=Fraction(1, 3))
        killing(flag.rs, flag.center_basis[0], flag.center_basis[0])  # the profile sees a call
    finally:
        sys.setprofile(None)
    assert len(calls) == 1 and len(directions) == 8


def test_integral_weights_are_built_once_over_a_d3_search():
    # the 13 plane forms and the exact verdicts of the A2^3 [1, 3, 5] search share one set of weights
    flag, j = _flag_j("A2xA2xA2", (1, 3, 5))
    base = make_base(flag, j, flag.center_basis[0])
    _integral_weights.cache_clear()
    res = search_diameters(base)
    assert res.candidates and _integral_weights.cache_info().misses <= 1
    weights, scale = _integral_weights(4, 1, 2)
    assert isinstance(weights, tuple) and [Fraction(w, scale) for w in weights] == [
        Fraction(2 ** (i + 2) - (-1) ** (i + 2), i + 2) for i in range(4)]


def test_make_base_rejects_a_repeated_root():
    # a root named twice would enter the obstruction twice; the set of roots alone is a valid structure
    flag = build_flag(rs("A2"), [])
    once = (Root((0, 1)), Root((1, 0)), Root((1, 1)))
    z = CartanVector((Fraction(1), Fraction(-1)))
    assert make_base(flag, InvariantComplexStructure(once), z).j.positive == once
    with pytest.raises(InputError, match=r"^invalid complex structure: root \(1, 0\) declared positive more than once$"):
        make_base(flag, InvariantComplexStructure(once[:2] + once[1:]), z)


def test_analyze_segment_wall_example():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    zk = ricci_invariant(flag, j)
    seg = analyze_segment(base, zk + base.z, 2)
    assert sorted(r.coords for r in seg.w1) == [(0, -1), (0, 1)]
    assert seg.m1 == 2
    assert seg.chamber_ok and seg.degrees_ok and seg.projection_ok and seg.overall_ok


def test_analyze_segment_interior_small():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    zk = ricci_invariant(flag, j)
    eps = Fraction(1, 10)
    seg = analyze_segment(base, zk + base.z.scale(eps), 2 * eps)
    assert seg.m1 == seg.m2 == 1
    assert seg.overall_ok
    # degrees are 1 on both ends iff both endpoints are regular
    assert seg.w1 == () and seg.w2 == ()


def test_analyze_segment_exits_chamber():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    zk = ricci_invariant(flag, j)
    seg = analyze_segment(base, zk + base.z, 3)  # overshoots the far wall
    assert not seg.chamber_ok
    assert not seg.overall_ok
    assert any("negative" in f for f in seg.failures)
    # from a wall the other way: a root vanishing at one end and negative at the other is no wall
    rev = make_base(flag, j, h2 - h1)
    seg = analyze_segment(rev, zk + base.z, 1)
    assert seg == per_root_segment(rev, zk + base.z, 1) and seg.w1 == () and not seg.chamber_ok


def test_analyze_segment_swap_symmetry():
    for text, painted, direction in [
        ("A1xA1", (), (1, -1)),
        ("A2xA2", (1, 3), (1, 0, -1, 0)),
        ("A2", (1,), (1, 0)),
    ]:
        flag, j = _flag_j(text, painted)
        vec = CartanVector(tuple(Fraction(c) for c in direction))
        base = make_base(flag, j, vec)
        rev = make_base(flag, j, -vec)
        zk = ricci_invariant(flag, j)
        z1 = zk + base.z
        seg = analyze_segment(base, z1, 2)
        seg_rev = analyze_segment(rev, z1 - base.z.scale(2), 2)
        assert (seg.m1, seg.m2) == (seg_rev.m2, seg_rev.m1)
        assert seg.overall_ok == seg_rev.overall_ok


def test_analyze_segment_matches_the_per_root_oracle():
    # every flag of each group, the center-basis directions and their negatives, exact at the period scales 1 and
    # 1/3 and float, at the Einstein endpoints Z1 = Zk + m1 Z of four degree pairs: analyze_segment on its
    # (Z1, C Z) table and the verdict's segment on the (Zk, Z) table of its obstruction are the oracle's, field
    # for field; on exact ends build_segment_polynomial raises DegreeMismatchError exactly when the verdict's
    # walls miss the degrees, with the verdict's computed degrees
    counts = collections.Counter()
    for text in ("A1xA1", "A2", "B2", "G2", "A2xA2", "A1xA1xA1", "B3"):
        rank = rs(text).rank
        for painted in (p for k in range(rank) for p in itertools.combinations(range(rank), k)):
            flag, j = _flag_j(text, painted)
            zk = ricci_invariant(flag, j)
            for b in flag.center_basis:
                for d in (b.values, tuple(-v for v in b.values)):
                    for direction, tau in ((CartanVector(d), Fraction(1)), (CartanVector(d), Fraction(1, 3)),
                                           (CartanVector(tuple(float(v) for v in d)), Fraction(1))):
                        base = make_base(flag, j, direction, period_scale=tau)
                        for m1, m2 in ((1, 1), (1, 2), (2, 2), (3, 1)):
                            z1 = zk + base.z.scale(m1)
                            length = float(m1 + m2) if base.z.kind == "float" else Fraction(m1 + m2)
                            want = per_root_segment(base, z1, length)
                            verdict = ke_verdict(base, zk, m1, m2)
                            assert analyze_segment(base, z1, length) == want
                            assert verdict.segment == want
                            counts["rows"] += 1
                            counts[base.z.kind] += 1
                            counts["walls"] += bool(want.w1 or want.w2)
                            counts["wall_free_ends"] += (not want.w1) + (not want.w2)
                            counts["failures"] += bool(want.failures)
                            if base.z.kind == "float":
                                continue
                            try:
                                build_segment_polynomial(base, m1, m2)
                                assert verdict.degrees_match
                            except DegreeMismatchError as exc:
                                assert not verdict.degrees_match and exc.details["computed"] == verdict.degrees
                                counts["mismatch"] += 1
    # the oracle tests the closure at a wall-free end, where analyze_segment relies on j's validation
    kinds = ("rational", "quadratic", "float", "walls", "failures", "wall_free_ends", "mismatch")
    assert min(counts[k] for k in kinds) > 0 and counts["mismatch"] < counts["rows"] - counts["float"], counts
    # a length in Z's own field: Z is quadratic on B2 with nothing painted, and so is the segment's far end
    flag, j = _flag_j("B2")
    base = make_base(flag, j, CartanVector((Fraction(1), Fraction(1))))
    zk, r = ricci_invariant(flag, j), base.z.split[3]
    length = 3 * Quad(Fraction(1), Fraction(1, 2), r)
    assert base.z.kind == "quadratic" and analyze_segment(base, zk, length) == per_root_segment(base, zk, length)
    # an exact end within FLOAT_WALL_TOL of a wall, on a float segment, is signed exactly: no wall
    flag, j = _flag_j("A2")
    base, z1 = make_base(flag, j, CartanVector((-1.0, 1.0))), CartanVector((Fraction(1, 10 ** 12), Fraction(3)))
    want = per_root_segment(base, z1, 0.5)
    assert want.overall_ok and analyze_segment(base, z1, 0.5) == want


@pytest.mark.parametrize("text, painted, searched", [("A2xA2xA2", (1, 3, 5), True), ("A1xA1xA1", (), True),
                                                     ("G2xA2", (2,), True), ("A3", (), False), ("B3", (), False)])
def test_float_isotropy_modules_match_the_per_root_oracle(text, painted, searched):
    # the tables keyed (X, Z), with their ends at X + c Z: (Zk, Z) of a verdict and its segment polynomial, and
    # (Z1, C Z) of analyze_segment: at the float candidates of the diameter search, and at the float
    # check-segment directions, the center basis and its negatives at four degree pairs; equal keys in R_m+
    # order, a float vector's values of the type evaluate gives, and an exact vector's the integers (u, v, den, r)
    # of its split, no Fraction, which pair_scalar takes to evaluate's values.  On the full flags of A3 and B3 a
    # root has up to three nonzero terms, whose float sum depends on their order
    flag, j = _flag_j(text, painted)
    zk = ricci_invariant(flag, j)
    found = [CartanVector(c.z_values) for c in search_diameters(make_base(flag, j, flag.center_basis[0])).candidates
             if not c.confirmed_exact] if searched else []
    pairs = [(zk, z) for z in found] + [(zk + z, z.scale(2)) for z in found]
    for b in flag.center_basis:
        for sign in (1, -1):
            z = make_base(flag, j, CartanVector(tuple(sign * float(v) for v in b.values))).z
            pairs += [(zk, z)] + [(zk + z.scale(m1), z.scale(m1 + m2)) for m1, m2 in ((1, 1), (1, 2), (2, 2), (3, 1))]
    assert len(found) > 0 or not searched
    assert all(y.kind == "float" for _, y in pairs)
    for x, y in pairs:
        got, want = isotropy_modules(flag, j, x, y), per_root_isotropy_modules(j, x, y)
        assert got[1:] == want[1:] == (None, None)
        assert all(type(v) is float or list(map(type, v[:3])) == [int] * 3 for key in got[0] for v in key)
        values = {tuple(pair_scalar(*v) if type(v) is tuple else v for v in key): roots
                  for key, roots in got[0].items()}
        assert list(values.items()) == list(want[0].items())
        for a, b in zip(values, want[0]):
            assert [(type(v), repr(v)) for v in a] == [(type(v), repr(v)) for v in b]


def test_exact_isotropy_modules_match_the_per_root_oracle():
    # seeded flags of the sweep groups and E6-E8 with 1-3 unpainted nodes; under (Zk, Zk), which merges the
    # classes of equal alpha(Zk), (Zk, q) for an integer center vector q, (Zk, Z) for its normalized Z (rational
    # or quadratic), the Einstein endpoints (Z1, Z2) at random degrees, and (X, Z) for an integer X off the
    # center: the tables of the center classes are the per-root ones (keys, their order, the roots of each in
    # R_m+ order, den and r), some merged modules interleave the roots of their classes, and _center_modules
    # is the per-root one
    rng = random.Random(35)
    counts = collections.Counter()
    for _ in range(210):
        text = rng.choice(SWEEP_GROUPS + ["E6", "E7", "E8"])
        rank = rs(text).rank
        unpainted = rng.sample(range(rank), rng.randint(1, min(3, rank - 1)))
        flag, j = _flag_j(text, [i for i in range(rank) if i not in unpainted])
        zk = ricci_invariant(flag, j)
        q = [0] * rank
        while not any(q):
            q = [rng.randint(-2, 2) if i in unpainted else 0 for i in range(rank)]
        q = CartanVector(tuple(map(Fraction, q)))
        z = make_base(flag, j, q, period_scale=rng.choice([Fraction(1), Fraction(1, 3)])).z
        off = list(q.values)  # q moved off the center at one painted node
        off[rng.choice(sorted(flag.painted))] += rng.choice([1, -1])
        pairs = [(zk, zk), (zk, q), (zk, z), ke_endpoints(zk, z, rng.randint(1, 3), rng.randint(1, 3)),
                 (CartanVector(tuple(off)), z)]
        classes = _restriction_classes(flag, j)
        for x, y in pairs:
            got, want = isotropy_modules(flag, j, x, y), per_root_exact_isotropy_modules(j, x, y)
            assert list(got[0].items()) == list(want[0].items()) and got[1:] == want[1:], (text, flag.painted)
            counts["cases"] += 1
            counts[y.kind] += 1
            if any(x.values[i] for i in flag.painted):
                counts["off center"] += 1
            elif len(got[0]) < len(classes):
                counts["merged"] += 1
                # a merged module's roots in R_m+ order, not class after class
                counts["interleaved"] += any(roots != tuple(a for _, c in classes for a in c if a in roots)
                                             for roots in got[0].values())
        table, at_zk, z_den = _center_modules(flag, j, zk)
        want = per_root_center_modules(flag, j, zk)
        assert (list(table.items()), at_zk, z_den) == (list(want[0].items()),) + want[1:]
    kinds = ("rational", "quadratic", "off center", "merged", "interleaved")
    assert counts["cases"] >= 1000 and min(counts[k] for k in kinds) > 0, counts


def test_one_grouping_and_one_ricci_element_per_structure(monkeypatch):
    # futaki then analyze_segment, and ke_verdict with its segment, group R_m+ by restriction once and build
    # Zk once per (flag, j); so does a walled search for all its points; j revalidated on a second flag
    # object groups and builds again.  An exact verdict read through its segment builds one module table, the
    # (Zk, Z) table of its obstruction, and analyze_segment one, of (Z1, C Z)
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(flag_module, "_group_by_restriction", counting("grouping", flag_module._group_by_restriction))
    monkeypatch.setattr(flag_module, "coroot_vector", counting("zk", flag_module.coroot_vector))
    monkeypatch.setattr(model_module, "isotropy_modules", counting("tables", model_module.isotropy_modules))
    flag, j = _flag_j("A2xA2", (1, 3))
    base = make_base(flag, j, CartanVector((Fraction(1), Fraction(0), Fraction(-1), Fraction(0))))
    rep = futaki(flag, j, base.z, 1, 1)
    z1, _ = ke_endpoints(ricci_invariant(flag, j), base.z, 1, 1)
    assert counts == {"grouping": 1, "zk": 1, "tables": 1}, counts
    assert rep.vanishes and analyze_segment(base, z1, Fraction(2)).overall_ok
    assert counts == {"grouping": 1, "zk": 1, "tables": 2}, counts
    counts.clear()
    flag, j = _flag_j("E6", (0, 2, 3, 4))
    base = make_base(flag, j, flag.center_basis[0] - flag.center_basis[1])
    verdict = ke_verdict(base, ricci_invariant(flag, j), 1, 2)
    assert verdict.futaki.exact and verdict.segment is not None and sphere_in_chamber(flag, j).min_distance_sq > 0
    assert counts == {"grouping": 1, "zk": 1, "tables": 1}, counts
    counts.clear()
    flag, j = _flag_j("A2", (1,))
    found = search_walled(make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3)), 3, 1)
    assert [c.z_values for c in found] == [(Fraction(-1, 6), Fraction(0))]
    assert counts == {"grouping": 1, "zk": 1, "tables": 1}, counts  # the one point's verdict and segment
    zk = ricci_invariant(flag, j)
    table = _center_modules(flag, j, zk)[0]
    counts.clear()
    other = build_flag(flag.rs, [1])
    require_complex_structure(other, j)
    assert j.valid_on is other and ricci_invariant(other, j) == zk and ricci_invariant(other, j) is not zk
    assert _center_modules(other, j, ricci_invariant(other, j))[0] == table
    assert counts == {"grouping": 1, "zk": 1}, counts


def test_projective_space_test_through_full_wall():
    # painting all but the first node makes R_m+ a single A-chain; the origin
    # endpoint has every positive root as a wall and still passes the test
    flag, j = _flag_j("A3", (1, 2))
    base = make_base(flag, j, -flag.center_basis[0], period_scale=Fraction(1, 4))
    origin = CartanVector(tuple(Fraction(0) for _ in range(flag.rs.rank)))
    seg = analyze_segment(base, origin, 4)
    assert seg.m1 == len(j.positive) + 1
    assert seg.m2 == 1
    assert seg.chamber_ok and seg.degrees_ok and seg.projection_ok


def test_projective_space_test_matches_the_fraction_oracle():
    # seeded random wall sets, one to five roots of R_m+ each, on every flag of the sweep groups and E6 with a
    # center; the integer test must give the oracle's failure list, and the oracle reaches each clause it keeps
    # but the two the model proves unreachable (see `_projective_space_test`)
    rng = random.Random(34)
    kinds = collections.Counter()
    for text in SWEEP_GROUPS + ["E6"]:
        system = rs(text)
        flags = [build_flag(system, p) for p in paintings(text) if len(p) < system.rank]
        for _ in range(60):
            flag = rng.choice(flags)
            positive = default_complex_structure(flag).positive
            chosen = rng.sample(positive, rng.randint(1, min(5, len(positive))))
            walls = tuple(sorted(r for a in chosen for r in (a, -a)))
            got, want = _projective_space_test(flag, walls), fraction_projective_space_test(flag, walls)
            assert got == want, (text, flag.painted, walls)
            kinds.update(re.sub(r"\(.*?\)|\d+", "#", f) for f in want)
    assert set(kinds) == {"wall roots spread over # simple components", "wall component has # nodes, expected #",
                          "wall component branches; not a path", "wall component has roots of two lengths",
                          "multiple bond inside wall component", "expected exactly one non-painted node, found #",
                          "non-painted node is not terminal in the path"}, kinds


def test_projection_violation_loops_over_the_walls_alone():
    # _projection_violation pairs R_m+ \ W with the walls W alone, and segment_checks.closure_violation, the loop it
    # replaced, with R_K and then W: both report the same first pair.  Seeded over the flags of the sweep groups and
    # E6, each under the complex structure of a random chamber of its center: wall sets that are unions of
    # restriction classes of R_m+ with their negatives, as every end's walls are, and the walls of segments from the
    # origin and between the Einstein endpoints, chamber failures among them
    rng = random.Random(39)
    counts = collections.Counter()
    for text in SWEEP_GROUPS + ["E6"]:
        system = rs(text)
        flags = [build_flag(system, p) for p in paintings(text) if len(p) < system.rank]
        for _ in range(6):
            flag = rng.choice(flags)
            h = None
            while h is None or any(evaluate(alpha, h) == 0 for alpha in flag.r_m):
                h = CartanVector(tuple(map(Fraction, [0] * system.rank)))
                for b in flag.center_basis:
                    h = h + b.scale(rng.randint(-3, 3))
            j = InvariantComplexStructure(tuple(alpha for alpha in flag.r_m if evaluate(alpha, h) > 0))
            walls = [frozenset(r.coords for _, roots in _restriction_classes(flag, j) if rng.random() < 0.3
                               for alpha in roots for r in (alpha, -alpha)) for _ in range(4)]
            base = make_base(flag, j, flag.center_basis[rng.randrange(flag.center_dim)].scale(rng.choice([1, -1])))
            origin = CartanVector((Fraction(0),) * system.rank)
            for seg in (analyze_segment(base, origin, rng.randint(1, 3)),
                        ke_verdict(base, ricci_invariant(flag, j), rng.randint(1, 3), rng.randint(1, 3)).segment):
                walls += [frozenset(r.coords for r in w) for w in (seg.w1, seg.w2)]
                counts["chamber_failures"] += bool(seg.w1 or seg.w2) and not seg.chamber_ok
            for w in walls:
                got = _projection_violation(flag, j, w)
                assert got == closure_violation(flag, j, w), (text, flag.painted, sorted(w))
                counts["walls"] += bool(w)
                counts["violations"] += got is not None
    assert counts["walls"] > 300 and counts["violations"] > 50 and counts["chamber_failures"] > 10, counts


def test_walled_segments_are_classified_without_fraction_pairings():
    # the projective-space test pairs roots on the integer dual form; the package has no Fraction pairing
    # (the one the oracles use is segment_checks.dual_pairing)
    assert not hasattr(RootSystem, "dual_pairing")
    walled, failed = 0, 0
    for text in ("A2", "B2", "G2", "B3", "A1xA2", "A3", "A2xA2"):
        rank = rs(text).rank
        origin = CartanVector((Fraction(0),) * rank)
        for painted in (p for k in range(rank) for p in itertools.combinations(range(rank), k)):
            flag, j = _flag_j(text, painted)
            zk = ricci_invariant(flag, j)
            for b in flag.center_basis:
                for direction in (b, -b):  # from the origin, every root of R_m+ that Z moves is a wall there
                    base = make_base(flag, j, direction)
                    for z1 in (origin, zk + base.z, zk + base.z.scale(2)):
                        seg = analyze_segment(base, z1, 3)
                        walled += bool(seg.w1 or seg.w2)
                        failed += not seg.degrees_ok
    assert walled > 0 and failed > 0, (walled, failed)


def test_projection_failure_detected():
    # When the chamber condition holds, wall sums can never escape the
    # positive cone, so a genuine projection failure needs a segment that
    # also violates the chamber: a non-standard (still parabolic) structure
    # with an endpoint on the wall of its lone negative-looking root.
    from flagke.flag import InvariantComplexStructure, validate_complex_structure
    from flagke.rootsys import Root

    flag = build_flag(rs("A2"), [])
    j = InvariantComplexStructure((Root((-1, 0)), Root((0, 1)), Root((1, 1))))
    assert validate_complex_structure(flag, j).ok
    base = make_base(flag, j, CartanVector((Fraction(1), Fraction(-2))))
    z1 = CartanVector((Fraction(1), Fraction(0)))  # on the wall of (0, 1)
    seg = analyze_segment(base, z1, Fraction(1, 10))
    assert sorted(r.coords for r in seg.w1) == [(0, -1), (0, 1)]
    assert not seg.projection_ok
    assert any("holomorphic" in f for f in seg.failures)
    assert not seg.chamber_ok  # projection failures only occur off-chamber


# ---------------------------------------------------------------------------
# parametrization checks


def _grid(delta, f):
    t = np.linspace(0.0, delta, 200)
    return t, f(t)


def test_check_parametrization_accepts_model_profile():
    # f = C/2 (1 - cos(pi t / d)) has f''(0) = C pi^2 / (2 d^2) = -f''(d);
    # with C = 2 and d = pi the end curvatures are exactly +-1
    delta, length = math.pi, 2.0
    t, f = _grid(delta, lambda t: length / 2 * (1 - np.cos(np.pi * t / delta)))
    verdict = check_parametrization(t, f, delta, length)
    assert verdict.curvature_ok and verdict.ok


def test_check_parametrization_rejects_wrong_curvature():
    delta, length = 1.0, 2.0
    t, f = _grid(delta, lambda t: length / 2 * (1 - np.cos(np.pi * t / delta)))
    verdict = check_parametrization(t, f, delta, length)
    assert not verdict.curvature_ok and not verdict.ok


def test_check_parametrization_rejects_constant():
    t = np.linspace(0.0, 1.0, 64)
    verdict = check_parametrization(t, np.full_like(t, 0.5), 1.0, 0.5)
    assert not verdict.monotone_ok and not verdict.ok


def test_check_parametrization_needs_resolution():
    with pytest.raises(InputError):
        check_parametrization([0, 1], [0, 1], 1.0, 1.0)


def test_check_parametrization_needs_an_increasing_grid():
    # the stencils divide by the step t[1] - t[0]
    with pytest.raises(InputError, match="increasing"):
        check_parametrization([0.0] * 16, [float(i) for i in range(16)], 1.0, 15.0)


def test_segment_derivative_is_scaled_direction():
    # d/dt (Z1 - f Z) = -f' Z: on the per-root representation a - k f the
    # f-coefficient is exactly -alpha(Z)
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    zk = ricci_invariant(flag, j)
    z1 = zk + base.z
    for alpha in j.positive:
        a0 = evaluate(alpha, z1)
        k0 = evaluate(alpha, base.z)
        for fval in (Fraction(1, 7), Fraction(3, 5)):
            assert evaluate(alpha, z1 - base.z.scale(fval)) == a0 - k0 * fval


def test_futaki_report_equality_ignores_the_table_and_the_product():
    flag, j = _flag_j("A2xA2", [1, 3])
    base = make_base(flag, j, CartanVector((Fraction(1), Fraction(0), Fraction(-1), Fraction(0))))
    rep = futaki(flag, j, base.z, 1, 1)
    assert rep.table is not None and rep.product is not None
    bare = FutakiReport(rep.value, rep.vanishes, rep.exact, rep.tol)
    assert bare.table is None and bare == rep and hash(bare) == hash(rep)
    assert hash(rep) == hash((rep.value, rep.vanishes, rep.exact, rep.tol, rep.error_bound))
    assert repr(rep) == "FutakiReport(value=Fraction(0, 1), vanishes=True, exact=True, tol=0.0, error_bound=None)"
    assert FutakiReport(Fraction(1), False, True, 0.0, table=rep.table) != rep
    with pytest.raises(AttributeError):
        rep.table = None


def test_make_base_checks_a_structure_once_per_flag(monkeypatch):
    import flagke.flag as flag_module

    calls = []
    check = flag_module.validate_complex_structure
    monkeypatch.setattr(flag_module, "validate_complex_structure", lambda flag, j: calls.append(j) or check(flag, j))
    flag, j = _flag_j("A2")
    z = CartanVector((Fraction(1), Fraction(-1)))
    assert j.valid_on is flag
    make_base(flag, j, z)
    assert calls == []  # a default structure is valid by construction
    own = InvariantComplexStructure(j.positive)
    assert own == j and own.valid_on is None
    make_base(flag, own, z)
    make_base(flag, own, z)
    assert calls == [own] and own.valid_on is flag
    other = build_flag(rs("A2"), [])
    make_base(other, own, z)
    assert calls == [own, own] and own.valid_on is other
    bad = InvariantComplexStructure((Root((1, 0)), Root((0, 1)), Root((-1, -1))))
    for _ in range(2):
        with pytest.raises(InputError, match="closure fails"):
            make_base(flag, bad, z)
    assert bad.valid_on is None and calls == [own, own, bad, bad]
