import copy
import json
import os
import pickle
import random
from fractions import Fraction

import pytest

from flagke.errors import InputError, InternalError
from flagke.rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    RootSystem,
    _validate,
    build_root_system,
    cartan_matrix,
    classical_root_count,
    coroot_vector,
    evaluate,
    killing,
)
from segment_checks import all_pairs_reflection_closed, dual_pairing, invert

RANK_8_SPECS = (["A%d" % r for r in range(1, 9)] + ["B%d" % r for r in range(2, 9)] + ["C%d" % r for r in range(2, 9)]
                + ["D%d" % r for r in range(2, 9)] + ["G2", "F4", "E6", "E7", "E8"])
with open(os.path.join(os.path.dirname(__file__), "rootsys_golden.json")) as _fh:
    GOLDEN_SPECS = sorted(json.load(_fh))


def killing_brute(system, h1, h2):
    """E(H1, H2) summed root by root; the independent oracle for `killing`."""
    out = Fraction(0)
    for beta in system.roots:
        out = out + evaluate(beta, h1) * evaluate(beta, h2)
    return out


def rs(text):
    return build_root_system(LieAlgebraSpec.parse(text))


def test_a1_is_forced():
    system = rs("A1")
    assert len(system.roots) == 2
    assert sorted(r.coords for r in system.roots) == [(-1,), (1,)]


def test_a2_gram_by_outer_product_oracle():
    system = rs("A2")
    assert len(system.roots) == 6
    # oracle: enumerate {a1, a2, a1+a2} and both signs, sum outer products
    vecs = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    gram = [[sum(v[i] * v[j] for v in vecs) for j in range(2)] for i in range(2)]
    assert gram == [[4, 2], [2, 4]]
    assert [list(row) for row in system.gram] == gram


def test_a1xa1_gram_diagonal():
    system = rs("A1xA1")
    assert len(system.roots) == 4
    assert [list(r) for r in system.gram] == [[2, 0], [0, 2]]


def test_parse_and_invalid_inputs():
    assert str(LieAlgebraSpec.parse("a2 X b3")) == "A2xB3"
    with pytest.raises(InputError):
        LieAlgebraSpec.parse("H3")
    with pytest.raises(InputError):
        LieAlgebraSpec.parse("E5")
    with pytest.raises(InputError):
        LieAlgebraSpec.parse("F5")
    with pytest.raises(InputError):
        LieAlgebraSpec.parse("G3")
    with pytest.raises(InputError):
        LieAlgebraSpec.parse("D1")
    with pytest.raises(InputError):
        LieAlgebraSpec(())


def test_evaluate_examples():
    system = rs("A1")
    alpha = system.simple_roots()[0]
    h = CartanVector((Fraction(1, 2),))
    assert evaluate(alpha, h) == Fraction(1, 2)

    a2 = rs("A2")
    a1_, a2_ = a2.simple_roots()
    h = CartanVector((Fraction(2, 7), Fraction(-1, 3)))
    assert evaluate(a1_ + a2_, h) == evaluate(a1_, h) + evaluate(a2_, h)
    assert evaluate(a1_, coroot_vector(a2, a1_)) == Fraction(1, 3)


def test_coroot_examples():
    a1 = rs("A1")
    h = coroot_vector(a1, a1.simple_roots()[0])
    assert h.values == (Fraction(1, 2),)

    a2 = rs("A2")
    h1 = coroot_vector(a2, a2.simple_roots()[0])
    assert h1.values == (Fraction(1, 3), Fraction(-1, 6))

    for system in (a1, a2, rs("B2"), rs("G2")):
        for alpha in system.roots:
            assert evaluate(alpha, coroot_vector(system, alpha)) > 0


def test_killing_examples():
    a1 = rs("A1")
    h = coroot_vector(a1, a1.simple_roots()[0])
    assert killing(a1, h, h) == Fraction(1, 2)

    prod = rs("A1xA1")
    h1 = coroot_vector(prod, prod.simple_roots()[0])
    h2 = coroot_vector(prod, prod.simple_roots()[1])
    assert killing(prod, h1, h2) == 0
    assert killing(prod, h1, h1) > 0


def test_coroot_reproduces_killing_pairing():
    system = rs("A2xB2")
    for alpha in system.roots:
        h_a = coroot_vector(system, alpha)
        assert evaluate(alpha, h_a) == killing(system, h_a, h_a)
        assert killing(system, h_a, h_a) > 0


def test_gram_consistency_100_random_rational_pairs():
    rng = random.Random(20240811)
    systems = [rs("A2"), rs("A1xA1"), rs("B2xA1"), rs("C3"), rs("D4")]
    for i in range(100):
        system = systems[i % len(systems)]
        n = system.rank

        def rand_vec():
            return CartanVector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)))

        h1, h2 = rand_vec(), rand_vec()
        assert killing(system, h1, h2) == killing_brute(system, h1, h2)
        if not h1.is_zero:
            assert killing(system, h1, h1) > 0


@pytest.mark.parametrize("text", RANK_8_SPECS)
def test_counts_and_closure_up_to_rank_8(text):
    # construction validates classical counts, definite sign, block support,
    # positive definiteness and reflection closure; surviving it is the test
    system = rs(text)
    fam, rank = system.spec.components[0]
    assert len(system.roots) == classical_root_count(fam, rank)


@pytest.mark.parametrize("text", sorted(set(RANK_8_SPECS) | set(GOLDEN_SPECS)))
def test_simple_reflection_check_and_the_all_pairs_oracle_accept_every_built_system(text):
    system = rs(text)
    _validate(system)
    assert all_pairs_reflection_closed(system)


@pytest.mark.parametrize("text", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_root_strings_are_unbroken(text):
    # closure in the string form: {k : alpha + k beta is a root} is an
    # interval around 0 for any root pair, a property a defective set breaks
    system = rs(text)
    rset = system.root_set()
    roots = list(system.roots)
    for a in roots:
        for b in roots:
            if b.coords == a.coords or b.coords == tuple(-c for c in a.coords):
                continue
            ks = [k for k in range(-4, 5)
                  if tuple(x + k * y for x, y in zip(a.coords, b.coords)) in rset]
            assert ks == list(range(min(ks), max(ks) + 1))


@pytest.mark.parametrize(
    "text,dual_coxeter",
    [("A1", 2), ("A2", 3), ("A5", 6), ("B3", 5), ("B4", 7), ("C3", 4), ("C4", 5),
     ("D4", 6), ("D5", 8), ("G2", 4), ("F4", 9), ("E6", 12), ("E7", 18), ("E8", 30)],
)
def test_long_root_norm_is_inverse_dual_coxeter(text, dual_coxeter):
    # with E the trace form of the adjoint representation, long roots satisfy
    # |alpha|^2 = 1/g*; an identity independent of how the roots were built
    system = rs(text)
    norms = {dual_pairing(system, r.coords, r.coords) for r in system.roots}
    assert max(norms) == Fraction(1, dual_coxeter)
    assert len(norms) <= 2  # at most two root lengths


def test_product_block_structure():
    system = rs("A2xG2")
    assert len(system.roots) == 6 + 12
    for root in system.roots:
        sup = root.support()
        assert (max(sup) < 2) or (min(sup) >= 2)


def test_cartan_matrices_in_bourbaki_numbering():
    assert cartan_matrix("B", 3) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert cartan_matrix("C", 3) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert cartan_matrix("D", 4) == [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    assert cartan_matrix("G", 2) == [[2, -1], [-3, 2]]
    assert cartan_matrix("F", 4) == [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    e8 = cartan_matrix("E", 8)
    edges = {(i + 1, j + 1) for i in range(8) for j in range(i + 1, 8) if e8[i][j]}
    assert edges == {(1, 3), (3, 4), (4, 5), (2, 4), (5, 6), (6, 7), (7, 8)}
    assert cartan_matrix("E", 6) == [row[:6] for row in e8[:6]]


def _with_roots(system, positive):
    """The system with new roots (both signs) and the Gram data they imply."""
    coords = [tuple(c) for c in positive]
    n = system.rank
    gram = [[sum(2 * c[i] * c[j] for c in coords) for j in range(n)] for i in range(n)]
    return RootSystem(
        spec=system.spec,
        roots=tuple(sorted([Root(c) for c in coords] + [Root(tuple(-x for x in c)) for c in coords])),
        gram=tuple(tuple(row) for row in gram),
        gram_inverse=tuple(tuple(row) for row in invert(gram)),
    )


@pytest.mark.parametrize("text,block", [("F4", 0), ("E8", 0), ("B3xG2", 0), ("B3xG2", 1)])
def test_closure_check_rejects_a_raised_highest_root(text, block):
    # theta + alpha_i is never a root; swapping it for the highest root theta of
    # one factor keeps count, signs, blocks and a definite Gram, so only the
    # reflection closure can reject the set
    system = rs(text)
    start, stop = system.spec.blocks()[block]
    positive = [list(r.coords) for r in system.positive_roots]
    top = max((c for c in positive if any(c[start:stop])), key=sum)
    _validate(_with_roots(system, positive))
    for i in range(start, stop):
        raised = [c if c is not top else c[:i] + [c[i] + 1] + c[i + 1:] for c in positive]
        with pytest.raises((InputError, InternalError), match="reflection-closed|Cartan pairing"):
            _validate(_with_roots(system, raised))


@pytest.mark.parametrize("gram", [((4, 2), (2, 1)), ((1, 2), (2, 1)), ((0, 1), (1, 4)), ((-4, -2), (-2, -4))])
def test_gram_that_is_not_positive_definite_raises(gram):
    system = rs("A2")
    with pytest.raises(InputError, match="positive definite"):
        _validate(RootSystem(system.spec, system.roots, gram, system.gram_inverse))


@pytest.mark.parametrize("text,old,new", [("B3xG2", (0, 0, 1, 0, 0), (0, 0, 2, 0, 0)), ("A3", (0, 0, 1), (1, 0, 1))])
def test_reflection_test_alone_rejects_a_stray_vector(text, old, new):
    # under the true Gram matrix every pairing with the stray vector is an
    # integer, so the integrality check passes and only membership can fail
    system = rs(text)
    positive = [new if r.coords == old else r.coords for r in system.positive_roots]
    roots = tuple(sorted([Root(c) for c in positive] + [-Root(c) for c in positive]))
    stray = RootSystem(system.spec, roots, system.gram, system.gram_inverse)
    with pytest.raises(InputError, match="reflection-closed"):
        _validate(stray)


def test_non_integer_pairing_is_an_internal_error():
    system = rs("F4")
    positive = [list(r.coords) for r in system.positive_roots]
    positive[positive.index([2, 3, 4, 2])] = [3, 3, 4, 2]
    with pytest.raises(InternalError, match="non-integer Cartan pairing"):
        _validate(_with_roots(system, positive))


@pytest.mark.parametrize("positive,has_simple_roots,reduced,clause", [
    ([(1, 0), (0, 1), (0, 2)], True, False, "not reduced: \\(0, 2\\)"),  # A1 x BC1
    ([(0, 1), (1, 1), (1, 2)], False, True, "lacks the simple root alpha_0"),  # A2 on alpha_2, alpha_1 + alpha_2
])
def test_simple_reflection_check_rejects_sets_the_all_pairs_oracle_accepts(positive, has_simple_roots, reduced, clause):
    # both sets have six roots of definite sign, a positive-definite Gram matrix and are closed under the
    # reflections of their own roots; only the clause named fails, and closure, checked first, holds
    system = _with_roots(rs("A2"), positive)
    assert all_pairs_reflection_closed(system)
    assert ({(1, 0), (0, 1)} <= system.root_set()) == has_simple_roots
    assert (max(max(map(abs, c)) for c in system.root_set() if 0 in c) == 1) == reduced
    with pytest.raises(InputError, match=clause):
        _validate(system)


def test_split_vectors_agree_with_their_values():
    # a vector held as integers (u + v sqrt(R)) / den against the same values held as Fractions and Quads: every
    # operation gives equal values with equal reprs, whether it stays split (one field) or falls back to the values
    # (a float, or a radicand written differently: sqrt(8) = 2 sqrt(2))
    from flagke.polys import split_exact
    from flagke.scalars import Quad

    rng = random.Random(5)
    root2 = Fraction(2)

    def vector(radical):
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if not radical or rng.random() < 0.3 else
                     Quad(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(1, 3), rng.randint(1, 4)), root2)
                     for _ in range(4))

    scalars = [3, -1, Fraction(-2, 5), 0.75, Quad(Fraction(0), Fraction(1, 3), root2),
               Quad(Fraction(1), Fraction(-1, 2), Fraction(8))]
    for _ in range(30):
        xs, ys = vector(rng.random() < 0.5), vector(rng.random() < 0.5)
        x, y = CartanVector(xs), CartanVector(ys)
        sx, sy = (CartanVector.from_split(*split_exact(v)) for v in (xs, ys))
        assert sx == x and repr(sx) == repr(x) and hash(sx) == hash(x)
        assert (sx.kind, sx.is_zero) == (x.kind, x.is_zero)
        for got, want in [(sx + sy, x + y), (sx - sy, x - y), (-sx, -x), (sx + y, x + y)]:
            assert repr(got.values) == repr(want.values)
        for s in scalars:
            assert repr(sx.scale(s).values) == repr(x.scale(s).values), s
    eight = CartanVector.from_split([0, 1], [1, 0], 1, Fraction(8))
    assert repr((eight + CartanVector.from_split([0, 0], [0, 1], 1, root2)).values) == repr(
        (CartanVector(eight.values) + CartanVector((Fraction(0), Quad(Fraction(0), Fraction(1), root2)))).values)


def test_root_orders_compares_and_hashes_as_its_coordinates():
    a, b, c = Root((0, 1)), Root((1, 0)), Root((1, 0))
    assert a < b and a <= b and b > a and b >= a and b <= c and b >= c and not b < c
    assert sorted([b, a, -b]) == [-b, a, b] and max(a, b) is b
    assert b == c and a != b and b != (1, 0) and Root((1, 0)) in {c}
    assert hash(b) == hash(c) == hash(((1, 0),))
    # so a set of roots iterates in the order of the set of their 1-tuples
    coords = [(1, 0), (0, 1), (1, 1), (-2, -1), (3, 2)]
    assert [r.coords for r in set(map(Root, coords))] == [t for (t,) in {(t,) for t in coords}]
    assert repr(b) == "Root(coords=(1, 0))"
    with pytest.raises(TypeError):
        a < (1, 0)


def test_records_are_frozen_and_compare_by_their_fields():
    system = rs("A2")
    spec = system.spec
    for record, name in [(Root((1, 0)), "coords"), (spec, "components"), (system, "gram"), (system, "dual_form")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        system.extra = 1
    assert spec == LieAlgebraSpec((("A", 2),)) and hash(spec) == hash(((("A", 2),),))
    assert repr(spec) == "LieAlgebraSpec(components=(('A', 2),))"
    same = RootSystem(system.spec, system.roots, system.gram, system.gram_inverse)
    assert same == system and hash(same) == hash((system.spec, system.roots, system.gram, system.gram_inverse))
    assert copy.deepcopy(system) == system == pickle.loads(pickle.dumps(system))


def test_dual_form_is_computed_once():
    system = rs("E6")
    fresh = RootSystem(system.spec, system.roots, system.gram, system.gram_inverse)
    assert "dual_form" not in vars(fresh)
    first = fresh.dual_form
    assert vars(fresh)["dual_form"] is first and fresh.dual_form is first and first == system.dual_form
