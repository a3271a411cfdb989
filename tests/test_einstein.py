import collections
import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from flagke import einstein as ein
from flagke import flag as flag_module
from flagke import diameters, linalg, model, walled
from flagke.errors import DegreeMismatchError, InputError, NoKahlerEinsteinError
from flagke.flag import (_center_gram, _center_modules, build_flag, default_complex_structure, ricci_invariant,
                         sphere_in_chamber)
from flagke.model import (FUTAKI_FLOAT_TOL, CenterLine, futaki, ke_endpoints, ke_verdict,
                          make_base)
from flagke.polys import float_linear_product, int_linear_product, int_taylor_shift, pair_scalar, pair_sign
from flagke.rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    build_root_system,
    coroot_vector,
    evaluate,
    killing,
)
from flagke.scalars import Quad, scalar_is_zero, scalar_sign
from sweep_searches import GROUPS as SWEEP_GROUPS
from sweep_searches import paintings
from segment_checks import (
    p_eval,
    q_coeffs,
    u_exact,
    u_float,
    CENTER_FLAGS,
    center_flags,
    chart_integrand,
    RATIONALIZE_TOL,
    circle_zeros,
    circle_zeros_by_np_roots,
    diameter_obstruction,
    exact_sqrt,
    first_integral_identity_numerator,
    fraction_solve,
    general_basis_center,
    homogenized_obstruction,
    int_shifted_antiderivative,
    integer_direction,
    isotropy_homogenized_obstruction,
    p_antideriv,
    p_deriv,
    p_mul,
    p_trim,
    pair_linear_product,
    pair_poly,
    per_root_sphere_in_chamber,
    ricci_tangential,
    root_subset_walled,
    scaled_ricci_control,
    scan_search_diameters,
    unit_norm_solutions,
    value_table,
)


def rs(text):
    return build_root_system(LieAlgebraSpec.parse(text))


def _flag_j(text, painted=()):
    flag = build_flag(rs(text), painted)
    return flag, default_complex_structure(flag)


def _simpson_oracle(flag, j, z_float, m1, m2, panels=10 ** 6):
    """Composite Simpson evaluation of the obstruction integral."""
    zk = ricci_invariant(flag, j)
    zkv = np.array([float(evaluate(a, zk)) for a in j.positive])
    kv = np.array([float(evaluate(a, CartanVector(tuple(z_float)))) for a in j.positive])
    y = np.linspace(-m1, m2, 2 * panels + 1)
    vals = y * np.prod(zkv[:, None] - np.outer(kv, y), axis=0)
    h = (m1 + m2) / (2 * panels)
    w = np.ones_like(y)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, vals) * h / 3.0)


def p_linear_product(modules):
    """prod (a - k x)^d over exact modules (a, k) -> d in integers: the `split_exact` keys of the values
    multiplied by `int_linear_product`, then one Fraction or Quad per coefficient."""
    table, den, r = value_table(modules)
    return pair_poly(*int_linear_product(table, r), den ** sum(modules.values()), r)


@lru_cache(maxsize=32)
def _per_root_product(factors):
    """prod (a - k x) one root at a time in Fraction/Quad arithmetic.

    The oracle for the integer module kernel `p_linear_product`;
    ``factors`` is a tuple of (a, k) pairs.
    """
    poly = [Fraction(1)]
    for a, k in factors:
        poly = p_mul(poly, [a, -k])
    return p_trim(poly)


def _float_futaki_per_root(flag, j, z, m1, m2):
    """The float obstruction as futaki formed it root by root: a p_mul chain, then term by term.

    Returns the value, the roundoff bound futaki reported with it, and the
    sum of the terms' magnitudes, the scale on which rounding acts.
    """
    zk = ricci_invariant(flag, j)
    poly = [Fraction(0)] + _per_root_product(tuple((evaluate(a, zk), evaluate(a, z)) for a in j.positive))
    lo, hi, big = -Fraction(m1), Fraction(m2), float(max(m1, m2))
    val = bound = scale = 0.0
    for k, c in enumerate(poly):
        c = float(c)
        term = c * (float(hi) ** (k + 1) - float(lo) ** (k + 1)) / (k + 1)
        val += term
        scale += abs(term)
        bound += abs(c) * big ** (k + 1) * 2.0 / (k + 1)
    return val, bound * len(poly) * np.finfo(float).eps * 8, scale


def _futaki_oracle(flag, j, z, m1, m2):
    """integral_{-m1}^{m2} y * prod alpha(Zk - y Z) dy, term by term from the per-root product."""
    zk = ricci_invariant(flag, j)
    poly = [Fraction(0)] + _per_root_product(tuple((evaluate(a, zk), evaluate(a, z)) for a in j.positive))
    lo, hi = -Fraction(m1), Fraction(m2)
    out = Fraction(0)
    for k, c in enumerate(poly):
        if not scalar_is_zero(c):
            out = out + c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return out


def _assert_identical(got, want):
    assert got == want and repr(got) == repr(want)


def _assert_matches_oracle(flag, j, z, degrees):
    """futaki and the segment polynomial of (flag, j, z) against per-root `evaluate` values, bit for bit.

    Every root of R_m+ sits in exactly one module, whose key, read through
    `pair_scalar`, is that root's (alpha(Zk), alpha(Z)); the coefficients of
    the polynomial and of its reversal are the per-root products of
    (alpha(Z1), alpha(Z)) and (alpha(Z2), -alpha(Z)).
    """
    base = CenterLine(flag=flag, j=j, z=z)
    zk = ricci_invariant(flag, j)
    for m1, m2 in degrees:
        _assert_identical(futaki(flag, j, z, m1, m2).value, _futaki_oracle(flag, j, z, m1, m2))
        sp = ein.SegmentPolynomial.from_base(base, m1, m2)
        z1, z2 = ke_endpoints(zk, z, m1, m2)
        assert sum(len(roots) for roots in sp.modules.values()) == len(j.positive)
        assert sorted(a for roots in sp.modules.values() for a in roots) == sorted(j.positive)
        for (a0, a1, k0, k1), roots in sp.modules.items():
            for alpha in roots:
                assert (evaluate(alpha, zk), evaluate(alpha, z)) == (pair_scalar(a0, a1, sp.den, sp.r),
                                                                    pair_scalar(k0, k1, sp.den, sp.r))
        for poly, end, k in ((sp, z1, z), (sp.reversed(), z2, -z)):
            per_root = tuple((evaluate(a, end), evaluate(a, k)) for a in j.positive)
            _assert_identical(poly.coeffs, _per_root_product(per_root))


# ---------------------------------------------------------------------------
# endpoints and the obstruction


def test_ke_endpoints_midpoint_identity():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    zk = ricci_invariant(flag, j)
    z1, z2 = ke_endpoints(zk, base.z, 1, 1)
    assert (z1 - z2).values == base.z.scale(2).values
    mid = (z1 + z2).scale(Fraction(1, 2))
    assert mid.values == zk.values
    # the wall hit: alpha_2(Z1) = 0 exactly
    assert evaluate(flag.rs.simple_roots()[1], z1) == 0

    la1, lj1 = _flag_j("A1")
    b1 = make_base(la1, lj1, coroot_vector(la1.rs, la1.rs.simple_roots()[0]))
    z1a, _ = ke_endpoints(ricci_invariant(la1, lj1), b1.z, 1, 1)
    assert evaluate(la1.rs.simple_roots()[0], z1a) == Fraction(1, 2) + Quad(Fraction(0), Fraction(1, 2), Fraction(2))

    norm = killing(flag.rs, z1 - z2, z1 - z2)
    assert norm == 4  # (m1 + m2)^2


def test_futaki_su2_exact_value():
    flag, j = _flag_j("A1")
    base = make_base(flag, j, coroot_vector(flag.rs, flag.rs.simple_roots()[0]))
    rep = futaki(flag, j, base.z, 1, 1)
    assert rep.exact
    assert rep.value == Quad(Fraction(0), Fraction(-1, 3), Fraction(2))
    assert not rep.vanishes


def test_futaki_product_values():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    rep_minus = futaki(flag, j, make_base(flag, j, h1 - h2).z, 1, 1)
    assert rep_minus.value == 0 and rep_minus.vanishes
    rep_plus = futaki(flag, j, make_base(flag, j, h1 + h2).z, 1, 1)
    assert rep_plus.value == Fraction(-1, 3) and not rep_plus.vanishes


def test_futaki_simpson_oracle_agreement():
    flag, j = _flag_j("A1")
    base = make_base(flag, j, coroot_vector(flag.rs, flag.rs.simple_roots()[0]))
    simpson = _simpson_oracle(flag, j, [float(v) for v in base.z.values], 1, 1)
    assert abs(simpson - float(futaki(flag, j, base.z, 1, 1).value)) < 1e-9


def test_futaki_float_path_reports_bound():
    flag, j = _flag_j("A1xA1")
    z = CartanVector((0.5, -0.5))
    rep = futaki(flag, j, z, 1, 1)
    assert not rep.exact
    assert rep.error_bound is not None and rep.error_bound < 1e-12
    assert rep.vanishes  # odd integrand, zero to roundoff


def test_change_of_variable_equivalence_random_configs():
    rng = random.Random(7)
    families = ["A", "B", "C", "D"]
    done = 0
    while done < 25:
        fam = rng.choice(families)
        rank = rng.randint(2 if fam != "A" else 1, 4)
        system = rs("%s%d" % (fam, rank))
        painted = tuple(i for i in range(system.rank) if rng.random() < 0.4)
        if len(painted) == system.rank:
            continue
        flag = build_flag(system, painted)
        j = default_complex_structure(flag)
        vals = [Fraction(0)] * system.rank
        for b in flag.center_basis:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            vals = [x + c * y for x, y in zip(vals, b.values)]
        z = CartanVector(tuple(vals))
        if z.is_zero:
            continue
        m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
        lhs = futaki(flag, j, z, m1, m2).value
        base = CenterLine(flag=flag, j=j, z=z)
        rhs = ein.futaki_shifted(base, m1, m2)
        assert lhs == rhs, (fam, rank, painted, m1, m2)
        _assert_matches_oracle(flag, j, z, [(m1, m2)])
        done += 1


# the groups of the benchmark's `decide` workload, and its antisymmetric G x G factors
DECIDE_GROUPS = ["A2", "A4", "A6", "A8", "B3", "B5", "C4", "C6", "D4", "D6",
                 "G2", "F4", "E6", "E7", "E8", "A1xA1", "A2xA2", "B2xG2"]
ANTISYMMETRIC = ["A2", "A5", "B3", "D4", "G2", "F4"]
ALL_DEGREES = [(m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)]


@pytest.mark.parametrize("group", DECIDE_GROUPS)
def test_integer_kernel_matches_per_root_oracle_on_quadratic_directions(group):
    rng = random.Random(group)
    system = rs(group)
    big = len(system.positive_roots) > 60  # E7, E8: the end node alone keeps |R_m+| and the oracle small
    while True:
        unpainted = [system.rank - 1] if big else rng.sample(range(system.rank), min(2, system.rank))
        flag = build_flag(system, [i for i in range(system.rank) if i not in unpainted])
        j = default_complex_structure(flag)
        z = [Fraction(rng.randint(-2, 2)) if i in unpainted else Fraction(0) for i in range(system.rank)]
        if any(z):
            base = make_base(flag, j, CartanVector(tuple(z)))
            if base.z.kind == "quadratic":
                break
    _assert_matches_oracle(flag, j, base.z, ALL_DEGREES)


@pytest.mark.parametrize("g", ANTISYMMETRIC)
def test_integer_kernel_matches_per_root_oracle_on_antisymmetric_diameters(g):
    n = LieAlgebraSpec.parse(g).rank
    node = random.Random(g).randrange(n)
    flag, j = _flag_j("%sx%s" % (g, g), [i for i in range(2 * n) if i not in (node, n + node)])
    z = [Fraction(0)] * (2 * n)
    z[node], z[n + node] = Fraction(1), Fraction(-1)
    base = make_base(flag, j, CartanVector(tuple(z)))
    assert futaki(flag, j, base.z, 1, 1).value == 0
    _assert_matches_oracle(flag, j, base.z, ALL_DEGREES)


def test_integer_kernel_matches_oracle_with_rational_and_sqrt_parts():
    # an unnormalised center direction whose entries have both parts, as
    # search_walled produces them
    flag, j = _flag_j("A2xA2", (1, 3))
    z = CartanVector((Quad(Fraction(1), Fraction(1), Fraction(2)), Fraction(0),
                      Quad(Fraction(1, 3), Fraction(-2, 5), Fraction(2)), Fraction(0)))
    _assert_matches_oracle(flag, j, z, ALL_DEGREES)
    assert isinstance(futaki(flag, j, z, 1, 2).value, Quad)


def _multiplicities(factors):
    """{(a, k): d} from per-root factors, equal factors merged."""
    modules = {}
    for key in factors:
        modules[key] = modules.get(key, 0) + 1
    return modules



def _random_modules(rng, shape):
    """A random module table of integer keys (a0, a1, k0, k1): shape "rational" has a1 = k1 = 0, "radical"
    a1 = k0 = 0 (a rational Zk against a normalized direction), "mixed" every part."""
    table = {}
    for _ in range(rng.randint(0, 9)):
        a0, a1, k0, k1 = (rng.randint(-9, 9) for _ in range(4))
        key = {"rational": (a0, 0, k0, 0), "radical": (a0, 0, 0, k1), "mixed": (a0, a1, k0, k1)}[shape]
        table[key] = rng.randint(1, 3)
    return table


def test_one_list_products_match_the_pair_product():
    # a one-list table takes its factors with k = 0 as one constant and the others two at a time:
    # tables with a constant, and with an odd and an even number of the others, all occur
    rng = random.Random(17)
    seen = collections.Counter()
    for r, shape in itertools.product((None, Fraction(12), Fraction(18), Fraction(3, 2)),
                                      ("rational", "radical", "mixed")):
        if r is None and shape != "rational":
            continue
        for _ in range(40):
            table = _random_modules(rng, shape)
            assert int_linear_product(table, r) == pair_linear_product(table, r), (r, table)
            if shape != "mixed":
                ks = [(key[2] if shape == "rational" else key[3], d) for key, d in table.items()]
                seen["constant"] += any(k == 0 for k, _ in ks)
                seen["odd" if sum(d for k, d in ks if k) % 2 else "even"] += 1
    assert min(seen[c] for c in ("constant", "odd", "even")) >= 20, seen


def test_shifted_antiderivative_taylor_shift_and_pair_signs_match_the_scalar_forms():
    rng = random.Random(23)
    for r in (None, Fraction(12), Fraction(18), Fraction(3, 2)):
        for _ in range(30):
            table = _random_modules(rng, "rational" if r is None else "mixed")
            us, vs = int_linear_product(table, r)
            den, m, s = rng.randint(1, 30), rng.randint(1, 3), rng.randint(-4, 4)
            coeffs = pair_poly(us, vs, den, r)
            _assert_identical(int_shifted_antiderivative(us, vs, den, r, m),
                              p_antideriv(p_mul(coeffs, [-Fraction(m), Fraction(1)])))
            for cs in (us, vs):  # sum c_n (x + s)^n against its binomial expansion
                binomial = [sum(math.comb(n, k) * s ** (n - k) * c for n, c in enumerate(cs[k:], k))
                            for k in range(len(cs))]
                assert int_taylor_shift(cs, s) == binomial
            for u, v in zip(us, vs):
                assert pair_sign(u, v, r) == scalar_sign(pair_scalar(u, v, den, r))
    assert int_shifted_antiderivative([0, 0], [0, 0], 1, None, 1) == []


@pytest.mark.parametrize("group", SWEEP_GROUPS)
def test_futaki_matches_the_per_root_oracle_and_the_shifted_integral_on_sweep_flags(group):
    # every flag of the sweep group at two seeded integer center directions with entries in -2..2, the first
    # against the per-root Quad product and the second against the change of variables (each oracle costs
    # several times futaki itself)
    rng = random.Random(group)
    system = rs(group)
    for painted in paintings(group):
        flag = build_flag(system, painted)
        if not flag.center_dim:
            continue
        j = default_complex_structure(flag)
        for n in range(2):
            z = [0] * system.rank
            while not any(z):
                z = [rng.randint(-2, 2) if i in flag.unpainted else 0 for i in range(system.rank)]
            base = make_base(flag, j, CartanVector(tuple(map(Fraction, z))))
            m1, m2 = rng.choice((1, 2)), rng.choice((1, 2))
            oracle = _futaki_oracle(flag, j, base.z, m1, m2) if n == 0 else ein.futaki_shifted(base, m1, m2)
            _assert_identical(futaki(flag, j, base.z, m1, m2).value, oracle)


def test_reversed_structure_and_negated_direction_keep_every_verdict():
    # (j, q) -> (j.reversed(), -q) at the same degrees and period scale: alpha -> -alpha and Z -> -Z leave
    # every module value (alpha(Zk), alpha(Z)) as it was, so the obstruction, the verdict, both wall sets and
    # the segment polynomial with its antiderivative agree; on every sweep group's full flag and three seeded
    # flags with a center, one per degree pair
    rng = random.Random(41)
    for group in SWEEP_GROUPS:
        system = rs(group)
        centered = [p for p in paintings(group) if 0 < len(p) < system.rank]
        for painted, (m1, m2) in zip([()] + rng.sample(centered, min(3, len(centered))),
                                     [(1, 1), (1, 2), (2, 1), (3, 2)]):
            flag = build_flag(system, painted)
            j = default_complex_structure(flag)
            q = [0] * system.rank
            while not any(q):
                q = [rng.randint(-2, 2) if i in flag.unpainted else 0 for i in range(system.rank)]
            tau = rng.choice((Fraction(1), Fraction(1, 3)))
            seen = []
            for jj, qq in ((j, q), (j.reversed(), [-x for x in q])):
                base = make_base(flag, jj, CartanVector(tuple(map(Fraction, qq))), period_scale=tau)
                zk = ricci_invariant(flag, jj)
                verdict = ke_verdict(base, zk, m1, m2)
                sp = ein.SegmentPolynomial.from_base(base, m1, m2, verdict=verdict)
                seg = verdict.segment
                seen.append((repr(verdict.futaki.value), verdict.ok, verdict.admissible, verdict.degrees, seg.w1,
                             seg.w2, repr(sp.coeffs), repr(q_coeffs(sp))))
            assert seen[0] == seen[1], (group, painted, q, m1, m2, tau)


def test_linear_product_kernel_on_hand_built_factors():
    half = Fraction(3, 2)  # a non-integer radicand: sqrt(3/2) = sqrt(6)/2
    factors = (
        (Quad(Fraction(1, 2), Fraction(-3, 7), half), Quad(Fraction(2), Fraction(5, 3), half)),
        (Fraction(4, 9), Quad(Fraction(0), Fraction(1, 4), half)),
        (Quad(Fraction(1, 2), Fraction(-3, 7), half), Quad(Fraction(2), Fraction(5, 3), half)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(7, 2)),
    )
    assert len(_multiplicities(factors)) == 4
    _assert_identical(p_linear_product(_multiplicities(factors)), _per_root_product(factors))
    _assert_identical(p_linear_product(_multiplicities(factors[3:])), _per_root_product(factors[3:]))
    _assert_identical(p_linear_product({}), [Fraction(1)])
    _assert_identical(p_linear_product(_multiplicities([(Fraction(0), Fraction(0)), factors[1]])), [])
    floats = [(0.5, -1.25), (Fraction(1, 3), 2.0), (0.5, -1.25)]
    a, k = (np.array([float(f[i]) for f in floats]) for i in range(2))
    assert float_linear_product(zip(a, k)) == _per_root_product(tuple(floats))
    with pytest.raises(ValueError, match="mixed radicands"):
        p_linear_product({factors[1]: 1, (Quad(Fraction(1), Fraction(1), Fraction(5)), Fraction(1)): 1})


def test_float_product_kernel_is_the_p_mul_chain_bit_for_bit():
    rng = random.Random(2101)
    for _ in range(2000):
        n = rng.randint(0, 24)
        a = [rng.choice([0.0, rng.uniform(-4, 4)]) for _ in range(n)]
        k = [rng.choice([0.0, rng.uniform(-4, 4), 2.0 ** rng.randint(-40, 40)]) for _ in range(n)]
        poly = [Fraction(1)]
        for ai, ki in zip(a, k):
            poly = p_mul(poly, [ai, -ki])
        got = float_linear_product(zip(a, k))
        assert got == [float(c) for c in p_trim(poly)]


@pytest.mark.parametrize("group, painted", [("A2xA2", (1, 3)), ("A2xA3", (1, 3, 4)), ("A2xA2xA2", (1, 3, 5)),
                                            ("B3", (1,)), ("E6", (0, 1, 2, 3, 4)), ("A1xA1xA1", ())])
def test_float_futaki_matches_the_per_root_loop(group, painted):
    # the np.convolve chain of the scan against futaki's former p_mul chain
    # and term-by-term sum: values agree to rounding on the terms' scale
    flag, j = _flag_j(group, painted)
    rng = random.Random(group)
    for _ in range(10):
        z = [0.0] * flag.rs.rank
        for b in flag.center_basis:
            c = rng.uniform(-1, 1)
            z = [x + c * float(y) for x, y in zip(z, b.values)]
        z = CartanVector(tuple(z))
        for m1, m2 in ((1, 1), (1, 2), (3, 2)):
            rep = futaki(flag, j, z, m1, m2)
            value, bound, scale = _float_futaki_per_root(flag, j, z, m1, m2)
            assert not rep.exact and rep.tol == FUTAKI_FLOAT_TOL
            assert abs(rep.value - value) <= 1e-15 * scale
            assert abs(rep.error_bound - bound) <= 1e-15 * bound
            assert rep.vanishes == (abs(value) <= max(FUTAKI_FLOAT_TOL, bound))


def test_log_deriv_sums_match_per_root_sums():
    # module sums weighted by multiplicity against sums over R_m+, root by
    # root; s1 cancels on antisymmetric data, so it is measured on sum |k/g|
    bases = []
    for g in ANTISYMMETRIC + ["E6"]:
        n = LieAlgebraSpec.parse(g).rank
        node = 3 if g == "E6" else 0
        flag, j = _flag_j("%sx%s" % (g, g), [i for i in range(2 * n) if i not in (node, n + node)])
        z = [Fraction(0)] * (2 * n)
        z[node], z[n + node] = Fraction(1), Fraction(-1)
        bases.append(make_base(flag, j, CartanVector(tuple(z))))
    flag, j = _flag_j("A2xA3", (1, 3, 4))
    bases.append(CenterLine(flag=flag, j=j, z=CartanVector((0.3, 0.0, -0.2, 0.0, 0.0))))  # float modules
    f = np.linspace(0.01, 1.99, 199)
    for base in bases:
        sp = ein.SegmentPolynomial.from_base(base, 1, 1)
        z1, _ = ke_endpoints(ricci_invariant(base.flag, base.j), base.z, 1, 1)
        a, k = (np.array([float(evaluate(alpha, x)) for alpha in base.j.positive]) for x in (z1, base.z))
        kg = k / (a - np.multiply.outer(f, k))
        s1, s2 = sp.log_deriv_sums(f)
        assert np.all(np.abs(s1 - kg.sum(axis=-1)) <= 1e-15 * np.abs(kg).sum(axis=-1))
        assert np.all(np.abs(s2 - (kg ** 2).sum(axis=-1)) <= 1e-15 * (kg ** 2).sum(axis=-1))


def _count_quads(monkeypatch, fn):
    """The number of Quad constructions fn() makes."""
    return _count_calls(monkeypatch, Quad, "__init__", fn)


def _count_calls(monkeypatch, owner, name, fn):
    """The number of calls fn() makes to owner.name."""
    count = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    fn()
    monkeypatch.undo()
    return count[0]


def test_exact_obstruction_builds_at_most_one_quad(monkeypatch):
    flag, j = _flag_j("E8", [i for i in range(8) if i != 1])
    base = make_base(flag, j, flag.center_basis[0])
    assert base.z.kind == "quadratic"
    reports = []
    n_quads = _count_quads(monkeypatch, lambda: reports.append(futaki(flag, j, base.z, 1, 2)))
    assert n_quads <= 1  # the per-root product built 9530
    assert isinstance(reports[0].value, Quad)


def test_segment_polynomial_builds_no_quad_and_one_fraction_per_segment(monkeypatch):
    # the E6 x E6 antisymmetric diameter at node 3: Z is a pure radical, but the roots pair off with opposite
    # alpha(Z), so E(y) is even and P = E(x - 1) and Q are rational; every float, of a coefficient or of a
    # module's alpha(Zk), alpha(Z) and alpha(Z1), is rounded from integers, and the only Fraction of a segment
    # is its length f_delta
    flag, j = _flag_j("E6xE6", [i for i in range(12) if i not in (3, 9)])
    z = [Fraction(0)] * 12
    z[3], z[9] = Fraction(1), Fraction(-1)
    base = make_base(flag, j, CartanVector(tuple(z)))
    assert base.z.kind == "quadratic"
    sp = ein.SegmentPolynomial.from_base(base, 1, 1)
    assert sum(k != 0 for k in sp.k_f) == 6

    def build():
        ein.build_segment_polynomial(base, 1, 1).deflations

    # 14362 Quads with per-root products; 42, 12 and 18 with module values split again and reversed in Quads;
    # 24, 12 and 12 with alpha(Z) built again for the reversed segment; 18, 12 and 6 with the coefficients
    # and the module floats built as Fractions and Quads, and 576 Fractions for the build with both charts
    assert _count_quads(monkeypatch, build) == 0
    assert _count_quads(monkeypatch, lambda: ein.SegmentPolynomial.from_base(base, 1, 1)) == 0
    assert _count_quads(monkeypatch, sp.reversed) == 0
    assert _count_calls(monkeypatch, Fraction, "__new__", build) <= 2


# ---------------------------------------------------------------------------
# segment polynomial and the first integral


def _toy_sp():
    # P(v) = (1 - v/2)(v/2): factors with a wall at v = 0, from (alpha(Zk), alpha(Z)) with Z1 = Zk + Z
    modules = {
        (Fraction(1, 2), Fraction(1, 2)): [Root((1, 0))],
        (Fraction(1, 2), Fraction(-1, 2)): [Root((0, 1))],
    }
    return ein.SegmentPolynomial(*value_table(modules), 1, 1)


def test_u_eval_worked_example():
    sp = _toy_sp()
    assert p_eval(sp.coeffs, Fraction(1)) == Fraction(1, 4)
    assert p_trim(p_deriv(sp.coeffs)) == [Fraction(1, 2), Fraction(-1, 2)]
    assert u_exact(sp, Fraction(1)) == Fraction(1, 2)
    assert ein.u_eval(sp, 1.0) == 0.5
    # u(0+) -> 0
    assert abs(u_exact(sp, Fraction(1, 10 ** 6))) < Fraction(1, 10 ** 5)


def test_u_nonzero_at_far_end_when_obstruction_nonzero():
    # walls on both far ends: the lazy deflation reports the degree clash
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 + h2)
    sp = ein.SegmentPolynomial.from_base(base, 1, 1)
    # oracle: the shifted integral equals the obstruction value, nonzero
    assert p_eval(q_coeffs(sp), sp.f_delta) == futaki(flag, j, base.z, 1, 1).value != 0
    with pytest.raises(DegreeMismatchError):
        _ = sp.deflations

    # wall-free non-vanishing configuration: u stays away from 0 at the far end
    flag4, j4 = _flag_j("A2xA2", (1, 3))
    direction = CartanVector((Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    base4 = make_base(flag4, j4, direction)
    sp4 = ein.build_segment_polynomial(base4, 1, 1)
    assert p_eval(q_coeffs(sp4), sp4.f_delta) == futaki(flag4, j4, base4.z, 1, 1).value != 0
    with pytest.raises(NoKahlerEinsteinError):
        _ = sp4.deflations
    assert abs(u_exact(sp4, Fraction(1999, 1000))) > Fraction(1, 100)


def test_q_end_is_q_at_the_far_end_by_horner():
    # Q(m1+m2) from its integer sums is Horner's rule on the exact list Q, in value, type and printed
    # form: along each flag's normalized first basis vector (Quad coefficients where the norm is
    # irrational), along a rational direction and along its float twin; the deflations quote it
    kinds = set()
    for group in ["A2", "B2", "G2", "A3", "B3", "C3", "A2xA2", "A1xA1xA1"]:
        system = rs(group)
        for painted in (p for k in range(system.rank) for p in itertools.combinations(range(system.rank), k)):
            flag, j = _flag_j(group, painted)
            rational = functools.reduce(operator.add, (b.scale(k + 1) for k, b in enumerate(flag.center_basis)))
            bases = [make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3)),
                     CenterLine(flag=flag, j=j, z=rational),
                     CenterLine(flag=flag, j=j, z=CartanVector(tuple(float(x) for x in rational.values)))]
            for base in bases:
                for m1, m2 in [(1, 1), (1, 2), (2, 1), (2, 2)]:
                    sp = ein.SegmentPolynomial.from_base(base, m1, m2)
                    want = p_eval(q_coeffs(sp), sp.f_delta)
                    assert (sp.q_end, type(sp.q_end), str(sp.q_end)) == (want, type(want), str(want))
                    kinds.add(type(want))
    assert kinds == {Fraction, Quad, float}
    flag, j = _flag_j("A2xA2", (1, 3))
    sp = ein.build_segment_polynomial(make_base(flag, j, CartanVector((1, 0, 1, 0))), 1, 1)
    with pytest.raises(NoKahlerEinsteinError, match=re.escape("Q(m1+m2) = %s" % (sp.q_end,))):
        _ = sp.deflations


def test_u_float_on_non_einstein_segment():
    # pointwise evaluation stays available away from walls even when no
    # profile exists (the obstruction does not vanish)
    flag, j = _flag_j("A2xA2", (1, 3))
    direction = CartanVector((Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    base = make_base(flag, j, direction)
    sp = ein.SegmentPolynomial.from_base(base, 1, 1)
    exact = float(u_exact(sp, Fraction(3, 2)))
    assert abs(ein.u_eval(sp, 1.5) - exact) < 1e-12 * max(1.0, abs(exact))


def test_degree_mismatch_raises():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    with pytest.raises(DegreeMismatchError) as err:
        ein.build_segment_polynomial(base, 1, 1)
    assert err.value.details["computed"] == (2, 2)


def test_first_integral_identity_on_random_polynomials():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 6)
        m1 = rng.randint(1, 3)
        modules = {}
        for i in range(n):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            k = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            modules.setdefault((a - m1 * k, k), []).append(Root((i,)))  # equal keys merge into one module
        sp = ein.SegmentPolynomial(*value_table(modules), m1, 1)
        assert first_integral_identity_numerator(sp) == []


def test_log_derivative_identities():
    sp = _toy_sp()
    for f in (0.3, 0.9, 1.7):
        s1, s2 = sp.log_deriv_sums(f)
        p = p_eval(sp.coeffs, Fraction(f).limit_denominator(10 ** 9))
        dp = p_eval(p_deriv(sp.coeffs), Fraction(f).limit_denominator(10 ** 9))
        d2p = p_eval(p_deriv(p_deriv(sp.coeffs)), Fraction(f).limit_denominator(10 ** 9))
        assert abs(s1 + float(dp) / float(p)) < 1e-12
        assert abs(s2 - ((float(dp) / float(p)) ** 2 - float(d2p) / float(p))) < 1e-12


# ---------------------------------------------------------------------------
# the profile on the exact Einstein configuration


def _delta_by_ode(sp, eps_frac=1e-4):
    """delta by integrating the flow f' = sqrt(u(f)) in time, a third route.

    Starts on the series f = t^2/2 + c4 t^4 + c6 t^6 near 0, from the Taylor
    data of u = u1 f + u2 f^2 + u3 f^3 in the left chart, and stops a sliver
    before the far end, which is crossed in the right end chart.
    """
    chart = sp.deflations[0]
    p, q = (list(c) + [0.0, 0.0] for c in (chart.p_f, chart.q_f))
    u1 = -2 * q[0] / p[0]
    u2 = -2 * (q[1] - q[0] * p[1] / p[0]) / p[0]
    u3 = -2 * (q[2] - q[1] * p[1] / p[0] + q[0] * ((p[1] / p[0]) ** 2 - p[2] / p[0])) / p[0]
    assert abs(u1 - 2.0) < 1e-9
    c4, c6 = u2 / 24.0, u2 * u2 / 720.0 + u3 / 80.0
    fd = float(sp.f_delta)
    t0 = 1e-2 * min(1.0, fd)
    f0 = 0.5 * t0 * t0 + c4 * t0 ** 4 + c6 * t0 ** 6
    eps = eps_frac * max(1.0, fd)

    def hit_end(_t, y):
        return y[0] - (fd - eps)

    hit_end.terminal = True
    hit_end.direction = 1.0
    rhs = lambda _t, y: [math.sqrt(max(u_float(sp, y[0]), 0.0))]
    sol = solve_ivp(rhs, (t0, 1e4), [f0], rtol=1e-11, atol=1e-13, events=hit_end, max_step=0.05)
    tail = quad(lambda w: float(chart_integrand(sp, 1)(w)), 0.0, math.sqrt(eps), epsabs=1e-14)[0]
    return float(sol.t_events[0][0]) + tail


def test_profile_map_consistency(ke_base):
    sp = ein.build_segment_polynomial(ke_base, 1, 1)
    pmap = ein.ProfileMap(sp)
    assert pmap.t_of_f(0.0) == 0.0
    # dt/df = 1 / sqrt(u(f)) at 20 interior points, via central differences
    for f in np.linspace(0.1, 1.9, 20):
        h = 1e-5
        fd = (pmap.t_of_f(f + h) - pmap.t_of_f(f - h)) / (2 * h)
        assert abs(fd - 1.0 / math.sqrt(u_float(sp, f))) < 1e-6
    # three-route delta: the tables, tanh-sinh quadrature and the flow
    ts = ein.profile_delta_tanh_sinh(sp)
    assert abs(ts - pmap.delta) < 1e-14
    assert abs(_delta_by_ode(sp) - ts) < 1e-6


def test_profile_solution_boundary_and_symmetry(ke_profile):
    sp, prof = ke_profile
    assert prof.diagnostics["f_delta_error"] < 1e-8
    assert abs(prof.diagnostics["fpp0"] - 1.0) < 1e-4
    assert abs(prof.diagnostics["fpp_delta"] + 1.0) < 1e-4
    # midpoint symmetry for m1 = m2 symmetric data
    assert abs(prof.map.f_of_t(prof.delta / 2) - 1.0) < 1e-8
    # symmetric pairs sum to m1 + m2
    for s in (0.1, 0.4, 1.1):
        f_lo = prof.map.f_of_t(prof.delta / 2 - s)
        f_hi = prof.map.f_of_t(prof.delta / 2 + s)
        assert abs(f_lo + f_hi - 2.0) < 1e-8


def test_profile_roundtrip_identity(ke_profile):
    sp, prof = ke_profile
    for t in np.linspace(0.05, prof.delta - 0.05, 30):
        assert abs(prof.map.t_of_f(prof.map.f_of_t(t)) - t) < 1e-8


def test_solved_profile_is_admissible_parametrization(ke_profile):
    from flagke.model import check_parametrization

    sp, prof = ke_profile
    verdict = check_parametrization(prof.t, prof.f, prof.delta, float(sp.f_delta))
    assert verdict.ok and verdict.boundary_ok and verdict.monotone_ok
    assert verdict.symmetry_ok and verdict.curvature_ok


def test_ricci_tangential_and_normal_residuals(ke_profile):
    sp, prof = ke_profile
    ver = ein.verify_profile(sp, prof, n_check=64)
    assert ver["max_tangential_residual"] < 1e-6
    assert ver["max_normal_residual"] < 1e-6
    assert ver["normal_two_route_gap"] < 1e-6
    assert ver["delta_ode_gap"] < 1e-6
    assert prof.diagnostics["max_ode_residual"] < 1e-8


@pytest.mark.parametrize("n_check", [0, -3])
def test_verify_profile_rejects_fewer_than_one_check(ke_profile, n_check):
    sp, prof = ke_profile
    with pytest.raises(InputError, match="at least one check"):
        ein.verify_profile(sp, prof, n_check=n_check)


def test_ricci_single_root_evaluation(ke_profile, ke_base):
    sp, prof = ke_profile
    t = prof.delta / 3
    f = prof.map.f_of_t(t)
    z1, _ = ke_endpoints(ricci_invariant(ke_base.flag, ke_base.j), ke_base.z, 1, 1)
    for alpha in ke_base.j.positive:
        r = ricci_tangential(sp, prof, alpha, t)
        g = float(evaluate(alpha, z1)) - float(evaluate(alpha, ke_base.z)) * f  # the metric eigenvalue alpha(Z1 - f Z)
        assert abs(r / g - 1.0) < 1e-6
    with pytest.raises(InputError):
        ricci_tangential(sp, prof, Root((9, 9, 9, 9)), t)
    with pytest.raises(InputError):
        ricci_tangential(sp, prof, ke_base.j.positive[0], prof.delta * 2)


def test_q_odd_about_midpoint_for_symmetric_data(ke_profile):
    sp, prof = ke_profile
    mid = prof.delta / 2
    for s in (0.2, 0.5, 1.0):
        qs = []
        for t in (mid - s, mid + s):
            f = prof.map.f_of_t(t)
            fp2 = u_float(sp, f)
            fpp = sp.fp_fpp(f)[1]
            s1, _ = sp.log_deriv_sums(f)
            qs.append(fpp - fp2 * s1 / 2.0)
        assert abs(qs[0] + qs[1]) < 1e-8


def test_scaled_ricci_control_breaks_tangential_only(ke_base):
    sp = scaled_ricci_control(ke_base, 1, 1, Fraction(11, 10))
    prof = ein.profile_solve(sp, grid_size=130)
    ver = ein.verify_profile(sp, prof, n_check=16)
    assert ver["max_tangential_residual"] > 1e-2
    # the normal equation is a first-integral identity, insensitive to Zk
    assert ver["max_normal_residual"] < 1e-10


# ---------------------------------------------------------------------------
# searches


def test_sphere_check_product_of_su2():
    flag, j = _flag_j("A1xA1")
    chk = sphere_in_chamber(flag, j)
    assert not chk.ok
    assert chk.min_distance_sq == Fraction(1, 2)  # (1/2)^2 / (1/2)
    assert chk.min_distance_sq_center == Fraction(1, 2)


def test_sphere_check_cp3_flag_center_norm():
    flag, j = _flag_j("A3", (1, 2))
    chk = sphere_in_chamber(flag, j)
    assert chk.min_distance_sq == 1  # full dual norm formula
    assert chk.min_distance_sq_center == Fraction(3, 2)  # measured inside the center


@pytest.mark.parametrize("text, flags", CENTER_FLAGS)
def test_sphere_in_chamber_over_center_modules_matches_the_per_root_oracle(text, flags):
    for painted in center_flags(text, flags):
        flag, j = _flag_j(text, painted)
        assert sphere_in_chamber(flag, j) == per_root_sphere_in_chamber(flag, j), painted


@pytest.mark.parametrize("text, flags", CENTER_FLAGS)
def test_center_frame_matches_the_general_basis_oracle(text, flags):
    # the unit vectors of the unpainted nodes, their coordinate modules and the integer Gram
    # submatrix are the null-space basis, the modules over it and its Killing Gram matrix
    for painted in center_flags(text, flags):
        flag, j = _flag_j(text, painted)
        zk = ricci_invariant(flag, j)
        basis, modules, at_zk, gram = general_basis_center(flag, j, zk)
        table, got_zk, z_den = _center_modules(flag, j, zk)
        assert flag.center_basis == basis, painted
        assert list(table.items()) == list(modules.items()), painted
        assert [Fraction(a, z_den) for a in got_zk] == at_zk, painted
        assert _center_gram(flag) == gram, painted


def test_search_diameters_d1_no_candidates():
    flag, j = _flag_j("A2", (1,))
    base = make_base(flag, j, flag.center_basis[0])
    res = diameters.search_diameters(base)
    assert flag.center_dim == 1
    assert res.candidates == ()


def test_search_diameters_finds_exact_product_zero(ke_base):
    res = diameters.search_diameters(ke_base)
    assert not res.hypothesis.ok
    winners = [c for c in res.candidates if c.ke_ok]
    assert len(winners) == 1
    c = winners[0]
    assert c.confirmed_exact and c.verdict.futaki.exact and c.verdict.futaki.value == 0
    assert c.verdict.degrees == (1, 1)
    # the exact direction is (e1 - e2)/sqrt(2) up to overall sign
    mags = [abs(float(v)) for v in c.z_values]
    assert abs(mags[0] - math.sqrt(2) / 4) < 1e-12 and mags[1] == 0


def test_search_diameters_full_flag_zeros_inadmissible():
    flag, j = _flag_j("A2")
    base = make_base(flag, j, coroot_vector(flag.rs, flag.rs.simple_roots()[0]))
    res = diameters.search_diameters(base)
    assert res.candidates  # the symmetric zero is found...
    assert all(not c.ke_ok for c in res.candidates)  # ...but exits the chamber


def test_search_diameters_three_dimensional_center():
    # the zero locus is a curve on the 2-sphere; the 13 planes of the search meet it
    flag, j = _flag_j("A1xA1xA1")
    base = make_base(flag, j, flag.center_basis[0])
    with_default = diameters.search_diameters(base)
    assert flag.center_dim == 3
    assert with_default.candidates  # crossings exist away from the walls
    # per the sign analysis, none of the sampled zeros is chamber-admissible
    assert all(not c.ke_ok for c in with_default.candidates)


def test_search_diameters_triple_product_exact_zeros(ke_profile):
    # on the triple product the zero locus is a curve through the three pairwise-difference directions;
    # each lies on four of the planes n.Q = 0 and is found exactly, once, and the inert factor cancels from
    # u, reproducing the pair profile.  The other three zeros the planes meet are irrational
    flag, j = _flag_j("A2xA2xA2", (1, 3, 5))
    base = make_base(flag, j, flag.center_basis[0])
    res = diameters.search_diameters(base)
    assert len(res.candidates) == 6 and all(c.ke_ok for c in res.candidates)
    exact_ke = [c for c in res.candidates if c.confirmed_exact]
    assert len(exact_ke) == 3
    directions = set()
    for c in exact_ke:
        coords = [float(c.z_values[i]) for i in flag.unpainted]
        lead = next(x for x in coords if x)
        directions.add(tuple(round(x / lead) for x in coords))
    assert directions == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    c = exact_ke[0]
    b = CenterLine(flag=flag, j=j, z=CartanVector(c.z_values))
    sp = ein.build_segment_polynomial(b, 1, 1)
    prof = ein.profile_solve(sp, grid_size=128)
    _, pair_profile = ke_profile
    assert abs(prof.delta - pair_profile.delta) < 1e-10


# groups of rank <= 6 for the homogenized obstruction; those of rank <= 3 also as G x G
_HOMOGENIZED_GROUPS = ["A1", "A2", "A3", "A4", "A6", "B2", "B3", "B5", "C3", "C6", "D4", "D5", "D6", "G2", "F4", "E6",
                       "A1xA1", "A1xA1xA1", "A2xA2", "A2xG2", "B2xA1", "A3xA3", "B3xB3", "A2xA2xA2"]


def _center_vector_of(flag, q):
    """The exact vector with center coordinates q: the values q at the unpainted nodes and 0 elsewhere."""
    values = [Fraction(0)] * flag.rs.rank
    for i, x in zip(flag.unpainted, q):
        values[i] = Fraction(x)
    return CartanVector(tuple(values))


def _homogenized_cases(n, seed=13):
    """n random (flag, j, Q, tau): a painted flag of rank <= 6 with d in {1, 2, 3} and a nonzero integer center Q.

    Q is a random rational center vector times the common denominator of
    its coordinates.  Every third case is an antisymmetric diameter Q = c +
    (-c) on G x G with both factors painted alike and d = 2, where the
    obstruction vanishes.
    """
    gen = random.Random(seed)
    rational = lambda: Fraction(gen.randint(-6, 6), gen.randint(1, 4))
    for i in range(n):
        tau = gen.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)])
        if i % 3 == 2:
            text = gen.choice(["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
            rank = rs(text).rank
            keep = gen.randrange(rank)
            painted = [k for k in range(rank) if k != keep]
            flag, j = _flag_j("%sx%s" % (text, text), painted + [k + rank for k in painted])
            c = (rational() or Fraction(1)).numerator
            yield flag, j, [c, -c], tau
            continue
        text = gen.choice(_HOMOGENIZED_GROUPS)
        rank = rs(text).rank
        d = gen.randint(1, min(3, rank))
        flag, j = _flag_j(text, sorted(gen.sample(range(rank), rank - d)))
        coeffs = [rational() for _ in flag.center_basis]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        den = math.lcm(*(x.denominator for x in coeffs))
        yield flag, j, [int(x * den) for x in coeffs], tau


def test_homogenized_obstruction_decides_the_exact_futaki_sign():
    # the normalized obstruction through make_base and futaki is the oracle: F_h(Q) has its
    # sign, vanishes exactly with it, and is e^(J/2) times it, e = E(Q, Q)/tau^2
    vanishing = 0
    for flag, j, q, tau in _homogenized_cases(60):
        zk = ricci_invariant(flag, j)
        fh = homogenized_obstruction(_center_gram(flag), _center_modules(flag, j, zk), q, tau)
        z = _center_vector_of(flag, q)
        rep = futaki(flag, j, make_base(flag, j, z, period_scale=tau).z, 1, 1)
        assert isinstance(fh, Fraction)
        assert (fh > 0) - (fh < 0) == scalar_sign(rep.value)
        assert (fh == 0) == rep.vanishes
        e = killing(flag.rs, z, z) / (tau * tau)
        top = (len(j.positive) - 1) // 2  # (J - 1) / 2
        assert fh == rep.value * e ** top * exact_sqrt(e)
        vanishing += rep.vanishes
    assert vanishing >= 20


def test_homogenized_obstruction_on_the_cp2_product():
    flag, j = _flag_j("A2xA2", (1, 3))
    modules = _center_modules(flag, j, ricci_invariant(flag, j))
    at = lambda *q: homogenized_obstruction(_center_gram(flag), modules, q, Fraction(1))
    assert at(1, -1) == 0
    assert at(2, -1) < 0
    assert at(-2, 1) > 0  # F_h is odd


# the groups whose flags with a 1-, 2- or 3-dimensional center the integer F_h is checked on; every
# one of those flags has z_den > 1, where alpha(Q) must be scaled by z_den along with alpha(Zk)
_FRAME_GROUPS = ["A2xA2xA2", "A1xA1xA1", "G2xA2", "A4", "B3", "C4", "F4", "A2xB2"]


@pytest.mark.parametrize("text", _FRAME_GROUPS)
def test_homogenized_obstruction_matches_the_isotropy_module_oracle(text):
    # at seeded nonzero integer directions Q and tau in {1, 1/3}, the integer-frame F_h equals the
    # oracle's over the isotropy modules of the exact vector, so it has its sign; and it is odd and
    # homogeneous of degree J, the largest odd number <= |R_m+|
    gen = random.Random(text)
    rank = rs(text).rank
    for d in range(1, min(3, rank) + 1):
        for painted in itertools.combinations(range(rank), rank - d):
            flag, j = _flag_j(text, painted)
            zk = ricci_invariant(flag, j)
            modules, gram = _center_modules(flag, j, zk), _center_gram(flag)
            assert modules[2] > 1, painted
            n = len(j.positive)
            for tau in (Fraction(1), Fraction(1, 3)):
                for _ in range(3):
                    q = [gen.randint(-5, 5) for _ in range(d)]
                    q[gen.randrange(d)] = gen.choice([-3, -2, -1, 1, 2, 3])
                    fh = homogenized_obstruction(gram, modules, q, tau)
                    assert fh == isotropy_homogenized_obstruction(flag, j, zk, _center_vector_of(flag, q), tau)
                    assert homogenized_obstruction(gram, modules, [-x for x in q], tau) == -fh
                    assert homogenized_obstruction(gram, modules, [2 * x for x in q], tau) == 2 ** (n - 1 + n % 2) * fh


# flags with a 1-, 2- and 3-dimensional center for the plane forms
_PLANE_FLAGS = [("A2", (1,)), ("A2xA2", (1, 3)), ("A2xA2xA2", (1, 3, 5)), ("A1xA1xA1", (0,)), ("G2", ()),
                ("A3", (1,)), ("B3", (0,))]


@pytest.mark.parametrize("text, painted", _PLANE_FLAGS)
def test_plane_form_is_a_positive_multiple_of_the_homogenized_obstruction(text, painted):
    # on each line or plane of the search, at tau in {1, 1/3}, the form at integer s is one positive constant
    # times the oracle's F_h(s Q1 + Q2), and its top coefficient that constant times F_h(Q1): a degree below J
    # is a zero at Q1.  The form has J + 1 primitive integer coefficients
    flag, j = _flag_j(text, painted)
    modules, gram = _center_modules(flag, j, ricci_invariant(flag, j)), _center_gram(flag)
    n = len(j.positive)
    for tau in (Fraction(1), Fraction(1, 3)):
        for q1, q2 in diameters._planes(flag.center_dim):
            form = diameters._plane_form(gram, modules, q1, q2, tau)
            assert len(form) == n + n % 2 and math.gcd(*form) == 1
            pairs = [(form[-1], homogenized_obstruction(gram, modules, q1, tau))]
            for s in range(-3, 4):
                q = [s * x + y for x, y in zip(q1, q2)]
                if any(q):
                    pairs.append((p_eval(form, Fraction(s)), homogenized_obstruction(gram, modules, q, tau)))
            ratios = {value / fh for value, fh in pairs if fh}
            assert all((value == 0) == (fh == 0) for value, fh in pairs), (q1, q2)
            assert len(ratios) == 1 and ratios.pop() > 0, (q1, q2)


@pytest.mark.parametrize("text, painted, exact", [("A2xA2xA2", (1, 3, 5), 3), ("A2xA2", (1, 3), 1)])
def test_search_diameters_normalizes_each_zero_once(text, painted, exact, monkeypatch):
    # make_base runs once per candidate, on no other direction: 3 of the 6 zeros of A2 x A2 x A2 are exact
    flag, j = _flag_j(text, painted)
    base = make_base(flag, j, flag.center_basis[0])
    seen = []
    monkeypatch.setattr(diameters, "make_base", lambda *args, **kw: seen.append(args) or make_base(*args, **kw))
    res = diameters.search_diameters(base)
    assert len(seen) == len(res.candidates) and sum(c.confirmed_exact for c in res.candidates) == exact


def _scan_oracle(values_at, n_circles, degree, n_grid=720):
    """The 720-point sign-change scan that `circle_zeros` replaced, with brentq, as its oracle.

    A grid node with |F| <= FUTAKI_FLOAT_TOL is a zero; a sign change
    between two nodes is bracketed afresh at the computed end and refined
    by brentq.  Misses zeros of even multiplicity and zeros closer than a
    grid step.
    """
    thetas = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    step = 2 * math.pi / n_grid
    vals = values_at(np.repeat(np.arange(n_circles), n_grid), np.tile(thetas, n_circles)).reshape(n_circles, n_grid)
    out = []
    for c in range(n_circles):
        f = lambda th: float(values_at(np.array([c]), np.array([th]))[0])
        for i in range(n_grid):
            a, b = vals[c, i], vals[c, (i + 1) % n_grid]
            if abs(a) <= FUTAKI_FLOAT_TOL:
                out.append((c, thetas[i]))
            elif a * b < 0:
                th_b = thetas[i] + step
                fb = f(th_b)
                out.append((c, th_b if a * fb > 0 else brentq(f, thetas[i], th_b, xtol=1e-14)))
    return np.array([c for c, _ in out], dtype=int), np.array([t for _, t in out])


@pytest.mark.parametrize("text, painted", [("A2xA2", (1, 3)), ("A2", ()), ("F4", (0, 1)), ("E6", (0, 1, 2, 3))])
def test_exact_search_matches_the_float_scan_oracle(text, painted):
    # on a 2-dimensional center the exact search and the float scan of one circle that it replaced find the
    # same zeros: the exact ones bit for bit, the float ones within 1e-12, with the same verdicts
    flag, j = _flag_j(text, painted)
    base = make_base(flag, j, flag.center_basis[0])
    got, want = diameters.search_diameters(base).candidates, scan_search_diameters(base)
    assert len(got) == len(want) > 0
    assert [c.confirmed_exact for c in got] == [c.confirmed_exact for c in want]
    for c, w in zip(got, want):
        if c.confirmed_exact:
            assert c.z_values == w.z_values
        else:
            assert max(abs(x - y) for x, y in zip(c.z_values, w.z_values)) <= 1e-12
    assert [c.ke_ok for c in got] == [c.ke_ok for c in want]


def _on_one_circle(fn):
    return lambda circle, theta: fn(theta)


def _circle_distance(x, y):
    return abs(math.remainder(x - y, 2 * math.pi))


def test_circle_zeros_finds_a_double_zero_off_the_grid():
    f = _on_one_circle(lambda th: 1.0 - np.cos(th - 0.1234))
    circle, theta = circle_zeros(f, 1, 1)
    assert len(theta) > 0 and all(c == 0 for c in circle)
    assert max(_circle_distance(t, 0.1234) for t in theta) <= 1e-7
    assert len(_scan_oracle(f, 1, 1)[1]) == 0


def test_circle_zeros_separates_two_zeros_closer_than_a_grid_step():
    half = 0.5e-3
    f = _on_one_circle(lambda th: np.cos(th - 0.3) - math.cos(half))
    _, theta = circle_zeros(f, 1, 1)
    assert len(theta) == 2
    assert _circle_distance(theta[0], 0.3 - half) <= 1e-12 and _circle_distance(theta[1], 0.3 + half) <= 1e-12
    assert len(_scan_oracle(f, 1, 1)[1]) == 0


def test_circle_zeros_finds_a_zero_at_theta_zero():
    # sin(th)(2 + cos(3 th)): simple zeros at 0 and pi only, degree 4
    f = _on_one_circle(lambda th: np.sin(th) * (2.0 + np.cos(3 * th)))
    _, theta = circle_zeros(f, 1, 4)
    assert len(theta) == 2
    assert _circle_distance(theta[0], 0.0) <= 1e-15 and _circle_distance(theta[1], math.pi) <= 1e-15


def test_circle_zeros_orders_circles_and_hands_over_a_vanishing_circle():
    # circle 0 vanishes identically, circle 1 is cos(th): its M = 3 nodes, then pi/2 and 3 pi/2
    f = lambda circle, theta: np.where(circle == 1, np.cos(theta), 0.0)
    circle, theta = circle_zeros(f, 2, 1)
    assert circle.tolist() == [0, 0, 0, 1, 1]
    assert np.array_equal(theta[:3], 2 * math.pi * np.arange(3) / 3)
    assert abs(theta[3] - math.pi / 2) <= 1e-15 and abs(theta[4] - 3 * math.pi / 2) <= 1e-15


def _seeded_trig_circles(degree, circle_degrees, seed=5):
    """values_at of one random real trigonometric polynomial per circle, of the given degrees (-1: zero)."""
    gen = np.random.default_rng(seed)
    cos_sin = [(gen.normal(size=dc + 1), gen.normal(size=dc + 1)) if dc >= 0 else (np.zeros(1), np.zeros(1))
               for dc in circle_degrees]
    assert max(circle_degrees) <= degree

    def values_at(circle, theta):
        out = np.zeros(len(theta))
        for c, (a, b) in enumerate(cos_sin):
            at = circle == c
            kt = np.outer(theta[at], np.arange(len(a)))
            out[at] = np.cos(kt) @ a + np.sin(kt) @ b
        return out

    return values_at


def test_circle_zeros_stacked_eigenvalues_match_the_np_roots_oracle(monkeypatch):
    # trimmed degrees 3 and 5 in one call, an all-zero circle and a constant one (trimmed degree 0);
    # the per-circle np.roots loop is the oracle, bit for bit
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    for seed in range(4):
        values_at = _seeded_trig_circles(5, [3, 5, -1, 3, 0, 5, 5], seed)
        got = circle_zeros(values_at, 7, 5)
        want = circle_zeros_by_np_roots(values_at, 7, 5)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert set(got[0].tolist()) >= {0, 1, 2, 3, 5, 6} and 4 not in got[0]
    assert sorted(calls[:2]) == [(2, 6, 6), (3, 10, 10)]


@pytest.mark.parametrize("text, painted", [("A2xA2xA2", (1, 3, 5)), ("A1xA1xA1", ()), ("G2xA2", (2,))])
@pytest.mark.parametrize("tau", [Fraction(1), Fraction(1, 3)])
def test_float_candidates_lie_between_two_exact_sign_changes(text, painted, tau):
    # each float candidate is a root s of a plane's form, rounded, and the oracle F_h has opposite exact signs
    # at the directions t Q1 + Q2 of the floats t on either side of s
    flag, j = _flag_j(text, painted)
    modules, gram = _center_modules(flag, j, ricci_invariant(flag, j)), _center_gram(flag)
    floats = 0
    for q1, q2 in diameters._planes(flag.center_dim):
        for s in diameters._real_roots(diameters._plane_form(gram, modules, q1, q2, tau)):
            if isinstance(s, float):
                floats += 1
                signs = []
                for t in (math.nextafter(s, -math.inf), math.nextafter(s, math.inf)):
                    u, v = t.as_integer_ratio()
                    signs.append(scalar_sign(homogenized_obstruction(gram, modules, [u * x + v * y for x, y in
                                                                                    zip(q1, q2)], tau)))
                assert signs[0] == -signs[1] != 0, (q1, q2, s)
    res = diameters.search_diameters(make_base(flag, j, flag.center_basis[0], period_scale=tau))
    assert floats == sum(not c.confirmed_exact for c in res.candidates) > 0


def test_d3_search_builds_one_form_per_plane_and_no_float_scan(monkeypatch):
    # on A2 x A2 x A2 [1, 3, 5]: one form on each of the 13 planes, the roots of each isolated once, the 6 zeros
    # normalized once each (3 exact), and no eigenvalue call or root-by-root evaluation; the center Gram matrix
    # is built by the sphere test, once for every form, and by make_base for each exact zero
    flag, j = _flag_j("A2xA2xA2", (1, 3, 5))
    base = make_base(flag, j, flag.center_basis[0])
    counts = {"eigvals": 0, "forms": 0, "roots": 0, "make_base": 0, "evaluate": 0, "gram": 0}

    def counting(name, fn):
        def wrapped(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapped

    gram = flag_module._center_gram
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(diameters, "_plane_form", counting("forms", diameters._plane_form))
    monkeypatch.setattr(diameters, "_real_roots", counting("roots", diameters._real_roots))
    monkeypatch.setattr(diameters, "make_base", counting("make_base", make_base))
    for module in (model, flag_module, diameters):
        if hasattr(module, "evaluate"):
            monkeypatch.setattr(module, "evaluate", counting("evaluate", module.evaluate))
        monkeypatch.setattr(module, "_center_gram", counting("gram", gram))
    res = diameters.search_diameters(base)
    assert len(res.candidates) == 6 and all(c.ke_ok for c in res.candidates)
    assert counts == {"eigvals": 0, "forms": 13, "roots": 13, "make_base": 6, "evaluate": 0, "gram": 5}


def _rational_root_product(roots):
    """Ascending integer coefficients of prod (den x - num) over the given Fractions."""
    out = [1]
    for r in roots:
        out = [r.denominator * y - r.numerator * x for x, y in zip(out + [0], [0] + out)]
    return out


def _real_roots_cases(seed=2024):
    """Seeded integer polynomials, ascending, for the root finder: each kind of root it must meet, then random ones."""
    gen = random.Random(seed)
    big = 10 ** 20
    yield _rational_root_product([Fraction(1, 3)] * 2 + [Fraction(-2)] * 3 + [Fraction(5, 7)])  # repeated roots
    yield [125, -450, 405]  # 5 (9x - 5)^2: p' = 90 (9x - 5) has content, which the square-free part must not keep
    yield _rational_root_product([Fraction(gen.randint(-2 ** 21, 2 ** 21), gen.randint(2 ** 19, 2 ** 20))
                                  for _ in range(5)])  # denominators up to 2^20
    yield [big - 2, -2 * big, big]  # (x - 1)^2 - 2e-20: two roots 2.8e-10 apart
    # (3x - 1)^2 - 2e-34: two roots 9.4e-18 apart, not split by 53 bisections, so found on the square-free part
    yield [10 ** 34 - 2, -6 * 10 ** 34, 9 * 10 ** 34]
    # (x^2 - 2)(470832 x - 665857), a rational root 1.6e-12 above sqrt(2), padded: a degree drop
    yield [1331714, -941664, -665857, 470832, 0, 0]
    yield [0, 0, 0, -5, 1]  # s = 0, three times
    yield [1, 0, 0, 0, 1]  # no real root
    yield [1, 1, 1]
    # rational roots whose denominators reach past 2^26: simpler rationals than the root share its last float gap
    yield [418, -550389359895437384265795789061]  # 7.59e-28
    yield [-(2 ** 30 + 1), 2 ** 30 + 3]  # 0.9999999981...
    a, b = 2 ** 30 + 1, 2 ** 30 + 3
    yield [2 * a, -2 * b, -a, b]  # (x^2 - 2)(b x - a): the same root between -sqrt(2) and sqrt(2)
    for _ in range(8):
        yield [gen.randint(-50, 50) for _ in range(gen.randint(2, 9))] + [gen.randint(1, 9)]


def test_real_roots_match_sympy():
    # sympy's exact real roots are the oracle: each distinct root once, in order, a rational one as itself
    # and any other as its correctly rounded float
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in _real_roots_cases():
        poly = sympy.Poly(list(reversed(p)), x)
        want = []
        for r in sorted(set(poly.real_roots())):
            want.append(Fraction(int(r.p), int(r.q)) if r.is_Rational else float(r.evalf(40)))
        got = diameters._real_roots(p)
        assert got == want and [type(g) for g in got] == [type(w) for w in want], p


def test_search_reports_q1_and_q2_of_a_plane_where_the_form_vanishes(monkeypatch):
    # a plane on which F_h vanishes identically (no sweep flag has one): its Q1 and Q2 are reported as exact
    # directions, each with its exact verdict, and the search does not fail
    flag, j = _flag_j("A2xA2", (1, 3))
    base = make_base(flag, j, flag.center_basis[0])
    monkeypatch.setattr(diameters, "_plane_form", lambda gram, modules, q1, q2, tau: [0] * 4)
    res = diameters.search_diameters(base)
    assert [c.confirmed_exact and c.verdict.futaki.exact for c in res.candidates] == [True, True]
    signs = sorted(tuple(scalar_sign(c.z_values[i]) for i in flag.unpainted) for c in res.candidates)
    assert signs == [(0, 1), (1, 0)]


def test_integer_direction_is_primitive_and_within_the_rationalize_tolerance():
    assert integer_direction(np.array([0.5, -1.0, 0.25])) == [2, -4, 1]
    assert integer_direction(np.array([-3.0, 6.0])) == [-1, 2]
    assert integer_direction(np.array([1 / 3, 0.0, 2 / 3])) == [1, 0, 2]
    assert integer_direction(np.zeros(2)) is None
    off = 1 / 3 + 2 * RATIONALIZE_TOL
    assert integer_direction(np.array([1.0, off])) is None  # no denominator up to 1e6 is that close
    assert integer_direction(np.array([1.0, 1 / 3 + RATIONALIZE_TOL / 2])) == [3, 1]


@pytest.mark.parametrize("text, painted", [("A2xA3", (1, 3, 4)), ("A2xA2xA2", (1, 3, 5)), ("B3xB3", (1, 4))])
def test_diameter_obstruction_matches_the_float_futaki(text, painted):
    flag, j = _flag_j(text, painted)
    obstruction = diameter_obstruction(flag, j, ricci_invariant(flag, j))
    gen = np.random.default_rng(7)
    basis = np.array([[float(v) for v in b.values] for b in flag.center_basis])
    coords = gen.normal(size=(5, len(basis)))
    z = coords @ basis
    got = obstruction(coords)
    for zi, gi in zip(z, got):
        rep = futaki(flag, j, CartanVector(tuple(zi)), 1, 1)
        assert abs(gi - rep.value) <= 1e-12 * max(1.0, abs(rep.value))


@pytest.mark.parametrize("text, painted", [("A1xA1xA1", ()), ("G2", ()), ("A2xA2xA2", (1, 3, 5))])
def test_search_diameters_scans_the_sphere_of_the_period_scale(text, painted):
    # every candidate lies on E(Z, Z) = tau^2, where exact zeros are normalized, and a float one is a zero there
    flag, j = _flag_j(text, painted)
    tau = Fraction(1, 3)
    res = diameters.search_diameters(make_base(flag, j, flag.center_basis[0], period_scale=tau))
    assert res.candidates
    for c in res.candidates:
        z = CartanVector(tuple(float(v) for v in c.z_values))
        assert abs(killing(flag.rs, z, z) - float(tau) ** 2) <= 1e-12
        if not c.confirmed_exact:
            assert futaki(flag, j, z, 1, 1).vanishes


def test_search_diameters_rejects_large_centers():
    flag, j = _flag_j("A1xA1xA1xA1")
    base = make_base(flag, j, flag.center_basis[0])
    with pytest.raises(InputError):
        diameters.search_diameters(base)


def test_search_walled_su2_product_rejected_by_norm():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    assert walled.search_walled(base, 2, 2) == ()


def test_search_walled_oversized_walls_empty():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    base = make_base(flag, j, h1 - coroot_vector(flag.rs, flag.rs.simple_roots()[1]))
    assert walled.search_walled(base, 5, 1) == ()


def test_search_walled_rejects_diameter_case():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    base = make_base(flag, j, h1 - coroot_vector(flag.rs, flag.rs.simple_roots()[1]))
    with pytest.raises(InputError):
        walled.search_walled(base, 1, 1)
    for m1, m2 in [(0, 3), (3, 0), (-1, 5)]:
        with pytest.raises(InputError, match="degrees must be >= 1"):
            walled.search_walled(base, m1, m2)


def test_search_verdicts_form_no_endpoints(monkeypatch):
    # a verdict reads its walls, degrees and tests off the obstruction's table at c = m1, -m2: reading them on every
    # candidate of two diameter searches and a walled search forms no endpoint Z1 = Zk + m1 Z or Z2 = Zk - m2 Z
    calls = []
    monkeypatch.setattr(model, "ke_endpoints", lambda *args: calls.append(args) or ke_endpoints(*args))
    verdicts = []
    for text, painted in (("A2xA2xA2", (1, 3, 5)), ("A2xA2", (1, 3))):
        flag, j = _flag_j(text, painted)
        for c in diameters.search_diameters(make_base(flag, j, flag.center_basis[0])).candidates:
            assert c.ke_ok == c.verdict.ok
            verdicts.append(c.verdict)
    flag, j = _flag_j("A2", (1,))
    base = make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3))
    verdicts += [c.verdict for c in walled.search_walled(base, 3, 1)]
    read = [(v.ok, v.admissible, v.degrees) for v in verdicts]
    assert read == [(True, True, (1, 1))] * 7 + [(True, True, (3, 1))]
    assert calls == []


def test_search_walled_matches_the_root_subset_oracle():
    # every flag of six small groups: the periods 1/3 and 1/2 give all 42
    # candidates, among them (2, 2) ones whose Z and -Z are one segment reversed
    found = 0
    for base, m1, m2 in _walled_oracle_set():
        got, want = (tuple((c.z_values, c.w1, c.w2, c.verdict.ok) for c in search(base, m1, m2))
                     for search in (walled.search_walled, root_subset_walled))
        assert got == want, (base.flag.rs.spec, base.flag.painted, base.period_scale, m1, m2)
        found += len(got)
    assert found == 42


def _walled_oracle_set():
    """The bases and degrees of the walled root-subset oracle: every flag of six small groups at three periods."""
    for group in ["A1xA1", "A2", "B2", "G2", "A2xA2", "A1xA1xA1"]:
        system = rs(group)
        for painted in (p for k in range(system.rank) for p in itertools.combinations(range(system.rank), k)):
            flag, j = _flag_j(group, painted)
            for tau in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                base = make_base(flag, j, flag.center_basis[0], period_scale=tau)
                for m1, m2 in [(2, 1), (3, 1), (1, 3), (2, 2)]:
                    yield base, m1, m2


def test_walled_search_runs_no_quad_arithmetic(monkeypatch):
    # the points are integer splits from the line solve to the verdict: over the oracle set no Quad
    # adds, subtracts, multiplies, divides or negates, and the Quads built are at most one per verdict
    # and per irrational coordinate of a candidate
    def refuse(*args):
        raise AssertionError("Quad arithmetic in the walled search")

    built, verdicts, quad_coords, found = [0], [0], [0], 0
    init, verdict = Quad.__init__, walled.ke_verdict

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counting_verdict(*args):
        verdicts[0] += 1
        return verdict(*args)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(Quad, name, refuse)
    monkeypatch.setattr(Quad, "__init__", counting_init)
    monkeypatch.setattr(walled, "ke_verdict", counting_verdict)
    for base, m1, m2 in _walled_oracle_set():
        for cand in walled.search_walled(base, m1, m2):
            found += 1
            quad_coords[0] += sum(isinstance(x, Quad) for x in cand.z_values)
    assert found == 42 and verdicts[0] > 0
    assert built[0] <= verdicts[0] + quad_coords[0]


def test_walled_search_eliminates_once_per_line(monkeypatch):
    # one integer elimination of [A | b] per wall set gives both the point and the direction of its line:
    # the solves are the combinations of wall planes within the degrees, and every entry is an int
    solves, solve, lines = [0], linalg.solve, 0

    def counting_solve(rows, rhs, n_cols):
        assert all(type(x) is int for row in rows for x in row) and all(type(b) is int for b in rhs)
        solves[0] += 1
        return solve(rows, rhs, n_cols)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    for group, painted, m1, m2 in [("A2xA2", (), 3, 3), ("B3", (), 2, 3), ("A1xA1xA1", (), 2, 2), ("A2", (1,), 3, 1)]:
        flag, j = _flag_j(group, painted)
        walled.search_walled(make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3)), m1, m2)
        modules = _center_modules(flag, j, ricci_invariant(flag, j))[0]
        planes = [(end, len(roots)) for end in (0, 1) for roots in modules.values()]
        lines += sum(all(sum(p[1] for p in s if p[0] == end) <= (m1 - 1, m2 - 1)[end] for end in (0, 1))
                     for s in itertools.combinations(planes, flag.center_dim - 1))
    assert lines > 100 and solves[0] == lines


def test_linalg_solve_gives_a_solution_and_the_null_space_from_one_elimination():
    # no rows: x = 0 over 1 and the unit vectors; and no columns at all
    assert linalg.solve([], [], 3) == ([0, 0, 0], 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert linalg.solve([], [], 0) == ([], 1, [])
    # inconsistent: x + y = 1 and 2x + 2y = 3; and a zero row with a nonzero right-hand side
    assert linalg.solve([[1, 1], [2, 2]], [1, 3], 2) is None
    assert linalg.solve([[0, 0]], [1], 2) is None
    # rank-deficient: the free entries of x are 0, and each basis vector is the echelon form's times den
    rows = [[1, 2, 0, 3], [2, 4, 1, 7], [3, 6, 1, 10]]
    x, den, basis = linalg.solve(rows, [1, 3, 4], 4)
    assert (x, den, basis) == ([1, 0, 1, 0], 1, [[-2, 1, 0, 0], [-3, 0, -1, 1]])
    for row, b in zip(rows, [1, 3, 4]):
        assert sum(map(mul, row, x)) == b * den and all(sum(map(mul, row, v)) == 0 for v in basis)
    # full rank: the one solution and no basis, over a positive den also when the last pivot is negative
    assert linalg.solve([[2, 1], [1, 3]], [1, 2], 2) == ([1, 3], 5, [])
    assert linalg.solve([[1, 2], [3, 4]], [5, 6], 2) == ([-8, 9], 2, [])
    # a free column ahead of the pivots and a row swap: x / den = (0, 1/2, 3/2), over the last pivot 4
    x, den, basis = linalg.solve([[0, 0, 2], [0, 2, 2]], [3, 4], 3)
    assert (x, den, basis) == ([0, 2, 6], 4, [[4, 0, 0]])
    for v in [x, basis[0]]:
        assert all(type(c) is int for c in v)


def test_linalg_solve_matches_the_fraction_elimination():
    # the integer elimination against the Fraction Gauss-Jordan oracle on seeded systems up to 5 x 7: the same
    # pivots (the zeros of x and the free columns of the basis), the same x, den > 0, and basis vectors that
    # are positive multiples of the oracle's; empty, inconsistent, rank-deficient and full-rank ones all occur
    rng, kinds = random.Random(28), set()
    for _ in range(1500):
        n_rows, n_cols = rng.randint(0, 5), rng.randint(0, 7)
        span = rng.choice([1, 3, 9])
        rows = [[rng.randint(-span, span) * (rng.random() < 0.7) for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows >= 2 and rng.random() < 0.3:  # a dependent row
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        rhs = [rng.randint(-span, span) for _ in range(n_rows)]
        if n_rows >= 2 and rng.random() < 0.5:
            rhs[-1] = rhs[0] + 2 * rhs[1] + (rng.random() < 0.5)
        got, want = linalg.solve(rows, rhs, n_cols), fraction_solve(rows, rhs, n_cols)
        assert (got is None) == (want is None), (rows, rhs)
        if want is None:
            kinds.add("inconsistent")
            continue
        (x, den, basis), (x0, basis0) = got, want
        kinds.add("empty" if not rows else "full rank" if not basis else "rank-deficient")
        assert den > 0 and [Fraction(c, den) for c in x] == x0, (rows, rhs)
        assert len(basis) == len(basis0)
        for v, v0 in zip(basis, basis0):
            assert all(type(c) is int for c in v)
            fc = next(c for c, a in enumerate(v0) if a == 1)
            assert v[fc] > 0 and [Fraction(c, v[fc]) for c in v] == v0, (rows, rhs)
    assert kinds == {"empty", "inconsistent", "rank-deficient", "full rank"}


def test_line_walls_count_the_walls_of_each_point(monkeypatch):
    # every point whose walls the search counts is counted again plane by plane in its own field, from the
    # exact values of the points of its line at its t, which is None for an irrational one; the planes are
    # in the line's scaled frame Y = scale Z, with scale the ratio of the sphere's den to the line's
    checked, line_points, sphere_den = [], {}, [None]
    unit_norm_points, line_walls = walled._unit_norm_points, walled._line_walls

    def recording(s, v, den, gram, ps2):
        line_points.clear()
        sphere_den[0] = den
        for t, point in unit_norm_points(s, v, den, gram, ps2):
            line_points.setdefault(t, []).append(point)
            yield t, point

    def checking(modules, s, v, den):
        count, scale = line_walls(modules, s, v, den), sphere_den[0] // den

        def at(t):
            for u, w, d, r in line_points[t]:
                coeffs = [pair_scalar(x * scale, y * scale, d, r) for x, y in zip(u, w)]
                want = [sum(mult for rho, mult, values in modules if sum(map(mul, rho, coeffs)) == values[end])
                        for end in (0, 1)]
                assert count(t) == want
                checked.append(any(isinstance(x, Quad) for x in coeffs))
            return count(t)
        return at

    monkeypatch.setattr(walled, "_unit_norm_points", recording)
    monkeypatch.setattr(walled, "_line_walls", checking)
    for group, painted in [("A2xA2", ()), ("A1xA1xA1", ()), ("B3", ()), ("A2", (1,)), ("G2", ())]:
        flag, j = _flag_j(group, painted)
        for tau in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            base = make_base(flag, j, flag.center_basis[0], period_scale=tau)
            for m1, m2 in [(2, 1), (3, 1), (2, 2), (3, 3)]:
                walled.search_walled(base, m1, m2)
    assert len(checked) > 100 and any(checked) and not all(checked)


@pytest.mark.parametrize("group", ["A2xA2", "B3", "A1xA1xA1"])
def test_wall_subsets_are_the_combinations_within_the_degrees(group):
    # nothing painted, so every plane has multiplicity 1 and d - 1 = rank - 1; the order is
    # the order of itertools.combinations, which decides the kept one of Z and -Z for m1 = m2
    flag, j = _flag_j(group, ())
    modules = _center_modules(flag, j, ricci_invariant(flag, j))[0]
    planes = [(end, len(roots), rho, 0) for end in (0, 1) for rho, roots in modules.items()]
    for budget in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 3)]:
        want = [s for s in itertools.combinations(planes, flag.center_dim - 1)
                if all(sum(p[1] for p in s if p[0] == end) <= budget[end] for end in (0, 1))]
        assert list(walled._wall_subsets(planes, flag.center_dim - 1, budget)) == want, budget
    assert list(walled._wall_subsets(planes, 0, (0, 0))) == [()]


def test_projective_space_profile_matches_closed_form():
    # degrees (3, 1) on the painted-A2 flag at period scale 1/3: the segment
    # polynomial is P(v) = v^2/36, so u = -2 [v^4/144 - v^3/36]/(v^2/36)
    # = f(4 - f)/2 and delta = sqrt(2) * int_0^4 df/sqrt(f(4-f)) = sqrt(2) pi
    flag, j = _flag_j("A2", (1,))
    probe = make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3))
    cand = walled.search_walled(probe, 3, 1)[0]
    base = CenterLine(flag=flag, j=j, z=CartanVector(cand.z_values), period_scale=Fraction(1, 3))
    sp = ein.build_segment_polynomial(base, 3, 1)
    assert sp.coeffs == [Fraction(0), Fraction(0), Fraction(1, 36)]
    assert u_exact(sp, Fraction(1)) == Fraction(3, 2)  # f(4-f)/2 at f=1
    assert u_exact(sp, Fraction(2)) == 2

    profile = ein.profile_solve(sp, grid_size=300)
    assert abs(profile.delta - math.sqrt(2) * math.pi) < 1e-12
    ver = ein.verify_profile(sp, profile, n_check=32)
    assert ver["max_tangential_residual"] < 1e-9
    assert ver["max_normal_residual"] < 1e-9
    assert ver["normal_two_route_gap"] < 1e-6
    assert ver["delta_ode_gap"] < 1e-6
    from flagke.model import check_parametrization

    pv = check_parametrization(profile.t, profile.f, profile.delta, 4.0)
    assert pv.ok


def test_asymmetric_product_numeric_zero_diameter():
    # CP^2 x CP^3 flags: the obstruction zero sits at an irrational angle, so
    # the candidate is reported as a numeric zero and solved on the float path
    flag, j = _flag_j("A2xA3", (1, 3, 4))
    base = make_base(flag, j, flag.center_basis[0])
    res = diameters.search_diameters(base)
    winners = [c for c in res.candidates if c.ke_ok]
    assert winners
    cand = winners[0]
    assert not cand.confirmed_exact and not cand.verdict.futaki.exact
    assert abs(float(cand.verdict.futaki.value)) < 1e-10
    assert cand.verdict.futaki.error_bound is not None

    b = CenterLine(flag=flag, j=j, z=CartanVector(cand.z_values))
    sp = ein.SegmentPolynomial.from_base(b, 1, 1)
    assert not sp.exact
    profile = ein.profile_solve(sp, grid_size=200)
    ver = ein.verify_profile(sp, profile, n_check=24)
    assert profile.diagnostics["f_delta_error"] < 1e-8
    assert ver["max_tangential_residual"] < 1e-9
    assert ver["max_normal_residual"] < 1e-9
    assert ver["normal_two_route_gap"] < 1e-6


def test_projective_space_profile_same_metric_from_product_realization():
    # the same Einstein manifold realized by a product group: symmetric (2,2)
    # walls at period scale 1/2 must reproduce delta = sqrt(2) pi exactly
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2, period_scale=Fraction(1, 2))
    found = walled.search_walled(base, 2, 2)
    assert len(found) == 1
    cand = found[0]
    assert cand.z_values == (Fraction(1, 4), Fraction(-1, 4)) or cand.z_values == (
        Fraction(-1, 4), Fraction(1, 4))
    assert cand.verdict.futaki.value == 0 and cand.verdict.segment.overall_ok

    b = CenterLine(flag=flag, j=j, z=CartanVector(cand.z_values), period_scale=Fraction(1, 2))
    sp = ein.build_segment_polynomial(b, 2, 2)
    assert sp.coeffs == [Fraction(0), Fraction(1, 4), Fraction(-1, 16)]  # v(4-v)/16
    prof = ein.profile_solve(sp, grid_size=200)
    assert abs(prof.delta - math.sqrt(2) * math.pi) < 1e-12
    ver = ein.verify_profile(sp, prof, n_check=24)
    assert ver["max_tangential_residual"] < 1e-9
    assert ver["max_normal_residual"] < 1e-9


def test_unit_norm_points_match_the_quad_sphere_intersection():
    # the integer points of a line (s + t v) / den on E(Z, Z) = ps2, against the Fraction/Quad
    # intersection of the oracle, in its order: on the A2 Gram matrix at ps2 = 2/9 the line through
    # (1/3, 0) along (0, 1) meets the sphere at two rational points, along (1, 2) it is tangent, the
    # line through 0 along (1, 2) meets it in Q(sqrt(3)) and the one through (1/2, 0) along (0, 1) misses it
    gram, ps2 = [[2, -1], [-1, 2]], Fraction(2, 9)
    lines = {"rational": ([1, 0], [0, 1], 3), "tangent": ([1, 0], [1, 2], 3), "irrational": ([0, 0], [1, 2], 1),
             "missing": ([1, 0], [0, 1], 2)}
    counts = {}
    for kind, (s, v, den) in lines.items():
        got = list(walled._unit_norm_points(s, v, den, gram, ps2))
        counts[kind] = len(got)
        _check_unit_norm_points(s, v, den, gram, ps2, got)
        assert all((t is None) == (kind == "irrational") for t, _ in got), kind
        if kind == "irrational":
            assert [r for _, (_, _, _, r) in got] == [3, 3]
    assert counts == {"rational": 2, "tangent": 1, "irrational": 2, "missing": 0}
    # seeded lines on a 3-dimensional Gram matrix at ps2 = 1/3, 1/2 and 4/9
    gram3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    rng, kinds = random.Random(27), set()
    for _ in range(300):
        s, v = [rng.randint(-3, 3) for _ in range(3)], [rng.randint(-2, 2) for _ in range(3)]
        if not any(v):
            continue
        den, ps2 = rng.randint(1, 6), rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(4, 9)])
        got = list(walled._unit_norm_points(s, v, den, gram3, ps2))
        _check_unit_norm_points(s, v, den, gram3, ps2, got)
        kinds.add((len(got), got[0][0] is None if got else None))
    assert {(2, False), (2, True), (0, None)} <= kinds


def _check_unit_norm_points(s, v, den, gram, ps2, got):
    """The points of `walled._unit_norm_points` are the oracle's, in lowest terms, at their t."""
    want = list(unit_norm_solutions([Fraction(x, den) for x in s], [[Fraction(x) for x in v]], gram, ps2))
    assert [[pair_scalar(x, y, d, r) for x, y in zip(u, w)] for _, (u, w, d, r) in got] == want
    for t, (u, w, d, r) in got:
        assert d > 0 and math.gcd(*u, *w, d) == 1 and (r is None) == (not any(w))
        if t is not None:
            assert t[1] > 0 and math.gcd(*t) == 1
            assert [Fraction(x + Fraction(*t) * y, den) for x, y in zip(s, v)] == [Fraction(x, d) for x in u]


def test_search_walled_underdetermined_line_path_runs():
    # one wall on a two-dimensional center: the solver walks an affine line
    # and intersects the unit sphere; here nothing survives the later filters
    flag, j = _flag_j("A2xA2", (1, 3))
    base = make_base(flag, j, flag.center_basis[0])
    assert walled.search_walled(base, 2, 1) == ()


def test_search_walled_fixed_point_case_under_period_scale():
    # the projective-space configuration: full wall at one end; the linear
    # system forces Z = -Zk/m1, which meets the norm condition only for
    # period scale 1/3 (paper-literal scale 1 rejects it)
    flag, j = _flag_j("A2", (1,))
    base1 = make_base(flag, j, flag.center_basis[0])
    assert walled.search_walled(base1, 3, 1) == ()
    base3 = make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3))
    found = walled.search_walled(base3, 3, 1)
    assert len(found) == 1
    cand = found[0]
    assert cand.verdict.futaki.value == 0
    assert cand.verdict.degrees == (3, 1)
    assert cand.verdict.segment.overall_ok
    zk = ricci_invariant(flag, j)
    assert CartanVector(cand.z_values).scale(-3).values == zk.values
