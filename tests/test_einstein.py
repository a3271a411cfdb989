import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from flagke import einstein as ein
from flagke.errors import DegreeMismatchError, InputError, InternalError, NoKahlerEinsteinError
from flagke.flag import build_flag, default_complex_structure, ricci_invariant
from flagke.model import CenterLine, make_base
from flagke.polys import p_deriv, p_eval, p_linear_product, p_linear_product_float, p_mul, p_trim
from flagke.rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    build_root_system,
    coroot_vector,
    evaluate,
    killing,
)
from flagke.scalars import Quad, scalar_is_zero
from segment_checks import first_integral_identity_numerator, scaled_ricci_control


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


@lru_cache(maxsize=32)
def _per_root_product(factors):
    """prod (a - k x) one root at a time in Fraction/Quad arithmetic.

    The oracle for the integer module kernel `polys.p_linear_product`;
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

    Every root of R_m+ sits in exactly one module, whose key is that root's
    (alpha(Z1), alpha(Z), alpha(Zk)); the coefficients of the polynomial and
    of its reversal are the per-root products of (alpha(Z1), alpha(Z)) and
    (alpha(Z2), -alpha(Z)).
    """
    base = CenterLine(flag=flag, j=j, z=z)
    zk = ricci_invariant(flag, j)
    for m1, m2 in degrees:
        _assert_identical(ein.futaki(flag, j, z, m1, m2).value, _futaki_oracle(flag, j, z, m1, m2))
        sp = ein.SegmentPolynomial.from_base(base, m1, m2, validate_degrees=False)
        z1, z2 = ein.ke_endpoints(zk, z, m1, m2)
        assert sum(len(roots) for roots in sp.modules.values()) == len(j.positive)
        assert sorted(a for roots in sp.modules.values() for a in roots) == sorted(j.positive)
        for key, roots in sp.modules.items():
            for alpha in roots:
                assert (evaluate(alpha, z1), evaluate(alpha, z), evaluate(alpha, zk)) == key
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
    z1, z2 = ein.ke_endpoints(zk, base.z, 1, 1)
    assert (z1 - z2).values == base.z.scale(2).values
    mid = (z1 + z2).scale(Fraction(1, 2))
    assert mid.values == zk.values
    # the wall hit: alpha_2(Z1) = 0 exactly
    assert evaluate(flag.rs.simple_roots()[1], z1) == 0

    la1, lj1 = _flag_j("A1")
    b1 = make_base(la1, lj1, coroot_vector(la1.rs, la1.rs.simple_roots()[0]))
    z1a, _ = ein.ke_endpoints(ricci_invariant(la1, lj1), b1.z, 1, 1)
    assert evaluate(la1.rs.simple_roots()[0], z1a) == Fraction(1, 2) + Quad(Fraction(0), Fraction(1, 2), Fraction(2))

    norm = killing(flag.rs, z1 - z2, z1 - z2)
    assert norm == 4  # (m1 + m2)^2


def test_futaki_su2_exact_value():
    flag, j = _flag_j("A1")
    base = make_base(flag, j, coroot_vector(flag.rs, flag.rs.simple_roots()[0]))
    rep = ein.futaki(flag, j, base.z, 1, 1)
    assert rep.exact
    assert rep.value == Quad(Fraction(0), Fraction(-1, 3), Fraction(2))
    assert not rep.vanishes


def test_futaki_product_values():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    rep_minus = ein.futaki(flag, j, make_base(flag, j, h1 - h2).z, 1, 1)
    assert rep_minus.value == 0 and rep_minus.vanishes
    rep_plus = ein.futaki(flag, j, make_base(flag, j, h1 + h2).z, 1, 1)
    assert rep_plus.value == Fraction(-1, 3) and not rep_plus.vanishes


def test_futaki_simpson_oracle_agreement():
    flag, j = _flag_j("A1")
    base = make_base(flag, j, coroot_vector(flag.rs, flag.rs.simple_roots()[0]))
    simpson = _simpson_oracle(flag, j, [float(v) for v in base.z.values], 1, 1)
    assert abs(simpson - float(ein.futaki(flag, j, base.z, 1, 1).value)) < 1e-9


def test_futaki_float_path_reports_bound():
    flag, j = _flag_j("A1xA1")
    z = CartanVector((0.5, -0.5))
    rep = ein.futaki(flag, j, z, 1, 1)
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
        lhs = ein.futaki(flag, j, z, m1, m2).value
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
    assert ein.futaki(flag, j, base.z, 1, 1).value == 0
    _assert_matches_oracle(flag, j, base.z, ALL_DEGREES)


def test_integer_kernel_matches_oracle_with_rational_and_sqrt_parts():
    # an unnormalised center direction whose entries have both parts, as
    # search_walled produces them
    flag, j = _flag_j("A2xA2", (1, 3))
    z = CartanVector((Quad(Fraction(1), Fraction(1), Fraction(2)), Fraction(0),
                      Quad(Fraction(1, 3), Fraction(-2, 5), Fraction(2)), Fraction(0)))
    _assert_matches_oracle(flag, j, z, ALL_DEGREES)
    assert isinstance(ein.futaki(flag, j, z, 1, 2).value, Quad)


def _multiplicities(factors):
    """{(a, k): d} from per-root factors, equal factors merged."""
    modules = {}
    for key in factors:
        modules[key] = modules.get(key, 0) + 1
    return modules


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
    assert p_linear_product_float(a, k).tolist() == _per_root_product(tuple(floats))
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
        got = p_linear_product_float(np.array(a), np.array(k)).tolist()
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
            rep = ein.futaki(flag, j, z, m1, m2)
            value, bound, scale = _float_futaki_per_root(flag, j, z, m1, m2)
            assert not rep.exact and rep.tol == ein.FUTAKI_FLOAT_TOL
            assert abs(rep.value - value) <= 1e-15 * scale
            assert abs(rep.error_bound - bound) <= 1e-15 * bound
            assert rep.vanishes == (abs(value) <= max(ein.FUTAKI_FLOAT_TOL, bound))


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
        sp = ein.SegmentPolynomial.from_base(base, 1, 1, validate_degrees=False)
        z1, _ = ein.ke_endpoints(ricci_invariant(base.flag, base.j), base.z, 1, 1)
        a, k = (np.array([float(evaluate(alpha, x)) for alpha in base.j.positive]) for x in (z1, base.z))
        kg = k / (a - np.multiply.outer(f, k))
        s1, s2 = sp.log_deriv_sums(f)
        assert np.all(np.abs(s1 - kg.sum(axis=-1)) <= 1e-15 * np.abs(kg).sum(axis=-1))
        assert np.all(np.abs(s2 - (kg ** 2).sum(axis=-1)) <= 1e-15 * (kg ** 2).sum(axis=-1))


def _count_quads(monkeypatch, fn):
    """The number of Quad constructions fn() makes."""
    count = [0]
    init = Quad.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(Quad, "__init__", counting)
    fn()
    monkeypatch.undo()
    return count[0]


def test_exact_obstruction_builds_at_most_one_quad(monkeypatch):
    flag, j = _flag_j("E8", [i for i in range(8) if i != 1])
    base = make_base(flag, j, flag.center_basis[0])
    assert base.z.kind == "quadratic"
    reports = []
    n_quads = _count_quads(monkeypatch, lambda: reports.append(ein.futaki(flag, j, base.z, 1, 2)))
    assert n_quads <= 1  # the per-root product built 9530
    assert isinstance(reports[0].value, Quad)


def test_segment_polynomial_quad_count_is_linear_in_roots(monkeypatch):
    # the E6 x E6 antisymmetric diameter at node 3
    flag, j = _flag_j("E6xE6", [i for i in range(12) if i not in (3, 9)])
    z = [Fraction(0)] * 12
    z[3], z[9] = Fraction(1), Fraction(-1)
    base = make_base(flag, j, CartanVector(tuple(z)))

    def build():
        ein.build_segment_polynomial(base, 1, 1).deflations

    assert _count_quads(monkeypatch, build) <= 20 * len(j.positive)  # 14362 for 58 roots with per-root products
    # one alpha(Z1) and one alpha(Z) per isotropy module: 504 with per-root values
    assert _count_quads(monkeypatch, lambda: ein.SegmentPolynomial.from_base(base, 1, 1)) <= 50


# ---------------------------------------------------------------------------
# segment polynomial and the first integral


def _toy_sp():
    # P(v) = (1 - v/2)(v/2): factors with a wall at v = 0
    modules = {
        (Fraction(1), Fraction(1, 2), Fraction(1, 2)): [Root((1, 0))],
        (Fraction(0), Fraction(-1, 2), Fraction(1, 2)): [Root((0, 1))],
    }
    return ein.SegmentPolynomial(modules, 1, 1, validate_degrees=False)


def test_u_eval_worked_example():
    sp = _toy_sp()
    assert p_eval(sp.coeffs, Fraction(1)) == Fraction(1, 4)
    assert p_trim(sp.d_coeffs) == [Fraction(1, 2), Fraction(-1, 2)]
    assert ein.u_eval(sp, Fraction(1)) == Fraction(1, 2)
    # u(0+) -> 0
    assert abs(ein.u_eval(sp, Fraction(1, 10 ** 6))) < Fraction(1, 10 ** 5)


def test_u_nonzero_at_far_end_when_obstruction_nonzero():
    # walls on both far ends: the lazy deflation reports the degree clash
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 + h2)
    sp = ein.SegmentPolynomial.from_base(base, 1, 1, validate_degrees=False)
    # oracle: the shifted integral equals the obstruction value, nonzero
    assert p_eval(sp.q_coeffs, sp.f_delta) == ein.futaki(flag, j, base.z, 1, 1).value != 0
    with pytest.raises(DegreeMismatchError):
        _ = sp.deflations

    # wall-free non-vanishing configuration: u stays away from 0 at the far end
    flag4, j4 = _flag_j("A2xA2", (1, 3))
    direction = CartanVector((Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    base4 = make_base(flag4, j4, direction)
    sp4 = ein.SegmentPolynomial.from_base(base4, 1, 1, validate_degrees=True)
    assert p_eval(sp4.q_coeffs, sp4.f_delta) == ein.futaki(flag4, j4, base4.z, 1, 1).value != 0
    with pytest.raises(NoKahlerEinsteinError):
        _ = sp4.deflations
    assert abs(sp4.u_exact(Fraction(1999, 1000))) > Fraction(1, 100)


def test_u_float_on_non_einstein_segment():
    # pointwise evaluation stays available away from walls even when no
    # profile exists (the obstruction does not vanish)
    flag, j = _flag_j("A2xA2", (1, 3))
    direction = CartanVector((Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    base = make_base(flag, j, direction)
    sp = ein.SegmentPolynomial.from_base(base, 1, 1)
    exact = float(sp.u_exact(Fraction(3, 2)))
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
            modules.setdefault((a, k, a), []).append(Root((i,)))  # equal keys merge into one module
        sp = ein.SegmentPolynomial(modules, m1, 1, validate_degrees=False)
        assert first_integral_identity_numerator(sp) == []


def test_log_derivative_identities():
    sp = _toy_sp()
    for f in (0.3, 0.9, 1.7):
        s1, s2 = sp.log_deriv_sums(f)
        p = p_eval(sp.coeffs, Fraction(f).limit_denominator(10 ** 9))
        dp = p_eval(sp.d_coeffs, Fraction(f).limit_denominator(10 ** 9))
        d2p = p_eval(p_deriv(sp.d_coeffs), Fraction(f).limit_denominator(10 ** 9))
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
    rhs = lambda _t, y: [math.sqrt(max(sp.u_float(y[0]), 0.0))]
    sol = solve_ivp(rhs, (t0, 1e4), [f0], rtol=1e-11, atol=1e-13, events=hit_end, max_step=0.05)
    tail = quad(lambda w: float(sp.deflations[1].integrand(w)), 0.0, math.sqrt(eps), epsabs=1e-14)[0]
    return float(sol.t_events[0][0]) + tail


def test_profile_map_consistency(ke_base):
    sp = ein.build_segment_polynomial(ke_base, 1, 1)
    pmap = ein.ProfileMap(sp)
    assert pmap.t_of_f(0.0) == 0.0
    # dt/df = 1 / sqrt(u(f)) at 20 interior points, via central differences
    for f in np.linspace(0.1, 1.9, 20):
        h = 1e-5
        fd = (pmap.t_of_f(f + h) - pmap.t_of_f(f - h)) / (2 * h)
        assert abs(fd - 1.0 / math.sqrt(sp.u_float(f))) < 1e-6
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
    z1, _ = ein.ke_endpoints(ricci_invariant(ke_base.flag, ke_base.j), ke_base.z, 1, 1)
    for alpha in ke_base.j.positive:
        r = ein.ricci_tangential(sp, prof, alpha, t)
        g = float(evaluate(alpha, z1)) - float(evaluate(alpha, ke_base.z)) * f  # the metric eigenvalue alpha(Z1 - f Z)
        assert abs(r / g - 1.0) < 1e-6
    with pytest.raises(InputError):
        ein.ricci_tangential(sp, prof, Root((9, 9, 9, 9)), t)
    with pytest.raises(InputError):
        ein.ricci_tangential(sp, prof, ke_base.j.positive[0], prof.delta * 2)


def test_q_odd_about_midpoint_for_symmetric_data(ke_profile):
    sp, prof = ke_profile
    mid = prof.delta / 2
    for s in (0.2, 0.5, 1.0):
        qs = []
        for t in (mid - s, mid + s):
            f = prof.map.f_of_t(t)
            fp2 = sp.u_float(f)
            fpp = sp.fpp_float(f)
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
    chk = ein.sphere_in_chamber(flag, j)
    assert not chk.ok
    assert chk.min_distance_sq == Fraction(1, 2)  # (1/2)^2 / (1/2)
    assert chk.min_distance_sq_center == Fraction(1, 2)


def test_sphere_check_cp3_flag_center_norm():
    flag, j = _flag_j("A3", (1, 2))
    chk = ein.sphere_in_chamber(flag, j)
    assert chk.min_distance_sq == 1  # full dual norm formula
    assert chk.min_distance_sq_center == Fraction(3, 2)  # measured inside the center


def test_search_diameters_d1_no_candidates():
    flag, j = _flag_j("A2", (1,))
    base = make_base(flag, j, flag.center_basis[0])
    res = ein.search_diameters(base)
    assert flag.center_dim == 1
    assert res.candidates == ()


def test_search_diameters_finds_exact_product_zero(ke_base):
    res = ein.search_diameters(ke_base)
    assert not res.hypothesis.ok
    winners = [c for c in res.candidates if c.ke_ok]
    assert len(winners) == 1
    c = winners[0]
    assert c.confirmed_exact and c.futaki.exact and c.futaki.value == 0
    assert c.segment.candidate.m1 == 1 and c.segment.candidate.m2 == 1
    # the exact direction is (e1 - e2)/sqrt(2) up to overall sign
    mags = [abs(float(v)) for v in c.z_values]
    assert abs(mags[0] - math.sqrt(2) / 4) < 1e-12 and mags[1] == 0


def test_search_diameters_full_flag_zeros_inadmissible():
    flag, j = _flag_j("A2")
    base = make_base(flag, j, coroot_vector(flag.rs, flag.rs.simple_roots()[0]))
    res = ein.search_diameters(base)
    assert res.candidates  # the symmetric zero is found...
    assert all(not c.ke_ok for c in res.candidates)  # ...but exits the chamber


def test_search_diameters_three_dimensional_center():
    # the zero locus is a curve on the 2-sphere; the latitude scan samples it
    flag, j = _flag_j("A1xA1xA1")
    base = make_base(flag, j, flag.center_basis[0])
    with_default = ein.search_diameters(base, n_grid=240)
    assert flag.center_dim == 3
    assert with_default.candidates  # crossings exist away from the walls
    # per the sign analysis, none of the sampled zeros is chamber-admissible
    assert all(not c.ke_ok for c in with_default.candidates)


def test_search_diameters_triple_product_exact_zeros(ke_profile):
    # on the triple product the zero locus is a surface containing the three
    # pairwise-difference directions; all three rationalize and recertify,
    # and the inert factor cancels from u, reproducing the pair profile
    flag, j = _flag_j("A2xA2xA2", (1, 3, 5))
    base = make_base(flag, j, flag.center_basis[0])
    res = ein.search_diameters(base, n_grid=360)
    exact_ke = [c for c in res.candidates if c.ke_ok and c.confirmed_exact]
    assert len(exact_ke) == 3
    c = exact_ke[0]
    b = CenterLine(flag=flag, j=j, z=CartanVector(c.z_values))
    sp = ein.build_segment_polynomial(b, 1, 1)
    prof = ein.profile_solve(sp, grid_size=128)
    _, pair_profile = ke_profile
    assert abs(prof.delta - pair_profile.delta) < 1e-10


def _brentq_root(f, a, b, fa, fb):
    """The scan's root finder before it took the bracket values, as the oracle."""
    return brentq(f, a, b, xtol=1e-14)


def _float_winners(res):
    return [c.z_values for c in res.candidates if c.ke_ok and not c.confirmed_exact]


def test_scan_roots_match_brentq_on_a2_cubed(monkeypatch):
    flag, j = _flag_j("A2xA2xA2", (1, 3, 5))
    base = make_base(flag, j, flag.center_basis[0])
    real, brackets = ein._bracketed_root, []

    def recorded(f, a, b, fa, fb):
        brackets.append((f, a, b, fa, fb))
        return real(f, a, b, fa, fb)

    monkeypatch.setattr(ein, "_bracketed_root", recorded)
    got = _float_winners(ein.search_diameters(base))
    assert brackets
    for f, a, b, fa, fb in brackets:
        assert abs(real(f, a, b, fa, fb) - brentq(f, a, b, xtol=1e-14)) <= 1e-13
    monkeypatch.setattr(ein, "_bracketed_root", _brentq_root)
    want = _float_winners(ein.search_diameters(base))
    assert len(got) == len(want) > 0
    for z in got:
        assert min(max(abs(x - y) for x, y in zip(z, w)) for w in want) <= 1e-12


def test_scan_root_finder_keeps_the_exact_winner(ke_base, monkeypatch):
    got = ein.search_diameters(ke_base)
    monkeypatch.setattr(ein, "_bracketed_root", _brentq_root)
    want = ein.search_diameters(ke_base)
    exact = [[c.z_values for c in res.candidates if c.ke_ok and c.confirmed_exact] for res in (got, want)]
    assert exact[0] == exact[1] and len(exact[0]) == 1


def test_bracketed_root_on_hand_built_brackets():
    root = ein._bracketed_root
    # a zero one ulp inside either end
    for x0, a, b in [(math.nextafter(1.0, 0.0), 0.0, 1.0), (math.nextafter(1.0, 2.0), 1.0, 2.0)]:
        f = lambda x: x - x0
        got = root(f, a, b, f(a), f(b))
        assert abs(got - x0) <= 1e-14 and abs(got - brentq(f, a, b, xtol=1e-14)) <= 1e-13
    # a zero at an end is returned as it is, without an evaluation
    never = lambda x: pytest.fail("evaluated at %r" % x)
    assert root(never, 0.25, 1.0, 0.0, 3.0) == 0.25
    assert root(never, 0.25, 1.0, -3.0, 0.0) == 1.0
    # a stiff zero and a triple one, where plain regula falsi stalls on one side
    f = lambda x: math.exp(20 * x) - 2.0
    assert abs(root(f, 0.0, 1.0, f(0.0), f(1.0)) - math.log(2.0) / 20) <= 1e-14
    f = lambda x: (x - 0.375) ** 3
    assert abs(root(f, 0.0, 2.0, f(0.0), f(2.0)) - 0.375) <= 1e-14
    with pytest.raises(InternalError, match="one sign"):
        root(never, 0.0, 1.0, 1.0, 2.0)


def test_search_diameters_rejects_large_centers():
    flag, j = _flag_j("A1xA1xA1xA1")
    base = make_base(flag, j, flag.center_basis[0])
    with pytest.raises(InputError):
        ein.search_diameters(base)


def test_search_walled_su2_product_rejected_by_norm():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    h2 = coroot_vector(flag.rs, flag.rs.simple_roots()[1])
    base = make_base(flag, j, h1 - h2)
    assert ein.search_walled(base, 2, 2) == ()


def test_search_walled_oversized_walls_empty():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    base = make_base(flag, j, h1 - coroot_vector(flag.rs, flag.rs.simple_roots()[1]))
    assert ein.search_walled(base, 5, 1) == ()


def test_search_walled_rejects_diameter_case():
    flag, j = _flag_j("A1xA1")
    h1 = coroot_vector(flag.rs, flag.rs.simple_roots()[0])
    base = make_base(flag, j, h1 - coroot_vector(flag.rs, flag.rs.simple_roots()[1]))
    with pytest.raises(InputError):
        ein.search_walled(base, 1, 1)


def test_projective_space_profile_matches_closed_form():
    # degrees (3, 1) on the painted-A2 flag at period scale 1/3: the segment
    # polynomial is P(v) = v^2/36, so u = -2 [v^4/144 - v^3/36]/(v^2/36)
    # = f(4 - f)/2 and delta = sqrt(2) * int_0^4 df/sqrt(f(4-f)) = sqrt(2) pi
    flag, j = _flag_j("A2", (1,))
    probe = make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3))
    cand = ein.search_walled(probe, 3, 1)[0]
    base = CenterLine(flag=flag, j=j, z=CartanVector(cand.z_values), period_scale=Fraction(1, 3))
    sp = ein.build_segment_polynomial(base, 3, 1)
    assert sp.coeffs == [Fraction(0), Fraction(0), Fraction(1, 36)]
    assert ein.u_eval(sp, Fraction(1)) == Fraction(3, 2)  # f(4-f)/2 at f=1
    assert ein.u_eval(sp, Fraction(2)) == 2

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
    res = ein.search_diameters(base)
    winners = [c for c in res.candidates if c.ke_ok]
    assert winners
    cand = winners[0]
    assert not cand.confirmed_exact and not cand.futaki.exact
    assert abs(float(cand.futaki.value)) < 1e-10
    assert cand.futaki.error_bound is not None

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
    found = ein.search_walled(base, 2, 2)
    assert len(found) == 1
    cand = found[0]
    assert cand.z_values == (Fraction(1, 4), Fraction(-1, 4)) or cand.z_values == (
        Fraction(-1, 4), Fraction(1, 4))
    assert cand.futaki.value == 0 and cand.segment.overall_ok

    b = CenterLine(flag=flag, j=j, z=CartanVector(cand.z_values), period_scale=Fraction(1, 2))
    sp = ein.build_segment_polynomial(b, 2, 2)
    assert sp.coeffs == [Fraction(0), Fraction(1, 4), Fraction(-1, 16)]  # v(4-v)/16
    prof = ein.profile_solve(sp, grid_size=200)
    assert abs(prof.delta - math.sqrt(2) * math.pi) < 1e-12
    ver = ein.verify_profile(sp, prof, n_check=24)
    assert ver["max_tangential_residual"] < 1e-9
    assert ver["max_normal_residual"] < 1e-9


def test_unit_norm_solutions_quadratic_field_line():
    # an affine line of wall solutions meets the unit sphere in Q(sqrt(3))
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    sols = list(ein._unit_norm_solutions([Fraction(1, 2), Fraction(0)],
                                         [[Fraction(0), Fraction(1)]], gram, Fraction(1)))
    assert len(sols) == 2
    for s in sols:
        norm = s[0] * s[0] + s[1] * s[1]
        assert norm == 1
        assert isinstance(s[1], Quad) and s[1].r == 3

    # tangent line: a single rational solution
    sols = list(ein._unit_norm_solutions([Fraction(1), Fraction(0)],
                                         [[Fraction(0), Fraction(1)]], gram, Fraction(1)))
    assert sols == [[Fraction(1), Fraction(0)]]

    # a line missing the sphere entirely
    sols = list(ein._unit_norm_solutions([Fraction(2), Fraction(0)],
                                         [[Fraction(0), Fraction(1)]], gram, Fraction(1)))
    assert sols == []


def test_search_walled_underdetermined_line_path_runs():
    # one wall on a two-dimensional center: the solver walks an affine line
    # and intersects the unit sphere; here nothing survives the later filters
    flag, j = _flag_j("A2xA2", (1, 3))
    base = make_base(flag, j, flag.center_basis[0])
    assert ein.search_walled(base, 2, 1) == ()


def test_search_walled_fixed_point_case_under_period_scale():
    # the projective-space configuration: full wall at one end; the linear
    # system forces Z = -Zk/m1, which meets the norm condition only for
    # period scale 1/3 (paper-literal scale 1 rejects it)
    flag, j = _flag_j("A2", (1,))
    base1 = make_base(flag, j, flag.center_basis[0])
    assert ein.search_walled(base1, 3, 1) == ()
    base3 = make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3))
    found = ein.search_walled(base3, 3, 1)
    assert len(found) == 1
    cand = found[0]
    assert cand.futaki.value == 0
    assert cand.segment.candidate.m1 == 3 and cand.segment.candidate.m2 == 1
    assert cand.segment.overall_ok
    zk = ricci_invariant(flag, j)
    assert CartanVector(cand.z_values).scale(-3).values == zk.values
