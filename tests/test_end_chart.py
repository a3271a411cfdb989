"""End charts: the right end of a segment is the left end of the reversed one."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flagke import einstein as ein
from flagke.errors import DegreeMismatchError, NoKahlerEinsteinError
from flagke.flag import build_flag, default_complex_structure
from flagke.model import make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, build_root_system, coroot_vector
from segment_checks import chart_lists, evaluation_bound, exact_poly_at, p_add, p_mul, q_coeffs, u_exact, u_float

# a float winner on A2xA2xA2 [1, 3, 5], found by the former latitude scan
D3_WINNER_Z = (-0.0898670954639291, 0.0, -0.31304222233559, 0.0, 0.37937906134639543, 0.0)


def p_compose_linear(a, c0, c1):
    """Exact composition p(c0 + c1*x) by Horner; the oracle for reversed segments."""
    out = []
    for coeff in reversed(list(a)):
        out = p_add(p_mul(out, [c0, c1]), [coeff])
    return out


def _sp(group, painted, z, m1, m2, period_scale=Fraction(1)):
    flag = build_flag(build_root_system(LieAlgebraSpec.parse(group)), painted)
    j = default_complex_structure(flag)
    base = make_base(flag, j, CartanVector(tuple(z)), period_scale=period_scale)
    return ein.build_segment_polynomial(base, m1, m2)


def _a2xa2_diameter():
    return _sp("A2xA2", [1, 3], [Fraction(1), Fraction(0), Fraction(-1), Fraction(0)], 1, 1)


def _walled_a2():
    # Z = -Zk/3: a full wall at Z1, admissible only at period scale 1/3
    return _sp("A2", [1], [Fraction(-1, 6), Fraction(0)], 3, 1, period_scale=Fraction(1, 3))


def _float_d3_winner():
    return _sp("A2xA2xA2", [1, 3, 5], D3_WINNER_Z, 1, 1)


EXACT_CASES = [_a2xa2_diameter, _walled_a2]


@pytest.mark.parametrize("make", EXACT_CASES)
def test_reversed_left_chart_is_composed_right_end(make):
    sp = make()
    assert sp.exact
    rev = sp.reversed()
    assert (rev.m1, rev.m2) == (sp.m2, sp.m1)
    p, q = chart_lists(rev)[0]
    p_right = p_compose_linear(sp.coeffs, sp.f_delta, Fraction(-1))
    q_right = p_compose_linear(q_coeffs(sp), sp.f_delta, Fraction(-1))
    assert p == p_right[sp.m2 - 1:]
    assert q == q_right[sp.m2:]
    right, chart = sp.deflations[1], rev.deflations[0]
    for key in ("p_f", "q_f", "dp_f"):
        assert getattr(right, key).tobytes() == getattr(chart, key).tobytes()
    twice = rev.reversed()
    assert twice.coeffs == sp.coeffs and q_coeffs(twice) == q_coeffs(sp)


@pytest.mark.parametrize("make", EXACT_CASES)
def test_reversed_negates_the_odd_product_coefficients(make, monkeypatch):
    """E_rev(y) = E(-y): reversing takes E's integer lists with the odd coefficients negated, multiplying nothing."""
    sp = make()
    with monkeypatch.context() as patch:
        patch.setattr(ein, "int_linear_product", None)
        rev = sp.reversed()
    fresh = ein.SegmentPolynomial(rev.modules, rev.den, rev.r, rev.m1, rev.m2)
    assert rev.product == fresh.product
    assert (rev.coeffs, q_coeffs(rev)) == (fresh.coeffs, q_coeffs(fresh))
    for got, want in ((rev.zk_f, fresh.zk_f), (rev.k_f, fresh.k_f), (rev.a_f, fresh.a_f)):
        assert got.tobytes() == want.tobytes()  # alpha(Z) negated in floats is the float of -alpha(Z)


def test_reversed_float_winner_matches_composition():
    # float coefficients: the composition and the reversed product round
    # differently, so they agree to rounding, not bit for bit
    sp = _float_d3_winner()
    assert not sp.exact
    chart = sp.reversed().deflations[0]
    p_right = p_compose_linear(sp.coeffs, sp.f_delta, Fraction(-1))[sp.m2 - 1:]
    q_right = p_compose_linear(q_coeffs(sp), sp.f_delta, Fraction(-1))[sp.m2:]
    for got, want in ((chart.p_f.tolist(), p_right), (chart.q_f.tolist(), q_right)):
        assert len(got) == len(want)
        scale = max(abs(c) for c in want)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14 * scale
    twice = sp.reversed().reversed()
    for got, want in ((twice.coeffs, sp.coeffs), (q_coeffs(twice), q_coeffs(sp))):
        scale = max(abs(c) for c in want)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-14 * scale


def _walled_a2_floats():
    return _sp("A2", [1], [-1 / 6, 0.0], 3, 1, period_scale=Fraction(1, 3))


@pytest.mark.parametrize("make", EXACT_CASES + [_walled_a2_floats, _float_d3_winner])
def test_stacked_chart_table_is_each_chart_by_horner(make):
    """One product of the (6, n) chart table gives each chart's p, q and p' within the rounding bound of its own rows
    by Horner, at seeded distances from both ends up to the midpoint: both charts at every point, and each point at
    its own end as `fp_fpp` and `u_eval` read it.

    Exact and float keys; the walled (3, 1) segment has charts of 2 and 4
    columns, so the table zero-pads its left rows.
    """
    sp = make()
    left, right = sp.deflations
    widths = [chart.rows.shape[1] for chart in (left, right)]
    assert sp.chart_table.shape == (6, max(widths))
    assert make is not _walled_a2 or widths == [2, 4]
    half = float(sp.f_delta) / 2
    rng = np.random.default_rng(9709039)
    x = np.concatenate([half * rng.random(24), half * (1 - rng.random(8) * 1e-6), [half]])
    f = np.concatenate([x, 2 * half - x])  # each distance from the left end, then from the right
    near, own = ein._nearer_end(sp, f)
    assert own.tolist() == (f > half).tolist()
    for got, sides, points in ((ein._chart_values(sp, x), [0] * len(x) + [1] * len(x), np.tile(x, 2)),
                               (ein._chart_values(sp, near, own), own.astype(int), near)):
        v, rows = got
        rows = np.asarray(rows).reshape(3, -1)
        assert np.ravel(v).tobytes() == (-2.0 * rows[1] / rows[0]).tobytes()
        for side, point, values in zip(sides, points.tolist(), rows.T):
            chart = (left, right)[side]
            for c, value in zip((chart.p_f, chart.q_f, chart.dp_f), values.tolist()):
                bound = evaluation_bound(c, point, chart.rows.shape[1])
                assert abs(Fraction(value) - exact_poly_at(c, point)) <= bound
                assert abs(value - ein.p_eval_float(c, point)) <= 2 * bound
    u = ein.u_eval(sp, f)
    assert np.all(np.abs(u - u_float(sp, f)) <= 1e-13 * np.abs(u))


def test_walled_profile_is_the_projective_space_metric():
    # the (3, 1) segment is CP^3 over CP^2: delta = pi * sqrt(2)
    sp = _walled_a2()
    assert (sp.m1, sp.m2) == (3, 1)
    prof = ein.profile_solve(sp)
    assert abs(prof.delta - math.pi * math.sqrt(2)) < 1e-12
    d = prof.diagnostics
    assert d["f_delta_error"] < 1e-8
    assert abs(d["fpp0"] - 1.0) < 1e-4 and abs(d["fpp_delta"] + 1.0) < 1e-4
    assert d["max_ode_residual"] < 1e-8
    res = ein.verify_profile(sp, prof)
    assert res["max_tangential_residual"] < 1e-6
    assert res["max_normal_residual"] < 1e-6
    assert res["normal_two_route_gap"] < 1e-6
    assert res["delta_ode_gap"] < 1e-6
    assert res["roundtrip_error"] < 1e-8


def test_walled_segment_seen_from_its_walled_end_and_in_floats():
    # the mirror direction -Z with degrees (1, 3) has the walls at Z2, where the degree check must find them,
    # and is the reversed segment; the float direction at m1 = 3 solves the same projective-space profile
    sp = _walled_a2()
    mirror = _sp("A2", [1], [Fraction(1, 6), Fraction(0)], 1, 3, period_scale=Fraction(1, 3))
    rev = sp.reversed()
    assert (mirror.m1, mirror.m2) == (1, 3) and (mirror.coeffs, q_coeffs(mirror)) == (rev.coeffs, q_coeffs(rev))
    floats = _sp("A2", [1], [-1 / 6, 0.0], 3, 1, period_scale=Fraction(1, 3))
    assert not floats.exact
    prof = ein.profile_solve(floats)
    assert abs(prof.delta - math.pi * math.sqrt(2)) < 1e-12
    assert max(ein.verify_profile(floats, prof).values()) < 1e-6


def test_failed_chart_build_is_cached():
    # nonvanishing obstruction: the same exception object every time, and
    # u_eval, like its Horner reference, falls back to the direct ratio
    sp = _sp("A2xA2", [1, 3], [Fraction(1), Fraction(0), Fraction(1), Fraction(0)], 1, 1)
    with pytest.raises(NoKahlerEinsteinError) as first:
        sp.deflations
    with pytest.raises(NoKahlerEinsteinError) as second:
        sp.deflations
    assert first.value is second.value
    for f in (Fraction(1, 7), Fraction(1), Fraction(3, 2), Fraction(19, 10)):
        exact = float(u_exact(sp, f))
        for u in (ein.u_eval(sp, float(f)), u_float(sp, float(f))):
            assert abs(u - exact) < 1e-12 * max(1.0, abs(exact))


def test_failed_degree_check_is_cached():
    flag = build_flag(build_root_system(LieAlgebraSpec.parse("A1xA1")), [])
    j = default_complex_structure(flag)
    h1, h2 = (coroot_vector(flag.rs, a) for a in flag.rs.simple_roots())
    sp = ein.SegmentPolynomial.from_base(make_base(flag, j, h1 + h2), 1, 1)
    with pytest.raises(DegreeMismatchError) as first:
        sp.deflations
    with pytest.raises(DegreeMismatchError) as second:
        sp.deflations
    assert first.value is second.value
