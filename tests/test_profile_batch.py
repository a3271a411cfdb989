"""Batched profile inversion against the scalar brentq oracle, and delta at 30 digits.

``ProfileMap.f_of_t``/``t_of_f`` invert whole arrays by safeguarded Newton on
the panel table's polynomials, and ``verify_profile`` evaluates all its checks in one
batch.  The oracle below is the per-point path they replaced: one ``brentq``
per time on the partial-panel Gauss sum, and one Gauss sum per ``t(f)``,
over the two half tables of `segment_checks.HalfTable`, which are also the
oracle of the one table over both charts.  Both routes to delta, the table
and tanh-sinh quadrature, are checked against ``mpmath.quad`` on the end
charts' exact coefficients, and ``f_of_t`` against a 34-digit inverse of
t(w) built from them.
"""

import functools
import itertools
import math
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from flagke import cli
from flagke import einstein as ein
from flagke.errors import InternalError, NoKahlerEinsteinError
from flagke.flag import build_flag, default_complex_structure
from flagke.model import make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, build_root_system
from flagke.polys import float_linear_product, int_taylor_shift, pair_scalar
from flagke.scalars import Quad
from segment_checks import (chart_lists, evaluation_bound, exact_poly_at, fp_fpp_by_passes, fp_fpp_rounding,
                            half_tables, int_shifted_antiderivative, p_antideriv, p_deriv, p_mul, p_to_float, pair_poly,
                            powers_by_loop, q_coeffs, two_table_f_of_t, two_table_t_of_f, verify_rounding)

# a float winner on A2xA2xA2 [1, 3, 5], found by the former latitude scan
D3_WINNER_Z = (-0.0898670954639291, 0.0, -0.31304222233559, 0.0, 0.37937906134639543, 0.0)


def _antisymmetric(g, node):
    """G x G with one unpainted node per factor and z = c (+) -c."""
    n = LieAlgebraSpec.parse(g).rank
    z = [0] * (2 * n)
    z[node], z[n + node] = 1, -1
    return ("%sx%s" % (g, g), [k for k in range(2 * n) if k not in (node, n + node)], z, 1, 1)


CASES = {
    "a2xa2-diameter": ("A2xA2", [1, 3], [1, 0, -1, 0], 1, 1),
    "walled-a2-3-1": ("A2", [1], [Fraction(-1, 6), Fraction(0)], 3, 1, Fraction(1, 3)),
    "float-d3-winner": ("A2xA2xA2", [1, 3, 5], D3_WINNER_Z, 1, 1),
}
# one G x G per |R_m+| band of the construct benchmark: 4-8, 10-12, 14-18,
# 20-26, 30-40 and 42-58
for _g, _node in [("A2", 0), ("G2", 0), ("B3", 1), ("A6", 1), ("D5", 2), ("E6", 1)]:
    CASES["%sx%s" % (_g, _g)] = _antisymmetric(_g, _node)


@functools.lru_cache(maxsize=None)
def _solve(name):
    group, painted, z, m1, m2, *scale = CASES[name]
    flag = build_flag(build_root_system(LieAlgebraSpec.parse(group)), painted)
    base = make_base(flag, default_complex_structure(flag), CartanVector(tuple(z)), *scale)
    sp = ein.build_segment_polynomial(base, m1, m2)
    return sp, ein.profile_solve(sp, grid_size=1024)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return _solve(request.param)


# ---------------------------------------------------------------------------
# the scalar oracle

GAUSS = ein._gauss_rule(ein.PROFILE_GAUSS_ORDER)


def _gauss_panel(g, a, b, gx, gw):
    """Gauss-Legendre rule for integral_a^b g(w) dw on one panel."""
    if b <= a:
        return 0.0
    mid, half = (a + b) / 2, (b - a) / 2
    return float(np.dot(g(mid + half * gx), gw) * half)


def _oracle_t_of_w(table, w):
    i = int(np.searchsorted(table.edges, w, side="right")) - 1
    i = max(0, min(i, len(table.edges) - 2))
    return float(table.cum[i] + _gauss_panel(table.g, table.edges[i], min(w, table.edges[-1]), *GAUSS))


def _oracle_w_of_t(table, t):
    i = int(np.searchsorted(table.cum, t, side="right")) - 1
    i = max(0, min(i, len(table.edges) - 2))
    lo, hi = float(table.edges[i]), float(table.edges[i + 1])

    def h(w):
        return table.cum[i] + _gauss_panel(table.g, lo, w, *GAUSS) - t

    if h(hi) < 0:  # cumulative rounding at a panel edge
        hi = float(table.edges[-1])
    if h(hi) < 0:  # t is the table's total, which this panel's own Gauss sum misses by rounding
        assert h(hi) >= -4 * np.finfo(float).eps * t
        return hi
    return brentq(h, lo, hi, xtol=1e-15, rtol=8.9e-16)


@functools.lru_cache(maxsize=None)
def _tables(pmap):
    """The oracle half tables of the map's segment polynomial, built once per map."""
    return half_tables(pmap.sp)


def _oracle_f_of_t(pmap, t):
    left, right = _tables(pmap)
    if t <= 0:
        return 0.0
    if t >= pmap.delta:
        return pmap.fd
    if t <= float(left.cum[-1]):
        return _oracle_w_of_t(left, t) ** 2
    return pmap.fd - _oracle_w_of_t(right, pmap.delta - t) ** 2


def _oracle_t_of_f(pmap, f):
    left, right = _tables(pmap)
    if f <= 0:
        return 0.0
    if f >= pmap.fd:
        return pmap.delta
    if f <= pmap.fm:
        return _oracle_t_of_w(left, math.sqrt(f))
    return pmap.delta - _oracle_t_of_w(right, math.sqrt(pmap.fd - f))


def _oracle_verify(sp, profile, n_check):
    """verify_profile's maxima, one check and one inversion at a time, and their rounding bounds.

    The bounds are `segment_checks.verify_rounding`'s, from the oracle's own
    states and stencil values.
    """
    pmap = profile.map
    checks = []

    def state(t):
        f = _oracle_f_of_t(pmap, t)
        fp, fpp = fp_fpp_by_passes(sp, f)
        return f, float(fp), float(fpp)

    def q_of(t):
        f, fp, fpp = state(t)
        return fpp - (fp * fp) * sp.log_deriv_sums(f)[0] / 2.0

    out = dict.fromkeys(["max_tangential_residual", "max_normal_residual", "normal_two_route_gap", "roundtrip_error"], 0.0)
    for t in np.linspace(0.0, profile.delta, n_check + 2)[1:-1]:
        f, fp, fpp = state(t)
        rn = ein.ricci_residuals_state(sp, f, fp, fpp)[1]
        h = min(profile.delta / 400.0, t / 3.0, (profile.delta - t) / 3.0)
        qs = [fpp - (fp * fp) * sp.log_deriv_sums(f)[0] / 2.0] + [q_of(t + h * x) for x in ein._STENCIL[1:]]
        rn_fd = -(qs[1] - 8 * qs[2] + 8 * qs[3] - qs[4]) / (12 * h) / fp
        checks.append((f, fp, qs, h))
        tan = float(np.max(np.abs(ein.ricci_residuals_state(sp, f, fp, fpp)[0])))
        for key, value in [
            ("max_tangential_residual", tan),
            ("max_normal_residual", abs(rn - 1.0)),
            ("normal_two_route_gap", abs(rn - rn_fd)),
            ("roundtrip_error", abs(_oracle_t_of_f(pmap, f) - t)),
        ]:
            out[key] = max(out[key], value)
    return out, verify_rounding(sp, *zip(*checks))


def _sample_times(pmap):
    """A 1024-point grid, every panel edge of both oracle tables, the split, 0 and delta."""
    left, right = _tables(pmap)
    return np.concatenate([
        np.linspace(0.0, pmap.delta, 1024),
        left.cum,
        pmap.delta - right.cum,
        [float(left.cum[-1]), 0.0, pmap.delta],
    ])


def _mp(c):
    """An exact coefficient (Fraction, Quad or float) as an mpf at the working precision."""
    if isinstance(c, Quad):
        return _mp(c.a) + _mp(c.b) * mpmath.sqrt(_mp(c.r))
    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    return mpmath.mpf(c)


def _mp_integrands(sp):
    """The end charts' integrands 2/sqrt(-2q/p)(w^2) in mpmath, from their exact coefficients."""
    def integrand(p, q):
        p, q = ([_mp(c) for c in reversed(cs)] for cs in (p, q))
        return lambda w: 2 / mpmath.sqrt(-2 * mpmath.polyval(q, w * w) / mpmath.polyval(p, w * w))
    return [integrand(p, q) for p, q in chart_lists(sp)]


def _mp_delta(sp):
    """delta at 30 digits: per end chart, integral_0^sqrt(half) 2/sqrt(-2q/p)(w^2) dw."""
    with mpmath.workdps(30):
        w_mid = mpmath.sqrt(_mp(sp.f_delta) / 2)
        return sum(mpmath.quad(g, [0, w_mid]) for g in _mp_integrands(sp))


def _mp_f_of_t(sp, ts, starts):
    """f(t) at 34 digits: the root w of integral_0^w g = t on the left chart, or = delta - t on the right one.

    mpmath.findroot runs Newton (dt/dw = g) to its 34-digit tolerance from
    w0, the float inverse ``starts``, and fails unless it gets there; the
    integral is taken once over [0, w0] and then over [w0, w].
    """
    with mpmath.workdps(34):
        fd = _mp(sp.f_delta)
        w_mid = mpmath.sqrt(fd / 2)
        ends = [(g, mpmath.quad(g, [0, w_mid])) for g in _mp_integrands(sp)]
        delta = ends[0][1] + ends[1][1]
        out = []
        for t, f in zip(ts, starts):
            t = mpmath.mpf(t)
            right = t > ends[0][1]
            g, target = ends[right][0], (delta - t if right else t)
            w0 = mpmath.sqrt(fd - f if right else f)
            t0 = mpmath.quad(g, [0, w0]) - target
            w = mpmath.findroot(lambda w: t0 + mpmath.quad(g, [w0, w]), w0, df=g, solver="newton")
            out.append(fd - w * w if right else w * w)
        return out


# ---------------------------------------------------------------------------
# tests


def test_delta_routes_match_mpmath_oracle(case):
    """Both routes to delta within 1e-14 relative of 30 digits, and the tables' error estimate above their error.

    The estimate is the panels' Legendre tails and the rounding of the
    cumulative sums; the tails alone read half the error on G2xG2 and B3xB3.
    """
    sp, profile = case
    want = _mp_delta(sp)
    for got in (ein.profile_delta_tanh_sinh(sp), profile.map.delta):
        assert abs(got - want) <= 1e-14 * want
    assert abs(profile.map.delta - want) <= profile.diagnostics["quad_error_estimate"] < 1e-13


@pytest.mark.parametrize("name", ["a2xa2-diameter", "walled-a2-3-1", "float-d3-winner"])
def test_f_of_t_matches_34_digit_inverse(name):
    """f_of_t within 1e-14 and within 16 ulps of f of the true inverse of t(f) at 8 times on each configuration of
    the golden reports.

    The ulp bound sees relative error where f is small; the inversion reads
    at most 7.6 ulps here, and the panel series with its three stages
    composed into one matrix 39.5.
    """
    sp, profile = _solve(name)
    ts = np.linspace(0.0, profile.delta, 10)[1:-1]
    got = profile.map.f_of_t(ts)
    want = _mp_f_of_t(sp, ts, got)
    errors = [abs(float(g - w)) for g, w in zip(got, want)]
    assert max(errors) <= 1e-14
    assert max(e / math.ulp(float(w)) for e, w in zip(errors, want)) <= 16


def test_f_of_t_matches_brentq_oracle(case):
    _, profile = case
    pmap = profile.map
    ts = _sample_times(pmap)
    want = np.array([_oracle_f_of_t(pmap, t) for t in ts])
    assert np.max(np.abs(pmap.f_of_t(ts) - want)) <= 1e-14
    assert np.max(np.abs(profile.f - want[:1024])) <= 1e-14


def test_t_of_f_matches_scalar_oracle(case):
    _, profile = case
    pmap = profile.map
    left, right = _tables(pmap)
    fs = np.concatenate([
        profile.f,
        left.edges ** 2,
        pmap.fd - right.edges ** 2,
        [pmap.fm, 0.0, pmap.fd],
    ])
    want = np.array([_oracle_t_of_f(pmap, f) for f in fs])
    assert np.max(np.abs(pmap.t_of_f(fs) - want)) <= 1e-14


def test_verify_profile_matches_per_check_oracle(case):
    """Every maximum within 1e-13 of the oracle's, or within its rounding bound where that is larger.

    The five-point stencil divides the rounding of q by 12 h f', and a wall
    module's residual divides it by alpha(Z1 - f Z), so an f one ulp apart
    moves the two-route gap by about 1e-13 and the walled tangential
    residual by about 2e-13.  The normal residual is rounding alone, on the
    scale of its cancelling terms, which grow near a wall: the walled one
    reads 1.1e-13 here and 3.6e-15 in the oracle.  These three bounds are
    derived per check.
    """
    sp, profile = case
    got = ein.verify_profile(sp, profile, n_check=64)
    want, rounding = _oracle_verify(sp, profile, 64)
    for key, value in want.items():
        assert abs(got[key] - value) <= max(1e-13, rounding.get(key, 0.0)), key


def _oracle_lists(sp):
    """P, Q, alpha(Zk), alpha(Z) and alpha(Z1) of a segment as Fraction/Quad lists, or as floats on float keys.

    Exact: `pair_poly` and `int_shifted_antiderivative` of the Taylor-shifted
    product and `pair_scalar` of the keys.  Float: alpha(Zk) is the
    `pair_scalar` of its key's integers, P the float chain and Q the
    Fraction route `p_antideriv(p_mul(P, [-m1, 1]))`.
    """
    m1, d = sp.m1, [len(roots) for roots in sp.modules.values()]
    if not sp.exact:
        zk, k = [pair_scalar(*key[0]) for key in sp.modules], [key[1] for key in sp.modules]
        a = (np.array(zk) + m1 * np.array(k)).tolist()
        p = float_linear_product(zip(np.repeat(a, d).tolist(), np.repeat(k, d).tolist()))
        return p, p_antideriv(p_mul(p, [-Fraction(m1), Fraction(1)])), zk, k, a
    us, vs = (int_taylor_shift(c, -m1) for c in sp.product)
    den = sp.den ** sum(d)
    values = [[pair_scalar(x + m * z, y + m * w, sp.den, sp.r) for x, y, z, w in sp.modules] for m in (0, m1)]
    k = [pair_scalar(z, w, sp.den, sp.r) for _, _, z, w in sp.modules]
    return pair_poly(us, vs, den, sp.r), int_shifted_antiderivative(us, vs, den, sp.r, m1), values[0], k, values[1]


def _assert_floats_of_oracle_lists(sp, charts):
    """The float arrays of sp, its reversal and each end chart byte for byte against float() of `_oracle_lists`."""
    for s, chart in zip((sp, sp.reversed()), charts):
        p, q, zk, k, a = _oracle_lists(s)
        m = s.m1
        for got, want in ((s.coeffs_f, p), (s.q_coeffs_f, q), (s.zk_f, zk), (s.k_f, k), (s.a_f, a),
                          (chart.p_f, p[m - 1:]), (chart.q_f, q[m:]), (chart.dp_f, p_deriv(p[m - 1:]))):
            want = p_to_float(want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_chart_floats_are_the_floats_of_the_exact_lists(case):
    """Every float array of the segment and its charts is rounded once from the integers, as float() of the lists."""
    sp, _ = case
    _assert_floats_of_oracle_lists(sp, sp.deflations)


def test_sqrt_coefficient_floats_are_the_floats_of_the_quads():
    """A2xA2 [1, 3] at z = 2,0,-1,0: 4 Quads in P and 5 in Q; the obstruction does not vanish, so the charts are
    built directly, and the exact Q(2) is the error's value."""
    flag = build_flag(build_root_system(LieAlgebraSpec.parse("A2xA2")), [1, 3])
    base = make_base(flag, default_complex_structure(flag), CartanVector((Fraction(2), 0, Fraction(-1), 0)))
    sp = ein.SegmentPolynomial.from_base(base, 1, 1)
    assert [sum(isinstance(c, Quad) for c in cs) for cs in (sp.coeffs, q_coeffs(sp))] == [4, 5]
    _assert_floats_of_oracle_lists(sp, [ein.EndChart(sp), ein.EndChart(sp.reversed())])
    with pytest.raises(NoKahlerEinsteinError, match=r"Q\(m1\+m2\) = 0 \+ -19/1500\*sqrt\(5\)"):
        sp.deflations


def test_scalar_in_float_out_and_shapes_kept(case):
    _, profile = case
    pmap = profile.map
    t = profile.delta / 3
    for x in (t, np.float64(t), np.array(t)):
        assert type(pmap.f_of_t(x)) is float
        assert type(pmap.t_of_f(x / profile.delta)) is float
    assert abs(pmap.f_of_t(t) - _oracle_f_of_t(pmap, t)) <= 1e-14
    grid = profile.t[1:-1].reshape(2, -1)
    assert pmap.f_of_t(grid).shape == grid.shape
    assert pmap.t_of_f(pmap.f_of_t(grid)).shape == grid.shape


def test_f_of_t_converges_at_the_first_and_last_step_of_every_grid(case):
    """One inversion of delta/(g - 1) and delta - delta/(g - 1) for every grid size g of the CLI, 16 to 65 536.

    Near a chart's end t is far below its panel's width in t, and the panel
    series rounds on the scale of cum[i] + sum |t_k|, not of t; a Newton
    stop on the scale of t alternated there without end.
    """
    _, profile = case
    step = profile.delta / (np.arange(16, 65537) - 1.0)
    f = profile.map.f_of_t(np.concatenate([step, profile.delta - step]))
    assert np.all((0.0 < f) & (f < profile.map.fd))
    assert np.all(np.diff(f[:len(step)]) <= 0) and np.all(np.diff(f[len(step):]) >= 0)


def test_fp_fpp_within_the_rounding_bound_of_the_exact_chart_values(case):
    """(f', f'') from one evaluation of each chart, and from the five-pass route, within a first-order rounding bound
    of the exact values at every 16th interior grid point.

    The exact values are those of the charts' float coefficients at the same
    float points, in Fractions; the bound is `segment_checks.fp_fpp_rounding`,
    the evaluations' gamma_2n sum |c_k| x^k carried through u and u F.  The
    two routes sum the powers in different orders, so they agree only to
    rounding.  sqrt(U) is irrational: f' is within b of it where
    max(f' - b, 0)^2 <= U <= (f' + b)^2.
    """
    sp, profile = case
    f = profile.f[1:-1:16]
    for fp, fpp in (sp.fp_fpp(f), fp_fpp_by_passes(sp, f)):
        for a, b, (U, FPP, b_fp, b_fpp) in zip(fp.tolist(), fpp.tolist(), fp_fpp_rounding(sp, f)):
            assert max(Fraction(a) - Fraction(b_fp), Fraction(0)) ** 2 <= U <= (Fraction(a) + Fraction(b_fp)) ** 2
            assert abs(Fraction(b) - FPP) <= b_fpp
    assert [type(x) for x in sp.fp_fpp(profile.f[100])] == [float, float]


def _stacked(left, right):
    """A stand-in segment polynomial for `_chart_values` alone: two charts' (3, n) float rows, stacked and padded."""
    table = np.zeros((6, max(left.shape[1], right.shape[1])))
    table[:3, :left.shape[1]], table[3:, :right.shape[1]] = left, right
    return types.SimpleNamespace(chart_table=table)


def test_chart_evaluation_is_within_the_rounding_bound_as_horner_is():
    """`_chart_values` and p_eval_float on random rows of degree 0 to 60, at x in [0, 2], each within gamma_2n sum
    |c_k| x^k of the exact value, n the chart's own width; at every point both charts, or each point's own chart, and
    an n-d x keeps its shape.

    The right chart is up to 3 columns narrower or wider than the left, and
    the table zero-pads the narrower.  p > 0 and q < 0 on x >= 0, so -2q/p
    is positive there and the charts evaluate; p' has random signs.
    """
    rng = np.random.default_rng(9709003)

    def rows(n):
        out = rng.uniform(0.5, 1.0, (3, n)) * 10.0 ** rng.integers(-3, 4, (3, n)) * [[1.0], [-1.0], [1.0]]
        out[2] *= rng.choice([-1.0, 1.0], n)
        return out

    for degree in range(61):
        charts = [rows(degree + 1), rows(max(1, degree + 1 + int(rng.integers(-3, 4))))]
        sp = _stacked(*charts)
        for x in (float(rng.uniform(0, 2)), np.array(rng.uniform(0, 2)), rng.uniform(0, 2, (1, 2))):
            right = rng.random(np.shape(x)) < 0.5
            for own in (None, right):
                v, got = ein._chart_values(sp, x, own)
                shape = ((2,) if own is None else ()) + np.shape(x)
                assert np.shape(v) == shape and np.shape(got) == (3,) + shape
                assert np.asarray(v).tobytes() == np.asarray(-2.0 * got[1] / got[0]).tobytes()
                got = np.asarray(got).reshape(3, -1)
                if own is None:
                    sides = np.repeat([0, 1], np.size(x))
                    points = np.tile(np.ravel(x), 2).tolist()
                else:
                    sides, points = np.ravel(own).astype(int), np.ravel(x).tolist()
                for side, point, values in zip(sides, points, got.T):
                    chart = charts[side]
                    for c, value in zip(chart, values):
                        exact, bound = exact_poly_at(c, point), evaluation_bound(c, point, chart.shape[1])
                        assert abs(Fraction(float(value)) - exact) <= bound
                        assert abs(Fraction(ein.p_eval_float(c, point)) - exact) <= bound


def test_power_table_is_the_loop_of_products_bit_for_bit():
    """`_power_table` is the loop that multiplies each row by s, bit for bit, and keeps the shape of s."""
    rng = np.random.default_rng(9709003)
    for n in range(2, 62):
        for s in (rng.uniform(-1, 1, 7), rng.uniform(0, 2, 1040), np.zeros(0)):
            assert ein._power_table(s, n).tobytes() == powers_by_loop(s, n).tobytes()
    assert ein._power_table(0.5, 4).tolist() == [1.0, 0.5, 0.25, 0.125]
    assert ein._power_table(rng.uniform(0, 2, (2, 3)), 5).shape == (5, 2, 3)
    assert ein._power_table(rng.uniform(0, 2, 3), 1).tolist() == [[1.0] * 3]


def test_panel_powers_are_the_loop_of_products_bit_for_bit(case):
    """ProfileMap._powers on the panels of the profile grid is the oracle half tables' loop, bit for bit."""
    _, profile = case
    pmap = profile.map
    w = np.sqrt(np.minimum(profile.f, pmap.fd - profile.f))
    i = pmap._panel(w, profile.f > pmap.fm, pmap.edges)
    want = powers_by_loop((w - pmap.mid[i]) / pmap.half[i], len(pmap.t_cols))
    assert pmap._powers(i, w).tobytes() == want.tobytes()


def test_verify_and_the_residual_columns_take_one_pass_of_the_log_derivative_sums(case, monkeypatch):
    """verify_profile sums k/(a - k f) once, over all 64 checks and their stencil points, and the CLI's residual
    columns once over the interior grid; `ricci_residuals_state` is, bit for bit, each residual from a pass of its
    own."""
    sp, profile = case
    f, fp, fpp = state = (profile.f[1:-1], profile.fp[1:-1], profile.fpp[1:-1])
    both = ein.ricci_residuals_state(sp, *state)
    apart = (ein._tangential(sp, f, ein._ricci_q(fp, fpp, sp.log_deriv_sums(f)[0])),
             ein._normal(fp, fpp, *sp.log_deriv_sums(f)))
    for got, want in zip(both, apart):
        assert got.tobytes() == want.tobytes()
    sizes = []
    sums = ein.SegmentPolynomial.log_deriv_sums
    monkeypatch.setattr(ein.SegmentPolynomial, "log_deriv_sums",
                        lambda self, f: sizes.append(np.size(f)) or sums(self, f))
    ein.verify_profile(sp, profile, n_check=64)
    assert sizes == [64 * len(ein._STENCIL)]
    cli._residual_columns(sp, profile)
    assert sizes[1:] == [len(profile.t) - 2]


def test_newton_non_convergence_raises_internal_error(case, monkeypatch):
    """With a void certificate (K = inf) on every panel, one Newton step from the Hermite start is not yet at the
    rounding level of the step test, so one allowed batch ends in an internal error."""
    _, profile = case
    monkeypatch.setattr(ein, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(profile.map, "K", np.full_like(profile.map.K, np.inf))
    with pytest.raises(InternalError, match="did not converge"):
        profile.map.f_of_t(profile.t)


def test_panel_series_integrates_the_interpolant_exactly():
    """The stages of the panel series: Legendre coefficients, their antiderivative from -1 and the power basis.

    M is checked bit for bit against Bonnet's recursion in Fractions; L and D
    on a random polynomial of degree n - 1 in s, which the n-node interpolant
    reproduces, evaluated on [-1, 1] against its values and its antiderivative.
    """
    n = ein.PROFILE_GAUSS_ORDER
    L, D, M = ein._panel_series(n)
    legendre = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, n):
        legendre.append([((2 * k + 1) * a - k * b) / (k + 1)
                         for a, b in itertools.zip_longest([0] + legendre[k], legendre[k - 1], fillvalue=0)])
    exact = np.array([[float(p[j]) if j < len(p) else 0.0 for p in legendre] for j in range(n + 1)])
    assert M.tobytes() == exact.tobytes()
    power = np.polynomial.polynomial
    a = np.random.default_rng(9709003).standard_normal(n)
    c = L @ power.polyval(ein._gauss_rule(n)[0], a)
    s = np.linspace(-1.0, 1.0, 33)
    for got, want in ((M[:-1, :-1] @ c, a), (M @ (D @ c), power.polyint(a, lbnd=-1))):
        assert np.max(np.abs(power.polyval(s, got) - power.polyval(s, want))) <= 1e-13 * np.abs(want).sum()


def _horner_out_of_place(coeffs, x):
    """Horner's rule with a fresh array per step: the oracle of p_eval_float's rounding."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in coeffs[::-1]:
        out = out * x + c
    return out


def test_in_place_horner_matches_out_of_place_bit_for_bit():
    rng = np.random.default_rng(9709003)
    for degree in range(61):
        coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-6, 7, degree + 1)
        for x in (float(rng.uniform(-2, 2)), np.float64(rng.uniform(-2, 2)), np.array(rng.uniform(-2, 2)),
                  rng.uniform(-2, 2, 7), rng.uniform(-2, 2, (3, 5))):
            got, want = ein.p_eval_float(coeffs, x), _horner_out_of_place(coeffs, x)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            if np.ndim(x) == 0:
                assert isinstance(got, float)


def test_inversion_evaluates_no_integrand_and_one_newton_batch(case, monkeypatch):
    """Once the map is built, f_of_t and t_of_f read only the panel series, and every inversion stops after one
    Newton batch, at the certificate of its first step; verify_profile evaluates the chart table twice, for (f', f'')
    and for tanh-sinh's delta, and integrates nothing on the table.

    The inversions: grids of 16, 9 794 and 65 536 points, `_sample_times` (a
    1024-point grid and every panel edge of both charts), and verify's 64
    checks with their stencil points.  Each batch, and each t_of_f, builds
    one power table of s.
    """
    sp, profile = case
    pmap = profile.map
    charts, powers, f_of_t = ein._chart_values, ein.ProfileMap._powers, ein.ProfileMap.f_of_t
    calls = {"charts": 0, "powers": 0}
    batches = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def counted_f_of_t(self, t):
        before = calls["powers"]
        out = f_of_t(self, t)
        batches.append(calls["powers"] - before)
        return out

    times = _sample_times(pmap)  # before counting: the oracle half tables it reads evaluate both charts
    monkeypatch.setattr(ein, "_chart_values", counted("charts", charts))
    monkeypatch.setattr(ein.ProfileMap, "_powers", counted("powers", powers))
    monkeypatch.setattr(ein.ProfileMap, "f_of_t", counted_f_of_t)
    for grid in (16, 9794, 65536):
        pmap.f_of_t(np.linspace(0.0, pmap.delta, grid))
    pmap.t_of_f(pmap.f_of_t(times))
    assert calls["charts"] == 0
    ein.verify_profile(sp, profile, n_check=64)
    assert calls["charts"] == 2  # (f', f'') at the checks and tanh-sinh's delta, one product of the chart table each
    assert batches == [1] * 5 and calls["powers"] == 7


def test_a_poor_start_is_not_certified_and_converges_in_more_batches(case, monkeypatch):
    """With the Hermite start's end slopes off by 2x, the first steps are too long to certify or to pass the step
    test, and the inversion takes more batches to the half tables' inverse, within 2e-15."""
    sp, profile = case
    pmap = profile.map
    calls = []
    powers = ein.ProfileMap._powers
    monkeypatch.setattr(ein.ProfileMap, "_powers", lambda self, i, w: calls.append(1) or powers(self, i, w))
    monkeypatch.setattr(pmap, "g0", 2 * pmap.g0)
    monkeypatch.setattr(pmap, "g1", pmap.g1 / 2)
    got = pmap.f_of_t(profile.t)
    assert len(calls) > 1
    assert np.max(np.abs(got - two_table_f_of_t(sp, _tables(pmap), profile.t))) <= 2e-15


@pytest.mark.parametrize("grid", [1024, 65536])
def test_one_table_is_the_two_half_tables(case, grid):
    """The table over both end charts is the two half tables bit for bit, and so is t_of_f; f_of_t is within 2e-15.

    Bit for bit: delta, quad_error_estimate, the cumulative tables, the
    panel edges in w, g at the edges and both series' columns.  f_of_t stops
    at the certificate of its first Newton step where each half table takes
    a second, confirming one, so it moves by rounding: within 16 ulps of f
    at times in [delta/1023, delta - delta/1023].  Nearer the ends f is
    small and both lose relative accuracy there.
    """
    sp, profile = case
    pmap = profile.map
    tables = left, right = _tables(pmap)
    assert pmap.delta == float(left.cum[-1] + right.cum[-1])
    assert profile.diagnostics["quad_error_estimate"] == left.error + right.error
    for got, want in ((pmap.cum, np.array([left.cum, right.cum])), (pmap.edges, np.array([left.edges, right.edges])),
                      (pmap.g0, np.concatenate([left.g_edges[:-1], right.g_edges[:-1]])),
                      (pmap.g1, np.concatenate([left.g_edges[1:], right.g_edges[1:]])),
                      (pmap.t_cols, np.hstack([left.t_cols, right.t_cols])),
                      (pmap.g_cols, np.hstack([left.g_cols, right.g_cols]))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    t = np.linspace(0.0, pmap.delta, grid)
    got, want = pmap.f_of_t(t), two_table_f_of_t(sp, tables, t)
    assert np.max(np.abs(got - want)) <= 2e-15
    inner = (t >= pmap.delta / 1023) & (t <= pmap.delta - pmap.delta / 1023)
    assert np.all(np.abs(got - want)[inner] <= 16 * np.spacing(want[inner]))
    assert pmap.t_of_f(want).tobytes() == two_table_t_of_f(sp, tables, want).tobytes()


def _dyadic(x):
    """A double x as the integer x 2^1100, exactly: its denominator is a power of two, at most 2^1074."""
    n, d = float(x).as_integer_ratio()
    return n * (2 ** 1100 // d)


def test_newton_certificate_bounds_the_first_step(case, monkeypatch):
    """K bounds max|dG/dw| / (2 min G) on every panel, and the first Newton step's error by 2 K delta^2.

    Sampled at 2 001 points of s on each panel of both charts.  The gap
    between the g series G and the derivative of the t series T, summed
    over their power coefficients, is below NEWTON_GAP min G, in integers.  At
    16 seeded times, the step delta from the library's Hermite start w0 is
    taken on the panel's series in mpmath, w1 = w0 - (T(w0) - t)/G(w0), and
    lands within 2 K delta^2 + NEWTON_GAP |delta| of the series' root.
    """
    sp, profile = case
    pmap = profile.map
    power = np.polynomial.polynomial
    s = np.linspace(-1.0, 1.0, 2001)
    G, dG = power.polyval(s, pmap.g_cols), power.polyval(s, power.polyder(pmap.g_cols)) / pmap.half[:, None]
    assert np.all(np.isfinite(pmap.K)) and np.all(2 * pmap.half * pmap.K <= 0.4)
    assert np.all(pmap.K >= np.max(np.abs(dG), axis=1) / (2 * np.min(G, axis=1)))
    exact = _dyadic  # every double is an integer over 2^1100, so these sums and products are exact integers
    for g, tc, half in zip(pmap.g_cols.T, pmap.t_cols.T, pmap.half):
        g, tc, half = [exact(x) for x in g], [exact(x) for x in tc], exact(half)
        gap_half = sum(abs(g[k] * half - (k + 1) * tc[k + 1] * 2 ** 1100) for k in range(len(g)))
        assert gap_half <= exact(ein.NEWTON_GAP) * (g[0] - sum(abs(x) for x in g[1:])) * half

    starts = []
    powers = ein.ProfileMap._powers
    monkeypatch.setattr(ein.ProfileMap, "_powers", lambda self, i, w: starts.append((i, w)) or powers(self, i, w))
    ts = np.random.default_rng(9709003).uniform(0.0, pmap.delta, 16)
    pmap.f_of_t(ts)
    targets = np.where(ts > pmap.t_split, pmap.delta - ts, ts)
    with mpmath.workdps(40):
        for panel, w0, t in zip(*starts[0], targets):
            tk = [mpmath.mpf(x) for x in reversed(pmap.t_cols[:, panel])]
            gk = [mpmath.mpf(x) for x in reversed(pmap.g_cols[:, panel])]
            mid, half, t = mpmath.mpf(pmap.mid[panel]), mpmath.mpf(pmap.half[panel]), pmap.t0[panel] - mpmath.mpf(t)

            def h(w):
                return t + mpmath.polyval(tk, (w - mid) / half)

            w0 = mpmath.mpf(w0)
            w1 = w0 - h(w0) / mpmath.polyval(gk, (w0 - mid) / half)
            root = mpmath.findroot(h, w1, df=lambda w: mpmath.polyval(tk, (w - mid) / half, derivative=True)[1] / half,
                                   solver="newton")
            delta = abs(w1 - w0)
            assert abs(w1 - root) <= 2 * pmap.K[panel] * delta ** 2 + ein.NEWTON_GAP * delta
