"""Batched profile inversion against the scalar brentq oracle, and delta at 30 digits.

``ProfileMap.f_of_t``/``t_of_f`` invert whole arrays by safeguarded Newton on
the panel tables, and ``verify_profile`` evaluates all its checks in one
batch.  The oracle below is the per-point path they replaced: one ``brentq``
per time on the partial-panel Gauss sum, and one Gauss sum per ``t(f)``.
Both routes to delta, the tables and tanh-sinh quadrature, are checked
against ``mpmath.quad`` on the end charts' exact coefficients.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from flagke import einstein as ein
from flagke.errors import InternalError
from flagke.flag import build_flag, default_complex_structure
from flagke.model import make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, build_root_system
from flagke.scalars import Quad

# a float winner of search_diameters on A2xA2xA2 [1, 3, 5], n_grid = 720
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


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    group, painted, z, m1, m2, *scale = CASES[request.param]
    flag = build_flag(build_root_system(LieAlgebraSpec.parse(group)), painted)
    base = make_base(flag, default_complex_structure(flag), CartanVector(tuple(z)), *scale)
    sp = ein.build_segment_polynomial(base, m1, m2)
    return sp, ein.profile_solve(sp, grid_size=1024)


# ---------------------------------------------------------------------------
# the scalar oracle


def _gauss_panel(g, a, b, gx, gw):
    """Gauss-Legendre rule for integral_a^b g(w) dw on one panel."""
    if b <= a:
        return 0.0
    mid, half = (a + b) / 2, (b - a) / 2
    return float(np.dot(g(mid + half * gx), gw) * half)


def _oracle_t_of_w(table, w):
    i = int(np.searchsorted(table.edges, w, side="right")) - 1
    i = max(0, min(i, len(table.edges) - 2))
    return float(table.cum[i] + _gauss_panel(table.g, table.edges[i], min(w, table.edges[-1]), table._gx, table._gw))


def _oracle_w_of_t(table, t):
    i = int(np.searchsorted(table.cum, t, side="right")) - 1
    i = max(0, min(i, len(table.edges) - 2))
    lo, hi = float(table.edges[i]), float(table.edges[i + 1])

    def h(w):
        return table.cum[i] + _gauss_panel(table.g, lo, w, table._gx, table._gw) - t

    if h(hi) < 0:  # cumulative rounding at a panel edge
        hi = float(table.edges[-1])
    return brentq(h, lo, hi, xtol=1e-15, rtol=8.9e-16)


def _oracle_f_of_t(pmap, t):
    if t <= 0:
        return 0.0
    if t >= pmap.delta:
        return pmap.fd
    if t <= float(pmap._left.cum[-1]):
        return _oracle_w_of_t(pmap._left, t) ** 2
    return pmap.fd - _oracle_w_of_t(pmap._right, pmap.delta - t) ** 2


def _oracle_t_of_f(pmap, f):
    if f <= 0:
        return 0.0
    if f >= pmap.fd:
        return pmap.delta
    if f <= pmap.fm:
        return _oracle_t_of_w(pmap._left, math.sqrt(f))
    return pmap.delta - _oracle_t_of_w(pmap._right, math.sqrt(pmap.fd - f))


def _oracle_verify(sp, profile, n_check):
    """verify_profile's maxima, one check and one inversion at a time."""
    pmap = profile.map

    def state(t):
        f = _oracle_f_of_t(pmap, t)
        return f, math.sqrt(max(sp.u_float(f), 0.0)), sp.fpp_float(f)

    def q_of(t):
        f, fp, fpp = state(t)
        return fpp - (fp * fp) * sp.log_deriv_sums(f)[0] / 2.0

    out = dict.fromkeys(["max_tangential_residual", "max_normal_residual", "normal_two_route_gap", "roundtrip_error"], 0.0)
    for t in np.linspace(0.0, profile.delta, n_check + 2)[1:-1]:
        f, fp, fpp = state(t)
        rn = ein.ricci_normal_state(sp, f, fp, fpp)
        h = min(profile.delta / 400.0, t / 3.0, (profile.delta - t) / 3.0)
        rn_fd = -(q_of(t - 2 * h) - 8 * q_of(t - h) + 8 * q_of(t + h) - q_of(t + 2 * h)) / (12 * h) / fp
        tan = float(np.max(np.abs(ein.tangential_residuals_state(sp, f, fp, fpp))))
        for key, value in [
            ("max_tangential_residual", tan),
            ("max_normal_residual", abs(rn - 1.0)),
            ("normal_two_route_gap", abs(rn - rn_fd)),
            ("roundtrip_error", abs(_oracle_t_of_f(pmap, f) - t)),
        ]:
            out[key] = max(out[key], value)
    return out


def _sample_times(pmap):
    """A 1024-point grid, every panel edge of both tables, the split, 0 and delta."""
    left, right = pmap._left, pmap._right
    return np.concatenate([
        np.linspace(0.0, pmap.delta, 1024),
        left.cum,
        pmap.delta - right.cum,
        [float(left.cum[-1]), 0.0, pmap.delta],
    ])


def _mp(c):
    """An exact coefficient (Fraction, Quad or float) as a 30-digit mpf."""
    if isinstance(c, Quad):
        return _mp(c.a) + _mp(c.b) * mpmath.sqrt(_mp(c.r))
    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    return mpmath.mpf(c)


def _mp_delta(sp):
    """delta at 30 digits: per end chart, integral_0^sqrt(half) 2/sqrt(-2q/p)(w^2) dw."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for chart in sp.deflations:
            p = [_mp(c) for c in reversed(chart.p)]
            q = [_mp(c) for c in reversed(chart.q)]
            g = lambda w: 2 / mpmath.sqrt(-2 * mpmath.polyval(q, w * w) / mpmath.polyval(p, w * w))
            total += mpmath.quad(g, [0, mpmath.sqrt(_mp(sp.f_delta) / 2)])
        return total


# ---------------------------------------------------------------------------
# tests


def test_delta_routes_match_mpmath_oracle(case):
    sp, profile = case
    want = _mp_delta(sp)
    for got in (ein.profile_delta_tanh_sinh(sp), profile.map.delta):
        assert abs(got - want) <= 1e-14 * want
    assert profile.diagnostics["quad_error_estimate"] < 1e-12



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
    fs = np.concatenate([
        profile.f,
        pmap._left.edges ** 2,
        pmap.fd - pmap._right.edges ** 2,
        [pmap.fm, 0.0, pmap.fd],
    ])
    want = np.array([_oracle_t_of_f(pmap, f) for f in fs])
    assert np.max(np.abs(pmap.t_of_f(fs) - want)) <= 1e-14


def test_verify_profile_matches_per_check_oracle(case):
    sp, profile = case
    got = ein.verify_profile(sp, profile, n_check=64)
    want = _oracle_verify(sp, profile, 64)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-13, key


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


def test_newton_non_convergence_raises_internal_error(case, monkeypatch):
    _, profile = case
    monkeypatch.setattr(ein, "NEWTON_MAX_ITER", 1)
    with pytest.raises(InternalError, match="did not converge"):
        profile.map.f_of_t(profile.t)
