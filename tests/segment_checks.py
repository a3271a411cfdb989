"""Constructions on segments and segment polynomials that only the tests use.

The module table of hand-built values, the first-integral identity and the
scaled-Ricci negative control, shared by `test_einstein.py` and
`test_acceptance.py`, and the exact polynomial sum and scaling they are
built from; the Fraction/Quad polynomial helpers, with Horner's rule, Q's
exact coefficient list and the exact end-chart lists, the oracles of the
segment polynomial's integer coefficient parts and of its floats; u(f)
exactly and from the end charts' rows by Horner, the references of
`einstein.u_eval`; the Ricci evaluations at one time; the rounding bounds
of the verify keys that divide by small numbers or cancel, the exact
values of the end charts' float polynomials with the rounding bound of
their evaluation carried to (f', f''), and the five-pass route to
(f', f''), the references of `SegmentPolynomial.fp_fpp`; the loop of
products, the oracle of `einstein._power_table`;
the pairwise closure scan of a complex structure, the oracle of
`flag.validate_complex_structure`; the root-by-root split of a flag and its
default complex structure, the oracles of the mask split of `flag.build_flag`
and `flag.default_complex_structure`; the normalization by `rootsys.killing`
with the exact square root it takes, the oracle of `model.make_base`;
the Fraction pairing of the dual form and the projective-space test on it,
with a depth-first component search, the oracle of `model._projective_space_test`; the per-root segment
classification, the oracle of `model.analyze_segment`, with its own closure
test over R_K and the walls at every end (the oracle of
`model._projection_violation`) and projective-space tests, and the
per-root module table of float vectors, the oracle of `model.isotropy_modules`; the walled search over root subsets, the
oracle of `walled.search_walled`; the Fraction Gauss-Jordan elimination
it and the next two solve by, the oracle of the integer `linalg.solve`;
the root-by-root sphere-in-chamber check, the oracle of
`flag.sphere_in_chamber`, with the exact matrix inverse it uses; the center of k computed for a general basis, the oracle
of the unpainted-coordinate frame of `flag.build_flag` and the searches;
the flags these oracles are run on; the reflection check of every pair
of roots, the oracle of the simple-reflection check of `rootsys._validate`;
the pair product of linear factors, the oracle of the one-list forms of
`polys.int_linear_product`; the homogenized obstruction F_h of an integer
center vector, the oracle of the plane forms of `diameters._plane_form`,
and the same over the isotropy modules of an exact center vector, its own
oracle; the float scan of one circle that `diameters.search_diameters`
replaced, the oracle of its 2-dimensional searches; and the per-circle
np.roots loop, the oracle of the scan's stacked eigenvalue call.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

import numpy as np

from flagke import einstein as ein
from flagke import linalg
from flagke.errors import (DegreeMismatchError, InputError, InternalError, NoKahlerEinsteinError,
                           SingularConfigurationError)
from flagke.diameters import DiameterCandidate
from flagke.flag import (FLOAT_WALL_TOL, FlagData, InvariantComplexStructure, SphereCheck, _center_gram,
                         _center_modules, _unpainted_vector, require_complex_structure, ricci_invariant)
from flagke.model import (FUTAKI_FLOAT_TOL, AdmissibleSegment, CenterLine, _integral_weights, isotropy_modules,
                          ke_verdict, make_base)
from flagke.polys import int_linear_product, pair_scalar, split_exact
from flagke.rootsys import CartanVector, LieAlgebraSpec, evaluate, killing
from flagke.scalars import Quad, rescale_sqrt, scalar_is_zero, scalar_sign, sqrt_parts
from flagke.walled import WalledCandidate

ZERO = Fraction(0)


def p_eval(a, x):
    """sum a_k x^k by Horner's rule, exact on Fraction and Quad coefficients and points."""
    out = ZERO
    for c in reversed(list(a)):
        out = out * x + c
    return out


def p_trim(p):
    out = list(p)
    while out and scalar_is_zero(out[-1]):
        out.pop()
    return out


def p_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if scalar_is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return p_trim(out)


def p_deriv(a):
    return p_trim([k * c for k, c in enumerate(a)][1:])


def p_antideriv(a):
    """Antiderivative with zero constant term."""
    return p_trim([ZERO] + [c / (k + 1) for k, c in enumerate(a)])


def p_low_order(a):
    """Order of vanishing at 0 (exact); len(a) for the zero polynomial."""
    for k, c in enumerate(a):
        if not scalar_is_zero(c):
            return k
    return len(a)


def p_to_float(a):
    return np.array([float(c) for c in a], dtype=float)


def pair_poly(us, vs, den, r):
    """The trimmed polynomial sum (u_n + v_n sqrt(R)) x^n / den, one Fraction or Quad per coefficient."""
    return p_trim([pair_scalar(x, y, den, r) for x, y in zip(us, vs)])


def int_shifted_antiderivative(us, vs, den, r, m):
    """Q(x) = integral_0^x P(v)(v - m) dv, trimmed, for P = sum (u_n + v_n sqrt(R)) x^n / den.

    P(v)(v - m) has the coefficients c_(n-1) - m c_n, so Q has q_0 = 0 and
    q_(n+1) = (c_(n-1) - m c_n) / (n + 1): integer pairs over den (n + 1),
    each built as one Fraction or Quad.
    """
    du, dv = ([a - m * b for a, b in zip([0] + list(c), list(c) + [0])] for c in (us, vs))
    return p_trim([ZERO] + [pair_scalar(x, y, den * (i + 1), r) for i, (x, y) in enumerate(zip(du, dv))])


def q_coeffs(sp):
    """Q's coefficients, Fractions or Quads on exact keys (floats on float keys), from the segment's integer parts."""
    return sp._coefficients(sp._q, sp._q_over, pair_scalar)


def chart_lists(sp):
    """The exact (p, q) = (P[m-1:], Q[m:]) of the left and the right end chart, from the segment's coefficient lists."""
    return [(s.coeffs[s.m1 - 1:], q_coeffs(s)[s.m1:]) for s in (sp, sp.reversed())]


def p_add(a, b):
    n = max(len(a), len(b))
    return p_trim([(a[k] if k < len(a) else ZERO) + (b[k] if k < len(b) else ZERO) for k in range(n)])


def p_scale(a, s):
    return p_trim([s * c for c in a])


def value_table(modules):
    """The integer module table of hand-built values {(alpha(Zk), alpha(Z)): entry}: (table, den, r).

    The values, Fractions or Quads of one field, are split over one
    denominator (`polys.split_exact`) into keys (x0, x1, z0, z1) as
    `model.isotropy_modules` builds them; each entry (a tuple of roots, or a
    multiplicity) moves to its key.
    """
    u, v, den, r = split_exact([x for key in modules for x in key])
    keys = [(u[i], v[i], u[i + 1], v[i + 1]) for i in range(0, len(u), 2)]
    return dict(zip(keys, modules.values())), den, r


def first_integral_identity_numerator(sp):
    """Numerator polynomial of (1/2) u' - u F + H over a common denominator.

    With u = A/B, A = -2Q, B = P, F = C/D, C = -P', D = 2P and H = f - m1,
    (1/2) u' - u F + H = (1/2)(A'B - A B')/B^2 - A C/(B D) + H, whose
    numerator over 2 B^2 D is N = (A'B - A B') D - 2 A C B + 2 H B^2 D.  For a
    genuine first integral N is the zero polynomial, exactly.
    """
    A = p_scale(q_coeffs(sp), Fraction(-2))
    B = list(sp.coeffs)
    C = p_scale(p_deriv(sp.coeffs), Fraction(-1))
    D = p_scale(B, Fraction(2))
    H = [-Fraction(sp.m1), Fraction(1)]
    term1 = p_mul(p_add(p_mul(p_deriv(A), B), p_scale(p_mul(A, p_deriv(B)), Fraction(-1))), D)
    term2 = p_scale(p_mul(p_mul(A, C), B), Fraction(-2))
    term3 = p_scale(p_mul(H, p_mul(p_mul(B, B), D)), Fraction(2))
    return p_trim(p_add(p_add(term1, term2), term3))


def scaled_ricci_control(base, m1, m2, lam):
    """The segment polynomial with the metric endpoint built from lam * Zk + m1 * Z.

    The modules of the true segment of an exact base with alpha(Zk) replaced
    by lam * alpha(Zk), so alpha(Z1) becomes lam * alpha(Zk) + m1 * alpha(Z).
    The Ricci data keeps the true Zk floats, so for lam != 1 the tangential
    Einstein residuals are bounded away from zero: the negative control.
    """
    true = ein.SegmentPolynomial.from_base(base, m1, m2)
    scaled = {(lam * pair_scalar(x0, x1, true.den, true.r), pair_scalar(z0, z1, true.den, true.r)): roots
              for (x0, x1, z0, z1), roots in true.modules.items()}
    sp = ein.SegmentPolynomial(*value_table(scaled), m1, m2)
    sp.zk_f = true.zk_f
    return sp


def ricci_tangential(sp, profile, alpha, t):
    """Per-root Ricci eigenvalue r_alpha(t) = alpha(Zk) + q(t) alpha(Z), read off alpha's module."""
    idx = next((i for i, roots in enumerate(sp.modules.values()) if alpha in roots), None)
    if idx is None:
        raise InputError("root %s is not a positive root of the configuration" % (alpha.coords,))
    f, fp, fpp = ein._state_at(sp, profile, t)
    q = ein._ricci_q(fp, fpp, sp.log_deriv_sums(f)[0])
    return float(sp.zk_f[idx] + q * sp.k_f[idx])


def ricci_normal(profile, sp, t):
    """r(xi, xi) at one time t by the closed form with f''' from the differentiated flow."""
    return ein.ricci_residuals_state(sp, *ein._state_at(sp, profile, t))[1]


def u_exact(sp, f):
    """u(f) = -2 Q(f)/P(f) from the exact coefficient lists at an exact f: the reference of `einstein.u_eval`."""
    num, den = p_eval(q_coeffs(sp), f), p_eval(sp.coeffs, f)
    if scalar_is_zero(den):
        raise SingularConfigurationError("P vanishes at f = %s" % (f,))
    return -2 * num / den


def u_float(sp, f):
    """u(f) at floats f, a float or an array, from each end chart's rows by Horner: the reference of `einstein.u_eval`.

    Each chart sees only its own half, u = x (-2q/p) at distance x from its
    end, since the other end's wall is a pole of its deflated p.  A segment
    polynomial without charts gives the direct ratio -2Q/P of its float
    coefficients, valid on the open interval away from walls.
    """
    f = np.asarray(f, dtype=float)
    try:
        charts = sp.deflations
    except (NoKahlerEinsteinError, DegreeMismatchError):
        return -2.0 * ein.p_eval_float(sp.q_coeffs_f, f) / ein.p_eval_float(sp.coeffs_f, f)
    fd = float(sp.f_delta)
    out = np.empty_like(f)
    for chart, near in zip(charts, (f <= fd / 2, f > fd / 2)):
        x = f[near] if chart is charts[0] else fd - f[near]
        out[near] = -2.0 * x * ein.p_eval_float(chart.q_f, x) / ein.p_eval_float(chart.p_f, x)
    return float(out) if out.ndim == 0 else out


def fp_fpp_by_passes(sp, f):
    """(f', f'') at the floats f from five Horner passes: `u_float`, and p, q and p' again.

    The route that `SegmentPolynomial.fp_fpp` replaced on the solve path, the
    oracle of its one pass over each chart's p, q and p': f'' = u F - f + m1,
    with u F = q ((m - 1) p + x p') / p^2 at distance x from the nearer end,
    negated on the right chart.
    """
    f = np.asarray(f, dtype=float)
    fd = float(sp.f_delta)
    uf = np.empty_like(f)
    for chart, m, near, sign in zip(sp.deflations, (sp.m1, sp.m2), (f <= fd / 2, f > fd / 2), (1.0, -1.0)):
        x = f[near] if sign > 0 else fd - f[near]
        pt, qt, dpt = (ein.p_eval_float(c, x) for c in (chart.p_f, chart.q_f, chart.dp_f))
        uf[near] = sign * (qt * ((m - 1) * pt + x * dpt) / (pt * pt))
    return np.sqrt(np.maximum(u_float(sp, f), 0.0)), uf - f + sp.m1


# the unit roundoff of doubles, half of np.finfo(float).eps
UNIT_ROUNDOFF = 2.0 ** -53


def gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def exact_poly_at(coeffs, x):
    """sum c_k x^k of float coefficients at a float x, exactly, as a Fraction.

    Every double is an integer over a power of two, so the largest of the
    terms' denominators is their common one and the sum is one integer.
    """
    xn, xd = float(x).as_integer_ratio()
    terms, xk = [], 1  # c_k x^k = n_k xn^k / 2^(e_k + k e), x = xn / 2^e
    for k, c in enumerate(coeffs):
        n, d = float(c).as_integer_ratio()
        terms.append((n * xk, d.bit_length() - 1 + k * (xd.bit_length() - 1)))
        xk *= xn
    top = max([e for _, e in terms], default=0)
    return Fraction(sum(n << (top - e) for n, e in terms), 1 << top)


def evaluation_bound(coeffs, x, n):
    """gamma_2n sum |c_k| |x|^k: how far rounding can move an evaluation of n coefficients at x.

    Horner's rule on n coefficients is within gamma_2(n-1) of this sum
    (Higham 5.1).  So is a sum over a table of powers: x^k takes k - 1
    products, c_k x^k one more, and a sum of n terms in any order n - 1
    additions, within gamma_(k + n - 1) of each term.  Zero-padded
    coefficients add nothing.
    """
    return gamma(2 * n) * sum(abs(float(c)) * abs(x) ** k for k, c in enumerate(coeffs))


def fp_fpp_rounding(sp, f):
    """Exact (u, f'') of the charts' float coefficients at each float f, with first-order rounding bounds on f', f''.

    Yields (U, FPP, b_fp, b_fpp) per point: U = -2 x Q/P and FPP = ±Q S/P^2
    - f + m1, S = (m - 1) P + x D, in Fractions from P, Q, D, the chart's
    p, q and p' evaluated exactly at x = f, or at x = m1+m2 - f (exact by
    Sterbenz's lemma) on the right chart, where the sign is minus.  With e_p,
    e_q, e_d the `evaluation_bound` of each and eps the unit roundoff,
    carried to first order through the float formulas of
    `einstein.SegmentPolynomial.fp_fpp`:

    - v = -2q/p rounds once and u = x v once, so u moves by
      x (2 (e_q + |Q/P| e_p)/|P| + 2 eps |2Q/P|), and f' = sqrt(u) by that
      over 2 sqrt(U), plus eps sqrt(U) for the root;
    - S moves by dS = (m - 1) e_p + x e_d + 2 eps ((m - 1)|P| + x |D|),
      q S/p^2 by (e_q |S| + |Q| dS)/P^2 + |Q S/P^2| (2 e_p/|P| + 3 eps),
      and f'' by that and 2 eps (|Q S/P^2| + f + m1) for its two sums.
    """
    fd = float(sp.f_delta)
    eps = UNIT_ROUNDOFF
    for fv in np.asarray(f, dtype=float).tolist():
        right = fv > fd / 2
        chart = sp.deflations[right]
        x, n, m = (fd - fv if right else fv), chart.rows.shape[1], (sp.m1, sp.m2)[right]
        P, Q, D = (exact_poly_at(c, x) for c in (chart.p_f, chart.q_f, chart.dp_f))
        e_p, e_q, e_d = (evaluation_bound(c, x, n) for c in (chart.p_f, chart.q_f, chart.dp_f))
        S = (m - 1) * P + Fraction(x) * D
        U, UF = -2 * Fraction(x) * Q / P, Q * S / (P * P)
        p, q, d, u_exact, uf = (float(y) for y in (P, Q, D, U, UF))
        du = x * (2 * (e_q + abs(q / p) * e_p) / abs(p) + 2 * eps * abs(2 * q / p))
        ds = (m - 1) * e_p + x * e_d + 2 * eps * ((m - 1) * abs(p) + x * abs(d))
        duf = (e_q * abs(float(S)) + abs(q) * ds) / (p * p) + abs(uf) * (2 * e_p / abs(p) + 3 * eps)
        yield (U, (-UF if right else UF) - Fraction(fv) + sp.m1,
               du / (2 * math.sqrt(u_exact)) + eps * math.sqrt(u_exact), duf + 2 * eps * (abs(uf) + fv + sp.m1))


def verify_rounding(sp, f, fp, q, h):
    """How far rounding can move three of `einstein.verify_profile`'s maxima, the largest over the checks.

    ``f`` and ``fp`` are the state at each check, ``q`` holds q = f'' -
    (f')^2 s1/2 at each check and its four stencil points (t, t - 2h, t - h,
    t + h, t + 2h on the last axis, as `einstein._STENCIL`), ``h`` the
    stencil steps.  Two maxima taken over the same checks part by at most the
    largest per-check difference, so these bound how far two routes may
    part at rounding level:

    - normal_two_route_gap: the stencil route -(q(t-2h) - 8 q(t-h) + 8 q(t+h)
      - q(t+2h))/(12 h f') moves by up to 18 eps max|q|/(12 h |f'|) for a
      rounding unit eps |q| in each of its four values;
    - max_tangential_residual: a module's residual (zk + q k)/(a - k f) - 1
      moves by |k| ulp(q)/|a - k f| for one ulp of q, and by
      |k (zk + q k)| ulp(f)/(a - k f)^2 for one ulp of f;
    - max_normal_residual: the first integral makes r(xi, xi) = 1 at every
      state, so r(xi, xi) - 1 is rounding alone.  Its terms f'' s1 and
      u s2/2 are formed a second time inside f'''/f' and cancel; with at
      most nine roundings on each, |r(xi, xi) - 1| is at most
      10 eps (|f'' s1| + u |s2|/2 + 1) to first order, where f'' = q + u s1/2
      and u = (f')^2.  Near a wall s2 grows as 1/(a - k f)^2, and the bound
      with it.
    """
    f, fp, q, h = (np.asarray(x, dtype=float) for x in (f, fp, q, h))
    eps = np.finfo(float).eps
    stencil = 18 * eps * np.max(np.abs(q[..., 1:]), axis=-1) / (12 * h * np.abs(fp))
    g = sp.a_f - sp.k_f * f[..., None]
    r = sp.zk_f + q[..., :1] * sp.k_f
    k = np.abs(sp.k_f)
    tangential = k * (np.spacing(np.abs(q[..., :1])) + np.spacing(np.abs(f[..., None])) * np.abs(r / g)) / np.abs(g)
    s1, s2 = sp.log_deriv_sums(f)
    u = fp * fp
    normal = 10 * eps * (np.abs((q[..., 0] + u * s1 / 2) * s1) + u * np.abs(s2) / 2 + 1)
    return {"normal_two_route_gap": float(np.max(stencil)), "max_tangential_residual": float(np.max(tangential)),
            "max_normal_residual": float(np.max(normal))}


def verify_rounding_of(sp, profile, n_check):
    """`verify_rounding` at the checks and stencil points of `einstein.verify_profile` (sp, profile, n_check)."""
    ts = np.linspace(0.0, profile.delta, n_check + 2)[1:-1]
    h = np.minimum(np.minimum(profile.delta / 400.0, ts / 3.0), (profile.delta - ts) / 3.0)
    f, fp, fpp = ein._state_at(sp, profile, ts[:, None] + h[:, None] * ein._STENCIL)
    return verify_rounding(sp, f[:, 0], fp[:, 0], ein._ricci_q(fp, fpp, sp.log_deriv_sums(f)[0]), h)


def powers_by_loop(s, n):
    """s^0 .. s^(n-1) of a 1-d array s, n >= 2, one multiply per row: the oracle of `einstein._power_table`."""
    out = np.empty((n, len(s)))
    out[0], out[1] = 1.0, s
    for k in range(2, n):
        np.multiply(out[k - 1], out[1], out=out[k])
    return out


def chart_integrand(sp, side):
    """dt/dw = 2/sqrt(-2q/p) at x = w^2 on the left (side 0) or right (side 1) end chart of sp, for a float or array w.

    It reads the stacked chart table as `einstein.ProfileMap` does, so a
    table over one chart has the bits of that chart's half of the map.
    """
    return lambda w: 2.0 / np.sqrt(ein._chart_values(sp, np.asarray(w, dtype=float) ** 2)[0][side])


class HalfTable:
    """Cumulative composite Gauss-Legendre table of t over one end chart, and its per-panel series.

    The oracle of `einstein.ProfileMap`'s one table over both end charts:
    the table each chart had by itself, with its own inversion, which stops
    only when every step is at the rounding level.

    Panels are uniform in w on [0, w_max], where x = w^2 is the distance
    from the end of chart ``side`` of sp (0 the left, 1 the right) and the
    integrand dt/dw is smooth; g_edges holds it
    at the panel edges.  On a panel w = mid + half s with s in [-1, 1], and
    the interpolant of g at the panel's ``order`` Gauss nodes matches g to
    rounding; integrated exactly (`_panel_series`) it gives t(w) - cum[i] as
    a power series of degree ``order`` in s.  g_cols and t_cols hold the power
    coefficients of both series, one column per panel, and after the build
    they are the map: no direction evaluates g again.  Both directions work
    on whole 1-d arrays of points.  The nodes and the edges take one
    integrand call.  ``error`` estimates the table's error: the Legendre
    tail sum half (|c_(n-2)| + |c_(n-1)|) of the panels' interpolants, as in
    chopping a Chebyshev series (Aurentz-Trefethen, ACM TOMS 43, 2017), and
    eps sum cum, the first-order bound of the cumulative sums' rounding
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
    """

    def __init__(self, sp: ein.SegmentPolynomial, side: int, w_max: float, n_panels: int, order: int):
        self.g = chart_integrand(sp, side)
        self.edges = np.linspace(0.0, w_max, n_panels + 1)
        self.mid = (self.edges[1:] + self.edges[:-1]) / 2
        self.half = (self.edges[1:] - self.edges[:-1]) / 2
        gx, gw = ein._gauss_rule(order)
        nodes = (self.mid[:, None] + self.half[:, None] * gx).ravel()
        vals = self.g(np.concatenate([nodes, self.edges]))  # the nodes and the edges in one integrand call
        vals, self.g_edges = vals[:len(nodes)].reshape(n_panels, order), vals[len(nodes):]
        self.cum = np.concatenate([[0.0], np.cumsum((vals * gw).sum(axis=1) * self.half)])
        L, D, M = ein._panel_series(order)
        c = L @ vals.T
        self.g_cols, self.t_cols = M[:-1, :-1] @ c, M @ (D @ c) * self.half
        self.error = float(self.half @ np.abs(c[-2:]).sum(axis=0) + np.finfo(float).eps * np.sum(self.cum))

    def _panel(self, x: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Index of the panel holding each x, by the table of panel starts."""
        return np.clip(np.searchsorted(table, x, side="right") - 1, 0, len(self.edges) - 2)

    def _powers(self, i: np.ndarray, w: np.ndarray) -> np.ndarray:
        """s^0 .. s^n of each w's variable s on its panel i, one column per point."""
        return powers_by_loop((w - self.mid[i]) / self.half[i], len(self.t_cols))

    def t_of_w(self, w: np.ndarray) -> np.ndarray:
        i = self._panel(w, self.edges)
        w = np.maximum(np.minimum(w, self.edges[-1]), self.edges[i])
        return self.cum[i] + np.einsum("ij,ij->j", self.t_cols[:, i], self._powers(i, w))

    def w_of_t(self, t: np.ndarray) -> np.ndarray:
        """Solve t(w) = t for every point at once by safeguarded Newton on the panel series.

        Each point is bracketed by its panel and starts from the cubic
        Hermite interpolant of w(t) on it, with the end slopes dw/dt = 1/g;
        one Newton step from there reaches rounding and a second confirms
        it.  A step is w -= (t(w) - t)/g(w), since dt/dw = g, both from the
        panel's series; one that would leave the bracket, tightened at every
        evaluation, bisects it instead (rtsafe, Numerical Recipes 9.4).  The
        iteration stops when every step is at the rounding level of w or of
        t(w) - t, whose series cum[i] + sum t_k s^k rounds on the scale
        cum[i] + sum |t_k|; near a chart's end that is the panel's width in
        t, far above t itself.  Points whose time rounds just past their
        panel's end settle on that end, within rounding.
        """
        i = self._panel(t, self.cum)
        c0 = self.cum[i]
        a, b = self.edges[i], self.edges[i + 1]
        dt = self.cum[i + 1] - c0
        s = np.clip((t - c0) / dt, 0.0, 1.0)
        w = (((2 * s - 3) * s * s + 1) * a + (s - 1) ** 2 * s * dt / self.g_edges[i]
             + (3 - 2 * s) * s * s * b + (s - 1) * s * s * dt / self.g_edges[i + 1])
        t_cols, g_cols = self.t_cols[:, i], self.g_cols[:, i]
        t_round = c0 + np.abs(t_cols).sum(axis=0)
        for _ in range(ein.NEWTON_MAX_ITER):
            powers = self._powers(i, w)
            h, g_w = c0 + np.einsum("ij,ij->j", t_cols, powers) - t, np.einsum("ij,ij->j", g_cols, powers[:-1])
            a = np.where(h < 0, w, a)
            b = np.where(h > 0, w, b)
            w_new = w - h / g_w
            w_new = np.where((w_new < a) | (w_new > b), (a + b) / 2, w_new)
            converged = np.all(np.abs(w_new - w) <= ein.NEWTON_RTOL * np.maximum(w_new, t_round / g_w))
            w = w_new
            if converged:
                return w
        raise InternalError("profile inversion did not converge in %d Newton steps" % ein.NEWTON_MAX_ITER)


def half_tables(sp):
    """The left and the right chart's `HalfTable` of a segment polynomial, on the panels of `einstein.ProfileMap`."""
    fm = float(sp.f_delta) / 2.0
    return tuple(HalfTable(sp, side, math.sqrt(w_sq), ein.PROFILE_PANELS, ein.PROFILE_GAUSS_ORDER)
                 for side, w_sq in enumerate((fm, float(sp.f_delta) - fm)))


def two_table_f_of_t(sp, tables, t):
    """f(t) from the two half tables of sp, each chart inverted by itself: the oracle of `ProfileMap.f_of_t`."""
    left, right = tables
    fd, delta = float(sp.f_delta), float(left.cum[-1] + right.cum[-1])
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    f = np.where(ts <= 0, 0.0, fd)
    split = float(left.cum[-1])
    on_left = (ts > 0) & (ts <= split)
    on_right = (ts > split) & (ts < delta)
    f[on_left] = left.w_of_t(ts[on_left]) ** 2
    f[on_right] = fd - right.w_of_t(delta - ts[on_right]) ** 2
    return f.reshape(t.shape)


def two_table_t_of_f(sp, tables, f):
    """t(f) from the two half tables of sp: the oracle of `ProfileMap.t_of_f`."""
    left, right = tables
    fd, delta = float(sp.f_delta), float(left.cum[-1] + right.cum[-1])
    fm = fd / 2.0
    f = np.asarray(f, dtype=float)
    fs = f.reshape(-1)
    t = np.where(fs <= 0, 0.0, delta)
    on_left = (fs > 0) & (fs <= fm)
    on_right = (fs > fm) & (fs < fd)
    t[on_left] = left.t_of_w(np.sqrt(fs[on_left]))
    t[on_right] = delta - right.t_of_w(np.sqrt(fd - fs[on_right]))
    return t.reshape(f.shape)


def pairwise_closure(flag, j):
    """Whether R_m+ halves R_m and is closed under R_K and itself, by the pairwise scan of every sum.

    The oracle of the Ricci criterion of `flag.validate_complex_structure`:
    each sum of a root of R_m+ and a root of R_K or R_m+ that is a root must
    lie in R_m+.
    """
    pos = j.positive_set()
    neg = {tuple(-c for c in p) for p in pos}
    if not pos <= flag.r_m_set() or pos & neg or pos | neg != flag.r_m_set():
        return False
    all_roots = flag.rs.root_set()
    for p in pos:
        for q in [k.coords for k in flag.r_k] + list(pos):
            s = tuple(a + b for a, b in zip(p, q))
            if s in all_roots and s not in pos:
                return False
    return True


def closure_violation(flag, j, walls):
    """`model._projection_violation` over R_K and the walls, and without its shortcut for an empty wall set.

    The first pair (alpha, beta) with alpha in R_m+ minus the walls, beta in
    R_K or the walls, in that order, whose sum is a root outside R_m+ minus
    the walls; with no walls, a failure of the closure of R_m+ under R_K.
    """
    all_roots = flag.rs.root_set()
    pos_nonwall = frozenset(r.coords for r in j.positive) - walls
    h_roots = [r.coords for r in flag.r_k] + sorted(walls)
    for a in sorted(pos_nonwall):
        for b in h_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in all_roots and s not in pos_nonwall:
                return a, b
    return None


def exact_sqrt(q):
    """The exact square root of a nonnegative rational: a Fraction, or a Quad in Q(sqrt(d)) (`scalars.sqrt_parts`)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    s, d, e = sqrt_parts(q.numerator, q.denominator)
    return Fraction(s, e) if d == 1 else Quad(Fraction(0), Fraction(s, e), Fraction(d))


def per_root_build_flag(rs, painted):
    """`flag.build_flag` with each root tested for an unpainted coordinate, root by root."""
    painted_set = frozenset(int(i) for i in painted)
    for i in painted_set:
        if not 0 <= i < rs.rank:
            raise InputError("painted index %d out of range" % i)
    unpainted = [i for i in range(rs.rank) if i not in painted_set]
    r_k, r_m = [], []
    for r in rs.roots:
        (r_m if any(map(r.coords.__getitem__, unpainted)) else r_k).append(r)
    basis = [CartanVector.from_split([int(k == i) for k in range(rs.rank)], [0] * rs.rank, 1, None) for i in unpainted]
    return FlagData(rs=rs, painted=painted_set, r_k=tuple(r_k), r_m=tuple(r_m), center_basis=tuple(basis))


def per_root_complex_structure(flag):
    """`flag.default_complex_structure`: the roots of R_m, each tested for positivity."""
    return InvariantComplexStructure(tuple(r for r in flag.r_m if r.is_positive))


def killing_make_base(flag, j, z_direction, period_scale=Fraction(1), tol=1e-12):
    """`model.make_base` by `rootsys.killing` on the values: Z = x sqrt(period_scale^2 / E(x, x)), values-form.

    The oracle of the integer split: an exact E(x, x) is a Fraction or a
    Quad, the latter an input error, and a float one is killing's float.
    """
    if period_scale <= 0:
        raise InputError("period scale must be positive")
    require_complex_structure(flag, j)
    if z_direction.is_zero:
        raise InputError("zero direction for Z")
    for i in sorted(flag.painted):
        if scalar_sign(z_direction.values[i], tol) != 0:
            raise InputError("direction not in the center of k: alpha_%d(Z) != 0" % i)
    norm_sq = killing(flag.rs, z_direction, z_direction)
    if isinstance(norm_sq, Quad):
        raise InputError("pass an unnormalized rational (or float) direction")
    exact = isinstance(norm_sq, (int, Fraction))
    if not exact and not 0 < norm_sq < math.inf:
        raise InputError("float direction has squared norm %r; rescale it" % (norm_sq,))
    lam = exact_sqrt(Fraction(period_scale) ** 2 / norm_sq) if exact else float(period_scale) / float(norm_sq) ** 0.5
    z = CartanVector(tuple(lam * a for a in z_direction.values))
    return CenterLine(flag=flag, j=j, z=z, period_scale=Fraction(period_scale))


def per_root_center_modules(flag, j, zk):
    """`flag._center_modules` root by root: roots keyed by their unpainted coordinates, alpha(Zk) off each first root."""
    z_int, _, z_den, _ = zk.split
    table = {}
    for alpha in j.positive:
        table.setdefault(tuple(alpha.coords[i] for i in flag.unpainted), []).append(alpha)
    return table, [sum(map(mul, roots[0].coords, z_int)) for roots in table.values()], z_den


def fraction_split_exact(values):
    """`polys.split_exact` through one rescaled Fraction per coordinate, the oracle of its integer pairs.

    Every Quad's sqrt part is rescaled to the first Quad's radicand r
    (`scalars.rescale_sqrt`) and divided by r.denominator as a Fraction;
    the common denominator is the lcm of all the reduced denominators.
    """
    if not any(isinstance(x, Quad) for x in values):
        den = math.lcm(*(x.denominator for x in values))
        return [x.numerator * (den // x.denominator) for x in values], [0] * len(values), den, None
    r, parts = None, []
    for x in values:
        if isinstance(x, Quad):
            if r is None:
                r = x.r
            parts.append((x.a, rescale_sqrt(x.b, x.r, r) / r.denominator))
        else:
            parts.append((Fraction(x), ZERO))
    den = math.lcm(*(p.denominator for pair in parts for p in pair))
    return ([p.numerator * (den // p.denominator) for p, _ in parts],
            [q.numerator * (den // q.denominator) for _, q in parts], den, r)


def per_root_isotropy_modules(j, x, z):
    """`model.isotropy_modules` on a float X or Z, root by root through `rootsys.evaluate`."""
    table = {}
    for alpha in j.positive:
        table.setdefault((evaluate(alpha, x), evaluate(alpha, z)), []).append(alpha)
    return {key: tuple(roots) for key, roots in table.items()}, None, None


def per_root_exact_isotropy_modules(j, x, z):
    """`model.isotropy_modules` on exact X and Z, root by root over all coordinates of their joint split.

    Each root's key is its integer dot products with the four parts
    (x0, x1, z0, z1) over one denominator; a part zero on every coordinate
    is 0 in every key.  Keys and the roots under each are in R_m+ order.
    """
    *parts, den, r = x.joint_split(z)
    coords = [alpha.coords for alpha in j.positive]
    columns = [[sum(map(mul, c, w)) for c in coords] if any(w) else [0] * len(coords) for w in parts]
    table = {}
    for alpha, key in zip(j.positive, zip(*columns)):
        table.setdefault(key, []).append(alpha)
    return {key: tuple(roots) for key, roots in table.items()}, den, r


def dual_pairing(rs, a, b):
    """E*(a, b) = a^T M^-1 b for covectors a, b in simple-root coordinates, a Fraction off `RootSystem.dual_form`."""
    dual, den = rs.dual_form
    return Fraction(linalg.form(dual, a, b), den)


def fraction_projective_space_test(flag, walls):
    """`model._projective_space_test` on Fraction pairings, with a depth-first component search.

    Builds the closed subsystem R_K u W, extracts its simple system by
    testing every pairwise sum, pairs its nodes by `dual_pairing`
    and checks the textbook characterization: exactly one component meets
    the walls, it is a simple-laced path (type A) of length |W|/2, and
    removing one terminal node lands on painted roots only.  It keeps the
    two clauses the model drops as unreachable: a non-painted simple root
    outside the wall component, and a wall root outside the component's span.
    """
    if not walls:
        return []
    rs = flag.rs
    wall_pos = sorted({r.coords for r in walls if r.is_positive})
    sub_pos = sorted({r.coords for r in flag.r_k if r.is_positive} | set(wall_pos))
    sub_set = set(sub_pos)

    # simple roots of the subsystem: positive roots that are not sums of two
    sums = set()
    for i, a in enumerate(sub_pos):
        for b in sub_pos[i:]:
            s = tuple(x + y for x, y in zip(a, b))
            if s in sub_set:
                sums.add(s)
    nodes = [c for c in sub_pos if c not in sums]

    # Dynkin adjacency from exact Cartan integers
    m = len(nodes)
    pair = {}
    for i in range(m):
        for k in range(m):
            pair[i, k] = dual_pairing(rs, nodes[i], nodes[k])
    adj = [[k for k in range(m) if k != i and pair[i, k] != 0] for i in range(m)]

    comp_id = [-1] * m
    n_comp = 0
    for i in range(m):
        if comp_id[i] != -1:
            continue
        stack = [i]
        comp_id[i] = n_comp
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp_id[v] == -1:
                    comp_id[v] = n_comp
                    stack.append(v)
        n_comp += 1

    painted_coords = {tuple(int(t == i) for t in range(rs.rank)) for i in flag.painted}
    wall_set = set(wall_pos)
    failures = []
    meet = sorted({comp_id[i] for i in range(m) if nodes[i] in wall_set})
    if len(meet) != 1:
        failures.append("wall roots spread over %d simple components" % len(meet))
        return failures
    comp_nodes = [i for i in range(m) if comp_id[i] == meet[0]]
    for i in range(m):
        if comp_id[i] != meet[0] and nodes[i] not in painted_coords:
            failures.append("non-painted simple root %s outside the wall component" % (nodes[i],))

    if len(comp_nodes) != len(wall_pos):
        failures.append("wall component has %d nodes, expected %d" % (len(comp_nodes), len(wall_pos)))
    # type A: connected path, single bonds, equal lengths
    degs = {i: len([v for v in adj[i] if comp_id[v] == meet[0]]) for i in comp_nodes}
    if any(d > 2 for d in degs.values()):
        failures.append("wall component branches; not a path")
    lengths = {pair[i, i] for i in comp_nodes}
    if len(lengths) != 1:
        failures.append("wall component has roots of two lengths")
    for i in comp_nodes:
        for k in adj[i]:
            if comp_id[k] == meet[0]:
                n_ik = 2 * pair[i, k] / pair[k, k]
                n_ki = 2 * pair[k, i] / pair[i, i]
                if n_ik * n_ki != 1:
                    failures.append("multiple bond inside wall component")
    unpainted = [i for i in comp_nodes if nodes[i] not in painted_coords]
    if len(unpainted) != 1:
        failures.append("expected exactly one non-painted node, found %d" % len(unpainted))
    elif degs[unpainted[0]] > 1:
        failures.append("non-painted node is not terminal in the path")
    # every wall root must lie in the Z-span of the component
    comp_support = set()
    for i in comp_nodes:
        comp_support.update(t for t, c in enumerate(nodes[i]) if c != 0)
    for w in wall_pos:
        if not {t for t, c in enumerate(w) if c != 0} <= comp_support:
            failures.append("wall root %s escapes the component span" % (w,))
    return failures


def per_root_segment(base, z1, length):
    """`model.analyze_segment` with alpha(Z1) and alpha(Z2) evaluated and signed root by root."""
    flag, j = base.flag, base.j
    z2 = z1 - base.z.scale(length)
    signs = [tuple(scalar_sign(evaluate(alpha, z), FLOAT_WALL_TOL) for z in (z1, z2)) for alpha in j.positive]
    failures = []
    for alpha, s in zip(j.positive, signs):
        if min(s) < 0:
            failures.append("chamber: alpha=%s negative at an endpoint" % (alpha.coords,))
        elif max(s) == 0:
            failures.append("chamber: alpha=%s vanishes on the whole segment" % (alpha.coords,))
    chamber_ok = not failures
    walls = tuple(
        tuple(sorted(r for alpha, s in zip(j.positive, signs) if s[end] == 0 < s[1 - end] for r in (alpha, -alpha)))
        for end in (0, 1)
    )
    degree_failures, projection_failures = [], []
    for tag, w in zip(("endpoint 1", "endpoint 2"), walls):
        degree_failures += ["%s %s" % (tag, f) for f in fraction_projective_space_test(flag, w)]
        bad = closure_violation(flag, j, frozenset(r.coords for r in w))
        if bad is not None:
            projection_failures.append("%s holomorphic projection fails at %s + %s" % (tag, bad[0], bad[1]))
    w1, w2 = walls
    return AdmissibleSegment(w1, w2, len(w1) // 2 + 1, len(w2) // 2 + 1, chamber_ok, not degree_failures,
                             not projection_failures, tuple(failures + degree_failures + projection_failures))


def root_subset_walled(base, m1, m2):
    """`walled.search_walled` by enumerating the wall sets themselves.

    Every pair of root subsets W1, W2 of R_m+ with sizes m1 - 1 and m2 - 1
    pins Z by the linear system alpha(Z1) = 0 on W1 and alpha(Z2) = 0 on
    W2; a point or line of solutions is intersected with the sphere and
    each new direction, with Z and -Z folded together, goes to `ke_verdict`.
    The work grows as C(|R_m+|, m1 - 1) C(|R_m+|, m2 - 1).
    """
    flag, j = base.flag, base.j
    pos = list(j.positive)
    if m1 - 1 > len(pos) or m2 - 1 > len(pos):
        return ()
    zk = ricci_invariant(flag, j)
    basis = flag.center_basis
    ps2 = Fraction(base.period_scale) ** 2
    gram_c = [[Fraction(killing(flag.rs, b1, b2)) for b2 in basis] for b1 in basis]
    rows = [[Fraction(evaluate(alpha, b)) for b in basis] for alpha in pos]
    at_zk = [Fraction(evaluate(alpha, zk)) for alpha in pos]
    out, seen = [], set()
    for w1 in itertools.combinations(range(len(pos)), m1 - 1):
        for w2 in itertools.combinations(range(len(pos)), m2 - 1):
            system = [rows[i] for i in w1 + w2]
            solved = fraction_solve(system, [-at_zk[i] / m1 for i in w1] + [at_zk[i] / m2 for i in w2], len(basis))
            if solved is None or len(solved[1]) >= 2:
                continue
            for coeffs in unit_norm_solutions(*solved, gram_c, ps2):
                vals = [Fraction(0)] * flag.rs.rank
                for c, b in zip(coeffs, basis):
                    vals = [x + c * y for x, y in zip(vals, b.values)]
                z = CartanVector(tuple(vals))
                key = direction_key([float(v) for v in z.values])
                if key in seen:
                    continue
                seen.add(key)
                verdict = ke_verdict(CenterLine(flag=flag, j=j, z=z, period_scale=base.period_scale), zk, m1, m2)
                if verdict.ok:
                    out.append(WalledCandidate(tuple(pos[i] for i in w1), tuple(pos[i] for i in w2), z.values,
                                               verdict))
    out.sort(key=lambda c: tuple(float(v) for v in c.z_values))
    return tuple(out)


def unit_norm_solutions(sol, null, gram, ps2):
    """The points of E(Z, Z) = ps2 on the point sol, or on the line sol + s null[0], as Fractions and Quads.

    ``gram`` is the Gram matrix of the coordinates.  On a line the sphere is
    a s^2 + b s + c = 0, solved by `exact_sqrt` of the discriminant
    in Quad arithmetic; the point of the larger s comes first.  The oracle
    of `walled._unit_norm_points`.
    """
    def form(x, y):
        return sum((xi * g * yj for xi, row in zip(x, gram) for g, yj in zip(row, y)), Fraction(0))

    if not null:
        if form(sol, sol) == ps2:
            yield list(sol)
        return
    v = null[0]
    a, b, c = form(v, v), 2 * form(sol, v), form(sol, sol) - ps2
    disc = b * b - 4 * a * c
    if disc < 0:
        return
    root = exact_sqrt(disc)
    for sgn in (1, -1):
        s = (-b + sgn * root) / (2 * a)
        yield [s0 + s * vi for s0, vi in zip(sol, v)]
        if disc == 0:
            return


def rref(rows):
    """Reduced row echelon form in Fractions, by Gauss-Jordan elimination: (rref, pivot column indices).

    The pivot of each column is its first nonzero entry at or below the
    current row.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def fraction_solve(rows, rhs, n_cols):
    """(x, basis) from the Fraction `rref` of [A | b], the oracle of the integer `linalg.solve`.

    The free entries of x are zero, and the basis has one vector per free
    column, in column order, with a 1 there and 0 at the other free columns.
    None when the system is inconsistent: a pivot in the rhs column.
    """
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n_cols]
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return x, basis


def invert(rows):
    """Exact inverse of a square nonsingular matrix, by Gauss-Jordan elimination of [M | I]."""
    n = len(rows)
    red, pivots = rref([list(row) + [Fraction(i == k) for k in range(n)] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def per_root_sphere_in_chamber(flag, j):
    """`flag.sphere_in_chamber` root by root, in Fraction arithmetic.

    For every root of R_m+: alpha(Zk), the full dual norm |alpha|^2 from
    `dual_pairing`, and the norm restricted to the center from
    the inverse Gram matrix of the center basis; the binding root is the
    first strict minimizer of the full variant.
    """
    rs = flag.rs
    zk = ricci_invariant(flag, j)
    gram_c_inv = invert([[killing(rs, b1, b2) for b2 in flag.center_basis] for b1 in flag.center_basis])
    best = best_center = binding = None
    for alpha in j.positive:
        az = Fraction(evaluate(alpha, zk))
        full = az * az / dual_pairing(rs, alpha.coords, alpha.coords)
        rhs = [Fraction(evaluate(alpha, b)) for b in flag.center_basis]
        norm_center = sum((ri * gij * rj for ri, row in zip(rhs, gram_c_inv) for gij, rj in zip(row, rhs)),
                          Fraction(0))
        center = az * az / norm_center
        if best is None or full < best:
            best, binding = full, alpha
        if best_center is None or center < best_center:
            best_center = center
    return SphereCheck(ok=bool(best > 1), min_distance_sq=best, min_distance_sq_center=best_center,
                           binding_root=binding)


# every painted flag of the small groups, and the large flags that flag-info is run on: (group, flags or None)
CENTER_FLAGS = [(text, None) for text in ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3", "A2xA2", "A1xA1xA1", "B4", "F4"]]
CENTER_FLAGS += [("E6", [(0, 2, 3, 4)]), ("E7", [(1, 2, 3, 4, 5)]), ("E8", [(0, 1, 2, 3, 4), (2,)])]


def center_flags(text, flags):
    """The painted sets of a CENTER_FLAGS entry: the given ones, or every one with a nonzero center."""
    rank = LieAlgebraSpec.parse(text).rank
    return flags or itertools.chain.from_iterable(itertools.combinations(range(rank), k) for k in range(rank))


def general_basis_center(flag, j, zk):
    """The center of k for a general rational basis: (basis, modules, alpha(Zk) per module, Gram matrix).

    The basis is the exact null space of the painted unit rows; the modules
    group R_m+ by (alpha(b) for b in flag.center_basis), in R_m+ order, each
    with its alpha(Zk); the Gram matrix is E(b, b') by `killing`.
    """
    rs = flag.rs
    rows = [[Fraction(int(k == i)) for k in range(rs.rank)] for i in sorted(flag.painted)]
    basis = tuple(CartanVector(tuple(v)) for v in fraction_solve(rows, [0] * len(rows), rs.rank)[1])
    modules = {}
    for alpha in j.positive:
        modules.setdefault(tuple(evaluate(alpha, b) for b in flag.center_basis), []).append(alpha)
    at_zk = [evaluate(roots[0], zk) for roots in modules.values()]
    gram = [[killing(rs, b1, b2) for b2 in flag.center_basis] for b1 in flag.center_basis]
    return basis, modules, at_zk, gram


def all_pairs_reflection_closed(rs):
    """Whether s_a(b) = b - n_ab a is a root, with n_ab = 2 (b, a) / (a, a) an integer, for all roots a, b.

    Pairings are read in integers from the dual form D of M^-1 = D / den
    (`RootSystem.dual_form`); s_a = s_-a, so a runs over the positive roots.
    """
    roots = rs.root_set()
    dual, _ = rs.dual_form
    for a in (r.coords for r in rs.positive_roots):
        ka = [sum(map(mul, row, a)) for row in dual]
        aa = sum(map(mul, a, ka))
        for b in roots:
            n, rem = divmod(2 * sum(map(mul, b, ka)), aa)
            if rem or tuple(x - n * y for x, y in zip(b, a)) not in roots:
                return False
    return True


def pair_linear_product(modules, r):
    """prod ((a0 + a1 sqrt(R)) - (k0 + k1 sqrt(R)) x)^d as integer pairs (u, v), one factor at a time.

    Every factor is one pass of multiply-adds over both lists of pairs, R =
    r.numerator * r.denominator; the form `polys.int_linear_product` takes
    for factors with both parts.
    """
    R = 0 if r is None else r.numerator * r.denominator
    us, vs = [1], [0]
    for (a0, a1, k0, k1), d in modules.items():
        for _ in range(d):
            u0, v0, u1, v1 = us + [0], vs + [0], [0] + us, [0] + vs
            us = [a0 * u + R * a1 * v - k0 * x - R * k1 * y for u, v, x, y in zip(u0, v0, u1, v1)]
            vs = [a0 * v + a1 * u - k0 * y - k1 * x for u, v, x, y in zip(u0, v0, u1, v1)]
    return us, vs


def homogenized_obstruction(gram, modules, q, period_scale):
    """F_h(Q), the m1 = m2 = 1 obstruction at the direction of a nonzero integer center vector Q, homogenized.

    The integer-frame value that `diameters._plane_form` expands on a plane,
    at one vector, exactly: its oracle, and the exact test of the float scan
    (`scan_search_diameters`).

    Q is given by its center coordinates, its values at the unpainted nodes,
    ``modules`` is `flag._center_modules` of (flag, j, Zk) and ``gram`` the
    integer center Gram matrix M_c (`flag._center_gram`), both built once
    by the caller.  With c_i(Q)
    the coefficient of y^i in prod alpha(Zk - y Q), e = E(Q, Q) /
    period_scale^2 and J the largest odd i <= |R_m+|,

        F_h(Q) = sum over odd i of 2/(i+2) c_i(Q) e^((J-i)/2) = e^(J/2) F(Q / sqrt(e)),

    where F(Q / sqrt(e)) is the obstruction `model.futaki` gives at Q normalized to
    E(Z, Z) = period_scale^2.  So F_h(Q) is rational, has the sign of that
    obstruction and vanishes exactly when it does, and no square root is
    taken.  F_h is odd and homogeneous of degree J, F_h(lambda Q) =
    lambda^J F_h(Q), so the scale of Q does not move its zeros.  A center
    module with restriction rho has alpha(Zk) = at_zk / z_den and alpha(Q) =
    rho . Q, so its factor is (at_zk - y z_den rho . Q) / z_den, an integer
    pair over z_den; E(Q, Q) = Q^T M_c Q.  The sum is formed in integers, over one positive
    denominator.
    """
    table, at_zk, z_den = modules
    factors = {}
    for rho, roots, a in zip(table, table.values(), at_zk):
        key = (a, 0, z_den * sum(map(mul, rho, q)), 0)
        factors[key] = factors.get(key, 0) + len(roots)
    us, _ = int_linear_product(factors, None)
    weights, scale = _integral_weights(len(us), 1, 1)
    # e = e_num / e_den in integers
    e_num = linalg.form(gram, q, q) * period_scale.denominator ** 2
    e_den = period_scale.numerator ** 2
    top = (len(us) - 2) // 2  # (J - 1) / 2
    # times e_den^top, the term of odd i = 2k + 1 carries e_num^(top-k) e_den^k
    total = sum(weights[i] * us[i] * e_num ** (top - k) * e_den ** k for k, i in enumerate(range(1, len(us), 2)))
    return Fraction(total, scale * z_den ** (len(us) - 1) * e_den ** top)


def isotropy_homogenized_obstruction(flag, j, zk, q, period_scale):
    """F_h(q) of `homogenized_obstruction` at an exact rational center vector q, over its isotropy modules.

    The coefficients c_i(q) of prod alpha(Zk - y q) come from the integer
    product over `model.isotropy_modules` under (Zk, q), which reads q's own
    denominator; e = E(q, q) / period_scale^2 is a reduced Fraction.
    """
    table, den, _ = isotropy_modules(flag, j, zk, q)
    us, _ = int_linear_product({key: len(roots) for key, roots in table.items()}, None)
    weights, scale = _integral_weights(len(us), 1, 1)
    qc = [q.values[i] for i in flag.unpainted]
    e = Fraction(linalg.form(_center_gram(flag), qc, qc)) / (period_scale * period_scale)
    top = (len(us) - 2) // 2
    total = sum(weights[i] * us[i] * e.numerator ** (top - k) * e.denominator ** k
                for k, i in enumerate(range(1, len(us), 2)))
    return Fraction(total, scale * den ** len(j.positive) * e.denominator ** top)


# the float scan that `diameters.search_diameters` replaced: the latitude circles gave way to planes, and a
# d = 2 search scans its one circle; a float zero is tried as the rational direction with denominators up to
# RATIONALIZE_MAX_DEN when every coordinate is within RATIONALIZE_TOL of it
SCAN_UNIT_TOL = 1e-6
SCAN_NEWTON_STEPS = 4
RATIONALIZE_MAX_DEN = 10 ** 6
RATIONALIZE_TOL = 1e-7


def scan_search_diameters(base):
    """The candidates of the float scan of a 2-dimensional center, the oracle of `diameters.search_diameters`.

    The circle E(Z, Z) = period_scale^2 of the center, in an E-orthonormal
    basis (`orthonormal_center_basis`), is sampled by `circle_zeros`; each
    zero is rationalized (`integer_direction`) and given its exact verdict
    where `homogenized_obstruction` vanishes, and a float verdict
    otherwise.  Zeros that are the same direction up to sign are merged by
    `direction_key`.  Exact candidates come first, then float ones, each in
    the order of their float values.
    """
    flag, j = base.flag, base.j
    if flag.center_dim != 2:
        raise InputError("the scan oracle covers a 2-dimensional center")
    zk = ricci_invariant(flag, j)
    modules, gram = _center_modules(flag, j, zk), _center_gram(flag)
    candidates, seen = [], set()

    def consider_exact(q):
        if homogenized_obstruction(gram, modules, q, base.period_scale) != 0:
            return False
        cand_base = make_base(flag, j, _unpainted_vector(flag, q, [0, 0], 1, None), period_scale=base.period_scale)
        key = direction_key([float(v) for v in cand_base.z.values])
        if key in seen:
            return False
        verdict = ke_verdict(cand_base, zk, 1, 1)
        seen.add(key)
        candidates.append(DiameterCandidate(cand_base.z.values, verdict, confirmed_exact=True))
        return True

    def consider_float(coords):
        values = np.zeros(flag.rs.rank)
        values[list(flag.unpainted)] = coords
        key = direction_key(values)
        if key in seen:
            return
        q = integer_direction(coords)
        if q is not None and consider_exact(q):
            return
        seen.add(key)
        zf = CartanVector(tuple(float(v) for v in values))
        base_f = CenterLine(flag=flag, j=j, z=zf, period_scale=base.period_scale)
        candidates.append(DiameterCandidate(zf.values, ke_verdict(base_f, zk, 1, 1), confirmed_exact=False))

    b1, b2 = (float(base.period_scale) * u for u in orthonormal_center_basis(gram))
    obstruction = diameter_obstruction(flag, j, zk)
    directions = lambda circle, theta: np.outer(np.cos(theta), b1) + np.outer(np.sin(theta), b2)  # noqa: E731
    for coords in directions(*circle_zeros(lambda c, t: obstruction(directions(c, t)), 1, len(j.positive))):
        consider_float(coords)
    candidates.sort(key=lambda c: (not c.confirmed_exact, tuple(float(v) for v in c.z_values)))
    return tuple(candidates)


def diameter_obstruction(flag, j, zk):
    """The m1 = m2 = 1 obstruction of center directions, batched: z (n, d) -> (n,), in center coordinates.

    Roots with one restriction to the center form one module with one
    alpha(Zk) (`flag._center_modules`).  The integrand y * prod (alpha(Zk) -
    y alpha(Z)) has degree |R_m+| + 1 in y, which ceil((|R_m+| + 2)/2)
    Gauss-Legendre nodes integrate exactly.
    """
    table, at_zk, z_den = _center_modules(flag, j, zk)
    coords = np.array(list(table), dtype=float)
    a = np.array([x / z_den for x in at_zk])
    mult = np.array([len(roots) for roots in table.values()])
    gx, gw = ein._gauss_rule((len(j.positive) + 3) // 2)

    def at(z):
        out = np.ones((len(z), len(gx)))
        for ai, ki, di in zip(a, (z @ coords.T).T, mult):
            out *= (ai - np.outer(ki, gx)) ** di
        return out @ (gw * gx)

    return at


def circle_zeros(values_at, n_circles, degree):
    """Every zero of F on each circle, as arrays (circle, theta) in (circle, theta from 0) order.

    values_at(circle, theta) evaluates F at the angles theta of the circles
    `circle`, batched; on each circle F is a trigonometric polynomial of
    degree at most `degree`.  Its DFT coefficients c_k from M = 2 degree + 1
    equispaced samples make w^degree F(w) a polynomial in w = e^(i theta),
    whose unit-modulus roots, the eigenvalues of its companion matrix
    (Boyd, J. Eng. Math. 56, 2006), are the zeros of F.  The matrices are
    those np.roots builds, stacked over the circles of one trimmed degree
    and handed to one np.linalg.eigvals call.  Coefficients at rounding
    level are dropped from the top first.  The zeros of all circles are
    polished together by Newton steps, and those with |F| <=
    FUTAKI_FLOAT_TOL are returned.  A circle whose samples are all exactly
    0 returns its M sample angles.
    """
    m = 2 * degree + 1
    nodes = 2 * math.pi * np.arange(m) / m
    samples = values_at(np.repeat(np.arange(n_circles), m), np.tile(nodes, n_circles)).reshape(n_circles, m)
    k = np.arange(-degree, degree + 1)
    coeffs = samples @ np.exp(-1j * np.outer(nodes, k)) / m  # c_k, k = -degree .. degree
    found = [nodes if not samples[c].any() else None for c in range(n_circles)]
    by_degree = {}  # the other circles by their trimmed degree
    for c in range(n_circles):
        if found[c] is None:
            big = np.abs(coeffs[c]) > 8 * m * np.finfo(float).eps * np.abs(coeffs[c]).max()
            by_degree.setdefault(int(np.abs(k[big]).max()), []).append(c)
    for top, group in by_degree.items():
        roots = np.zeros((len(group), 0))  # a nonzero constant has no zero
        if top:
            p = coeffs[group, degree - top:degree + top + 1][:, ::-1]  # w^top F(w), highest power first
            companion = np.zeros((len(group), 2 * top, 2 * top), dtype=complex)
            companion[:, np.arange(1, 2 * top), np.arange(2 * top - 1)] = 1.0
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            roots = np.linalg.eigvals(companion)
        for c, r in zip(group, roots):
            found[c] = np.angle(r[np.abs(np.abs(r) - 1.0) <= SCAN_UNIT_TOL])
    return _polished_zeros(values_at, coeffs, k, found)


def _polished_zeros(values_at, coeffs, k, found):
    """The zeros `found` per circle, Newton-polished on values_at and kept where |F| <= FUTAKI_FLOAT_TOL, sorted."""
    circle = np.concatenate([np.full(len(f), c) for c, f in enumerate(found)])
    theta = np.concatenate(found)
    slope = coeffs[circle] * (1j * k)
    for _ in range(SCAN_NEWTON_STEPS):
        df = np.real(np.sum(slope * np.exp(1j * np.outer(theta, k)), axis=1))
        theta = theta - np.divide(values_at(circle, theta), df, out=np.zeros_like(df), where=df != 0)
    keep = np.abs(values_at(circle, theta)) <= FUTAKI_FLOAT_TOL
    circle, theta = circle[keep], np.mod(theta[keep], 2 * math.pi)
    theta[theta == 2 * math.pi] = 0.0  # a tiny negative angle wraps to 2 pi in rounding
    order = np.lexsort((theta, circle))
    return circle[order], theta[order]


def circle_zeros_by_np_roots(values_at, n_circles, degree):
    """`circle_zeros` with one np.roots call per circle, as the oracle of its stacked eigenvalues."""
    m = 2 * degree + 1
    nodes = 2 * math.pi * np.arange(m) / m
    samples = values_at(np.repeat(np.arange(n_circles), m), np.tile(nodes, n_circles)).reshape(n_circles, m)
    k = np.arange(-degree, degree + 1)
    coeffs = samples @ np.exp(-1j * np.outer(nodes, k)) / m
    found = []
    for c in range(n_circles):
        if not samples[c].any():
            found.append(nodes)
        else:
            big = np.abs(coeffs[c]) > 8 * m * np.finfo(float).eps * np.abs(coeffs[c]).max()
            top = int(np.abs(k[big]).max())
            roots = np.roots(coeffs[c, degree - top:degree + top + 1][::-1])
            found.append(np.angle(roots[np.abs(np.abs(roots) - 1.0) <= SCAN_UNIT_TOL]))
    return _polished_zeros(values_at, coeffs, k, found)


def direction_key(values):
    """A float direction up to sign and scale, rounded to 7 digits: the largest magnitude 1, the first entry above
    1e-9 positive."""
    arr = np.array([float(v) for v in values])
    scale = np.max(np.abs(arr))
    if scale == 0:
        return (0,) * len(arr)
    arr = arr / scale
    lead = next(x for x in arr if abs(x) > 1e-9)
    if lead < 0:
        arr = -arr
    return tuple(int(round(x * 10 ** 7)) for x in arr)


def orthonormal_center_basis(gram):
    """An E-orthonormal basis of the center in center coordinates, by Gram-Schmidt on the unit vectors.

    ``gram`` is the integer center Gram matrix (`flag._center_gram`).
    """
    gram = np.array(gram, dtype=float)
    out = []
    for v in np.eye(len(gram)):
        for u in out:
            v = v - (u @ gram @ v) * u
        out.append(v / math.sqrt(float(v @ gram @ v)))
    return out


def integer_direction(coords):
    """The primitive integer center vector Q of a float direction, given by its center coordinates, if close.

    The coordinates over their largest magnitude are rationalized with
    denominators up to RATIONALIZE_MAX_DEN; when each is within
    RATIONALIZE_TOL, Q is those rationals over their common denominator,
    divided by the gcd of its entries.  None when the direction is zero or
    not that close to a rational one.
    """
    scale = np.max(np.abs(coords))
    if scale == 0:
        return None
    coeffs = (coords / scale).tolist()
    rat = [Fraction(c).limit_denominator(RATIONALIZE_MAX_DEN) for c in coeffs]
    if max(abs(float(r) - c) for r, c in zip(rat, coeffs)) > RATIONALIZE_TOL:
        return None
    den = math.lcm(*(r.denominator for r in rat))
    q = [r.numerator * (den // r.denominator) for r in rat]
    g = math.gcd(*q)
    return [x // g for x in q]
