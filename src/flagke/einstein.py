"""Einstein conditions, the obstruction integral, and the metric profile.

For a segment with endpoints Z1 = m1*Z + Z_kappa and Z2 = -m2*Z + Z_kappa the
whole Einstein problem reduces to the polynomial

    P(v) = prod over alpha in R_m+ of alpha(Z1 - v*Z),   v in [0, m1+m2],

its antiderivative data, and the scalar obstruction

    I = integral_{-m1}^{m2} y * prod alpha(Z_kappa - y*Z) dy,

which is the same integral as integral_0^{m1+m2} P(v)(v - m1) dv after the
shift y = v - m1.  When I vanishes and the segment is admissible, the profile
f(t) is recovered from the first integral

    u(f) = (f')^2 = -2 * [integral_0^f P(v)(v - m1) dv] / P(f),

inverted through the quadrature t(f) = integral_0^f ds / sqrt(u(s)).  The
inverse-square-root behaviour of the integrand at an end is removed
analytically by the substitution s = w^2 applied to the exactly deflated
polynomials.  The right end of (Z1, Z, m1, m2) is the left end of the reversed
segment (Z2, -Z, m2, m1), so one end chart serves both ends and all numeric
integrands here are smooth.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import DegreeMismatchError, InputError, InternalError, NoKahlerEinsteinError, SingularConfigurationError
from .flag import FlagData, InvariantComplexStructure, ricci_invariant
from .model import AdmissibleSegment, CenterLine, analyze_segment, make_base
from .polys import (
    int_linear_product,
    p_antideriv,
    p_deriv,
    p_eval,
    p_eval_float,
    p_linear_product,
    p_linear_product_float,
    p_low_order,
    p_mul,
    p_to_float,
    pair_scalar,
    split_exact,
)
from .rootsys import CartanVector, Root, evaluate, killing
from .scalars import Scalar, is_exact, scalar_is_zero

FUTAKI_FLOAT_TOL = 1e-10
# the profile tables: panels per end chart and Gauss-Legendre nodes per panel
PROFILE_PANELS = 192
PROFILE_GAUSS_ORDER = 16
# profile inversion: a Newton step this small relative to w is rounding; a
# point still moving after the cap (bisection alone needs ~55) is a fault
NEWTON_RTOL = 4 * np.finfo(float).eps
NEWTON_MAX_ITER = 80
# scan roots: the bracket width at which the root finder stops, and the
# number of steps that must halve the bracket before it bisects instead
SCAN_XTOL = 1e-14
SCAN_HALVING = 3


# ---------------------------------------------------------------------------
# endpoints and the obstruction integral


def ke_endpoints(zk: CartanVector, z: CartanVector, m1: int, m2: int) -> Tuple[CartanVector, CartanVector]:
    """Endpoints forced by the Einstein condition: Z1 = m1*Z + Zk, Z2 = -m2*Z + Zk."""
    if m1 < 1 or m2 < 1:
        raise InputError("degrees must be >= 1")
    return zk + z.scale(m1), zk + z.scale(-m2)


@dataclass(frozen=True)
class FutakiReport:
    value: Scalar
    vanishes: bool
    exact: bool
    tol: float
    error_bound: Optional[float] = None


def futaki(flag: FlagData, j: InvariantComplexStructure, z: CartanVector, m1: int, m2: int) -> FutakiReport:
    """The obstruction integral over [-m1, m2], exact on exact inputs.

    On exact inputs y * prod alpha(Zk - y Z) is expanded and integrated in
    integers over the isotropy modules of `_modules`; one Fraction or Quad is
    built, for the value.  On the float path the integrand is the
    np.convolve chain of `_float_obstruction`, and a crude roundoff bound
    accompanies the value.
    """
    if m1 < 1 or m2 < 1:
        raise InputError("degrees must be >= 1")
    zk = ricci_invariant(flag, j)
    if z.kind == "float":
        value, poly = _float_obstruction(j, zk, m1, m2)(z.values)
        powers = np.arange(2, len(poly) + 2, dtype=float)
        scale = float(np.abs(poly) @ (2.0 * float(max(m1, m2)) ** powers / powers))
        bound = scale * (len(poly) + 1) * np.finfo(float).eps * 8
        vanishes = abs(value) <= max(FUTAKI_FLOAT_TOL, bound)
        return FutakiReport(value=value, vanishes=vanishes, exact=False, tol=FUTAKI_FLOAT_TOL, error_bound=bound)
    table, den, r = _modules(j, zk, z)
    us, vs = int_linear_product({(y, 0, k0, k1): len(roots) for (y, k0, k1), roots in table.items()}, r)
    # integral of y^(i+1) is (m2^(i+2) - (-m1)^(i+2)) / (i+2); lcm(1..) makes every weight an integer
    scale = math.lcm(*range(1, len(us) + 2))
    weights = [(m2 ** (i + 2) - (-m1) ** (i + 2)) * (scale // (i + 2)) for i in range(len(us))]
    total = scale * den ** len(j.positive)
    value = pair_scalar(sum(map(mul, us, weights)), sum(map(mul, vs, weights)), total, r)
    return FutakiReport(value=value, vanishes=scalar_is_zero(value), exact=True, tol=0.0)


def _modules(j: InvariantComplexStructure, zk: CartanVector, z: CartanVector):
    """The isotropy modules of R_m+ under exact (Zk, Z): ({(y, k0, k1): roots}, den, r).

    Zk and Z are split once into integer vectors over one denominator den,
    so that alpha(Zk) = y/den and alpha(Z) = (k0 + k1 sqrt(R))/den with R and
    r as in `polys.split_exact`; roots with equal values share one key, in
    the order of R_m+.
    """
    n = len(zk.values)
    u, v, den, r = split_exact(zk.values + z.values)
    y, zr, zs = u[:n], u[n:], v[n:]  # Zk is rational: its sqrt parts v[:n] are 0
    table: Dict[Tuple[int, int, int], List[Root]] = {}
    for alpha in j.positive:
        c = alpha.coords
        table.setdefault((sum(map(mul, c, y)), sum(map(mul, c, zr)), sum(map(mul, c, zs))), []).append(alpha)
    return table, den, r


def _float_obstruction(j: InvariantComplexStructure, zk: CartanVector, m1: int, m2: int):
    """The float obstruction integral as a function of Z's values: z -> (value, c).

    c holds the coefficients c_i of prod alpha(Zk - y Z), the
    `p_linear_product_float` chain over R_m+; the integrand is
    sum c_i y^(i+1).  The root coordinates, the alpha(Zk) and the
    integration weights are built once, for every Z of a scan.
    """
    coords = np.array([a.coords for a in j.positive], dtype=float).reshape(len(j.positive), len(zk.values))
    zk_f = np.array([float(evaluate(a, zk)) for a in j.positive])
    powers = np.arange(2, len(zk_f) + 3, dtype=float)
    weights = (float(m2) ** powers - float(-m1) ** powers) / powers

    def at(z_values) -> Tuple[float, np.ndarray]:
        poly = p_linear_product_float(zk_f, coords @ np.asarray(z_values, dtype=float))
        return float(poly @ weights[:len(poly)]), poly

    return at


def futaki_shifted(base: CenterLine, m1: int, m2: int) -> Scalar:
    """integral_0^{m1+m2} P(v)(v - m1) dv computed from the segment polynomial.

    Equal to the obstruction integral after y = v - m1; kept as a separate
    computation path so the change of variables can be asserted exactly.  It
    shares the integer product with `futaki`, so the tests also check both
    against a per-root Fraction/Quad product.
    """
    sp = SegmentPolynomial.from_base(base, m1, m2, validate_degrees=False)
    return p_eval(sp.q_coeffs, Fraction(m1 + m2))


# ---------------------------------------------------------------------------
# the segment polynomial


class EndChart:
    """The end v = 0 of a segment polynomial P, which vanishes there to order m - 1 with m = m1.

    Holds the exactly deflated p = P[m-1:] and q = Q[m:], with
    Q(x) = integral_0^x P(v)(v - m) dv, and their float twins.  Near the end
    u = -2Q/P = -2 x q/p, and in the chart x = w^2 the integrand of t is the
    smooth 2/sqrt(-2q/p).  The right end of a segment is the left end of its
    reversed polynomial, so one chart type serves both ends.
    """

    def __init__(self, sp: "SegmentPolynomial", where: str = "0"):
        coeffs, q_coeffs, m = sp.coeffs, sp.q_coeffs, sp.m1
        low_order = p_low_order if sp.exact else _float_low_order
        lp = low_order(coeffs)
        if lp != m - 1:
            raise DegreeMismatchError("P vanishes to order %d at %s, expected %d" % (lp, where, m - 1))
        lq = low_order(q_coeffs)
        if lq < m:
            raise DegreeMismatchError("Q vanishes to order %d at %s, expected %d" % (lq, where, m))
        self.m = m
        self.p, self.q = list(coeffs[m - 1:]), list(q_coeffs[m:])
        self.p_f, self.q_f = p_to_float(self.p), p_to_float(self.q)
        self.dp_f = p_to_float(p_deriv(self.p))

    def u(self, x):
        """u at distance x (a float or an array) from the end."""
        den = p_eval_float(self.p_f, x)
        if (den == 0).any():
            raise SingularConfigurationError("P vanishes at distance %g from the end" % _first(x, den == 0))
        return x * (-2.0) * p_eval_float(self.q_f, x) / den

    def uf(self, x):
        """The term u F of f'' = u F - x + m at distance x (a float or an array), in p and q."""
        pt = p_eval_float(self.p_f, x)
        qt = p_eval_float(self.q_f, x)
        dpt = p_eval_float(self.dp_f, x)
        return qt * ((self.m - 1) * pt + x * dpt) / (pt * pt)

    def integrand(self, w):
        """dt/dw = 2/sqrt(-2q/p) at x = w^2; it tends to sqrt(2) at the end."""
        W = np.asarray(w, dtype=float) ** 2
        ratio = -2.0 * p_eval_float(self.q_f, W) / p_eval_float(self.p_f, W)
        if np.any(ratio <= 0):
            raise NoKahlerEinsteinError("first integral not positive on the open segment")
        return 2.0 / np.sqrt(ratio)


class SegmentPolynomial:
    """P(v) = prod alpha(Z1 - v Z) with exact derivatives and end charts.

    ``modules`` maps each value (alpha(Z1), alpha(Z), alpha(Zk)) taken on
    R_m+ to the tuple of roots taking it: an isotropy module, whose size is
    its multiplicity.  Distinct modules differ in (alpha(Z1), alpha(Z)),
    which fix alpha(Zk) = alpha(Z1) - m1 alpha(Z).  Attributes ending in
    ``_f`` are float arrays for numerics, one entry per module; everything
    else is exact when the inputs are exact.  Instances are immutable after
    construction.
    """

    def __init__(self, modules: Dict[Tuple[Scalar, Scalar, Scalar], Sequence[Root]], m1: int, m2: int,
                 validate_degrees: bool = True):
        self.modules = {key: tuple(roots) for key, roots in modules.items()}
        self.m1, self.m2 = int(m1), int(m2)
        self.f_delta = Fraction(m1 + m2)
        self.exact = all(is_exact(a) and is_exact(k) for a, k, _ in self.modules)
        if validate_degrees:
            walls: Tuple[list, list] = ([], [])
            for (a, k, _), roots in self.modules.items():
                for side, value in enumerate((a, a - k * self.f_delta)):
                    if scalar_is_zero(value, 1e-12):
                        walls[side].extend(r.coords for r in roots)
            computed = (len(walls[0]) + 1, len(walls[1]) + 1)
            if computed != (self.m1, self.m2):
                raise DegreeMismatchError(
                    "wall order %s disagrees with declared degrees %s" % (computed, (self.m1, self.m2)),
                    details={"computed": computed, "declared": (self.m1, self.m2),
                             "walls_at_z1": walls[0], "walls_at_z2": walls[1]},
                )

        d = [len(roots) for roots in self.modules.values()]
        self.a_f, self.k_f, self.zk_f = (np.array([float(key[i]) for key in self.modules]) for i in range(3))
        self.d_f = np.array(d, dtype=float)
        if self.exact:
            self.coeffs = p_linear_product({(a, k): n for (a, k, _), n in zip(self.modules, d)})
        else:
            self.coeffs = p_linear_product_float(np.repeat(self.a_f, d), np.repeat(self.k_f, d)).tolist()
        self.d_coeffs = p_deriv(self.coeffs)
        # Q(f) = integral_0^f P(v)(v - m1) dv; zero of order m1 at 0
        self.q_coeffs = p_antideriv(p_mul(self.coeffs, [-Fraction(m1), Fraction(1)]))

        self.coeffs_f = p_to_float(self.coeffs)
        self.q_coeffs_f = p_to_float(self.q_coeffs)
        self._deflations: Optional[object] = None

    @property
    def deflations(self) -> Tuple[EndChart, EndChart]:
        """The (left, right) end charts, built on demand.

        The right chart is the left chart of the reversed polynomial; then
        Q(m1+m2) = 0 certifies the vanishing of the obstruction integral.  So
        non-Einstein segment polynomials stay constructible and only the
        profile machinery trips these checks.  A failed build is cached and
        its exception re-raised.
        """
        if self._deflations is None:
            try:
                left = EndChart(self)
                right = EndChart(self.reversed(), where="the right end")
                q_end = p_eval(self.q_coeffs, self.f_delta)
                tol = 0.0 if self.exact else 1e-9 * max([abs(float(q_end))] + [abs(c) for c in right.q_f])
                if not scalar_is_zero(q_end, tol):
                    raise NoKahlerEinsteinError("obstruction integral does not vanish: Q(m1+m2) = %s" % (q_end,))
                self._deflations = (left, right)
            except (NoKahlerEinsteinError, DegreeMismatchError) as exc:
                self._deflations = exc
        if isinstance(self._deflations, Exception):
            raise self._deflations.with_traceback(None)
        return self._deflations

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_base(base: CenterLine, m1: int, m2: int, validate_degrees: bool = True) -> "SegmentPolynomial":
        """The segment polynomial of the Einstein endpoints Z1 = Zk + m1 Z, Z2 = Zk - m2 Z.

        Exact module values are built once per module from the integers of
        `_modules`; a float Z is evaluated root by root.
        """
        if m1 < 1 or m2 < 1:
            raise InputError("degrees must be >= 1")
        zk = ricci_invariant(base.flag, base.j)
        modules: Dict[Tuple[Scalar, Scalar, Scalar], List[Root]] = {}
        if base.z.kind == "float":
            z1 = zk + base.z.scale(m1)
            for alpha in base.j.positive:
                key = (evaluate(alpha, z1), evaluate(alpha, base.z), evaluate(alpha, zk))
                modules.setdefault(key, []).append(alpha)
        else:
            table, den, r = _modules(base.j, zk, base.z)
            for (y, k0, k1), roots in table.items():
                a = pair_scalar(y + m1 * k0, m1 * k1, den, r)  # alpha(Z1) = alpha(Zk) + m1 alpha(Z)
                modules[a, pair_scalar(k0, k1, den, r), Fraction(y, den)] = roots
        return SegmentPolynomial(modules, m1, m2, validate_degrees=validate_degrees)

    def reversed(self) -> "SegmentPolynomial":
        """The segment run backwards: (Z2, -Z, m2, m1), so P_rev(x) = P(m1+m2 - x).

        Its walls are those of this polynomial, swapped; they are not
        re-validated.
        """
        modules = {(a - k * self.f_delta, -k, zk): roots for (a, k, zk), roots in self.modules.items()}
        return SegmentPolynomial(modules, self.m2, self.m1, validate_degrees=False)

    # -- pointwise data ------------------------------------------------------

    def p_eval(self, v: Scalar) -> Scalar:
        return p_eval(self.coeffs, v)

    def u_exact(self, f: Scalar) -> Scalar:
        num = p_eval(self.q_coeffs, f)
        den = p_eval(self.coeffs, f)
        if scalar_is_zero(den):
            raise SingularConfigurationError("P vanishes at f = %s" % (f,))
        return -2 * num / den

    def u_float(self, f):
        """u(f) evaluated through the end charts, stable at walls.

        Past the midpoint this is the reversed polynomial's u at m1+m2 - f.
        Segment polynomials without a valid profile (nonvanishing obstruction
        or mismatched walls) have no charts; they fall back to the direct
        ratio, valid on the open interval away from walls.  ``f`` may be a
        float or an array.
        """
        f = _floats(f)
        try:
            left, right = self.deflations
        except (NoKahlerEinsteinError, DegreeMismatchError):
            den = p_eval_float(self.coeffs_f, f)
            if (den == 0).any():
                raise SingularConfigurationError("P vanishes at f = %g" % _first(f, den == 0))
            return -2.0 * p_eval_float(self.q_coeffs_f, f) / den
        return self._by_end(f, left.u, right.u)

    def _by_end(self, f, left_fn, right_fn):
        """left_fn(f) up to the midpoint and right_fn(m1+m2 - f) beyond it.

        Each chart sees only its own half: the other end's wall is a pole of
        its deflated p.
        """
        fd = float(self.f_delta)
        if isinstance(f, float):  # a scalar f, as from u_eval
            return left_fn(f) if f <= fd / 2 else right_fn(fd - f)
        near_left = f <= fd / 2
        out = np.empty_like(f)
        out[near_left] = left_fn(f[near_left])
        out[~near_left] = right_fn(fd - f[~near_left])
        return out

    def log_deriv_sums(self, f):
        """(s1, s2) with s1 = sum k/(a - k f), s2 = sum k^2/(a - k f)^2.

        These are -P'/P and (P'/P)^2 - P''/P, summed over R_m+ as modules
        weighted by their multiplicities; the doubled real basis carries each
        root twice, which cancels everywhere these sums are used.  ``f`` may
        be a float or an array.
        """
        f = _floats(f)
        g = self.a_f - np.multiply.outer(f, self.k_f)
        if np.any(g == 0):
            raise SingularConfigurationError("metric eigenvalue vanishes at f = %g" % _first(f, np.any(g == 0, axis=-1)))
        kg = self.k_f / g
        return kg @ self.d_f, kg ** 2 @ self.d_f

    def fpp_float(self, f):
        """f'' from the closed form u*F - f + m1, stable at both endpoints.

        Past the midpoint u*F is minus the reversed segment's at m1+m2 - f:
        the reversed profile m1+m2 - f(delta - t) has f'' negated.  ``f`` may
        be a float or an array.
        """
        f = _floats(f)
        left, right = self.deflations
        return self._by_end(f, left.uf, lambda x: -right.uf(x)) - f + self.m1


def _float_low_order(coeffs: Sequence[Scalar], rel_tol: float = 1e-9) -> int:
    scale = max(abs(float(c)) for c in coeffs) or 1.0
    for k, c in enumerate(coeffs):
        if abs(float(c)) > rel_tol * scale:
            return k
    return len(coeffs)


def _floats(x):
    """A Python float for a scalar, else a float array."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _like(x: np.ndarray, out):
    """out as a Python float when the input x was a scalar, else as an array."""
    return float(out) if np.ndim(x) == 0 else out


def _first(x, bad) -> float:
    """The first value of x where the mask bad holds, for an error message."""
    return float(np.broadcast_to(x, np.shape(bad))[bad][0])


def build_segment_polynomial(base: CenterLine, m1: int, m2: int) -> SegmentPolynomial:
    """Segment polynomial for the Einstein endpoints, with degree validation."""
    return SegmentPolynomial.from_base(base, m1, m2, validate_degrees=True)


def u_eval(sp: SegmentPolynomial, f: Scalar) -> Scalar:
    """u(f) = -2 [int_0^f P(v)(v-m1) dv] / P(f); exact on exact inputs."""
    if isinstance(f, float):
        return sp.u_float(f)
    return sp.u_exact(f)


# ---------------------------------------------------------------------------
# the profile map t <-> f


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only, built once per order."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _tanh_sinh_rule(s_max: float, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of integral_0^1 g(x) dx ~ sum w g(x) (Takahasi-Mori, Publ. RIMS 9, 1974).

    x = (1 - tanh y)/2 with y = (pi/2) sinh s, s on a uniform grid of step h
    in [-s_max, s_max].  The nodes are formed as 1/(1 + e^(2y)), so a node
    next to x = 0 carries its full relative precision and no caller has to
    subtract it from anything.
    """
    x, w = [], []
    # math, not numpy: numpy's transcendental loops would cost every import
    # of flagke about 0.4 MB of resident memory
    for k in range(-round(s_max / h), round(s_max / h) + 1):
        y = (math.pi / 2) * math.sinh(k * h)
        x.append(1.0 / (1.0 + math.exp(2 * y)))
        w.append(h * (math.pi / 4) * math.cosh(k * h) / math.cosh(y) ** 2)
    return np.array(x), np.array(w)


# the smallest node is ~1e-62, so the mass of an end's 1/sqrt(2x) left
# outside the rule is far below rounding
_TS_X, _TS_W = _tanh_sinh_rule(4.5, 1.0 / 16)


class _HalfTable:
    """Cumulative composite Gauss-Legendre table of t over one end chart.

    Panels are uniform in w on [0, w_max], where x = w^2 is the distance
    from the chart's end and the integrand dt/dw is smooth.  Both directions
    of the map work on whole 1-d arrays of points.
    """

    def __init__(self, chart: EndChart, w_max: float, n_panels: int, gx: np.ndarray, gw: np.ndarray):
        self.g = chart.integrand
        self._gx, self._gw = gx, gw
        self.edges = np.linspace(0.0, w_max, n_panels + 1)
        self.panels = self._panel_sums(gx, gw)
        self.cum = np.concatenate([[0.0], np.cumsum(self.panels)])

    def _panel_sums(self, gx: np.ndarray, gw: np.ndarray) -> np.ndarray:
        """Every panel's Gauss sum of g under the rule (gx, gw), from one integrand call."""
        mid = (self.edges[1:] + self.edges[:-1]) / 2
        half = (self.edges[1:] - self.edges[:-1]) / 2
        nodes = mid[:, None] + half[:, None] * gx[None, :]
        vals = self.g(nodes.ravel()).reshape(nodes.shape)
        return (vals * gw[None, :]).sum(axis=1) * half

    def _panel(self, x: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Index of the panel holding each x, by the table of panel starts."""
        return np.clip(np.searchsorted(table, x, side="right") - 1, 0, len(self.edges) - 2)

    def _t_and_g(self, lo: np.ndarray, w: np.ndarray):
        """The Gauss sums of g over [lo, w] and g(w), row by row, from one integrand call."""
        mid, half = (lo + w) / 2, (w - lo) / 2
        vals = self.g(np.concatenate([mid[:, None] + half[:, None] * self._gx, w[:, None]], axis=1))
        return vals[:, :-1] @ self._gw * half, vals[:, -1]

    def t_of_w(self, w: np.ndarray) -> np.ndarray:
        i = self._panel(w, self.edges)
        lo = self.edges[i]
        return self.cum[i] + self._t_and_g(lo, np.maximum(np.minimum(w, self.edges[-1]), lo))[0]

    def w_of_t(self, t: np.ndarray) -> np.ndarray:
        """Solve t(w) = t for every point at once by safeguarded Newton.

        Each point is bracketed by its panel and starts from linear
        interpolation in it.  A step is w -= (t(w) - t)/g(w), since dt/dw = g;
        one that would leave the bracket, tightened at every evaluation,
        bisects it instead (rtsafe, Numerical Recipes 9.4).  The iteration
        stops when every step is at the rounding level of w or of t(w) - t.
        Points whose time rounds just past their panel's end settle on that
        end, within rounding.
        """
        i = self._panel(t, self.cum)
        lo, c0 = self.edges[i], self.cum[i]
        a, b = lo, self.edges[i + 1]
        w = a + (b - a) * np.clip((t - c0) / (self.cum[i + 1] - c0), 0.0, 1.0)
        for _ in range(NEWTON_MAX_ITER):
            partial, g_w = self._t_and_g(lo, w)
            h = c0 + partial - t
            a = np.where(h < 0, w, a)
            b = np.where(h > 0, w, b)
            w_new = w - h / g_w
            w_new = np.where((w_new < a) | (w_new > b), (a + b) / 2, w_new)
            converged = np.all(np.abs(w_new - w) <= NEWTON_RTOL * np.maximum(w_new, t / g_w))
            w = w_new
            if converged:
                return w
        raise InternalError("profile inversion did not converge in %d Newton steps" % NEWTON_MAX_ITER)

    def error_estimate(self, gx: np.ndarray, gw: np.ndarray) -> float:
        """Summed |G' - G| over the panels, G' their sums under a higher-order rule (gx, gw)."""
        return float(np.sum(np.abs(self._panel_sums(gx, gw) - self.panels)))


class ProfileMap:
    """Invertible map between arclength t and the profile value f.

    Built once per segment polynomial: one cumulative table per end chart,
    in w = sqrt(f) up to the midpoint and w = sqrt(m1+m2-f) beyond it,
    where the integrand of t(f) is smooth.
    """

    def __init__(self, sp: SegmentPolynomial):
        self.sp = sp
        self.fd = float(sp.f_delta)
        self.fm = self.fd / 2.0
        gx, gw = _gauss_rule(PROFILE_GAUSS_ORDER)
        left, right = sp.deflations
        self._left = _HalfTable(left, math.sqrt(self.fm), PROFILE_PANELS, gx, gw)
        self._right = _HalfTable(right, math.sqrt(self.fd - self.fm), PROFILE_PANELS, gx, gw)
        self.delta = float(self._left.cum[-1] + self._right.cum[-1])

    def t_of_f(self, f):
        """t(f) = integral_0^f ds/sqrt(u(s)), via the smooth substitutions.

        ``f`` may be a float or an array; a float gives a float.
        """
        f = np.asarray(f, dtype=float)
        fs = f.reshape(-1)
        t = np.where(fs <= 0, 0.0, self.delta)
        left = (fs > 0) & (fs <= self.fm)
        right = (fs > self.fm) & (fs < self.fd)
        t[left] = self._left.t_of_w(np.sqrt(fs[left]))
        t[right] = self.delta - self._right.t_of_w(np.sqrt(self.fd - fs[right]))
        return _like(f, t.reshape(f.shape))

    def f_of_t(self, t):
        """The inverse of t_of_f, for a float or an array of times."""
        t = np.asarray(t, dtype=float)
        ts = t.reshape(-1)
        f = np.where(ts <= 0, 0.0, self.fd)
        split = float(self._left.cum[-1])
        left = (ts > 0) & (ts <= split)
        right = (ts > split) & (ts < self.delta)
        f[left] = self._left.w_of_t(ts[left]) ** 2
        f[right] = self.fd - self._right.w_of_t(self.delta - ts[right]) ** 2
        return _like(t, f.reshape(t.shape))

    def quad_error_estimate(self) -> float:
        """The tables' error, estimated by re-summing every panel with a 24-node Gauss rule."""
        gx, gw = _gauss_rule(24)
        return self._left.error_estimate(gx, gw) + self._right.error_estimate(gx, gw)


def profile_delta_tanh_sinh(sp: SegmentPolynomial) -> float:
    """delta = integral_0^(m1+m2) df/sqrt(u(f)) by tanh-sinh quadrature.

    Each half is integrated in x, the distance to its own end, through that
    end's chart u; the double-exponential nodes absorb the 1/sqrt(2x)
    singularity at the end.  It shares no table, variable or rule with
    ProfileMap, only the charts, so it cross-checks the quadrature of t(f).
    """
    half = float(sp.f_delta) / 2
    total = 0.0
    for chart in sp.deflations:
        u = chart.u(half * _TS_X)
        if np.any(u <= 0):
            raise NoKahlerEinsteinError("first integral not positive on the open segment")
        total += half * float(_TS_W @ (1.0 / np.sqrt(u)))
    return total


@dataclass(frozen=True)
class ProfileSolution:
    delta: float
    t: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    m1: int
    m2: int
    map: ProfileMap
    sp: SegmentPolynomial
    diagnostics: Dict[str, float]
    einstein_constant: float = 1.0  # the c = 1 normalization; others by rescaling


def profile_solve(sp: SegmentPolynomial, grid_size: int = 512) -> ProfileSolution:
    """Solve the profile on a uniform t-grid by inverting t(f).

    f' = sqrt(u(f)); f'' comes from the closed form u F(f) - f + m1, whose
    one-sided limits are 1 and -1 at the ends for any valid configuration.
    """
    if grid_size < 16:
        raise InputError("grid must have at least 16 points")
    pmap = ProfileMap(sp)
    t = np.linspace(0.0, pmap.delta, grid_size)
    f = pmap.f_of_t(t)
    fp = np.sqrt(np.maximum(sp.u_float(f), 0.0))
    fpp = sp.fpp_float(f)
    ode_res = _ricci_q(sp, f[1:-1], fp[1:-1], fpp[1:-1]) + f[1:-1] - sp.m1

    diagnostics = {
        "f_delta_error": abs(f[-1] - float(sp.f_delta)),
        "fpp0": float(fpp[0]),
        "fpp_delta": float(fpp[-1]),
        "max_ode_residual": float(np.max(np.abs(ode_res))) if ode_res.size else 0.0,
        "quad_error_estimate": pmap.quad_error_estimate(),
    }
    if not abs(diagnostics["fpp0"] - 1.0) < 1e-6:
        raise InternalError("f''(0) limit drifted from 1")
    if not abs(diagnostics["fpp_delta"] + 1.0) < 1e-6:
        raise InternalError("f''(delta) limit drifted from -1")
    return ProfileSolution(
        delta=pmap.delta, t=t, f=f, fp=fp, fpp=fpp, m1=sp.m1, m2=sp.m2, map=pmap, sp=sp,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Ricci evaluations along the profile


def _state_at(sp: SegmentPolynomial, profile: ProfileSolution, t):
    """(f, f', f'') at interior times t, a float or an array."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < profile.delta)):
        raise InputError("t must be interior to (0, delta)")
    f = profile.map.f_of_t(t)
    return f, np.sqrt(np.maximum(sp.u_float(f), 0.0)), sp.fpp_float(f)


def _ricci_q(sp: SegmentPolynomial, f, fp, fpp):
    """q = f'' - (f')^2/2 sum k/(a - k f), the coefficient of alpha(Z) in r_alpha."""
    s1, _ = sp.log_deriv_sums(f)
    return fpp - (fp * fp) * s1 / 2.0


def ricci_tangential(sp: SegmentPolynomial, profile: ProfileSolution, alpha: Root, t: float) -> float:
    """Per-root Ricci eigenvalue r_alpha(t) = alpha(Zk) + q(t) alpha(Z), read off alpha's module."""
    idx = next((i for i, roots in enumerate(sp.modules.values()) if alpha in roots), None)
    if idx is None:
        raise InputError("root %s is not a positive root of the configuration" % (alpha.coords,))
    q = _ricci_q(sp, *_state_at(sp, profile, t))
    return float(sp.zk_f[idx] + q * sp.k_f[idx])


def tangential_residuals_state(sp: SegmentPolynomial, f, fp, fpp) -> np.ndarray:
    """r_alpha/g_alpha - 1, modules on the last axis, for states of any shape.

    Every root of a module has its module's residual, so maxima over modules
    are maxima over R_m+.
    """
    f = np.asarray(f, dtype=float)
    q = np.asarray(_ricci_q(sp, f, fp, fpp))
    r = sp.zk_f + q[..., None] * sp.k_f
    g = sp.a_f - sp.k_f * f[..., None]
    if np.any(g == 0):
        raise SingularConfigurationError("metric eigenvalue vanishes at f = %g" % _first(f, np.any(g == 0, axis=-1)))
    return r / g - 1.0


def ricci_normal_state(sp: SegmentPolynomial, f, fp, fpp):
    """r(xi, xi) from the state (f, f', f''), floats or arrays of one shape."""
    s1, s2 = sp.log_deriv_sums(f)
    u = fp * fp
    F = s1 / 2.0
    Fp = s2 / 2.0
    fppp = 2.0 * fp * fpp * F + fp ** 3 * Fp - fp
    if np.any(np.asarray(fp) == 0):
        raise SingularConfigurationError("f' vanishes in the interior")
    return -fppp / fp + fpp * s1 + 0.5 * u * s2


def ricci_normal(profile: ProfileSolution, sp: SegmentPolynomial, t: float) -> float:
    """r(xi, xi) by the closed form with f''' from the differentiated flow."""
    return ricci_normal_state(sp, *_state_at(sp, profile, t))


# offsets of the five-point stencil, the centre first
_STENCIL = np.array([0.0, -2.0, -1.0, 1.0, 2.0])


def _stencil_states(sp: SegmentPolynomial, profile: ProfileSolution, t: np.ndarray):
    """The state at the times t, and the stencil route to r(xi, xi) there.

    The route is -(1/f') d/dt [f'' - (f')^2/2 sum k/(a - k f)], the bracket
    evaluated through the full numeric chain and differentiated with a
    five-point stencil, so it genuinely cross-checks the closed form.  One
    inversion covers every t and its four stencil points t - 2h, t - h,
    t + h, t + 2h, with h = delta/400 shrunk near the ends to keep them
    interior.
    """
    h = np.minimum(np.minimum(profile.delta / 400.0, t / 3.0), (profile.delta - t) / 3.0)
    f, fp, fpp = _state_at(sp, profile, t[..., None] + h[..., None] * _STENCIL)
    q = _ricci_q(sp, f, fp, fpp)
    dq = (q[..., 1] - 8 * q[..., 2] + 8 * q[..., 3] - q[..., 4]) / (12 * h)
    return (f[..., 0], fp[..., 0], fpp[..., 0]), -dq / fp[..., 0]


def verify_profile(sp: SegmentPolynomial, profile: ProfileSolution, n_check: int = 64) -> Dict[str, float]:
    """Einstein residual maxima and the two-route agreements along the profile.

    All n_check interior check times and their stencil points are inverted
    in one batch.
    """
    if n_check < 1:
        raise InputError("verify needs at least one check point, got n_check = %d" % n_check)
    ts = np.linspace(0.0, profile.delta, n_check + 2)[1:-1]
    state, rn_fd = _stencil_states(sp, profile, ts)
    rn = ricci_normal_state(sp, *state)
    return {
        "max_tangential_residual": float(np.max(np.abs(tangential_residuals_state(sp, *state)))),
        "max_normal_residual": float(np.max(np.abs(rn - 1.0))),
        "normal_two_route_gap": float(np.max(np.abs(rn - rn_fd))),
        "roundtrip_error": float(np.max(np.abs(profile.map.t_of_f(state[0]) - ts))),
        # a stable report key (CLI, benchmarks); the second route is tanh-sinh
        "delta_ode_gap": abs(profile_delta_tanh_sinh(sp) - profile.delta),
    }


# ---------------------------------------------------------------------------
# searches


@dataclass(frozen=True)
class SphereCheck:
    """Exact test of the sphere-in-chamber hypothesis for diameter segments."""

    ok: bool
    min_distance_sq: Fraction  # full dual norm, as specified
    min_distance_sq_center: Fraction  # dual norm restricted to the center
    binding_root: Root


def sphere_in_chamber(flag: FlagData, j: InvariantComplexStructure) -> SphereCheck:
    """min over R_m+ of alpha(Zk)^2 / |alpha|^2, exactly, both norm variants.

    The restricted variant measures the distance inside the center of k,
    where the sphere actually lives; both minima agree on a full flag.
    """
    if not j.positive:
        raise InputError("flag has no transverse roots; paint fewer simple roots")
    rs = flag.rs
    zk = ricci_invariant(flag, j)
    gram_c_inv = linalg.invert(
        [[killing(rs, b1, b2) for b2 in flag.center_basis] for b1 in flag.center_basis]
    )
    best = None
    best_center = None
    binding = None
    for alpha in j.positive:
        az = Fraction(evaluate(alpha, zk))
        full = az * az / rs.dual_pairing(alpha.coords, alpha.coords)
        rhs = [Fraction(evaluate(alpha, b)) for b in flag.center_basis]
        norm_center = sum(
            (ri * gij * rj for ri, row in zip(rhs, gram_c_inv) for gij, rj in zip(row, rhs)), Fraction(0)
        )
        center = az * az / norm_center
        if best is None or full < best:
            best, binding = full, alpha
        if best_center is None or center < best_center:
            best_center = center
    return SphereCheck(ok=bool(best > 1), min_distance_sq=best, min_distance_sq_center=best_center, binding_root=binding)


@dataclass(frozen=True)
class DiameterCandidate:
    z_values: Tuple[Scalar, ...]
    futaki: FutakiReport
    segment: AdmissibleSegment
    confirmed_exact: bool

    @property
    def ke_ok(self) -> bool:
        return self.futaki.vanishes and self.segment.overall_ok


@dataclass(frozen=True)
class DiameterSearchResult:
    hypothesis: SphereCheck
    candidates: Tuple[DiameterCandidate, ...]


def search_diameters(base: CenterLine, n_grid: int = 720) -> DiameterSearchResult:
    """Zeros of the obstruction on the unit sphere of the center, m1 = m2 = 1.

    The sphere-in-chamber hypothesis is evaluated exactly and reported; the
    sign-change search runs regardless, since the hypothesis is sufficient
    but not necessary for admissible diameters.  Float zeros are confirmed
    exactly whenever the direction rationalizes.
    """
    flag, j = base.flag, base.j
    d = flag.center_dim
    if d < 1 or d > 3:
        raise InputError("diameter search supports center dimension 1..3, got %d" % d)
    hypothesis = sphere_in_chamber(flag, j)

    candidates: List[DiameterCandidate] = []
    seen: set = set()

    def consider_exact(direction_values: Sequence[Fraction]) -> None:
        vec = CartanVector(tuple(Fraction(v) for v in direction_values))
        if vec.is_zero:
            return
        cand_base = make_base(flag, j, vec, period_scale=base.period_scale)
        key = _direction_key([float(v) for v in cand_base.z.values])
        if key in seen:
            return
        rep = futaki(flag, j, cand_base.z, 1, 1)
        if not rep.vanishes:
            return
        seen.add(key)
        zk = ricci_invariant(flag, j)
        z1, _ = ke_endpoints(zk, cand_base.z, 1, 1)
        seg = analyze_segment(cand_base, z1, Fraction(2))
        candidates.append(DiameterCandidate(cand_base.z.values, rep, seg, confirmed_exact=True))

    def consider_float(values: np.ndarray) -> None:
        key = _direction_key(values)
        if key in seen:
            return
        exact_dir = _rationalize_direction(flag, values)
        if exact_dir is not None:
            before = len(candidates)
            consider_exact(exact_dir)
            if len(candidates) > before:
                return
        seen.add(key)
        zf = CartanVector(tuple(float(v) for v in values))
        rep = futaki(flag, j, zf, 1, 1)
        zkf = CartanVector(tuple(float(v) for v in ricci_invariant(flag, j).values))
        z1 = zkf + zf.scale(1.0)
        base_f = CenterLine(flag=flag, j=j, z=zf, period_scale=base.period_scale)
        seg = analyze_segment(base_f, z1, 2.0, tol=1e-9)
        candidates.append(DiameterCandidate(zf.values, rep, seg, confirmed_exact=False))

    if d == 1:
        consider_exact(flag.center_basis[0].values)
        consider_exact([-v for v in flag.center_basis[0].values])
    else:
        onb = _orthonormal_center_basis(base)
        obstruction = _float_obstruction(j, ricci_invariant(flag, j), 1, 1)

        def fut_at(z_values: np.ndarray) -> float:
            return obstruction(z_values)[0]

        if d == 2:
            _circle_scan(onb[0], onb[1], fut_at, consider_float, n_grid)
        else:
            n_lat = max(8, n_grid // 24)
            for phi in np.linspace(0.0, math.pi, n_lat + 2)[1:-1]:
                axis = math.cos(phi) * onb[2]
                r = math.sin(phi)
                _circle_scan(r * onb[0], r * onb[1], fut_at, consider_float, n_grid, offset=axis)

    order = {True: 0, False: 1}
    candidates.sort(key=lambda c: (order[c.confirmed_exact], tuple(float(v) for v in c.z_values)))
    return DiameterSearchResult(hypothesis=hypothesis, candidates=tuple(candidates))


def _circle_scan(b1: np.ndarray, b2: np.ndarray, fut_at, consider, n_grid: int, offset=0.0):
    thetas = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    step = 2 * math.pi / n_grid

    def vec(theta: float) -> np.ndarray:
        return math.cos(theta) * b1 + math.sin(theta) * b2 + offset

    vals = np.array([fut_at(vec(th)) for th in thetas])
    for i in range(n_grid):
        a, b = vals[i], vals[(i + 1) % n_grid]
        th_a = thetas[i]
        if abs(a) <= FUTAKI_FLOAT_TOL:
            consider(vec(th_a))
            continue
        if a * b < 0:
            # re-evaluate at the actual bracket end: th_a + step is not
            # bit-identical to the next grid node, and a crossing within
            # float noise of a node would hand the root finder an invalid bracket
            th_b = th_a + step
            fb = fut_at(vec(th_b))
            if a * fb > 0:
                consider(vec(th_b))
                continue
            consider(vec(_bracketed_root(lambda th: fut_at(vec(th)), th_a, th_b, a, fb)))


def _bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A zero of f between a and b, given fa = f(a) and fb = f(b) of opposite signs or zero.

    Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971): each step takes
    the secant point of the bracket ends and keeps the end where f has the
    other sign; an end kept twice in a row has its value halved.  A secant
    point closer than SCAN_XTOL/2 to the last point moves that far into the
    bracket, so that a root that close is bracketed at once.  A secant point
    not strictly inside the bracket, or SCAN_HALVING steps that together did
    not halve it, make the next point the midpoint instead.  Stops when the
    bracket is no wider than SCAN_XTOL and returns the last point evaluated.
    """
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        raise InternalError("root bracket [%r, %r] has f of one sign" % (a, b))
    widths = [math.inf] * SCAN_HALVING
    # every SCAN_HALVING + 1 steps at least halve the bracket, which bounds the steps
    halvings = math.ceil(math.log2(max(abs(b - a), SCAN_XTOL) / SCAN_XTOL))
    for _ in range((SCAN_HALVING + 1) * (halvings + 1)):
        width = abs(b - a)
        if width <= SCAN_XTOL:
            return b
        c = b - fb * (b - a) / (fb - fa)
        if abs(c - b) < SCAN_XTOL / 2:
            c = b + math.copysign(SCAN_XTOL / 2, a - b)
        if width > widths[-SCAN_HALVING] / 2 or not min(a, b) < c < max(a, b):
            c = (a + b) / 2
        widths.append(width)
        fc = f(c)
        if fc == 0:
            return c
        if (fc > 0) == (fb > 0):
            fa /= 2
        else:
            a, fa = b, fb
        b, fb = c, fc
    raise InternalError("scan root did not converge on [%r, %r]" % (a, b))


def _direction_key(values: Sequence[float]) -> Tuple[int, ...]:
    arr = np.array([float(v) for v in values])
    scale = np.max(np.abs(arr))
    if scale == 0:
        return (0,) * len(arr)
    arr = arr / scale
    lead = next(x for x in arr if abs(x) > 1e-9)
    if lead < 0:
        arr = -arr
    return tuple(int(round(x * 10 ** 7)) for x in arr)


def _orthonormal_center_basis(base: CenterLine) -> List[np.ndarray]:
    rs = base.flag.rs
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    vecs = [np.array([float(v) for v in b.values]) for b in base.flag.center_basis]
    out: List[np.ndarray] = []
    for v in vecs:
        for u in out:
            v = v - (u @ gram @ v) * u
        v = v / math.sqrt(float(v @ gram @ v))
        out.append(v)
    return out


def _rationalize_direction(flag: FlagData, values: Sequence[float], max_den: int = 10 ** 6) -> Optional[List[Fraction]]:
    """Rebuild a float direction as an exact rational center vector, if close."""
    basis = [np.array([float(v) for v in b.values]) for b in flag.center_basis]
    B = np.stack(basis, axis=1)
    coeffs, *_ = np.linalg.lstsq(B, np.array([float(v) for v in values]), rcond=None)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        return None
    coeffs = coeffs / scale
    rat = [Fraction(c).limit_denominator(max_den) for c in coeffs]
    if all(r == 0 for r in rat):
        return None
    if max(abs(float(r) - c) for r, c in zip(rat, coeffs)) > 1e-7:
        return None
    vals = [Fraction(0)] * flag.rs.rank
    for r, b in zip(rat, flag.center_basis):
        vals = [x + r * y for x, y in zip(vals, b.values)]
    return vals


@dataclass(frozen=True)
class WalledCandidate:
    w1: Tuple[Root, ...]
    w2: Tuple[Root, ...]
    z_values: Tuple[Scalar, ...]
    futaki: FutakiReport
    segment: AdmissibleSegment


def search_walled(base: CenterLine, m1: int, m2: int, max_pairs: int = 20000) -> Tuple[WalledCandidate, ...]:
    """Walled Kahler-Einstein candidates for declared degrees (m1, m2).

    Enumerates wall sets W1, W2 in R_m+ of sizes m1-1 and m2-1, solves the
    exact linear system pinning Z, intersects with the unit-norm condition
    (solution lines give quadratic-field solutions), and keeps candidates
    passing admissibility and the vanishing of the obstruction.  Affine
    solution spaces of dimension two or more are skipped: they are
    continuous families, not isolated candidates.
    """
    if m1 + m2 < 3:
        raise InputError("walled search needs m1 + m2 >= 3; use search_diameters")
    flag, j = base.flag, base.j
    rs = flag.rs
    pos = list(j.positive)
    if m1 - 1 > len(pos) or m2 - 1 > len(pos):
        return ()
    zk = ricci_invariant(flag, j)
    basis = flag.center_basis
    d = len(basis)
    ps2 = Fraction(base.period_scale) ** 2
    gram_c = [[Fraction(killing(rs, b1, b2)) for b2 in basis] for b1 in basis]

    n_pairs = math.comb(len(pos), m1 - 1) * math.comb(len(pos), m2 - 1)
    if n_pairs > max_pairs:
        raise InputError("wall enumeration too large (%d pairs)" % n_pairs)

    out: List[WalledCandidate] = []
    seen: set = set()
    for w1 in itertools.combinations(pos, m1 - 1):
        for w2 in itertools.combinations(pos, m2 - 1):
            rows: List[List[Fraction]] = []
            rhs: List[Fraction] = []
            for alpha in w1:
                rows.append([Fraction(evaluate(alpha, b)) for b in basis])
                rhs.append(Fraction(-Fraction(evaluate(alpha, zk)), m1))
            for alpha in w2:
                rows.append([Fraction(evaluate(alpha, b)) for b in basis])
                rhs.append(Fraction(Fraction(evaluate(alpha, zk)), m2))
            if not rows:
                continue
            sol = linalg.solve(rows, rhs)
            if sol is None:
                continue
            null = linalg.nullspace(rows, n_cols=d)
            if len(null) >= 2:
                continue  # continuous family; out of enumeration scope
            for coeffs in _unit_norm_solutions(sol, null, gram_c, ps2):
                vals = [Fraction(0)] * rs.rank
                for c, b in zip(coeffs, basis):
                    vals = [x + c * y for x, y in zip(vals, b.values)]
                z = CartanVector(tuple(vals))
                key = _direction_key([float(v) for v in z.values])
                if key in seen:
                    continue
                seen.add(key)
                rep = futaki(flag, j, z, m1, m2)
                if not rep.vanishes:
                    continue
                cand_base = CenterLine(flag=flag, j=j, z=z, period_scale=base.period_scale)
                z1, _ = ke_endpoints(zk, z, m1, m2)
                seg = analyze_segment(cand_base, z1, Fraction(m1 + m2))
                if seg.candidate.m1 != m1 or seg.candidate.m2 != m2:
                    continue
                if not seg.overall_ok:
                    continue
                out.append(WalledCandidate(tuple(w1), tuple(w2), z.values, rep, seg))
    out.sort(key=lambda c: tuple(float(v) for v in c.z_values))
    return tuple(out)


def _unit_norm_solutions(sol: List[Fraction], null: List[List[Fraction]], gram_c, ps2: Fraction):
    """Solutions of E(Z, Z) = ps2 on the affine line sol + s * null[0]."""

    def dot(u, v):
        return sum(
            (ui * sum((gram_c[i][k] * vk for k, vk in enumerate(v)), Fraction(0)) for i, ui in enumerate(u)),
            Fraction(0),
        )

    if not null:
        if dot(sol, sol) == ps2:
            yield [Fraction(c) for c in sol]
        return
    v = null[0]
    a = dot(v, v)
    b = 2 * dot(sol, v)
    c = dot(sol, sol) - ps2
    disc = b * b - 4 * a * c
    if disc < 0:
        return
    from .scalars import exact_sqrt

    root = exact_sqrt(disc)
    for sgn in (1, -1):
        s = (-b + sgn * root) / (2 * a)
        yield [s0 + s * vi for s0, vi in zip(sol, v)]
        if disc == 0:
            return
