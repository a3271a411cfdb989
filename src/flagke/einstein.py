"""The float layer: the metric profile, its verification and the searches.

For a segment with endpoints Z1 = m1*Z + Z_kappa and Z2 = -m2*Z + Z_kappa the
whole Einstein problem reduces to the polynomial

    P(v) = prod over alpha in R_m+ of alpha(Z1 - v*Z),   v in [0, m1+m2],

its antiderivative data, and the scalar obstruction

    I = integral_{-m1}^{m2} y * prod alpha(Z_kappa - y*Z) dy,

which is the same integral as integral_0^{m1+m2} P(v)(v - m1) dv after the
shift y = v - m1.  The exact verdict, I and the admissibility of the
segment, is `model.ke_verdict`; this module is the part that needs numpy.
When I vanishes and the segment is admissible, the profile f(t) is
recovered from the first integral

    u(f) = (f')^2 = -2 * [integral_0^f P(v)(v - m1) dv] / P(f),

inverted through the quadrature t(f) = integral_0^f ds / sqrt(u(s)).  The
inverse-square-root behaviour of the integrand at an end is removed
analytically by the substitution s = w^2 applied to the exactly deflated
polynomials.  The right end of (Z1, Z, m1, m2) is the left end of the reversed
segment (Z2, -Z, m2, m1), so one end chart serves both ends, the two charts
are evaluated as one table (`_chart_values`), and all numeric integrands
here are smooth.  The two searches, for directions whose verdict is a yes,
are exact and live in `diameters` and `walled`, which load no numpy.  The
verify checks of a solved profile, each with the value it reads and its
tolerance, are the rows of PROFILE_CHECKS.  The float twins of `polys`'
helpers live here too, and `flagke` loads this module only on first use of
one of its names.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeMismatchError, InputError, InternalError, NoKahlerEinsteinError, SingularConfigurationError
from .diameters import search_diameters  # noqa: F401  (benchmarks/workloads.py takes it from here)
from .flag import ricci_invariant, sphere_in_chamber  # noqa: F401  (benchmarks take the last from here)
from .model import PARAMETRIZATION_TOL, CenterLine, KEVerdict, _key_float, isotropy_modules, segment_walls
from .model import futaki, ke_endpoints  # noqa: F401  (benchmarks/workloads.py takes these two from here)
from .polys import float_linear_product, int_linear_product, int_taylor_shift, pair_float, pair_scalar
from .records import Record
from .rootsys import Root
from .scalars import Scalar
from .walled import search_walled  # noqa: F401  (benchmarks/workloads.py takes it from here)

# the profile tables: panels per end chart and Gauss-Legendre nodes per panel;
# the report's quad_error_estimate checks the panel count by the panels' Legendre tails
PROFILE_PANELS = 64
PROFILE_GAUSS_ORDER = 16
# profile inversion: a Newton step this small relative to w, or to the
# rounding of its panel's series, is rounding; a point still moving after the
# cap (bisection alone needs ~55) is a fault; the relative gap between a
# panel's g series and the derivative of its t series, both rounded from one
# interpolant, is below NEWTON_GAP (2.9 eps at most, exactly, on the panels of
# tests/test_profile_batch.py)
NEWTON_RTOL = 4 * np.finfo(float).eps
NEWTON_MAX_ITER = 80
NEWTON_GAP = 64 * np.finfo(float).eps
# a float coefficient below this share of the largest one is a zero of the order test
FLOAT_ORDER_RTOL = 1e-9


# ---------------------------------------------------------------------------
# float polynomials


def p_eval_float(coeffs: np.ndarray, x):
    """Horner evaluation of ascending float coefficients, numpy-vectorized, in place; a float x gives a float.

    Only where no end chart exists: `u_eval`'s direct ratio and the
    float-key test of Q(m1+m2); the charts evaluate by `_chart_values`.
    """
    out = np.zeros(np.shape(x))
    for c in coeffs[::-1].tolist():
        out *= x
        out += c
    return out if out.ndim else out[()]


def _power_table(x, n: int) -> np.ndarray:
    """x^0 .. x^(n-1), n >= 1, as the rows of an (n,) + shape(x) array: each row is the row above times x."""
    out = np.empty((n,) + np.shape(x))
    out[0] = 1.0
    rows, x = out.reshape(n, -1), np.reshape(x, -1)
    for k in range(1, n):  # one product per row: np.multiply.accumulate runs one column at a time, 3x slower
        np.multiply(rows[k - 1], x, out=rows[k])
    return out


# ---------------------------------------------------------------------------
# the change of variables of the obstruction integral


def futaki_shifted(base: CenterLine, m1: int, m2: int) -> Scalar:
    """integral_0^{m1+m2} P(v)(v - m1) dv computed from the segment polynomial.

    Equal to the obstruction integral after y = v - m1; kept as a separate
    computation path so the change of variables can be asserted exactly.
    The segment polynomial is the integer Taylor shift of the product that
    `futaki` integrates, so this checks the shift and the antiderivative
    (`SegmentPolynomial.q_end`) against futaki's integral weights;
    the tests check the product itself against a per-root Fraction/Quad
    product.
    """
    return SegmentPolynomial.from_base(base, m1, m2).q_end


# ---------------------------------------------------------------------------
# the segment polynomial


class EndChart:
    """The end v = 0 of a segment polynomial P, which vanishes there to order m - 1 with m = m1.

    Holds the float coefficients of the deflated p = P[m-1:] and q = Q[m:],
    with Q(x) = integral_0^x P(v)(v - m) dv, sliced from the segment's float
    arrays, and of p', rounded once from the numerators n p_n over the
    segment's denominator, as the rows of one zero-padded (3, n) matrix
    ``rows``; ``p_f``, ``q_f`` and ``dp_f`` are views of its rows.  Near the
    end u = -2Q/P = -2 x q/p, and in the chart x = w^2 the integrand of t is
    the smooth 2/sqrt(-2q/p).  The right end of a segment is the left end of
    its reversed polynomial, so one chart type serves both ends, and the
    segment stacks the rows of its two (`SegmentPolynomial.chart_table`).
    """

    def __init__(self, sp: "SegmentPolynomial", where: str = "0"):
        m = sp.m1
        lp = sp._low_order(sp._p, sp.coeffs_f)
        if lp != m - 1:
            raise DegreeMismatchError("P vanishes to order %d at %s, expected %d" % (lp, where, m - 1))
        lq = sp._low_order(sp._q, sp.q_coeffs_f)
        if lq < m:
            raise DegreeMismatchError("Q vanishes to order %d at %s, expected %d" % (lq, where, m))
        dp = [[n * c for n, c in enumerate(part[m - 1:])][1:] for part in sp._p]
        cs = sp.coeffs_f[m - 1:], sp.q_coeffs_f[m:], sp._coefficients(dp, sp._p_over, pair_float)
        n = max(map(len, cs))
        self.rows = np.array([list(c) + [0.0] * (n - len(c)) for c in cs], dtype=float)
        self.p_f, self.q_f, self.dp_f = (row[:len(c)] for row, c in zip(self.rows, cs))


class SegmentPolynomial:
    """P(v) = prod alpha(Z1 - v Z), Z1 = Zk + m1 Z, with its antiderivative and end charts.

    ``modules``, ``den`` and ``r`` are the table that `model.futaki` keeps,
    `model.isotropy_modules` under (Zk, Z), each module's size its
    multiplicity.  With the obstruction's product
    E(y) = prod alpha(Zk - y Z), P(x) = E(x - m1).

    P is held once, as coefficient parts over one denominator D.  On exact
    keys E is one integer product (`polys.int_linear_product`, or
    ``product`` when the caller has it), kept as ``product``, and P's parts
    are its two integer lists Taylor shifted (`polys.int_taylor_shift`), the
    coefficient u_n + v_n sqrt(R) over D = den^N, N = |R_m+|; on float keys
    P is one float list over D = 1 (`polys.float_linear_product`).  Q(x) = integral_0^x P(v)(v - m1) dv
    has the numerators c_(n-1) - m1 c_n at x^(n+1), over D (n+1).  Every
    float array is rounded once from these parts (`polys.pair_float`), and
    ``coeffs``, P's exact coefficient list (Fraction or Quad; floats on
    float keys), is built only when read.  Attributes
    ending in ``_f`` are float arrays for numerics, per module or per
    coefficient.  Instances are immutable after construction.
    """

    def __init__(self, modules: Dict[tuple, Sequence[Root]], den: Optional[int], r: Optional[Fraction], m1: int,
                 m2: int, product: Optional[Tuple[List[int], List[int]]] = None):
        self.modules = {key: tuple(roots) for key, roots in modules.items()}
        self.den, self.r = den, r
        self.m1, self.m2 = int(m1), int(m2)
        self.f_delta = Fraction(m1 + m2)
        self.exact = den is not None

        d = [len(roots) for roots in self.modules.values()]
        self.d_f = np.array(d, dtype=float)
        n = 2 if self.exact else 1  # a key: n parts of alpha(Zk), then of alpha(Z)
        scalar = (lambda u, v: pair_float(u, v, den, r)) if self.exact else _key_float
        self.zk_f, self.k_f = [np.array([scalar(*key[i:i + n]) for key in self.modules]) for i in (0, n)]
        if self.exact:
            self.a_f = np.array([scalar(key[0] + m1 * key[2], key[1] + m1 * key[3]) for key in self.modules])
            self.product = product or int_linear_product(dict(zip(self.modules, d)), r)
            parts, scale = [int_taylor_shift(c, -m1) for c in self.product], den ** sum(d)
        else:
            self.a_f = self.zk_f + m1 * self.k_f
            factors = [(a, k) for a, k, n in zip(self.a_f.tolist(), self.k_f.tolist(), d) for _ in range(n)]
            parts, scale = [float_linear_product(factors)], 1
        # P: c_n over D; Q: c_(n-1) - m1 c_n at x^(n+1) over D (n+1)
        self._p = _trimmed(parts)
        self._q = _trimmed([[0] + [a - m1 * b for a, b in zip([0] + c, c + [0])] for c in self._p])
        self._p_over = [scale] * len(self._p[0])
        self._q_over = [scale * max(k, 1) for k in range(len(self._q[0]))]  # q_0 = 0 over D
        self.coeffs_f = np.array(self._coefficients(self._p, self._p_over, pair_float), dtype=float)
        self.q_coeffs_f = np.array(self._coefficients(self._q, self._q_over, pair_float), dtype=float)
        self._deflations: Optional[object] = None

    def _coefficients(self, parts: List[list], over: Sequence[int], pair) -> list:
        """The coefficients parts / over: pair(u, v, d, r) on exact keys, each float divided on float keys.

        ``pair`` is `polys.pair_float`, which rounds each float once from the
        integers, or `polys.pair_scalar`.
        """
        if self.exact:
            return [pair(u, v, d, self.r) for u, v, d in zip(*parts, over)]
        return [c / d for c, d in zip(*parts, over)]

    def _low_order(self, parts: List[list], floats: np.ndarray) -> int:
        """The order of vanishing at 0 of the coefficients parts, the length for zero.

        On exact keys it is the first nonzero pair; on float keys the first
        float above FLOAT_ORDER_RTOL of the largest.
        """
        if self.exact:
            return next((k for k, pair in enumerate(zip(*parts)) if any(pair)), len(floats))
        above = np.abs(floats) > FLOAT_ORDER_RTOL * (np.max(np.abs(floats)) or 1.0)
        return int(np.argmax(above)) if above.any() else len(floats)

    def _q_end_parts(self) -> Tuple[int, int, int]:
        """(u, v, d) with Q(m1+m2) = (u + v sqrt(R)) / d, in integers; exact keys only.

        With L = m1 + m2 and l = lcm(1, ..., deg Q), D l Q(L) = sum_n q_n L^n l/n
        over the numerators q_n of each part, and d = D l.
        """
        length = self.m1 + self.m2
        lcm = math.lcm(*range(1, len(self._q[0])))
        u, v = (sum(c * length ** k * (lcm // k) for k, c in enumerate(part) if k) for part in self._q)
        return u, v, self._p_over[0] * lcm

    @property
    def q_end(self) -> Scalar:
        """Q(m1+m2), the obstruction integral: a Fraction or Quad from `_q_end_parts`, or a float by Horner."""
        if self.exact:
            return pair_scalar(*self._q_end_parts(), self.r)
        return float(p_eval_float(self.q_coeffs_f, float(self.m1 + self.m2)))

    def _q_end_vanishes(self, right: EndChart) -> bool:
        """Q(m1+m2) = 0: exactly on exact keys, to Q's scale times 1e-9 on float keys."""
        if self.exact:
            return not any(self._q_end_parts()[:2])
        q_end = abs(self.q_end)
        return q_end <= 1e-9 * max([q_end] + [abs(c) for c in right.q_f])

    @functools.cached_property
    def coeffs(self) -> list:
        """P's coefficients, Fractions or Quads on exact keys, built on first read."""
        return self._coefficients(self._p, self._p_over, pair_scalar)

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
                if not self._q_end_vanishes(right):
                    raise NoKahlerEinsteinError("obstruction integral does not vanish: Q(m1+m2) = %s" % (self.q_end,))
                self._deflations = (left, right)
            except (NoKahlerEinsteinError, DegreeMismatchError) as exc:
                self._deflations = exc
        if isinstance(self._deflations, Exception):
            raise self._deflations.with_traceback(None)
        return self._deflations

    @functools.cached_property
    def chart_table(self) -> np.ndarray:
        """Both end charts' rows as one zero-padded (6, n) table, the left end's p, q, p' above the right end's."""
        charts = self.deflations
        table = np.zeros((6, max(chart.rows.shape[1] for chart in charts)))
        for i, chart in enumerate(charts):
            table[3 * i:3 * i + 3, :chart.rows.shape[1]] = chart.rows
        return table

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_base(base: CenterLine, m1: int, m2: int, validate_degrees: bool = False,
                  verdict: Optional[KEVerdict] = None) -> "SegmentPolynomial":
        """The segment polynomial of the Einstein endpoints Z1 = Zk + m1 Z, Z2 = Zk - m2 Z.

        It reads the (Zk, Z) table of `model.isotropy_modules` that
        `model.futaki` reads: a ``verdict`` of base's direction lends the
        table its obstruction integrated, an exact one its product too.
        ``validate_degrees`` is `build_segment_polynomial`'s check that the
        walls of `model.segment_walls` at c = m1, -m2 give the degrees
        (m1, m2).
        """
        if m1 < 1 or m2 < 1:
            raise InputError("degrees must be >= 1")
        if verdict is None:
            sp = SegmentPolynomial(*isotropy_modules(base.flag, base.j, ricci_invariant(base.flag, base.j), base.z),
                                   m1, m2)
        else:
            sp = SegmentPolynomial(*verdict.futaki.table, m1, m2, verdict.futaki.product)
        if validate_degrees:
            walls = [[a.coords for a in w if a.is_positive] for w in segment_walls(sp.modules, sp.den, sp.r, m1, -m2)[1]]
            computed = (len(walls[0]) + 1, len(walls[1]) + 1)
            if computed != (m1, m2):
                raise DegreeMismatchError("wall order %s disagrees with declared degrees %s" % (computed, (m1, m2)),
                                          details={"computed": computed, "declared": (m1, m2),
                                                   "walls_at_z1": walls[0], "walls_at_z2": walls[1]})
        return sp

    def reversed(self) -> "SegmentPolynomial":
        """The segment run backwards: (Z2, -Z, m2, m1), so P_rev(x) = P(m1+m2 - x) = E(m2 - x).

        The same table with its Z parts negated and the degrees swapped; its
        walls are those of this polynomial, swapped.  Its product is
        E(-y), E's integer lists with the odd coefficients negated.  Its
        alpha(Z) floats, rounded from the negated keys, are these negated bit
        for bit: `polys.pair_float` rounds -u and -v as it rounds u and v.
        """
        n = 2 if self.exact else 1  # a key: n parts of alpha(Zk), then of alpha(Z)
        modules = {key[:n] + tuple(-x for x in key[n:]): roots for key, roots in self.modules.items()}
        product = tuple([-c if k % 2 else c for k, c in enumerate(cs)] for cs in self.product) if self.exact else None
        return SegmentPolynomial(modules, self.den, self.r, self.m2, self.m1, product)

    # -- pointwise data ------------------------------------------------------

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

    def fp_fpp(self, f):
        """(f', f'') at f: sqrt(u) and the closed form u F - f + m1, from one evaluation of the chart table.

        Each point reads the chart of its nearer end (`_chart_values`), at
        distance x from that end: u = x (-2q/p) and u F = q ((m - 1) p + x p')
        / p^2, m the end's degree.  Stable at both endpoints.  Past the
        midpoint u F is minus the reversed segment's: the reversed profile
        m1+m2 - f(delta - t) has f'' negated.  ``f`` may be a float or an
        array; a float gives floats.
        """
        f = np.asarray(f, dtype=float)
        x, right = _nearer_end(self, f)
        v, (p, q, dp) = _chart_values(self, x, right)
        uf = q * ((np.where(right, self.m2, self.m1) - 1) * p + x * dp) / (p * p)
        fp, fpp = np.sqrt(np.maximum(x * v, 0.0)), np.where(right, -uf, uf) - f + self.m1
        return _like(f, fp), _like(f, fpp)


def _trimmed(parts: List[list]) -> List[list]:
    """Coefficient parts without the trailing coefficients that are zero in every part."""
    n = len(parts[0])
    while n and not any(c[n - 1] for c in parts):
        n -= 1
    return [c[:n] for c in parts]


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


def u_eval(sp: SegmentPolynomial, f):
    """u(f) = (f')^2 = -2 [int_0^f P(v)(v - m1) dv] / P(f) at floats f, a float or an array; a float gives a float.

    Each point reads the chart of its nearer end, u = x (-2q/p), stable at
    walls.  A segment polynomial without charts (its obstruction does not
    vanish, or its walls do not give its degrees) has the direct ratio,
    valid on the open interval away from walls.
    """
    f = np.asarray(f, dtype=float)
    try:
        sp.deflations
    except (NoKahlerEinsteinError, DegreeMismatchError):
        den = p_eval_float(sp.coeffs_f, f)
        if (den == 0).any():
            raise SingularConfigurationError("P vanishes at f = %g" % _first(f, den == 0))
        return -2.0 * p_eval_float(sp.q_coeffs_f, f) / den
    x, right = _nearer_end(sp, f)
    return _like(f, x * _chart_values(sp, x, right)[0])


def _nearer_end(sp: SegmentPolynomial, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x, right) at the points f: the distance to the nearer end, and whether that end is the right one."""
    fd = float(sp.f_delta)
    right = f > fd / 2
    return np.where(right, fd - f, f), right


def _chart_values(sp: SegmentPolynomial, x, right=None):
    """(-2q/p, (p, q, p')) of the end charts at distances x from their ends, one `chart_table` product for all.

    With ``right`` None each point reads both charts, and each value has
    the left end's row above the right end's; otherwise each point reads
    its own chart, the right one where ``right`` holds.  x is a float or an
    array.  p must not vanish, and -2q/p = u/x must be positive: 2/sqrt(-2q/p)
    at x = w^2 is the integrand of t.
    """
    table = sp.chart_table
    n = table.shape[1]
    rows = (table @ _power_table(x, n).reshape(n, -1)).reshape((2, 3) + np.shape(x))
    p, q, dp = rows.swapaxes(0, 1) if right is None else np.where(right, rows[1], rows[0])
    if np.any(p == 0):
        raise SingularConfigurationError("P vanishes at distance %g from the end" % _first(x, p == 0))
    v = -2.0 * q / p
    if np.any(v <= 0):
        raise NoKahlerEinsteinError("first integral not positive on the open segment")
    return v, (p, q, dp)


# ---------------------------------------------------------------------------
# the profile map t <-> f


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only, built once per order."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


@functools.lru_cache(maxsize=None)
def _panel_series(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three stages from n Gauss-Legendre values of g on [-1, 1] to power series in s, built once per order.

    L (n x n) takes the values to the Legendre coefficients c of their
    interpolant, c_k = (k + 1/2) sum_j w_j P_k(x_j) g_j by the rule's
    discrete orthogonality; D (n+1 x n) takes c to those of its
    antiderivative from -1, since integral_-1^s P_k = (P_(k+1) - P_(k-1))/(2k + 1)
    and integral_-1^s P_0 = P_1 + P_0; M (n+1 x n+1) takes Legendre
    coefficients to power ones, each entry an integer ratio rounded once.
    They are applied one at a time: their product mixes large entries of
    opposite sign and loses two digits.
    """
    gx, gw = _gauss_rule(n)
    L = (np.arange(n)[:, None] + 0.5) * gw * np.polynomial.legendre.legvander(gx, n - 1).T
    D = (np.eye(n + 1, n, -1) - np.eye(n + 1, n, 1)) / (2 * np.arange(n) + 1)
    D[0, 0] = 1.0
    # 2^m P_m(s) = sum_k (-1)^k C(m, k) C(2m - 2k, m) s^(m - 2k) (Abramowitz-Stegun 22.3.8), k = (m - j)/2 at s^j
    M = np.array([[(-1) ** ((m - j) // 2) * math.comb(m, (m - j) // 2) * math.comb(m + j, m) / 2 ** m
                   if j <= m and (m - j) % 2 == 0 else 0.0 for m in range(n + 1)] for j in range(n + 1)])
    L.flags.writeable = D.flags.writeable = M.flags.writeable = False
    return L, D, M


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


class ProfileMap:
    """Invertible map between arclength t and the profile value f.

    Built once per segment polynomial as one composite Gauss-Legendre table
    over both end charts: PROFILE_PANELS panels uniform in w = sqrt(f) up
    to f_mid, then as many in w = sqrt(m1+m2-f), where dt/dw = g is smooth.
    ``cum`` and ``edges`` hold one row per chart; both charts have the same
    edges, so one product of the chart table with one power table of the
    nodes and edges evaluates both (`_chart_values`).  On a panel
    w = mid + half s with s in [-1, 1], the interpolant of g at its
    PROFILE_GAUSS_ORDER nodes matches g to rounding; integrated exactly
    (`_panel_series`) it gives t(w) - t0 as a power series in s.  ``g_cols`` and ``t_cols`` hold both
    series' power coefficients, one column per panel, and after the build
    they are the map: no direction evaluates g again.  Per panel it also
    keeps w0, w1, t0, its width dt in t, g at its edges (g0, g1), the
    rounding scale t_round = t0 + sum |t_k| and the Newton constant K of
    `_w_of_t`.  ``error`` is the panels' Legendre tails half (|c_(n-2)| +
    |c_(n-1)|), as in chopping a Chebyshev series (Aurentz-Trefethen, ACM
    TOMS 43, 2017), and eps sum cum, the first-order bound of the
    cumulative sums' rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, 4.2), summed per chart.
    """

    def __init__(self, sp: SegmentPolynomial):
        self.sp, self.fd = sp, float(sp.f_delta)
        self.fm = self.fd / 2.0
        n, order = PROFILE_PANELS, PROFILE_GAUSS_ORDER
        edges = np.linspace(0.0, math.sqrt(self.fm), n + 1)  # m1+m2 - f_mid is f_mid: both charts' edges
        self.edges = np.array([edges, edges])
        self.w0, self.w1 = self.edges[:, :-1].ravel(), self.edges[:, 1:].ravel()
        self.mid, self.half = (self.w1 + self.w0) / 2, (self.w1 - self.w0) / 2
        gx, gw = _gauss_rule(order)
        w = np.concatenate([(self.mid[:n, None] + self.half[:n, None] * gx).ravel(), edges])
        vals = 2.0 / np.sqrt(_chart_values(sp, w ** 2)[0])
        self.g0, self.g1 = vals[:, n * order:-1].ravel(), vals[:, n * order + 1:].ravel()
        vals = vals[:, :n * order].reshape(2 * n, order)
        self.cum = np.zeros((2, n + 1))
        np.cumsum(((vals * gw).sum(axis=1) * self.half).reshape(2, n), axis=1, out=self.cum[:, 1:])
        self.t0, self.dt = self.cum[:, :-1].ravel(), (self.cum[:, 1:] - self.cum[:, :-1]).ravel()
        self.t_split, self.delta = float(self.cum[0, -1]), float(self.cum[0, -1] + self.cum[1, -1])
        L, D, M = _panel_series(order)
        c = L @ vals.T
        self.g_cols, self.t_cols = M[:-1, :-1] @ c, M @ (D @ c) * self.half
        self.t_round = self.t0 + np.abs(self.t_cols).sum(axis=0)
        self.error = sum(float(h @ x + np.finfo(float).eps * np.sum(cum)) for h, x, cum in
                         zip(self.half.reshape(2, n), np.abs(c[-2:]).sum(axis=0).reshape(2, n), self.cum))
        # K = max |dG/dw| / (2 min G) over each panel from its g series G, and inf where that bounds nothing
        g_abs = np.abs(self.g_cols[1:])
        g_low, g_slope = self.g_cols[0] - g_abs.sum(axis=0), np.arange(1, order) @ g_abs / self.half
        self.K = np.divide(g_slope, 2 * g_low, out=np.full(2 * n, np.inf),
                           where=(g_low > 0) & (self.half * g_slope <= 0.4 * g_low))

    def _panel(self, x: np.ndarray, right: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Index of the panel holding each x > 0, by its chart's row of panel edges in ``table`` (edges or cum).

        Both rows start at 0, so each x passes at least one edge; an x at or
        past its chart's last edge lies in its chart's last panel.
        """
        i = np.empty(len(x), dtype=np.intp)
        for side, on in enumerate((~right, right)):
            i[on] = np.searchsorted(table[side], x[on], side="right")
        return np.minimum(i, PROFILE_PANELS) + (PROFILE_PANELS * right - 1)

    def _powers(self, i: np.ndarray, w: np.ndarray) -> np.ndarray:
        """s^0 .. s^n of each w's variable s on its panel i, one column per point."""
        return _power_table((w - self.mid[i]) / self.half[i], len(self.t_cols))

    def _by_chart(self, x, x_end: float, y_end: float, x_split: float, local):
        """Map each x through its own end chart, by ``local`` on the distance from that chart's end.

        right = x > x_split marks the right chart's points: there y = y_end -
        local(x_end - x, right), and on the left chart y = local(x, right).
        x <= 0 gives 0 and x >= x_end gives y_end; a float gives a float.
        """
        xs = np.asarray(x, dtype=float).reshape(-1)
        y = np.where(xs <= 0, 0.0, y_end)
        inside = (xs > 0) & (xs < x_end)
        x_in = xs[inside]
        right = x_in > x_split
        y_in = local(np.where(right, x_end - x_in, x_in), right)
        y[inside] = np.where(right, y_end - y_in, y_in)
        return _like(x, y.reshape(np.shape(x)))

    def _t_of_w(self, w: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The time from each w's chart end, on the panel holding w.

        Every w of t_of_f lies in its panel: sqrt rounds monotonically, so no
        w passes its chart's last edge, sqrt(f_mid) or sqrt(m1+m2 - f_mid).
        """
        i = self._panel(w, right, self.edges)
        return self.t0[i] + np.einsum("ij,ij->j", self.t_cols[:, i], self._powers(i, w))

    def _w_of_t(self, t: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Solve t(w) = t, each t the time from its own chart's end, for every point at once by safeguarded Newton.

        Each point is bracketed by its panel and starts from the cubic
        Hermite interpolant of w(t) on it, with the end slopes dw/dt = 1/g.
        A step is w -= (T(w) - t)/G(w), T and G the panel's t and g series;
        one that would leave the bracket, tightened at every evaluation,
        bisects it instead (rtsafe, Numerical Recipes 9.4).  All points step
        together until each is done: its step is at the rounding level of w
        or of T(w) - t, whose series rounds on the scale t_round (near a
        chart's end the panel's width in t, far above t), or the step delta
        is certified to have landed within that level.  Where G >= g_low > 0
        and |dG/dw| <= g1 on the panel, Taylor's theorem gives |w1 - w*| <=
        K (|delta| + |w1 - w*|)^2 with K = g1 / (2 g_low); for K |delta| <=
        0.1 its small root is below 2 K delta^2 and its large one above
        0.4 / K, wider than the panel where 2 half K <= 0.4 (elsewhere K is
        inf).  G differs from dT/dw by at most NEWTON_GAP relative.  From the
        Hermite start the first step is certified.  Points whose time rounds
        just past their panel's end settle on that end, within rounding.
        """
        i = self._panel(t, right, self.cum)
        c0, dt, a, b = self.t0[i], self.dt[i], self.w0[i], self.w1[i]
        s = np.minimum(np.maximum((t - c0) / dt, 0.0), 1.0)
        w = (((2 * s - 3) * s * s + 1) * a + (s - 1) ** 2 * s * dt / self.g0[i]
             + (3 - 2 * s) * s * s * b + (s - 1) * s * s * dt / self.g1[i])
        t_cols, g_cols, t_round, K = self.t_cols[:, i], self.g_cols[:, i], self.t_round[i], self.K[i]
        for _ in range(NEWTON_MAX_ITER):
            powers = self._powers(i, w)
            h, g_w = c0 + np.einsum("ij,ij->j", t_cols, powers) - t, np.einsum("ij,ij->j", g_cols, powers[:-1])
            a = np.where(h < 0, w, a)
            b = np.where(h > 0, w, b)
            w_new = w - h / g_w
            bisect = (w_new < a) | (w_new > b)
            w_new = np.where(bisect, (a + b) / 2, w_new)
            step, tol = np.abs(w_new - w), NEWTON_RTOL * np.maximum(w_new, t_round / g_w)
            with np.errstate(invalid="ignore"):  # an inf K times a zero step, which the step test passes
                certified = ~bisect & (K * step <= 0.1) & ((2 * K * step + NEWTON_GAP) * step <= tol)
            w = w_new
            if np.all((step <= tol) | certified):
                return w
        raise InternalError("profile inversion did not converge in %d Newton steps" % NEWTON_MAX_ITER)

    def t_of_f(self, f):
        """t(f) = integral_0^f ds/sqrt(u(s)), via the smooth substitutions.

        ``f`` may be a float or an array; a float gives a float.
        """
        return self._by_chart(f, self.fd, self.delta, self.fm, lambda x, right: self._t_of_w(np.sqrt(x), right))

    def f_of_t(self, t):
        """The inverse of t_of_f, for a float or an array of times."""
        return self._by_chart(t, self.delta, self.fd, self.t_split, lambda x, right: self._w_of_t(x, right) ** 2)


def profile_delta_tanh_sinh(sp: SegmentPolynomial) -> float:
    """delta = integral_0^(m1+m2) df/sqrt(u(f)) by tanh-sinh quadrature.

    Each half is integrated in x, the distance to its own end, through that
    end's chart u = x (-2q/p); both halves share the nodes and one product
    of the chart table with their power table.  The double-exponential
    nodes absorb the 1/sqrt(2x) singularity at the end.  It shares no table, variable or rule with
    ProfileMap, only the charts, so it cross-checks the quadrature of t(f).
    """
    half = float(sp.f_delta) / 2
    x = half * _TS_X
    return sum(half * float(_TS_W @ (1.0 / np.sqrt(x * v))) for v in _chart_values(sp, x)[0])


class ProfileSolution(Record):
    _fields = ("delta", "t", "f", "fp", "fpp", "m1", "m2", "map", "sp", "diagnostics", "einstein_constant")
    einstein_constant = 1.0  # the c = 1 normalization; others by rescaling

    def __init__(self, delta: float, t: np.ndarray, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray, m1: int, m2: int,
                 map: ProfileMap, sp: SegmentPolynomial, diagnostics: Dict[str, float]):
        self.__dict__.update(delta=delta, t=t, f=f, fp=fp, fpp=fpp, m1=m1, m2=m2, map=map, sp=sp,
                             diagnostics=diagnostics)


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
    fp, fpp = sp.fp_fpp(f)
    ode_res = _ricci_q(fp[1:-1], fpp[1:-1], sp.log_deriv_sums(f[1:-1])[0]) + f[1:-1] - sp.m1

    diagnostics = {
        "f_delta_error": abs(f[-1] - float(sp.f_delta)),
        "fpp0": float(fpp[0]),
        "fpp_delta": float(fpp[-1]),
        "max_ode_residual": float(np.max(np.abs(ode_res))) if ode_res.size else 0.0,
        "quad_error_estimate": pmap.error,
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
    return (f,) + sp.fp_fpp(f)


def _ricci_q(fp, fpp, s1):
    """q = f'' - (f')^2/2 sum k/(a - k f), the coefficient of alpha(Z) in r_alpha, from the sum s1 at f."""
    return fpp - (fp * fp) * s1 / 2.0


def _tangential(sp: SegmentPolynomial, f, q) -> np.ndarray:
    """r_alpha/g_alpha - 1 from q at f, modules on the last axis; log_deriv_sums at f has checked g != 0."""
    return (sp.zk_f + np.multiply.outer(q, sp.k_f)) / (sp.a_f - np.multiply.outer(f, sp.k_f)) - 1.0


def _normal(fp, fpp, s1, s2):
    """r(xi, xi) from f', f'' and the sums (s1, s2) at f."""
    if np.any(np.asarray(fp) == 0):
        raise SingularConfigurationError("f' vanishes in the interior")
    fppp = 2.0 * fp * fpp * (s1 / 2.0) + fp ** 3 * (s2 / 2.0) - fp  # d/dt of f'' = u F - f + m1: F = s1/2, dF/df = s2/2
    return -fppp / fp + fpp * s1 + 0.5 * (fp * fp) * s2


def ricci_residuals_state(sp: SegmentPolynomial, f, fp, fpp):
    """(r_alpha/g_alpha - 1, r(xi, xi)) of states (f, f', f''), floats or arrays of one shape, from one pass of
    `log_deriv_sums`.

    The tangential residuals have the modules on the last axis.  Every root
    of a module has its module's residual, so maxima over modules are
    maxima over R_m+.
    """
    s1, s2 = sp.log_deriv_sums(f)
    return _tangential(sp, f, _ricci_q(fp, fpp, s1)), _normal(fp, fpp, s1, s2)


# offsets of the five-point stencil, the centre first
_STENCIL = np.array([0.0, -2.0, -1.0, 1.0, 2.0])


def _stencil_states(sp: SegmentPolynomial, profile: ProfileSolution, t: np.ndarray):
    """The state at the times t, its sums (s1, s2) and q, and the stencil route to r(xi, xi) there.

    The route is -(1/f') d/dt [f'' - (f')^2/2 sum k/(a - k f)], the bracket
    evaluated through the full numeric chain and differentiated with a
    five-point stencil, so it genuinely cross-checks the closed form.  One
    inversion and one pass of `log_deriv_sums` cover every t and its four
    stencil points t - 2h, t - h, t + h, t + 2h, with h = delta/400 shrunk
    near the ends to keep them interior.
    """
    h = np.minimum(np.minimum(profile.delta / 400.0, t / 3.0), (profile.delta - t) / 3.0)
    f, fp, fpp = _state_at(sp, profile, t[..., None] + h[..., None] * _STENCIL)
    s1, s2 = sp.log_deriv_sums(f)
    q = _ricci_q(fp, fpp, s1)
    dq = (q[..., 1] - 8 * q[..., 2] + 8 * q[..., 3] - q[..., 4]) / (12 * h)
    return (f[..., 0], fp[..., 0], fpp[..., 0]), (s1[..., 0], s2[..., 0]), q[..., 0], -dq / fp[..., 0]


# The verify checks, one row each: (check name, the value key it reads, its tolerance's name, the
# tolerance).  The values are the keys of `verify_profile`, of `ProfileSolution.diagnostics` and the two
# f'' end limits of `model.check_parametrization`; a check passes when its value is below its tolerance.
# A solve report states the named tolerances.  The comment on each row says what the check tests: the
# solved profile f(t), or the closed forms f'(f) and f''(f), which hold at any f.
PROFILE_CHECKS = (
    ("f_delta", "f_delta_error", "f_delta_error", 1e-8),  # profile: f(delta) = m1 + m2
    ("fpp0_minus_1", "fpp0_minus_1", "fpp_endpoints", PARAMETRIZATION_TOL),  # profile: f''(0) = 1 from f(t)
    ("fpp_delta_plus_1", "fpp_delta_plus_1", "fpp_endpoints", PARAMETRIZATION_TOL),  # profile: f''(delta) = -1
    ("ode_residual", "max_ode_residual", "max_ode_residual", 1e-8),  # closed forms: the Ricci ODE at the grid
    ("tangential_residual", "max_tangential_residual", "einstein_residuals", 1e-6),  # closed forms
    ("normal_residual", "max_normal_residual", "einstein_residuals", 1e-6),  # closed forms
    ("normal_two_route_gap", "normal_two_route_gap", "two_route_gaps", 1e-6),  # profile: r(xi, xi) along t
    ("delta_two_route_gap", "delta_ode_gap", "two_route_gaps", 1e-6),  # profile: its length delta only
    ("roundtrip", "roundtrip_error", "roundtrip_error", 1e-8),  # profile: t(f(t)) = t
)


def verify_profile(sp: SegmentPolynomial, profile: ProfileSolution, n_check: int = 64) -> Dict[str, float]:
    """Einstein residual maxima and the two-route agreements along the profile.

    All n_check interior check times and their stencil points are inverted
    in one batch, and their log-derivative sums taken in one pass.
    """
    if n_check < 1:
        raise InputError("verify needs at least one check point, got n_check = %d" % n_check)
    ts = np.linspace(0.0, profile.delta, n_check + 2)[1:-1]
    (f, fp, fpp), sums, q, rn_fd = _stencil_states(sp, profile, ts)
    rn = _normal(fp, fpp, *sums)
    return {
        "max_tangential_residual": float(np.max(np.abs(_tangential(sp, f, q)))),
        "max_normal_residual": float(np.max(np.abs(rn - 1.0))),
        "normal_two_route_gap": float(np.max(np.abs(rn - rn_fd))),
        "roundtrip_error": float(np.max(np.abs(profile.map.t_of_f(f) - ts))),
        # a stable report key (CLI, benchmarks); the second route is tanh-sinh
        "delta_ode_gap": abs(profile_delta_tanh_sinh(sp) - profile.delta),
    }
