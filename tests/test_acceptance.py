"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
Tolerances are fixed here, not tuned: exact assertions are exact, float
assertions carry the stated bound.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from flagke import einstein as ein
from flagke.cli import JobSpec, run
from flagke.diameters import search_diameters
from flagke.flag import build_flag, default_complex_structure, ricci_invariant, sphere_in_chamber
from flagke.model import CenterLine, check_parametrization, futaki, make_base
from flagke.rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    build_root_system,
    evaluate,
)
from flagke.scalars import Quad
from segment_checks import (dual_pairing, first_integral_identity_numerator, ricci_normal, scaled_ricci_control,
                            value_table)


def rs(text):
    return build_root_system(LieAlgebraSpec.parse(text))


def _flag_j(text, painted=()):
    flag = build_flag(rs(text), painted)
    return flag, default_complex_structure(flag)


def _report(n, ok, detail):
    print("[criterion %s] %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    return ok


def _simpson(zk_vals, k_vals, m1, m2, panels=10 ** 6):
    y = np.linspace(-m1, m2, 2 * panels + 1)
    vals = y * np.prod(zk_vals[:, None] - np.outer(k_vals, y), axis=0)
    h = (m1 + m2) / (2 * panels)
    w = np.ones_like(y)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, vals) * h / 3.0)


def _futaki_with_simpson(text, painted, direction, m1, m2):
    flag, j = _flag_j(text, painted)
    base = make_base(flag, j, CartanVector(tuple(Fraction(c) for c in direction)))
    rep = futaki(flag, j, base.z, m1, m2)
    zk = ricci_invariant(flag, j)
    zkv = np.array([float(evaluate(a, zk)) for a in j.positive])
    kv = np.array([float(evaluate(a, base.z)) for a in j.positive])
    simpson = _simpson(zkv, kv, m1, m2)
    return rep, simpson


def test_criterion_1_exact_futaki_values():
    t0 = time.perf_counter()
    rep_a1, s_a1 = _futaki_with_simpson("A1", (), (1,), 1, 1)
    rep_m, s_m = _futaki_with_simpson("A1xA1", (), (1, -1), 1, 1)
    rep_p, s_p = _futaki_with_simpson("A1xA1", (), (1, 1), 1, 1)
    elapsed = time.perf_counter() - t0

    ok = (
        rep_a1.value == Quad(Fraction(0), Fraction(-1, 3), Fraction(2))
        and not rep_a1.vanishes
        and rep_m.value == 0
        and rep_m.vanishes
        and rep_p.value == Fraction(-1, 3)
        and not rep_p.vanishes
        and abs(s_a1 - float(rep_a1.value)) < 1e-9
        and abs(s_m - 0.0) < 1e-9
        and abs(s_p - (-1.0 / 3.0)) < 1e-9
        and elapsed < 1.0
    )
    assert _report(
        1,
        ok,
        "exact values (-sqrt(2)/3, 0, -1/3); Simpson oracle gaps < 1e-9; %.2fs" % elapsed,
    )


def test_criterion_2_change_of_variable_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240810)
    families = ["A", "B", "C", "D"]
    done = 0
    while done < 50:
        fam = rng.choice(families)
        rank = rng.randint(1 if fam == "A" else 2, 4)
        system = rs("%s%d" % (fam, rank))
        painted = tuple(i for i in range(system.rank) if rng.random() < 0.4)
        if len(painted) == system.rank:
            continue
        flag = build_flag(system, painted)
        j = default_complex_structure(flag)
        vals = [Fraction(0)] * system.rank
        for b in flag.center_basis:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
            vals = [x + c * y for x, y in zip(vals, b.values)]
        z = CartanVector(tuple(vals))
        if z.is_zero:
            continue
        m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
        lhs = futaki(flag, j, z, m1, m2).value
        rhs = ein.futaki_shifted(CenterLine(flag=flag, j=j, z=z), m1, m2)
        assert lhs == rhs, (fam, rank, painted, m1, m2)
        done += 1
    elapsed = time.perf_counter() - t0
    assert _report(2, elapsed < 5.0, "50 random A-D rank<=4 configs agree exactly; %.2fs" % elapsed)


def test_criterion_3_first_integral_polynomial_identity():
    rng = random.Random(31415)
    for _ in range(20):
        n = rng.randint(1, 7)
        m1 = rng.randint(1, 3)
        modules = {}
        for i in range(n):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 6))
            k = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
            modules.setdefault((a - m1 * k, k), []).append(Root((i,)))
        sp = ein.SegmentPolynomial(*value_table(modules), m1, 1)
        numerator = first_integral_identity_numerator(sp)
        assert numerator == [], "nonzero identity numerator"
    assert _report(3, True, "20 random segment polynomials satisfy the flow identity exactly")


@pytest.fixture(scope="module")
def searched_configuration():
    """The Einstein configuration located by the exact diameter search."""
    flag, j = _flag_j("A2xA2", (1, 3))
    probe = make_base(flag, j, flag.center_basis[0])
    result = search_diameters(probe)
    winners = [c for c in result.candidates if c.ke_ok and c.confirmed_exact]
    assert winners, "search found no exact Einstein diameter"
    cand = winners[0]
    base = CenterLine(flag=flag, j=j, z=CartanVector(cand.z_values))
    return base, cand


def test_criterion_4_profile_solver_on_searched_configuration(searched_configuration):
    base, cand = searched_configuration
    t0 = time.perf_counter()
    sp = ein.build_segment_polynomial(base, 1, 1)
    profile = ein.profile_solve(sp, grid_size=514)  # 512 interior points

    max_tan = 0.0
    max_norm = 0.0
    for i in range(1, len(profile.t) - 1):
        f, fp, fpp = profile.f[i], profile.fp[i], profile.fpp[i]
        max_tan = max(max_tan, float(np.max(np.abs(ein.ricci_residuals_state(sp, f, fp, fpp)[0]))))
        max_norm = max(max_norm, abs(ein.ricci_residuals_state(sp, f, fp, fpp)[1] - 1.0))

    pv = check_parametrization(profile.t, profile.f, profile.delta, float(sp.f_delta))
    elapsed = time.perf_counter() - t0

    checks = {
        "f(delta)": bool(profile.diagnostics["f_delta_error"] < 1e-8),
        "fpp0": bool(abs(pv.fpp0 - 1.0) < 1e-4),
        "fpp_delta": bool(abs(pv.fpp_delta + 1.0) < 1e-4),
        "ode_residual": bool(profile.diagnostics["max_ode_residual"] < 1e-8),
        "tangential": bool(max_tan < 1e-6),
        "normal": bool(max_norm < 1e-6),
        "runtime": bool(elapsed < 10.0),
    }
    assert _report(
        4,
        all(checks.values()),
        "searched diameter solved: delta=%.6f, residuals (%.1e, %.1e), %.2fs %s"
        % (profile.delta, max_tan, max_norm, elapsed, checks),
    )


def _ricci_normal_fd(profile, sp, t):
    """r(xi, xi) at one time t by the five-point stencil route of verify_profile."""
    return float(ein._stencil_states(sp, profile, np.asarray(t, dtype=float))[-1])


def test_criterion_5_two_route_agreements(searched_configuration):
    base, _ = searched_configuration
    sp = ein.build_segment_polynomial(base, 1, 1)
    profile = ein.profile_solve(sp, grid_size=192)
    delta_gap = abs(ein.profile_delta_tanh_sinh(sp) - profile.delta)
    norm_gap = 0.0
    for t in np.linspace(0.0, profile.delta, 34)[1:-1]:
        a = ricci_normal(profile, sp, t)
        b = _ricci_normal_fd(profile, sp, t)
        norm_gap = max(norm_gap, abs(a - b))
    ok = delta_gap < 1e-6 and norm_gap < 1e-6
    assert _report(
        5, ok, "delta Gauss tables vs tanh-sinh gap %.2e; normal Ricci two-route gap %.2e" % (delta_gap, norm_gap)
    )


def test_criterion_6_negative_controls(searched_configuration):
    base, _ = searched_configuration
    # (a) scaling the Ricci element by 1.1 must break the residual bound
    sp_scaled = scaled_ricci_control(base, 1, 1, Fraction(11, 10))
    profile = ein.profile_solve(sp_scaled, grid_size=130)
    max_tan = 0.0
    for i in range(1, len(profile.t) - 1):
        f, fp, fpp = profile.f[i], profile.fp[i], profile.fpp[i]
        max_tan = max(max_tan, float(np.max(np.abs(ein.ricci_residuals_state(sp_scaled, f, fp, fpp)[0]))))
    broke = max_tan > 1e-3

    # (b) the product diameter is rejected with an exact wall diagnostic
    rep = run(JobSpec(mode="check-segment", group="A1xA1", z_direction="1,-1", m1=1, m2=1))
    seg = rep["segment"]
    rejected = (
        seg["degree_mismatch"]
        and not seg["overall_ok"]
        and {"root": [0, 1], "alpha_z1": "0"} in seg["walls_z1"]
    )
    assert _report(
        6,
        broke and rejected,
        "scaled control residual %.3f >> 1e-6; diameter rejected with alpha2(Z1) = 0 exactly" % max_tan,
    )


def test_criterion_7a_product_hypothesis_fails_exactly():
    flag, j = _flag_j("A1xA1")
    chk = sphere_in_chamber(flag, j)
    ok = (not chk.ok) and chk.min_distance_sq == Fraction(1, 2)
    assert _report(
        "7a", ok, "product of SU(2): wall distance sqrt(1/2) = 0.707 < 1, exact value 1/2"
    )


# (dual Coxeter number h^v, lacing number r) of each simple family, by rank.
# Under E = -Killing the highest root has |theta|^2 = 1/h^v and a short root
# has |alpha|^2 = 1/(r h^v) (Kac, Infinite-dimensional Lie Algebras, 6.1 and
# Table Aff; Humphreys, GTM 9, 9-11).
_DUAL_COXETER_AND_LACING = {
    "A": lambda n: (n + 1, 1),
    "B": lambda n: (2 * n - 1, 2),
    "C": lambda n: (n + 1, 2),
    "D": lambda n: (2 * n - 2, 1),
    "G": lambda n: (4, 3),
    "F": lambda n: (9, 2),
    "E": lambda n: ({6: 12, 7: 18, 8: 30}[n], 1),
}


def test_criterion_7b_some_higher_rank_full_flag_passes():
    """Criterion: some full flag of rank 2..8 passes the radius-1 sphere test.

    As stated the criterion is unsatisfiable, and this test asserts that
    proven outcome exactly.  On a full flag Zk is dual to 2 rho, so every
    simple root alpha has alpha(Zk) = E*(alpha, 2 rho) = |alpha|^2, and the
    wall distance^2 alpha(Zk)^2 / |alpha|^2 = |alpha|^2 is least at a short
    simple root: 1/(r h^v), taken from the table above rather than from the
    library.  For rank >= 2 that is at most 1/3 (A2 alone); the value 1/2
    occurs only for A1, which is criterion 7a.  So no full flag passes, and
    a change that flips a verdict or moves a distance fails this test.
    """
    specs = ["A%d" % r for r in range(2, 9)]
    specs += ["B%d" % r for r in range(2, 9)]
    specs += ["C%d" % r for r in range(2, 9)]
    specs += ["D%d" % r for r in range(3, 9)]
    specs += ["G2", "F4", "E6", "E7", "E8"]
    faults = []
    distances = {}
    for text in specs:
        flag, j = _flag_j(text)
        chk = sphere_in_chamber(flag, j)
        zk = ricci_invariant(flag, j)
        norms = {a: dual_pairing(flag.rs, a.coords, a.coords) for a in flag.rs.simple_roots()}
        h_dual, lacing = _DUAL_COXETER_AND_LACING[text[0]](int(text[1:]))
        expected = Fraction(1, lacing * h_dual)
        shortest = min(norms.values())
        if chk.ok is not False:
            faults.append("%s passes" % text)
        if any(evaluate(a, zk) != n for a, n in norms.items()):
            faults.append("%s: alpha(Zk) != |alpha|^2 for a simple root" % text)
        dists = (chk.min_distance_sq, chk.min_distance_sq_center)
        if not all(type(d) is Fraction and d == shortest == expected for d in dists):
            faults.append("%s: distance^2 %s, center %s, shortest simple |alpha|^2 %s, 1/(r h^v) %s"
                          % (text, dists[0], dists[1], shortest, expected))
        if norms.get(chk.binding_root) != shortest:
            faults.append("%s: binding root %s is not a shortest simple root"
                          % (text, chk.binding_root.coords))
        distances[text] = chk.min_distance_sq
    largest = max(distances.values())
    at_largest = [t for t in specs if distances[t] == largest]
    if largest != Fraction(1, 3) or at_largest != ["A2"]:
        faults.append("largest distance^2 %s at %s, not 1/3 at A2 alone" % (largest, at_largest))
    ok = not faults
    _report(
        "7b",
        ok,
        "criterion as stated is unsatisfiable; no full flag through rank 8 passes; "
        "distance^2 = 1/(r h^v) for every spec, largest 1/3 at A2"
        if ok else "; ".join(faults),
    )
    assert ok, (
        "criterion 7b as stated is unsatisfiable: on a full flag alpha(Zk) = |alpha|^2 "
        "for simple alpha, so distance^2 = 1/(r h^v) <= 1/3 for rank >= 2; mismatches: %s"
        % faults
    )
