"""Frozen reports: CLI solve/verify JSON and library profile values.

The fixture ``golden_reports.json`` next to this file pins three cases: the
CLI ``solve`` and ``verify`` reports of the exact A2xA2 diameter, and the
library ``profile_solve``/``verify_profile`` values of the walled A2 (3, 1)
segment at period scale 1/3 and of one float d = 3 winner of A2xA2xA2 (its
direction is stored, not re-searched).  Exact fields must be equal; floats
must agree to 1e-13 relative (absolute below 1), except three keys whose
rounding is larger: every ``normal_two_route_gap`` and the walled
``max_tangential_residual`` and ``max_normal_residual`` are held to the
bound that `segment_checks.verify_rounding` derives at each check of their
report.

Regenerate the fixture, only after a deliberate change of the reports, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import functools
import io
import json
import os
from fractions import Fraction

from flagke import einstein as ein
from flagke.cli import main
from flagke.flag import build_flag, default_complex_structure
from flagke.model import make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, build_root_system
from segment_checks import verify_rounding_of

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_reports.json")
FLOAT_TOL = 1e-13

A2XA2_ARGS = ["--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0", "--m1", "1", "--m2", "1"]
# a float winner on A2xA2xA2 [1, 3, 5], found by the former latitude scan
D3_WINNER_Z = [-0.0898670954639291, 0.0, -0.31304222233559, 0.0, 0.37937906134639543, 0.0]


def _cli(mode):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([mode] + A2XA2_ARGS)
    return {"exit_code": code, "report": json.loads(buf.getvalue())}


def _segment(group, painted, z, m1, m2, period_scale=Fraction(1)):
    flag = build_flag(build_root_system(LieAlgebraSpec.parse(group)), painted)
    j = default_complex_structure(flag)
    base = make_base(flag, j, CartanVector(tuple(z)), period_scale=period_scale)
    return ein.build_segment_polynomial(base, m1, m2)


A2XA2 = ("A2xA2", [1, 3], [Fraction(1), Fraction(0), Fraction(-1), Fraction(0)], 1, 1)
WALLED = ("A2", [1], [Fraction(-1, 6), Fraction(0)], 3, 1, Fraction(1, 3))
D3_WINNER = ("A2xA2xA2", [1, 3, 5], D3_WINNER_Z, 1, 1)


def _profile_values(*config):
    sp = _segment(*config)
    prof = ein.profile_solve(sp)
    n = len(prof.t)
    picks = [0, 1, n // 4, n // 2, 3 * n // 4, n - 2, n - 1]
    return {
        "delta": float(prof.delta),
        "diagnostics": {k: float(v) for k, v in prof.diagnostics.items()},
        "verify": {k: float(v) for k, v in ein.verify_profile(sp, prof).items()},
        "samples": {
            "index": picks,
            "f": [float(prof.f[i]) for i in picks],
            "fp": [float(prof.fp[i]) for i in picks],
            "fpp": [float(prof.fpp[i]) for i in picks],
        },
    }


def collect():
    return {
        "cli_solve_a2xa2": _cli("solve"),
        "cli_verify_a2xa2": _cli("verify"),
        "walled_a2_3_1": _profile_values(*WALLED),
        "float_d3_winner": _profile_values(*D3_WINNER),
    }


def rounding_bounds():
    """The tolerance of each key held to its rounding, by path: `verify_rounding_of` at its report's checks.

    The CLI's solve reports 32 checks and its verify 64, both on the A2xA2
    profile; the library values come from 64.
    """
    gap = "normal_two_route_gap"
    a2xa2, walled, d3 = (_segment(*config) for config in (A2XA2, WALLED, D3_WINNER))

    def at(sp, n_check):
        return verify_rounding_of(sp, ein.profile_solve(sp), n_check)

    walled_bounds = at(walled, 64)
    return {
        "golden.cli_solve_a2xa2.report.residual_maxima." + gap: at(a2xa2, 32)[gap],
        "golden.cli_verify_a2xa2.report.checks.%s.value" % gap: at(a2xa2, 64)[gap],
        "golden.walled_a2_3_1.verify." + gap: walled_bounds[gap],
        "golden.walled_a2_3_1.verify.max_tangential_residual": walled_bounds["max_tangential_residual"],
        "golden.walled_a2_3_1.verify.max_normal_residual": walled_bounds["max_normal_residual"],
        "golden.float_d3_winner.verify." + gap: at(d3, 64)[gap],
    }


def _diff(path, want, got, out, bounds):
    if isinstance(want, float) or isinstance(got, float):
        ok = (
            isinstance(want, (int, float)) and isinstance(got, (int, float))
            and not isinstance(want, bool) and not isinstance(got, bool)
            and abs(got - want) <= max(FLOAT_TOL * max(1.0, abs(want)), bounds.get(path, 0.0))
        )
        if not ok:
            out.append("%s: %r != %r" % (path, got, want))
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            out.append("%s: keys %s != %s" % (path, sorted(got), sorted(want)))
        for k in want:
            if k in got:
                _diff("%s.%s" % (path, k), want[k], got[k], out, bounds)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append("%s: length %d != %d" % (path, len(got), len(want)))
        for i, (w, g) in enumerate(zip(want, got)):
            _diff("%s[%d]" % (path, i), w, g, out, bounds)
    elif want != got or type(want) is not type(got):
        out.append("%s: %r != %r" % (path, got, want))


def test_golden_reports():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(collect()))
    problems = []
    bounds = rounding_bounds()
    _diff("golden", want, got, problems, bounds)
    for path in bounds:  # every bounded key is in the fixture
        keys = path.split(".")[1:]
        assert isinstance(functools.reduce(dict.get, keys, want), float), path
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(collect(), fh, indent=1, sort_keys=True)
        fh.write("\n")
