"""Frozen reports: CLI solve/verify JSON and library profile values.

The fixture ``golden_reports.json`` next to this file pins three cases: the
CLI ``solve`` and ``verify`` reports of the exact A2xA2 diameter, and the
library ``profile_solve``/``verify_profile`` values of the walled A2 (3, 1)
segment at period scale 1/3 and of one float d = 3 winner of A2xA2xA2 (its
direction is stored, not re-searched).  Exact fields must be equal; floats
must agree to 1e-13 relative (absolute below 1).

Regenerate the fixture, only after a deliberate change of the reports, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import os
from fractions import Fraction

from flagke import einstein as ein
from flagke.cli import main
from flagke.flag import build_flag, default_complex_structure
from flagke.model import make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, build_root_system

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_reports.json")
FLOAT_TOL = 1e-13

A2XA2_ARGS = ["--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0", "--m1", "1", "--m2", "1"]
# a float winner of search_diameters on A2xA2xA2 [1, 3, 5]
D3_WINNER_Z = [-0.0898670954639291, 0.0, -0.31304222233559, 0.0, 0.37937906134639543, 0.0]


def _cli(mode):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([mode] + A2XA2_ARGS)
    return {"exit_code": code, "report": json.loads(buf.getvalue())}


def _profile_values(group, painted, z, m1, m2, period_scale=Fraction(1)):
    flag = build_flag(build_root_system(LieAlgebraSpec.parse(group)), painted)
    j = default_complex_structure(flag)
    base = make_base(flag, j, CartanVector(tuple(z)), period_scale=period_scale)
    sp = ein.build_segment_polynomial(base, m1, m2)
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
        "walled_a2_3_1": _profile_values("A2", [1], [Fraction(-1, 6), Fraction(0)], 3, 1, Fraction(1, 3)),
        "float_d3_winner": _profile_values("A2xA2xA2", [1, 3, 5], D3_WINNER_Z, 1, 1),
    }


def _diff(path, want, got, out):
    if isinstance(want, float) or isinstance(got, float):
        ok = (
            isinstance(want, (int, float)) and isinstance(got, (int, float))
            and not isinstance(want, bool) and not isinstance(got, bool)
            and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))
        )
        if not ok:
            out.append("%s: %r != %r" % (path, got, want))
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            out.append("%s: keys %s != %s" % (path, sorted(got), sorted(want)))
        for k in want:
            if k in got:
                _diff("%s.%s" % (path, k), want[k], got[k], out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append("%s: length %d != %d" % (path, len(got), len(want)))
        for i, (w, g) in enumerate(zip(want, got)):
            _diff("%s[%d]" % (path, i), w, g, out)
    elif want != got or type(want) is not type(got):
        out.append("%s: %r != %r" % (path, got, want))


def test_golden_reports():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(collect()))
    problems = []
    _diff("golden", want, got, problems)
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(collect(), fh, indent=1, sort_keys=True)
        fh.write("\n")
