"""A seeded fuzz of the command line: every argument list and job file ends in a JSON report or a JSON error.

`hypothesis` draws argument lists over every mode, with valid and invalid
groups of rank at most 4, paintings, directions (with nan, inf and 1/0),
degrees, period scales, tolerances, grids and complex structures, and job
files that hold some of those fields, a non-object or no JSON at all.  A
run must print one JSON object and exit 0 with a report or 2 with
``{"error": ...}``; argparse's own usage errors exit 2 with its message on
stderr.  The seed is fixed (``derandomize``) and the example count bounded,
so the suite stays deterministic; each failure found becomes a case of
`test_cli_regressions`.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagke.cli import MODES, main
from flagke.rootsys import LieAlgebraSpec

GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4", "A1xA1", "A1xA2", "A2xA2",
          "A1xA1xA1", "B2xA1"]
COORDINATES = ["1", "-1", "2", "1/2", "-1/3"]
# the values an option takes when it is fuzzed
FUZZED = {
    "--group": st.sampled_from(GROUPS + ["", "A0", "B1", "E5", "G3", "Q2", "A2x", "x", "2A", "A-1"]),
    "--painted": st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "5", "", "a"]), max_size=5).map(",".join),
    "--z": st.lists(st.sampled_from(COORDINATES + ["0", "0.5", "1e-3", "nan", "inf", "-inf", "1/0", "x"]),
                    max_size=5).map(",".join) | st.just("search"),
    "--m1": st.sampled_from(["-1", "0", "3", "x"]),
    "--m2": st.sampled_from(["-1", "0", "3"]),
    "--tau": st.sampled_from(["2", "0", "-1", "nan", "1/0", "x"]),
    "--tol": st.sampled_from(["0", "1e-6", "-1", "nan", "inf", "x"]),
    "--grid": st.sampled_from(["-1", "0", "1", "2", "5", "99999", "x"]),
    "--jsigns": st.sampled_from(["[]", "[[1, 0]]", "[[1]]", "[[0, 1], [1, 1]]", "{}", "null", "x"]),
}
JOB_FIELDS = {
    "mode": st.sampled_from(MODES),
    "group": st.sampled_from(GROUPS + ["", "E5"]) | st.just([{"family": "A", "rank": 2}]) | st.just([{"x": 1}]),
    "painted": st.lists(st.integers(-1, 4), max_size=3) | st.just("0"),
    "complex_structure": st.sampled_from(["default", [], [[1, 0]], "x"]),
    "z_direction": st.lists(st.sampled_from(COORDINATES + ["0", "nan", "x"]), min_size=1, max_size=4)
    | st.just("search") | st.just(1),
    "m1": st.integers(-1, 3) | st.just("2") | st.just("x"),
    "m2": st.integers(-1, 3) | st.just(None),
    "tau": st.sampled_from(["1", "1/3", "0"]) | st.just(0.5),
    "tol": st.sampled_from([1e-12, -1.0, "x"]),
    "grid": st.sampled_from([0, 3, 33, "x"]),
    "arithmetic": st.sampled_from(["exact", "float", "fast"]),
}


@st.composite
def command_lines(draw):
    """(argv, job file text or None): a mode and mostly valid options as --name=value, some dropped or fuzzed.

    The valid options are a group, a painting of it, a direction in its
    center (0 at the painted nodes), degrees 1 or 2, a period scale 1, 1/3
    or 1/2 and a grid of at most 64 points.  Each is kept, dropped or
    replaced by a value of FUZZED; --tol and --jsigns may be added fuzzed.
    A job file holds some fields, or a non-object, or no JSON.
    """
    group = draw(st.sampled_from(GROUPS))
    rank = LieAlgebraSpec.parse(group).rank
    painted = draw(st.lists(st.integers(0, rank - 1), unique=True, max_size=rank))
    valid = {
        "--group": group,
        "--painted": ",".join(map(str, sorted(painted))),
        "--z": ",".join("0" if i in painted else draw(st.sampled_from(COORDINATES)) for i in range(rank)),
        "--m1": draw(st.sampled_from(["1", "2"])),
        "--m2": draw(st.sampled_from(["1", "2"])),
        "--tau": draw(st.sampled_from(["1", "1/3", "1/2"])),
        "--grid": draw(st.sampled_from(["9", "33", "64"])),
    }
    argv = [draw(st.sampled_from(MODES + ("bogus",)))]
    for name in sorted(FUZZED):
        action = draw(st.sampled_from(["keep"] * 12 + ["drop", "fuzz"]) if name in valid else st.sampled_from(
            ["drop"] * 6 + ["fuzz"]))
        if action != "drop":
            argv.append("%s=%s" % (name, valid[name] if action == "keep" else draw(FUZZED[name])))
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--float", "--exact"])))
    job = None
    if draw(st.integers(0, 3)) == 0:
        fields = draw(st.lists(st.sampled_from(sorted(JOB_FIELDS)), unique=True, max_size=6))
        data = {name: draw(JOB_FIELDS[name]) for name in fields}
        job = draw(st.sampled_from([json.dumps(data)] * 3 + [json.dumps(list(data)), "{not json", ""]))
    return argv, job


def _check_run(argv, job, tmp_path):
    """Run main in process and check that it ends in one JSON object with exit 0, or 2 with an error.

    Returns the report, or None after an argparse usage error.
    """
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(job)
        argv = argv + ["--job=%s" % path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, on stderr
            assert exc.code == 2 and out.getvalue() == "" and "usage:" in err.getvalue(), argv
            return None
    assert code in (0, 2), (argv, job, out.getvalue())
    report = json.loads(out.getvalue())
    assert isinstance(report, dict), argv
    assert ("error" in report) == (code == 2), (argv, job, report)
    if code == 2:
        assert list(report) == ["error"] and isinstance(report["error"], str), (argv, report)
    return report


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=command_lines())
def test_cli_fuzz_ends_in_a_json_report_or_error(command, tmp_path):
    _check_run(*command, tmp_path)


# a float futaki run on A2xA2, for the runs with a bad --tol
BAD_TOL = ["futaki", "--group=A2xA2", "--painted=1,3", "--m1=1", "--m2=1", "--float"]
FLAG_INFO = ["flag-info", "--group=A2xA2", "--painted=1,3"]
NO_DIRECTION = "flag-info reads no direction options; given: "


# `search` on a 0-dimensional center exited 1 with an IndexError, for the diameter and the walled search;
# a negative or nan tolerance reported a direction in the center as off-center, and an infinite one let
# an off-center float direction through; flag-info accepted the options of a direction and read none of them
@pytest.mark.parametrize("argv, job, error", [
    (["search", "--group=A1", "--painted=0"], None, None),
    (["search", "--group=A1", "--painted=0", "--m1=2", "--m2=1"], None, None),
    (BAD_TOL + ["--z=1,0,-1,0", "--tol=-1"], None, "tolerance must be a finite number >= 0, got -1.0"),
    (BAD_TOL + ["--z=1,0,-1,0", "--tol=nan"], None, "tolerance must be a finite number >= 0, got nan"),
    (BAD_TOL + ["--z=1,1e-3,-1,0", "--tol=inf"], None, "tolerance must be a finite number >= 0, got inf"),
    (BAD_TOL + ["--z=1,0,-1,0"], json.dumps({"tol": -1.0}), "tolerance must be a finite number >= 0, got -1.0"),
    (FLAG_INFO + ["--z=1,0,-1,0", "--float", "--tol=-1"], None, NO_DIRECTION + "--z, --tol, --float/--exact"),
    (FLAG_INFO + ["--tau=1/3", "--m1=1", "--m2=2"], None, NO_DIRECTION + "--tau, --m1, --m2"),
    (FLAG_INFO + ["--exact", "--grid=64", "--out=profile.csv"], None, NO_DIRECTION + "--float/--exact, --grid, --out"),
    (FLAG_INFO, json.dumps({"z_direction": [1, 0, -1, 0], "m1": 1, "arithmetic": "exact"}),
     NO_DIRECTION + "--z, --float/--exact, --m1"),
    (FLAG_INFO + ["--tol=1e-6"], json.dumps({"tau": "1", "grid": 9, "out": "x.csv"}),
     NO_DIRECTION + "--tau, --tol, --grid, --out"),
])
def test_cli_regressions(argv, job, error, tmp_path):
    report = _check_run(argv, job, tmp_path)
    if error is not None:
        assert report == {"error": error}
