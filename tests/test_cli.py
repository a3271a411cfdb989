import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from flagke import einstein as ein
from flagke import linalg
from flagke import cli
from flagke.cli import MODES, main
from flagke.errors import InputError
from flagke.flag import InvariantComplexStructure, build_flag
from flagke.model import PARAMETRIZATION_TOL, make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, Root, build_root_system


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_roots_mode(capsys):
    code, rep = _capture(capsys, ["roots", "--group", "A2"])
    assert code == 0
    assert rep["root_count"] == 6
    assert rep["gram"] == [[4, 2], [2, 4]]
    assert rep["gram_inverse"][0] == ["1/3", "-1/6"]


def test_flag_info_mode(capsys):
    code, rep = _capture(capsys, ["flag-info", "--group", "A1xA1", "--painted", ""])
    assert code == 0
    assert rep["r_m_count"] == 4 and rep["center_dim"] == 2
    assert rep["ricci_invariant"] == ["1/2", "1/2"]
    assert rep["ricci_invariant_position"] == "interior"
    assert rep["sphere_in_chamber"]["ok"] is False
    assert rep["sphere_in_chamber"]["min_wall_distance_sq"] == "1/2"


def test_futaki_mode_values(capsys):
    code, rep = _capture(capsys, ["futaki", "--group", "A1", "--z", "1", "--m1", "1", "--m2", "1"])
    assert code == 0
    assert rep["value"] == "0 + -1/3*sqrt(2)"
    assert rep["vanishes"] is False

    code, rep = _capture(
        capsys, ["futaki", "--group", "A1xA1", "--z", "1,-1", "--m1", "1", "--m2", "1"]
    )
    assert code == 0
    assert rep["value"] == "0" and rep["vanishes"] is True


def test_solve_builds_one_module_table_product(capsys, monkeypatch):
    """A solve builds the (Zk, Z) table once, and multiplies it in integers once on exact input: the segment's
    admissibility and the segment polynomial read the table, and the polynomial the product, that the verdict's
    obstruction integrated."""
    from flagke import model

    calls = {"int_linear_product": 0, "isotropy_modules": 0}
    for name in calls:
        original = getattr(model, name)

        def counting(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        for module in (model, ein):
            monkeypatch.setattr(module, name, counting)
    painted = ",".join(str(k) for k in range(12) if k not in (3, 9))
    argv = ["solve", "--group", "E6xE6", "--painted", painted, "--z", "0,0,0,1,0,0,0,0,0,-1,0,0", "--m1", "1", "--m2",
            "1", "--grid", "64"]
    code, rep = _capture(capsys, argv)
    assert code == 0 and rep["verdict"] == "kahler_einstein"
    assert calls == {"int_linear_product": 1, "isotropy_modules": 1}  # 2 each when the polynomial built its own
    # a float verdict keeps its table too, and multiplies no integers
    calls.update(dict.fromkeys(calls, 0))
    code, rep = _capture(capsys, argv + ["--float"])
    assert code == 0 and rep["verdict"] == "kahler_einstein"
    assert calls == {"int_linear_product": 0, "isotropy_modules": 1}


def test_check_segment_reports_degree_mismatch(capsys):
    code, rep = _capture(
        capsys, ["check-segment", "--group", "A1xA1", "--z", "1,-1", "--m1", "1", "--m2", "1"]
    )
    assert code == 0  # a mathematical negative, not an input error
    seg = rep["segment"]
    assert seg["degree_mismatch"] is True
    assert seg["overall_ok"] is False
    assert {"root": [0, 1], "alpha_z1": "0"} in seg["walls_z1"]


def test_solve_writes_profile_table(tmp_path, capsys, ke_base):
    out = tmp_path / "profile.csv"
    code, rep = _capture(
        capsys,
        [
            "solve", "--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0",
            "--m1", "1", "--m2", "1", "--grid", "48", "--out", str(out),
        ],
    )
    assert code == 0
    assert rep["verdict"] == "kahler_einstein"
    assert rep["files"]["rows"] == 48

    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,f,fp,fpp,res_tan,res_norm"
    assert len(lines) == 49
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    # round trip: monotone t and f
    data = np.genfromtxt(str(out), delimiter=",", skip_header=1)
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all(np.diff(data[:, 1]) > 0)
    sidecar = json.loads((tmp_path / "profile.csv.json").read_text())
    assert sidecar["grid_size"] == 48
    assert sidecar["diagnostics"]["f_delta_error"] < 1e-8

    # the residual columns are the scalar state functions, row by row
    sp = ein.build_segment_polynomial(ke_base, 1, 1)
    prof = ein.profile_solve(sp, grid_size=48)
    assert np.isnan(data[0, 4:]).all() and np.isnan(data[-1, 4:]).all()
    for i in range(1, 47):
        f, fp, fpp = float(prof.f[i]), float(prof.fp[i]), float(prof.fpp[i])
        assert abs(data[i, 4] - float(np.max(np.abs(ein.ricci_residuals_state(sp, f, fp, fpp)[0])))) <= 1e-13
        assert abs(data[i, 5] - (ein.ricci_residuals_state(sp, f, fp, fpp)[1] - 1.0)) <= 1e-13


def test_verify_mode_all_pass(capsys):
    code, rep = _capture(
        capsys,
        [
            "verify", "--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0",
            "--m1", "1", "--m2", "1", "--grid", "96",
        ],
    )
    assert code == 0
    assert rep["all_pass"] is True
    for name, chk in rep["checks"].items():
        assert chk["pass"], name


def test_search_mode(capsys):
    code, rep = _capture(capsys, ["search", "--group", "A2xA2", "--painted", "1,3"])
    assert code == 0
    assert rep["kind"] == "diameters"
    kes = [c for c in rep["candidates"] if c["ke_ok"]]
    assert len(kes) == 1 and kes[0]["confirmed_exact"]


def _rational_direction(z):
    """A rational --z along an exact unit vector of a report.

    A unit vector is a rational direction divided by the square root of its
    norm, so its entries are all rational or all of the form 0 + q*sqrt(r)
    (or 0); the q are the direction.
    """
    parts = []
    for v in z:
        if "sqrt" in v:
            rational, irrational = v.split(" + ")
            assert rational == "0"
            v = irrational.split("*sqrt")[0]
        parts.append(v)
    return ",".join(parts)


@pytest.mark.parametrize("group, painted", [("A1xA1", ""), ("A1xA1xA1", "2"), ("A2xA2", "1,3")])
def test_search_ke_ok_is_the_solve_verdict(capsys, group, painted):
    code, rep = _capture(capsys, ["search", "--group", group, "--painted", painted])
    assert code == 0
    exact = [c for c in rep["candidates"] if c["confirmed_exact"]]
    assert exact
    for c in exact:
        code, solved = _capture(capsys, ["solve", "--group", group, "--painted", painted,
                                         "--z=" + _rational_direction(c["z"]), "--m1", "1", "--m2", "1"])
        assert code == 0
        assert solved["z_unit"] == c["z"]
        assert c["ke_ok"] == (solved["verdict"] == "kahler_einstein")
        assert c["admissible"] == solved["segment"]["overall_ok"]
    if group == "A1xA1":
        # the SU(2) x SU(2) diameter: its walls give degrees (2, 2), not the declared (1, 1)
        assert [(c["z"], c["degrees"], c["ke_ok"]) for c in exact] == [(["-1/2", "1/2"], [2, 2], False)]


_FLOAT_PATH_DIRECTIONS = {
    "A2xA2 diameter": ["--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0"],
    "A1xA1 product": ["--group", "A1xA1", "--z", "1,-1"],
}


@pytest.mark.parametrize("mode", ["check-segment", "solve"])
@pytest.mark.parametrize("direction", sorted(_FLOAT_PATH_DIRECTIONS))
def test_float_path_gives_the_exact_verdict(capsys, mode, direction):
    argv = [mode] + _FLOAT_PATH_DIRECTIONS[direction] + ["--m1", "1", "--m2", "1", "--grid", "48"]
    reports = []
    for arithmetic in ("--exact", "--float"):
        code, rep = _capture(capsys, argv + [arithmetic])
        assert code == 0
        seg = rep["segment"]
        reports.append((
            rep.get("verdict"), seg["overall_ok"], rep["futaki"]["vanishes"], seg["computed_degrees"],
            [w["root"] for w in seg["walls_z1"]], [w["root"] for w in seg["walls_z2"]],
        ))
    exact, flt = reports
    assert flt == exact
    assert exact[0] == {"solve": "kahler_einstein" if direction == "A2xA2 diameter" else "no_kahler_einstein",
                        "check-segment": None}[mode]


def test_float_walls_of_the_verdict_and_the_profile_agree(capsys):
    # alpha(Z1) and alpha(Z2) of the walls are 5e-12 here: walls for the verdict
    # and for the segment polynomial alike, so the (2, 2) metric is solved
    argv = ["solve", "--group", "A1xA1", "--z=1.00000000002,-1", "--m1", "2", "--m2", "2", "--tau", "1/2",
            "--float", "--grid", "48"]
    code, rep = _capture(capsys, argv)
    assert code == 0
    assert rep["segment"]["computed_degrees"] == [2, 2]
    assert rep["verdict"] == "kahler_einstein"


def test_verify_check_tolerances_are_the_solve_report_tolerances(capsys):
    argv = ["--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0", "--m1", "1", "--m2", "1", "--grid", "96"]
    _, solved = _capture(capsys, ["solve"] + argv)
    _, verified = _capture(capsys, ["verify"] + argv)
    assert set(verified["checks"]) == {name for name, _, _, _ in ein.PROFILE_CHECKS}
    assert solved["tolerances"] == {tol_name: tol for _, _, tol_name, tol in ein.PROFILE_CHECKS}
    assert len({(tol_name, tol) for _, _, tol_name, tol in ein.PROFILE_CHECKS}) == len(solved["tolerances"])
    for name, key, tol_name, tol in ein.PROFILE_CHECKS:
        assert verified["checks"][name]["tol"] == solved["tolerances"][tol_name] == tol, name
    # every value key is one of verify_profile, of the diagnostics or of the two f'' end limits
    keys = set(solved["residual_maxima"]) | set(solved["diagnostics"]) | {"fpp0_minus_1", "fpp_delta_plus_1"}
    assert {key for _, key, _, _ in ein.PROFILE_CHECKS} <= keys
    # the f'' end checks share check_parametrization's own tolerance
    assert all(tol is PARAMETRIZATION_TOL for _, _, tol_name, tol in ein.PROFILE_CHECKS if tol_name == "fpp_endpoints")


def _end_limit(v: float, sign: float) -> float:
    """The float nearest sign * 1 whose distance from it is at least v."""
    x = sign * (1.0 + v)
    while abs(x - sign) < v:
        x = math.nextafter(x, 2.0 * sign)
    return x


def test_verify_fails_exactly_the_checks_whose_value_reaches_its_tolerance(capsys, monkeypatch):
    # every value sits at half its tolerance but one, which sits at it: only the checks reading that one fail
    argv = ["verify", "--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0", "--m1", "1", "--m2", "1",
            "--grid", "48"]
    tols = {key: tol for _, key, _, tol in ein.PROFILE_CHECKS}
    solve, verify_keys = ein.profile_solve, ("max_tangential_residual", "max_normal_residual",
                                             "normal_two_route_gap", "roundtrip_error", "delta_ode_gap")
    for at in tols:
        values = {key: tol if key == at else tol / 2 for key, tol in tols.items()}

        def profile_solve(sp, grid_size, values=values):
            prof = solve(sp, grid_size=grid_size)
            prof.__dict__.update(diagnostics=dict(prof.diagnostics, f_delta_error=values["f_delta_error"],
                                                  max_ode_residual=values["max_ode_residual"]))
            return prof

        monkeypatch.setattr(ein, "profile_solve", profile_solve)
        monkeypatch.setattr(ein, "verify_profile", lambda sp, prof, n_check, values=values:
                            {key: values[key] for key in verify_keys})
        monkeypatch.setattr(cli, "check_parametrization", lambda *args, values=values: SimpleNamespace(
            ok=True, details=(), fpp0=_end_limit(values["fpp0_minus_1"], 1.0),
            fpp_delta=_end_limit(values["fpp_delta_plus_1"], -1.0)))
        code, rep = _capture(capsys, argv)
        assert code == 0 and rep["all_pass"] is False, at
        failing = {name for name, check in rep["checks"].items() if not check["pass"]}
        assert failing == {name for name, key, _, _ in ein.PROFILE_CHECKS if key == at}, at
        for name, key, _, tol in ein.PROFILE_CHECKS:
            assert rep["checks"][name]["value"] >= tol if key == at else rep["checks"][name]["value"] < tol, name


def test_check_table_is_no_looser_than_the_benchmark_verify_gate():
    # the benchmark holds its own copy of the verify tolerances, so a check loosened here would pass
    # reports that the benchmark fails, and one tightened here is not tightened there
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks", "workloads.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    gate = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_TOL"])
    table = {key: tol for _, key, _, tol in ein.PROFILE_CHECKS}
    ends = {tol_name: tol for _, _, tol_name, tol in ein.PROFILE_CHECKS}["fpp_endpoints"]
    table.update(fpp0=ends, fpp_delta=ends)  # the gate reads the profile's own f'' end limits
    assert set(gate) <= set(table)
    for key, tol in gate.items():
        assert table[key] <= tol, key


def test_no_ke_solve_is_exit_zero(capsys):
    # the rank-one diameter overshoots the chamber wall: inadmissible
    code, rep = _capture(
        capsys, ["solve", "--group", "A1", "--z", "1", "--m1", "1", "--m2", "1"]
    )
    assert code == 0
    assert rep["verdict"] == "no_kahler_einstein"
    assert rep["reason"] == "segment inadmissible"

    # admissible segment, nonvanishing obstruction
    code, rep = _capture(
        capsys,
        ["solve", "--group", "A2xA2", "--painted", "1,3", "--z", "1,0,1,0",
         "--m1", "1", "--m2", "1"],
    )
    assert code == 0
    assert rep["verdict"] == "no_kahler_einstein"
    assert rep["reason"] == "obstruction integral nonzero"


def test_invalid_input_is_exit_two(capsys):
    code, rep = _capture(capsys, ["futaki", "--group", "Q7", "--z", "1", "--m1", "1", "--m2", "1"])
    assert code == 2
    assert "error" in rep

    code, rep = _capture(capsys, ["futaki", "--group", "A1", "--m1", "1", "--m2", "1"])
    assert code == 2  # missing z direction

    code, rep = _capture(capsys, ["futaki", "--group", "A2", "--painted", "0",
                                  "--z", "1,0", "--m1", "1", "--m2", "1"])
    assert code == 2  # direction not in the center


@pytest.mark.parametrize("mode, z", [("solve", "1e200,0,-1e200,0"), ("futaki", "1e308,0,-1e308,0"),
                                     ("check-segment", "1e308,0,-1e308,0"), ("solve", "1e-200,0,-1e-200,0")])
def test_float_direction_whose_norm_is_not_a_float_is_exit_two(capsys, mode, z):
    # the squared norm overflows to inf (or to nan through inf - inf) or underflows to 0
    args = ["--group", "A2xA2", "--painted", "1,3", "--m1", "1", "--m2", "1"]
    code, rep = _capture(capsys, [mode, "--z", z, "--float"] + args)
    assert code == 2 and "squared norm" in rep["error"]
    # the same values in exact arithmetic normalize to the unit diameter and report it
    code, exact = _capture(capsys, [mode, "--z", z] + args)
    assert code == 0 and exact == _capture(capsys, [mode, "--z", "1,0,-1,0"] + args)[1]


@pytest.mark.parametrize("degrees, error", [
    (["--m1", "0", "--m2", "3"], "degrees must be >= 1"),
    (["--m1", "-1", "--m2", "5"], "degrees must be >= 1"),
    (["--m1", "2"], "mode 'search' needs --m1 and --m2"),
    (["--m2", "2"], "mode 'search' needs --m1 and --m2"),
])
def test_walled_search_degrees_are_checked_input(capsys, degrees, error):
    code, rep = _capture(capsys, ["search", "--group", "A2", "--painted", "1"] + degrees)
    assert (code, rep) == (2, {"error": error})


@pytest.mark.parametrize("argv", [
    ["check-segment", "--group", "A1xA1", "--z", "1,-1", "--m1", "1", "--m2", "1", "--tau", "0"],
    ["solve", "--group", "A1xA1", "--z", "1,-1", "--m1", "1", "--m2", "1", "--tau", "0", "--float"],
    ["search", "--group", "A2", "--painted", "1", "--m1", "3", "--m2", "1", "--tau=-1/3"],
])
def test_period_scale_must_be_positive(capsys, argv):
    code, rep = _capture(capsys, argv)
    assert (code, rep) == (2, {"error": "period scale must be positive"})


@pytest.mark.parametrize("group, painted, m1, m2", [
    ("E6", "0,2,3,4", "3", "3"), ("E7", "1,2,3,4,5", "4", "2"), ("E8", "", "2", "1"), ("E7", "", "3", "1"),
])
def test_walled_search_counts_wall_systems_not_root_subsets(capsys, group, painted, m1, m2):
    # C(|R_m+|, m1 - 1) C(|R_m+|, m2 - 1) root-subset pairs (105 625 and 530 663) are no
    # measure of the work: the center modules give a handful of wall lines; with nothing
    # painted, d - 1 = 7 and 6 walls do not fit in m1 + m2 - 2 = 1 and 2, so no system is solved
    code, rep = _capture(capsys, ["search", "--group", group, "--painted", painted, "--m1", m1, "--m2", m2])
    assert code == 0 and rep["kind"] == "walled" and rep["candidates"] == []


def test_walled_search_with_too_many_wall_systems_is_exit_two(capsys):
    # B5 with nothing painted at (3, 3): 90 000 lines, each cut out by 2 walls at Z1 and 2 at Z2
    code, rep = _capture(capsys, ["search", "--group", "B5", "--painted", "", "--m1", "3", "--m2", "3"])
    assert (code, rep) == (2, {"error": "walled search too large (more than 20000 wall systems)"})


def test_job_file_with_flag_override(tmp_path, capsys):
    job = {
        "mode": "futaki",
        "group": [{"family": "A", "rank": 1}, {"family": "A", "rank": 1}],
        "painted": [],
        "z_direction": [1, -1],
        "m1": 1,
        "m2": 1,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, rep = _capture(capsys, ["futaki", "--job", str(path)])
    assert code == 0 and rep["vanishes"] is True
    # flag overrides the file field
    code, rep = _capture(capsys, ["futaki", "--job", str(path), "--z", "1,1"])
    assert code == 0 and rep["vanishes"] is False
    # conflicting mode is an input error
    code, rep = _capture(capsys, ["solve", "--job", str(path)])
    assert code == 2


def test_explicit_complex_structure_flag(capsys):
    # reversing the sign on the second factor makes the symmetric direction
    # the obstruction-free one
    code, rep = _capture(
        capsys,
        ["futaki", "--group", "A1xA1", "--jsigns", "[[1,0],[0,-1]]",
         "--z", "1,1", "--m1", "1", "--m2", "1"],
    )
    assert code == 0 and rep["vanishes"] is True

    code, rep = _capture(
        capsys,
        ["futaki", "--group", "A1xA1", "--jsigns", "[[1,0],[0,-1],[0,1]]",
         "--z", "1,1", "--m1", "1", "--m2", "1"],
    )
    assert code == 2  # not a valid half of R_m


@pytest.mark.parametrize("degrees", [[], ["--m1", "2", "--m2", "1"]], ids=["diameters", "walled"])
def test_search_on_a_zero_dimensional_center_is_exit_two(capsys, degrees):
    # with every node painted the center has no direction to search: bad input, not a traceback
    code, rep = _capture(capsys, ["search", "--group", "A1", "--painted", "0"] + degrees)
    assert code == 2 and rep == {"error": "search needs a center of dimension >= 1; every simple root of A1 is painted"}


def test_one_parser_names_every_mode_and_rejects_bad_usage_with_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert all(mode in usage for mode in MODES)
    for argv in ([], ["bogus", "--group", "A2"], ["roots", "--group"], ["roots", "--grid", "many"], ["roots", "-x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    # the options may come before the mode
    assert _capture(capsys, ["--group", "A1", "roots"]) == _capture(capsys, ["roots", "--group", "A1"])


def test_invalid_structure_is_one_input_error(capsys):
    # make_base and the CLI reject the A2 structure with (-1,-1) by the same error
    flag = build_flag(build_root_system(LieAlgebraSpec.parse("A2")), [])
    bad = InvariantComplexStructure((Root((-1, -1)), Root((0, 1)), Root((1, 0))))
    with pytest.raises(InputError) as exc:
        make_base(flag, bad, CartanVector((Fraction(1), Fraction(1))))
    assert str(exc.value).startswith("invalid complex structure: closure fails")
    code, rep = _capture(capsys, ["futaki", "--group", "A2", "--jsigns", "[[1,0],[0,1],[-1,-1]]", "--z", "1,1"])
    assert code == 2 and rep == {"error": str(exc.value)}


def test_repeated_root_is_exit_two(capsys):
    # with (1, 0) named twice the obstruction would read 67/648; named once it vanishes
    argv = ["futaki", "--group", "A2", "--jsigns", "[[1,0],[1,0],[0,1],[1,1]]", "--z", "1,-1", "--m1", "1", "--m2", "1"]
    code, rep = _capture(capsys, argv)
    assert code == 2 and rep == {"error": "invalid complex structure: root (1, 0) declared positive more than once"}
    code, rep = _capture(capsys, argv[:4] + ["[[1,0],[0,1],[1,1]]"] + argv[5:])
    assert code == 0 and rep["value"] == "0"


def test_search_walled_cli_with_period_scale(capsys):
    code, rep = _capture(
        capsys, ["search", "--group", "A2", "--painted", "1", "--m1", "3", "--m2", "1"]
    )
    assert code == 0 and rep["kind"] == "walled" and rep["candidates"] == []

    code, rep = _capture(
        capsys,
        ["search", "--group", "A2", "--painted", "1", "--m1", "3", "--m2", "1", "--tau", "1/3"],
    )
    assert code == 0
    assert len(rep["candidates"]) == 1
    assert rep["candidates"][0]["z"] == ["-1/6", "0"]
    assert rep["candidates"][0]["futaki"] == "0"


def test_export_io_failure_reported(tmp_path, capsys):
    code, rep = _capture(
        capsys,
        ["solve", "--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0",
         "--m1", "1", "--m2", "1", "--grid", "48", "--out", str(tmp_path)],  # a directory
    )
    assert code == 1
    assert "i/o failure" in rep["error"]


@pytest.mark.parametrize(
    "field",
    [
        {"grid": "abc"},
        {"tol": "x"},
        {"painted": "1,3"},
        {"m1": "x"},
        {"m2": [1]},
        {"grid": 10 ** 12},
        {"arithmetic": "flaot"},
    ],
    ids=["grid-not-int", "tol-not-float", "painted-string", "m1-not-int", "m2-list", "grid-above-max",
         "arithmetic-unknown"],
)
def test_bad_job_file_value_is_exit_two(tmp_path, capsys, field):
    job = {"group": "A2xA2", "painted": [1, 3], "z_direction": "1,0,-1,0", "m1": 1, "m2": 1, "grid": 48}
    job.update(field)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, rep = _capture(capsys, ["solve", "--job", str(path)])
    assert code == 2
    assert isinstance(rep["error"], str) and rep["error"]


def test_report_determinism(capsys):
    argv = ["check-segment", "--group", "A1xA1", "--z", "1,-1", "--m1", "1", "--m2", "1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_console_entry_point_runs():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "flagke.cli", "roots", "--group", "A1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["root_count"] == 2


_SCIPY_PROBE = """
import contextlib, io, json, sys
import flagke, flagke.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

runs = {"import": [None, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = flagke.cli.main(argv)
    runs[name] = [code, scipy_modules(), json.loads(out.getvalue())]
sys.stdout.write(json.dumps(runs))
"""

_A2XA2 = ["--group", "A2xA2", "--painted", "1,3"]
_SCIPY_FREE_RUNS = {
    "roots": ["roots", "--group", "E8"],
    "solve": ["solve"] + _A2XA2 + ["--z", "1,0,-1,0", "--m1", "1", "--m2", "1"],
    "verify": ["verify"] + _A2XA2 + ["--z", "1,0,-1,0", "--m1", "1", "--m2", "1"],
    "diameter search": ["search"] + _A2XA2,
    "walled search": ["search", "--group", "A2", "--painted", "1", "--m1", "3", "--m2", "1", "--tau", "1/3"],
}


def test_import_and_roots_leave_scipy_solvers_unloaded():
    # the runtime needs only numpy; scipy is a test-only oracle
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(_SCIPY_FREE_RUNS)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert runs.pop("import") == [None, []]
    assert runs["roots"][2]["root_count"] == 240
    assert runs["verify"][2]["all_pass"] and runs["solve"][2]["verdict"] == "kahler_einstein"
    assert any(c["ke_ok"] for c in runs["diameter search"][2]["candidates"])
    assert runs["walled search"][2]["candidates"]
    for name, (code, loaded, _) in runs.items():
        assert (name, code, loaded) == (name, 0, [])


_NUMPY_PROBE = """
import contextlib, io, json, sys
import flagke, flagke.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = flagke.cli.main(sys.argv[1:]) if sys.argv[1:] else None
loaded = [m for m in ("numpy", "flagke.einstein", "dataclasses", "inspect") if m in sys.modules]
sys.stdout.write(json.dumps([code, loaded, flagke.profile_solve.__module__]))
"""


@pytest.mark.parametrize("argv", [
    [],
    ["roots", "--group", "E8"],
    ["flag-info", "--group", "E8", "--painted", "2"],
    ["futaki", "--group", "A2", "--painted", "1", "--z", "1,0", "--m1", "1", "--m2", "2"],
    ["check-segment"] + _A2XA2 + ["--z", "1,0,-1,0", "--m1", "1", "--m2", "1"],
    ["search"] + _A2XA2,
    ["futaki", "--group", "A2", "--painted", "1", "--z", "1,0", "--m1", "1", "--m2", "2", "--float"],
    ["check-segment"] + _A2XA2 + ["--z", "1,0,-1,0", "--m1", "1", "--m2", "1", "--float"],
    ["search", "--group", "A2xA2xA2", "--painted", "1,3,5"],
], ids=["import", "roots", "flag-info", "futaki", "check-segment", "diameter search", "futaki --float",
        "check-segment --float", "diameter search, float zeros"])
def test_exact_commands_leave_numpy_and_the_float_layer_unloaded(argv):
    # the exact layers import no numpy, on float input too; einstein, and numpy with it, loads on first use of
    # its names.  The diameter search of A2 x A2 [1, 3] finds one zero, an exact one; that of A2 x A2 x A2
    # [1, 3, 5] finds irrational zeros, whose float verdicts run in `model` too.  The records generate no code,
    # so neither dataclasses nor the inspect module it pulls in is loaded either
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE] + argv, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    code, loaded, home = json.loads(proc.stdout)
    assert (code, loaded, home) == (None if not argv else 0, [], "flagke.einstein")


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # `flagke roots --group E8 | head -1`: the reader is gone before the report is written, and the CLI exits
    # 1 with nothing on stderr
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.Popen([sys.executable, "-m", "flagke.cli", "roots", "--group", "E8"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err.decode()) == (1, "")


def test_walled_search_leaves_numpy_and_the_float_layer_unloaded(tmp_path, capsys):
    # the walled search is an exact command: given by flags or by a --job file it runs in `walled`, and neither
    # numpy nor einstein loads, nor dataclasses or inspect; the linalg it eliminates with is integer-only
    flags = ["search", "--group", "A2", "--painted", "1", "--m1", "3", "--m2", "1", "--tau", "1/3"]
    job = tmp_path / "walled.json"
    job.write_text(json.dumps({"mode": "search", "group": "A2", "painted": [1], "m1": 3, "m2": 1, "tau": "1/3"}))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    for argv in (flags, ["search", "--job", str(job)]):
        proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE] + argv, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, [], "flagke.einstein"], argv
    code, rep = _capture(capsys, flags)
    assert code == 0 and rep["candidates"] and (code, rep) == _capture(capsys, ["search", "--job", str(job)])
    tree = ast.parse(open(linalg.__file__).read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "fractions" not in imported and not hasattr(linalg, "Fraction") and not hasattr(linalg, "rref")


def test_sweep_tool_writes_and_compares_search_runs(tmp_path, monkeypatch, capsys):
    import sweep_searches as sweep

    argvs = [["search", "--group", "A2xA2", "--painted", "1,3", "--tau", "1"],
             ["search", "--group", "A2", "--painted", "1", "--tau", "1/3", "--m1", "3", "--m2", "1"],
             ["flag-info", "--group", "E8", "--painted", "2"]]
    everything = sweep.sweep_argvs()
    assert all(argv in everything for argv in argvs)
    modes = [argv[0] for argv in everything]
    assert len(everything) == len(set(map(tuple, everything))) == 4656 and modes.count("search") == 1410
    assert (modes.count("flag-info"), modes.count("roots"), modes.count("futaki")) == (365, 28, 1188)
    assert modes.count("check-segment") == 1380 and sum("--float" in argv for argv in everything) == 1028
    assert modes.count("solve") == 145 and modes.count("verify") == 140
    assert ["solve", "--group", "A2xA2", "--painted", "0,2", "--z", "0,1,0,-1", "--m1", "1", "--m2", "1", "--grid",
            "9794"] in everything
    assert ["solve", "--group", "B3xB3", "--painted", "0,2,3,5", "--z", "0,1,0,0,-1,0", "--tau", "1/3", "--m1", "1",
            "--m2", "1", "--float"] in everything
    assert sweep.center_directions(4, (0,)) == ["0,1,1,1", "0,1,-1,1"] and sweep.center_directions(2, (1,)) == ["1,0"]
    assert ["futaki", "--group", "E8", "--painted", "0,1,2,3,4", "--z", "0,0,0,0,0,1,-1,1", "--m1", "2", "--m2",
            "2"] in everything
    assert ["check-segment", "--group", "B3", "--painted", "", "--z", "1,-1,1", "--m1", "1", "--m2", "2", "--tau",
            "1/3"] in everything
    assert ["futaki", "--group", "A2", "--painted", "1", "--z", "1,0", "--m1", "2", "--m2", "2",
            "--float"] in everything
    monkeypatch.setattr(sweep, "sweep_argvs", lambda: argvs)
    path = tmp_path / "sweep.json"
    assert sweep.main(["--out", str(path)]) == 0
    assert capsys.readouterr().out.startswith("3 runs written")
    record = json.loads(path.read_text())
    for argv in argvs:
        assert record[" ".join(argv)] == _capture(capsys, argv)[1]
    walled, info = " ".join(argvs[1]), " ".join(argvs[2])
    assert [c["z"] for c in record[walled]["candidates"]] == [["-1/6", "0"]]
    assert record[info]["ricci_invariant_position"] == "interior"

    assert sweep.main(["--compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out.startswith("3 runs identical, 0 differ only in floats")
    moved = json.loads(path.read_text())
    moved[walled]["candidates"][0]["admissible"] = False
    moved[info]["sphere_in_chamber"]["binding_root"] = [0] * 8
    moved["float run"] = {"z": [0.5, 1.0 + 4e-16]}
    record["float run"] = {"z": [0.5, 1.0]}
    identical, floats_only, changed, worst = sweep.compare(record, moved)
    assert (identical, floats_only, changed) == ([" ".join(argvs[0])], ["float run"], sorted([walled, info]))
    assert 0 < worst <= 1e-15
    assert sweep.float_gap({"z": [1.0]}, {"z": [1.0 + 1e-9]}) > sweep.FLOAT_RTOL
    assert sweep.float_gap({"z": [1.0]}, {"y": [1.0]}) is None

    # --compare exits with 0 when floats move within FLOAT_RTOL, and with 1 when a run changed
    record = json.loads(path.read_text())
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(dict(record, gap=1.0)))
    after.write_text(json.dumps(dict(record, gap=1.0 + sweep.FLOAT_RTOL / 2)))
    assert sweep.main(["--compare", str(before), str(after)]) == 0
    assert capsys.readouterr().out.startswith("3 runs identical, 1 differ only in floats")
    record[walled]["candidates"][0]["z"] = ["1/6", "0"]
    after.write_text(json.dumps(record))
    assert sweep.main(["--compare", str(path), str(after)]) == 1
    assert capsys.readouterr().out.startswith("2 runs identical, 0 differ only in floats (by at most 0), 1 changed")


def test_sweep_compare_runs_without_flagke(tmp_path):
    # --compare reads two files and imports no flagke: a flagke that fails to import shadows any on the path
    shadow = tmp_path / "shadow" / "flagke"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text("raise ImportError('flagke imported')\n")
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_searches.py")
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps({"roots --group A2": {"root_count": 6}, "run": {"z": ["1/6"]}}))
    env = dict(os.environ, PYTHONPATH=str(shadow.parent))
    for moved, code, summary in (({}, 0, "2 runs identical"), ({"run": {"z": ["1/5"]}}, 1, "1 runs identical")):
        after.write_text(json.dumps(dict(json.loads(before.read_text()), **moved)))
        proc = subprocess.run([sys.executable, script, "--compare", str(before), str(after)], capture_output=True,
                              text=True, env=env, cwd=str(tmp_path))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(summary), proc.stdout


_E6XE6_DIAMETER = ["--group", "E6xE6", "--painted", ",".join(str(k) for k in range(12) if k not in (3, 9)),
                   "--z", "0,0,0,1,0,0,0,0,0,-1,0,0", "--m1", "1", "--m2", "1"]
_BLAS_PROBE = """
import sys
from flagke.cli import main
argv = sys.argv[1:]
main(["solve"] + argv + ["--grid", "65536"])
main(["verify"] + argv)
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    """E6xE6 solved on 65 536 points and verified, in one child with one BLAS thread and in one with two: the same
    report bytes.  At that grid the chart evaluations' matrix products are large enough to be split over threads."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    procs = [subprocess.Popen([sys.executable, "-c", _BLAS_PROBE] + _E6XE6_DIAMETER, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n))
             for n in ("1", "2")]
    (one, err), (two, _) = (proc.communicate() for proc in procs)
    assert all(proc.returncode == 0 for proc in procs), err
    assert b'"mode": "verify"' in one and one == two
