import json
import os
import subprocess
import sys

import numpy as np
import pytest

from flagke import einstein as ein
from flagke.cli import main


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
        assert abs(data[i, 4] - float(np.max(np.abs(ein.tangential_residuals_state(sp, f, fp, fpp))))) <= 1e-13
        assert abs(data[i, 5] - (ein.ricci_normal_state(sp, f, fp, fpp) - 1.0)) <= 1e-13


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
    proc = subprocess.run(
        [sys.executable, "-m", "flagke.cli", "roots", "--group", "A1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["root_count"] == 2


_SCIPY_PROBE = """
import json, sys
import flagke, flagke.cli
lazy = ("scipy.integrate", "scipy.optimize")
after_import = [m for m in lazy if m in sys.modules]
code = flagke.cli.main(["roots", "--group", "E8"])
sys.stderr.write(json.dumps([code, after_import, [m for m in lazy if m in sys.modules]]))
"""


def test_import_and_roots_leave_scipy_solvers_unloaded():
    # quad, solve_ivp and brentq are imported only by the routes that use them
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, env=env)
    code, after_import, after_roots = json.loads(proc.stderr)
    assert code == 0 and json.loads(proc.stdout)["root_count"] == 240
    assert after_import == [] and after_roots == []
