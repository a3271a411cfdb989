"""Command-line front end.

Subcommands: roots, flag-info, futaki, check-segment, solve, verify, search.
A job can be given as a JSON file (--job) with individual flags overriding
its fields; reports are printed as deterministic JSON.  Mathematical
negatives ("no Einstein metric here") exit 0; only malformed input or
internal failures exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import einstein as ein
from .errors import DegreeMismatchError, FlagkeError, InputError, NoKahlerEinsteinError
from .flag import (
    FlagData,
    InvariantComplexStructure,
    build_flag,
    chamber_position,
    default_complex_structure,
    ricci_invariant,
    validate_complex_structure,
)
from .model import CenterLine, analyze_segment, check_parametrization, make_base
from .rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    build_root_system,
    classical_root_count,
    evaluate,
)
from .scalars import format_scalar

MODES = ("roots", "flag-info", "futaki", "check-segment", "solve", "verify", "search")
FLOAT_FMT = "%.12e"  # all exported floats carry 12 significant digits
# profile inversion holds grid x einstein.PROFILE_GAUSS_ORDER floats per Newton step
MAX_GRID = 65536


@dataclass
class JobSpec:
    mode: str
    group: str = ""
    painted: List[int] = field(default_factory=list)
    complex_structure: object = "default"  # "default" or list of root coords
    z_direction: object = None  # list of rational strings, or "search"
    m1: Optional[int] = None
    m2: Optional[int] = None
    tau: str = "1"
    tol: float = 1e-12
    grid: int = 512
    arithmetic: str = "exact"  # "exact" | "float"
    out: Optional[str] = None


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("cannot parse rational %r" % (text,)) from exc


def _parse_vector(value) -> List[Fraction]:
    if isinstance(value, str):
        items = [p for p in value.replace("(", "").replace(")", "").split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        items = list(value)
    else:
        raise InputError("expected a coordinate vector, got %r" % (value,))
    return [_parse_fraction(p) for p in items]


def _resolve_structure(flag: FlagData, choice) -> InvariantComplexStructure:
    if choice in (None, "default"):
        return default_complex_structure(flag)
    if not isinstance(choice, (list, tuple)):
        raise InputError("complex_structure must be 'default' or a list of root coordinate vectors")
    roots = tuple(sorted(Root(tuple(_convert("complex_structure", coords, _int_list))) for coords in choice))
    j = InvariantComplexStructure(roots)
    verdict = validate_complex_structure(flag, j)
    if not verdict.ok:
        raise InputError("invalid complex structure: %s" % "; ".join(verdict.violations))
    return j


def _build_context(job: JobSpec):
    if not job.group:
        raise InputError("no group given (use --group or a job file)")
    spec = LieAlgebraSpec.parse(job.group)
    rs = build_root_system(spec)
    flag = build_flag(rs, job.painted)
    j = _resolve_structure(flag, job.complex_structure)
    return spec, rs, flag, j


def _base_from_job(job: JobSpec, flag, j) -> CenterLine:
    if job.z_direction in (None, "search"):
        raise InputError("mode %r needs an explicit z direction" % job.mode)
    vals = _parse_vector(job.z_direction)
    if len(vals) != flag.rs.rank:
        raise InputError("z direction has %d entries, rank is %d" % (len(vals), flag.rs.rank))
    direction = CartanVector(tuple(vals))
    if job.arithmetic == "float":
        direction = CartanVector(tuple(float(v) for v in vals))
    return make_base(flag, j, direction, period_scale=_parse_fraction(job.tau), tol=job.tol)


def _fmt(x) -> object:
    if isinstance(x, float):
        return x
    return format_scalar(x)


def _vector_report(v: CartanVector) -> List[object]:
    return [_fmt(x) for x in v.values]


def _echo(job: JobSpec, spec) -> Dict:
    return {
        "group": str(spec),
        "painted": sorted(job.painted),
        "tau": job.tau,
        "arithmetic": job.arithmetic,
    }


# ---------------------------------------------------------------------------
# mode handlers


def _run_roots(job: JobSpec) -> Dict:
    spec, rs, flag, j = _build_context(job)
    return {
        "mode": "roots",
        "config": _echo(job, spec),
        "rank": rs.rank,
        "root_count": len(rs.roots),
        "component_counts": [
            {"family": f, "rank": r, "roots": classical_root_count(f, r)}
            for f, r in spec.components
        ],
        "gram": [list(row) for row in rs.gram],
        "gram_inverse": [[str(x) for x in row] for row in rs.gram_inverse],
        "positive_roots": [list(r.coords) for r in rs.positive_roots],
    }


def _run_flag_info(job: JobSpec) -> Dict:
    spec, rs, flag, j = _build_context(job)
    zk = ricci_invariant(flag, j)
    out = {
        "mode": "flag-info",
        "config": _echo(job, spec),
        "r_k_count": len(flag.r_k),
        "r_m_count": len(flag.r_m),
        "center_dim": flag.center_dim,
        "center_basis": [_vector_report(b) for b in flag.center_basis],
        "positive_r_m": [list(r.coords) for r in j.positive],
        "ricci_invariant": _vector_report(zk),
        "ricci_invariant_position": chamber_position(flag, j, zk).position,
    }
    if j.positive:
        chk = ein.sphere_in_chamber(flag, j)
        out["sphere_in_chamber"] = {
            "ok": chk.ok,
            "min_wall_distance_sq": str(chk.min_distance_sq),
            "min_wall_distance_sq_center": str(chk.min_distance_sq_center),
            "binding_root": list(chk.binding_root.coords),
        }
    return out


def _degrees(job: JobSpec) -> tuple:
    if job.m1 is None or job.m2 is None:
        raise InputError("mode %r needs --m1 and --m2" % job.mode)
    return int(job.m1), int(job.m2)


def _run_futaki(job: JobSpec) -> Dict:
    spec, rs, flag, j = _build_context(job)
    m1, m2 = _degrees(job)
    base = _base_from_job(job, flag, j)
    rep = ein.futaki(flag, j, base.z, m1, m2)
    return {
        "mode": "futaki",
        "config": _echo(job, spec),
        "m1": m1,
        "m2": m2,
        "z_unit": _vector_report(base.z),
        "ricci_invariant": _vector_report(ricci_invariant(flag, j)),
        "value": _fmt(rep.value),
        "value_float": float(rep.value),
        "vanishes": rep.vanishes,
        "exact": rep.exact,
        "tolerance": rep.tol,
        "error_bound": rep.error_bound,
    }


def _segment_report(base: CenterLine, flag, j, m1: int, m2: int) -> Dict:
    zk = ricci_invariant(flag, j)
    z1, z2 = ein.ke_endpoints(zk, base.z, m1, m2)
    seg = analyze_segment(base, z1, Fraction(m1 + m2) if base.z.kind != "float" else float(m1 + m2))
    mismatch = seg.candidate.m1 != m1 or seg.candidate.m2 != m2
    report = {
        "ricci_invariant": _vector_report(zk),
        "declared_degrees": [m1, m2],
        "computed_degrees": [seg.candidate.m1, seg.candidate.m2],
        "degree_mismatch": mismatch,
        "z1": _vector_report(z1),
        "z2": _vector_report(z2),
        "walls_z1": [
            {"root": list(r.coords), "alpha_z1": _fmt(evaluate(r, z1))} for r in seg.candidate.w1
        ],
        "walls_z2": [
            {"root": list(r.coords), "alpha_z2": _fmt(evaluate(r, z2))} for r in seg.candidate.w2
        ],
        "chamber_ok": seg.chamber_ok,
        "degrees_ok": seg.degrees_ok,
        "projection_ok": seg.projection_ok,
        "overall_ok": seg.overall_ok and not mismatch,
        "failures": list(seg.failures),
    }
    if mismatch:
        report["failures"] = report["failures"] + [
            "degree mismatch: declared (%d, %d), walls give (%d, %d)"
            % (m1, m2, seg.candidate.m1, seg.candidate.m2)
        ]
    return report


def _run_check_segment(job: JobSpec) -> Dict:
    spec, rs, flag, j = _build_context(job)
    m1, m2 = _degrees(job)
    base = _base_from_job(job, flag, j)
    rep = ein.futaki(flag, j, base.z, m1, m2)
    return {
        "mode": "check-segment",
        "config": _echo(job, spec),
        "z_unit": _vector_report(base.z),
        "segment": _segment_report(base, flag, j, m1, m2),
        "futaki": {"value": _fmt(rep.value), "vanishes": rep.vanishes, "exact": rep.exact},
    }


def _solve_pipeline(job: JobSpec):
    spec, rs, flag, j = _build_context(job)
    m1, m2 = _degrees(job)
    base = _base_from_job(job, flag, j)
    seg_report = _segment_report(base, flag, j, m1, m2)
    rep = ein.futaki(flag, j, base.z, m1, m2)
    out = {
        "config": _echo(job, spec),
        "m1": m1,
        "m2": m2,
        "z_unit": _vector_report(base.z),
        "segment": seg_report,
        "futaki": {"value": _fmt(rep.value), "vanishes": rep.vanishes, "exact": rep.exact},
    }
    if not seg_report["overall_ok"] or not rep.vanishes:
        out["verdict"] = "no_kahler_einstein"
        out["reason"] = "segment inadmissible" if not seg_report["overall_ok"] else "obstruction integral nonzero"
        return spec, base, None, None, out
    sp = ein.build_segment_polynomial(base, m1, m2)
    profile = ein.profile_solve(sp, grid_size=job.grid)
    out["verdict"] = "kahler_einstein"
    out["einstein_constant"] = profile.einstein_constant
    out["delta"] = profile.delta
    out["diagnostics"] = {k: float(v) for k, v in profile.diagnostics.items()}
    out["tolerances"] = {
        "f_delta_error": 1e-8,
        "fpp_endpoints": 1e-4,
        "max_ode_residual": 1e-8,
        "einstein_residuals": 1e-6,
        "two_route_gaps": 1e-6,
        "roundtrip_error": 1e-8,
    }
    return spec, base, sp, profile, out


def _residual_columns(sp, profile):
    res_tan = np.full(len(profile.t), np.nan)
    res_norm = np.full(len(profile.t), np.nan)
    state = (profile.f[1:-1], profile.fp[1:-1], profile.fpp[1:-1])
    res_tan[1:-1] = np.max(np.abs(ein.tangential_residuals_state(sp, *state)), axis=-1)
    res_norm[1:-1] = ein.ricci_normal_state(sp, *state) - 1.0
    return res_tan, res_norm


def export_profile(profile, sp, path: str, diagnostics: Optional[Dict] = None) -> Dict:
    """Write the profile table as CSV plus a JSON diagnostics sidecar.

    Columns: t,f,fp,fpp,res_tan,res_norm with 12 significant digits; endpoint
    rows carry nan residuals since the Ricci evaluations are interior-only.
    """
    res_tan, res_norm = _residual_columns(sp, profile)
    lines = ["t,f,fp,fpp,res_tan,res_norm"]
    for i in range(len(profile.t)):
        lines.append(",".join(FLOAT_FMT % x for x in (
            profile.t[i], profile.f[i], profile.fp[i], profile.fpp[i], res_tan[i], res_norm[i],
        )))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "delta": profile.delta,
        "m1": profile.m1,
        "m2": profile.m2,
        "grid_size": len(profile.t),
        "diagnostics": {k: float(v) for k, v in profile.diagnostics.items()},
    }
    if diagnostics:
        sidecar.update(diagnostics)
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return {"table": path, "sidecar": path + ".json", "rows": len(profile.t)}


def _run_solve(job: JobSpec) -> Dict:
    spec, base, sp, profile, out = _solve_pipeline(job)
    out["mode"] = "solve"
    if profile is not None:
        res = ein.verify_profile(sp, profile, n_check=32)
        out["residual_maxima"] = {k: float(v) for k, v in res.items()}
        if job.out:
            out["files"] = export_profile(profile, sp, job.out, {"residual_maxima": out["residual_maxima"]})
    return out


def _run_verify(job: JobSpec) -> Dict:
    spec, base, sp, profile, out = _solve_pipeline(job)
    out["mode"] = "verify"
    if profile is None:
        return out
    res = ein.verify_profile(sp, profile, n_check=64)
    pv = check_parametrization(profile.t, profile.f, profile.delta, float(sp.f_delta))
    checks = {
        "f_delta": {"value": float(profile.diagnostics["f_delta_error"]), "tol": 1e-8},
        "fpp0_minus_1": {"value": abs(pv.fpp0 - 1.0), "tol": 1e-4},
        "fpp_delta_plus_1": {"value": abs(pv.fpp_delta + 1.0), "tol": 1e-4},
        "ode_residual": {"value": float(profile.diagnostics["max_ode_residual"]), "tol": 1e-8},
        "tangential_residual": {"value": res["max_tangential_residual"], "tol": 1e-6},
        "normal_residual": {"value": res["max_normal_residual"], "tol": 1e-6},
        "normal_two_route_gap": {"value": res["normal_two_route_gap"], "tol": 1e-6},
        "delta_two_route_gap": {"value": res["delta_ode_gap"], "tol": 1e-6},
        "roundtrip": {"value": res["roundtrip_error"], "tol": 1e-8},
    }
    for c in checks.values():
        c["pass"] = bool(c["value"] < c["tol"])
    out["checks"] = checks
    out["all_pass"] = all(c["pass"] for c in checks.values())
    out["parametrization"] = {
        "ok": pv.ok,
        "details": list(pv.details),
    }
    return out


def _run_search(job: JobSpec) -> Dict:
    spec, rs, flag, j = _build_context(job)
    tau = _parse_fraction(job.tau)
    if job.m1 is not None and job.m2 is not None and job.m1 + job.m2 >= 3:
        direction = flag.center_basis[0]
        base = make_base(flag, j, direction, period_scale=tau)
        candidates = ein.search_walled(base, int(job.m1), int(job.m2))
        return {
            "mode": "search",
            "kind": "walled",
            "config": _echo(job, spec),
            "m1": job.m1,
            "m2": job.m2,
            "candidates": [
                {
                    "z": [_fmt(v) for v in c.z_values],
                    "w1": [list(r.coords) for r in c.w1],
                    "w2": [list(r.coords) for r in c.w2],
                    "futaki": _fmt(c.futaki.value),
                    "admissible": c.segment.overall_ok,
                }
                for c in candidates
            ],
        }
    base = make_base(flag, j, flag.center_basis[0], period_scale=tau)
    result = ein.search_diameters(base)
    return {
        "mode": "search",
        "kind": "diameters",
        "config": _echo(job, spec),
        "sphere_in_chamber": {
            "ok": result.hypothesis.ok,
            "min_wall_distance_sq": str(result.hypothesis.min_distance_sq),
            "min_wall_distance_sq_center": str(result.hypothesis.min_distance_sq_center),
        },
        "candidates": [
            {
                "z": [_fmt(v) for v in c.z_values],
                "futaki": _fmt(c.futaki.value),
                "futaki_exact": c.futaki.exact,
                "confirmed_exact": c.confirmed_exact,
                "admissible": c.segment.overall_ok,
                "degrees": [c.segment.candidate.m1, c.segment.candidate.m2],
                "ke_ok": c.ke_ok,
            }
            for c in result.candidates
        ],
    }


_HANDLERS = {
    "roots": _run_roots,
    "flag-info": _run_flag_info,
    "futaki": _run_futaki,
    "check-segment": _run_check_segment,
    "solve": _run_solve,
    "verify": _run_verify,
    "search": _run_search,
}


def run(job: JobSpec) -> Dict:
    """Dispatch a job to its mode handler; see the module docstring."""
    if job.mode not in _HANDLERS:
        raise InputError("unknown mode %r" % job.mode)
    try:
        return _HANDLERS[job.mode](job)
    except (DegreeMismatchError, NoKahlerEinsteinError) as exc:
        # mathematical negatives: report, do not fail
        return {
            "mode": job.mode,
            "verdict": "no_kahler_einstein",
            "reason": str(exc),
            "details": getattr(exc, "details", {}) and {
                k: (str(v) if not isinstance(v, (list, tuple, int, float)) else v)
                for k, v in exc.details.items()
            },
        }


# ---------------------------------------------------------------------------
# argument parsing


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagke",
        description="Kahler-Einstein metrics on cohomogeneity-one manifolds from root data",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--job", help="JSON job file; flags override its fields")
        p.add_argument("--group", help="e.g. A2, A1xA1, B3xC2")
        p.add_argument("--painted", help="comma list of 0-based simple-root indices")
        p.add_argument("--jsigns", help="'default' or JSON list of R_m+ root coordinate vectors")
        p.add_argument("--z", help="comma list of rationals (direction in the center), or 'search'")
        p.add_argument("--m1", type=int)
        p.add_argument("--m2", type=int)
        p.add_argument("--tau", help="period scale, rational (default 1)")
        p.add_argument("--tol", type=float, help="float-path tolerance (default 1e-12)")
        p.add_argument("--grid", type=int, help="profile grid size (default 512)")
        p.add_argument("--exact", dest="arithmetic", action="store_const", const="exact")
        p.add_argument("--float", dest="arithmetic", action="store_const", const="float")
        p.add_argument("--out", help="profile table output path (solve)")
    return parser


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    data: Dict = {}
    if args.job:
        with open(args.job) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise InputError("job file must hold a JSON object")
        if "mode" in data and data["mode"] != args.mode:
            raise InputError("job file mode %r conflicts with subcommand %r" % (data["mode"], args.mode))
    job = JobSpec(mode=args.mode)
    if "group" in data:
        job.group = _convert("group", data["group"], _group_name)
    job.painted = _convert("painted", data.get("painted", []), _int_list)
    job.complex_structure = data.get("complex_structure", "default")
    job.z_direction = data.get("z_direction")
    job.m1 = None if data.get("m1") is None else _convert("m1", data["m1"], int)
    job.m2 = None if data.get("m2") is None else _convert("m2", data["m2"], int)
    job.tau = str(data.get("tau", "1"))
    job.tol = _convert("tol", data.get("tol", 1e-12), float)
    job.grid = _convert("grid", data.get("grid", 512), int)
    job.arithmetic = data.get("arithmetic", "exact")
    job.out = data.get("out")

    if args.group:
        job.group = args.group
    if args.painted is not None:
        job.painted = _convert("painted", [p for p in args.painted.split(",") if p.strip()], _int_list)
    if args.jsigns:
        job.complex_structure = "default" if args.jsigns == "default" else json.loads(args.jsigns)
    if args.z:
        job.z_direction = args.z if args.z != "search" else "search"
    if args.m1 is not None:
        job.m1 = args.m1
    if args.m2 is not None:
        job.m2 = args.m2
    if args.tau:
        job.tau = args.tau
    if args.tol is not None:
        job.tol = args.tol
    if args.grid is not None:
        job.grid = args.grid
    if args.arithmetic:
        job.arithmetic = args.arithmetic
    if args.out:
        job.out = args.out
    if job.grid > MAX_GRID:
        raise InputError("grid must have at most %d points, got %d" % (MAX_GRID, job.grid))
    if job.arithmetic not in ("exact", "float"):
        raise InputError("arithmetic must be 'exact' or 'float', got %r" % (job.arithmetic,))
    return job


def _convert(name: str, value, convert):
    """convert(value), with a failure reported as bad input for the named field."""
    try:
        return convert(value)
    except (TypeError, ValueError, KeyError) as exc:
        raise InputError("job field %r: cannot use %r (%s)" % (name, value, exc)) from exc


def _int_list(value) -> List[int]:
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list of integers")
    return [int(v) for v in value]


def _group_name(group) -> str:
    if isinstance(group, list):
        return "x".join("%s%d" % (g["family"], int(g["rank"])) for g in group)
    return str(group)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        job = _job_from_args(args)
        report = run(job)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        json.dump({"error": str(exc)}, sys.stdout, indent=2, sort_keys=True)
        print()
        return 2
    except OSError as exc:
        json.dump({"error": "i/o failure: %s" % exc}, sys.stdout, indent=2, sort_keys=True)
        print()
        return 1
    except FlagkeError as exc:
        json.dump({"error": "internal: %s" % exc}, sys.stdout, indent=2, sort_keys=True)
        print()
        return 1
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
