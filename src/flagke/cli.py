"""Command-line front end.

Subcommands: roots, flag-info, futaki, check-segment, solve, verify, search.
A job can be given as a JSON file (--job) with individual flags overriding
its fields; reports are printed as deterministic JSON.  Mathematical
negatives ("no Einstein metric here") exit 0; only malformed input or
internal failures exit nonzero.  numpy loads only with the float layer
`einstein`, which solve and verify import when they run: roots, flag-info,
futaki and check-segment, --float too, and the searches, run in `walled`
(degrees other than (1, 1)) and `diameters`, load none.  A report cut off
by a reader that closes the pipe early exits 1, with no traceback.
A solve report states the tolerances of `einstein.PROFILE_CHECKS`, the
table of verify checks, and verify holds each check to its row's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import DegreeMismatchError, FlagkeError, InputError, NoKahlerEinsteinError
from .flag import (
    FlagData,
    InvariantComplexStructure,
    SphereCheck,
    build_flag,
    chamber_position,
    default_complex_structure,
    require_complex_structure,
    ricci_invariant,
    sphere_in_chamber,
)
from .model import CenterLine, FutakiReport, KEVerdict, check_parametrization, ke_verdict, make_base
from .rootsys import (
    CartanVector,
    LieAlgebraSpec,
    Root,
    build_root_system,
    classical_root_count,
    evaluate,
)
from .scalars import format_scalar

FLOAT_FMT = "%.12e"  # all exported floats carry 12 significant digits
# profile inversion holds a few grid x (einstein.PROFILE_GAUSS_ORDER + 1) float arrays per Newton step
MAX_GRID = 65536


class JobSpec:
    """One job: its mode and its fields.  A field left out, or given as None, takes its default.

    ``complex_structure`` is "default" or a list of root coordinate vectors,
    ``z_direction`` a list of rational strings or "search", and
    ``arithmetic`` "exact" or "float".
    """

    def __init__(self, mode: str, group: Optional[str] = None, painted: Optional[List[int]] = None,
                 complex_structure: object = None, z_direction: object = None, m1: Optional[int] = None,
                 m2: Optional[int] = None, tau: Optional[str] = None, tol: Optional[float] = None,
                 grid: Optional[int] = None, arithmetic: Optional[str] = None, out: Optional[str] = None):
        self.mode, self.group, self.z_direction, self.m1, self.m2, self.out = mode, group or "", z_direction, m1, m2, out
        self.painted = [] if painted is None else painted
        self.complex_structure = "default" if complex_structure is None else complex_structure
        self.tau = "1" if tau is None else tau
        self.tol = 1e-12 if tol is None else tol
        self.grid = 512 if grid is None else grid
        self.arithmetic = "exact" if arithmetic is None else arithmetic


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
    require_complex_structure(flag, j)
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
        chk = sphere_in_chamber(flag, j)
        out["sphere_in_chamber"] = dict(_sphere_report(chk), binding_root=list(chk.binding_root.coords))
    return out


def _sphere_report(chk: SphereCheck) -> Dict:
    """The fields of a sphere-in-chamber check that flag-info and the diameter search both report."""
    return {
        "ok": chk.ok,
        "min_wall_distance_sq": str(chk.min_distance_sq),
        "min_wall_distance_sq_center": str(chk.min_distance_sq_center),
    }


def _degrees(job: JobSpec) -> tuple:
    if job.m1 is None or job.m2 is None:
        raise InputError("mode %r needs --m1 and --m2" % job.mode)
    return int(job.m1), int(job.m2)


def _run_futaki(job: JobSpec) -> Dict:
    spec, verdict = _verdict(job)
    rep = verdict.futaki
    return {
        "mode": "futaki",
        "config": _echo(job, spec),
        "m1": verdict.m1,
        "m2": verdict.m2,
        "z_unit": _vector_report(verdict.base.z),
        "ricci_invariant": _vector_report(verdict.zk),
        "value": _fmt(rep.value),
        "value_float": float(rep.value),
        "vanishes": rep.vanishes,
        "exact": rep.exact,
        "tolerance": rep.tol,
        "error_bound": rep.error_bound,
    }


def _verdict(job: JobSpec):
    spec, rs, flag, j = _build_context(job)
    m1, m2 = _degrees(job)
    base = _base_from_job(job, flag, j)
    return spec, ke_verdict(base, ricci_invariant(flag, j), m1, m2)


def _segment_report(verdict: KEVerdict) -> Dict:
    seg = verdict.segment
    z1, z2 = verdict.endpoints
    return {
        "ricci_invariant": _vector_report(verdict.zk),
        "declared_degrees": [verdict.m1, verdict.m2],
        "computed_degrees": list(verdict.degrees),
        "degree_mismatch": not verdict.degrees_match,
        "z1": _vector_report(z1),
        "z2": _vector_report(z2),
        "walls_z1": [
            {"root": list(r.coords), "alpha_z1": _fmt(evaluate(r, z1))} for r in seg.w1
        ],
        "walls_z2": [
            {"root": list(r.coords), "alpha_z2": _fmt(evaluate(r, z2))} for r in seg.w2
        ],
        "chamber_ok": seg.chamber_ok,
        "degrees_ok": seg.degrees_ok,
        "projection_ok": seg.projection_ok,
        "overall_ok": verdict.admissible,
        "failures": list(verdict.failures),
    }


def _futaki_report(rep: FutakiReport) -> Dict:
    return {"value": _fmt(rep.value), "vanishes": rep.vanishes, "exact": rep.exact}


def _run_check_segment(job: JobSpec) -> Dict:
    spec, verdict = _verdict(job)
    return {
        "mode": "check-segment",
        "config": _echo(job, spec),
        "z_unit": _vector_report(verdict.base.z),
        "segment": _segment_report(verdict),
        "futaki": _futaki_report(verdict.futaki),
    }


def _solve_pipeline(job: JobSpec):
    from . import einstein as ein

    spec, verdict = _verdict(job)
    base = verdict.base
    out = {
        "config": _echo(job, spec),
        "m1": verdict.m1,
        "m2": verdict.m2,
        "z_unit": _vector_report(base.z),
        "segment": _segment_report(verdict),
        "futaki": _futaki_report(verdict.futaki),
    }
    if not verdict.ok:
        out["verdict"] = "no_kahler_einstein"
        out["reason"] = "segment inadmissible" if not verdict.admissible else "obstruction integral nonzero"
        return spec, base, None, None, out
    sp = ein.SegmentPolynomial.from_base(base, verdict.m1, verdict.m2, verdict=verdict)
    profile = ein.profile_solve(sp, grid_size=job.grid)
    out["verdict"] = "kahler_einstein"
    out["einstein_constant"] = profile.einstein_constant
    out["delta"] = profile.delta
    out["diagnostics"] = {k: float(v) for k, v in profile.diagnostics.items()}
    out["tolerances"] = {name: tol for _, _, name, tol in ein.PROFILE_CHECKS}
    return spec, base, sp, profile, out


def _residual_columns(sp, profile):
    import numpy as np

    from . import einstein as ein

    res_tan = np.full(len(profile.t), np.nan)
    res_norm = np.full(len(profile.t), np.nan)
    state = (profile.f[1:-1], profile.fp[1:-1], profile.fpp[1:-1])
    tangential, normal = ein.ricci_residuals_state(sp, *state)
    res_tan[1:-1] = np.max(np.abs(tangential), axis=-1)
    res_norm[1:-1] = normal - 1.0
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
    from . import einstein as ein

    spec, base, sp, profile, out = _solve_pipeline(job)
    out["mode"] = "solve"
    if profile is not None:
        res = ein.verify_profile(sp, profile, n_check=32)
        out["residual_maxima"] = {k: float(v) for k, v in res.items()}
        if job.out:
            out["files"] = export_profile(profile, sp, job.out, {"residual_maxima": out["residual_maxima"]})
    return out


def _run_verify(job: JobSpec) -> Dict:
    from . import einstein as ein

    spec, base, sp, profile, out = _solve_pipeline(job)
    out["mode"] = "verify"
    if profile is None:
        return out
    res = ein.verify_profile(sp, profile, n_check=64)
    pv = check_parametrization(profile.t, profile.f, profile.delta, float(sp.f_delta))
    values = dict(profile.diagnostics, **res, fpp0_minus_1=abs(pv.fpp0 - 1.0),
                  fpp_delta_plus_1=abs(pv.fpp_delta + 1.0))
    out["checks"] = checks = {name: {"value": float(values[key]), "tol": tol, "pass": bool(values[key] < tol)}
                              for name, key, _, tol in ein.PROFILE_CHECKS}
    out["all_pass"] = all(c["pass"] for c in checks.values())
    out["parametrization"] = {
        "ok": pv.ok,
        "details": list(pv.details),
    }
    return out


def _run_search(job: JobSpec) -> Dict:
    spec, rs, flag, j = _build_context(job)
    if not flag.center_basis:
        raise InputError("search needs a center of dimension >= 1; every simple root of %s is painted" % spec)
    base = make_base(flag, j, flag.center_basis[0], period_scale=_parse_fraction(job.tau))
    if (job.m1, job.m2) not in ((None, None), (1, 1)):  # degrees (1, 1) are the diameters
        from .walled import search_walled

        candidates = search_walled(base, *_degrees(job))
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
                    "futaki": _fmt(c.verdict.futaki.value),
                    "admissible": c.verdict.admissible,
                }
                for c in candidates
            ],
        }
    from .diameters import search_diameters

    result = search_diameters(base)
    return {
        "mode": "search",
        "kind": "diameters",
        "config": _echo(job, spec),
        "sphere_in_chamber": _sphere_report(result.hypothesis),
        "candidates": [
            {
                "z": [_fmt(v) for v in c.z_values],
                "futaki": _fmt(c.verdict.futaki.value),
                "futaki_exact": c.verdict.futaki.exact,
                "confirmed_exact": c.confirmed_exact,
                "admissible": c.verdict.admissible,
                "degrees": list(c.verdict.degrees),
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
MODES = tuple(_HANDLERS)


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
    """One parser for every mode: the mode is a positional choice, and every mode takes the same options."""
    p = argparse.ArgumentParser(
        prog="flagke",
        description="Kahler-Einstein metrics on cohomogeneity-one manifolds from root data",
    )
    p.add_argument("mode", choices=MODES)
    p.add_argument("--job", help="JSON job file; flags override its fields")
    p.add_argument("--group", help="e.g. A2, A1xA1, B3xC2")
    p.add_argument("--painted", help="comma list of 0-based simple-root indices")
    p.add_argument("--jsigns", help="'default' or JSON list of R_m+ root coordinate vectors")
    p.add_argument("--z", help="comma list of rationals (direction in the center), or 'search'")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--tau", help="period scale, rational (default 1)")
    p.add_argument("--tol", type=float,
                   help="tolerance of the test that --z lies in the center, for a float direction (default 1e-12)")
    p.add_argument("--grid", type=int, help="profile grid size (default 512)")
    p.add_argument("--exact", dest="arithmetic", action="store_const", const="exact")
    p.add_argument("--float", dest="arithmetic", action="store_const", const="float")
    p.add_argument("--out", help="profile table output path (solve)")
    return p


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    """JobSpec's defaults, overridden by the job file's fields, then by the flags that are given.

    Every field is passed to JobSpec by name; one that neither source gives is None, its default.  A
    flag-info job given a direction option by either source is bad input: it would go unread.
    """
    data: Dict = {}
    if args.job:
        with open(args.job) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise InputError("job file must hold a JSON object")
        if "mode" in data and data["mode"] != args.mode:
            raise InputError("job file mode %r conflicts with subcommand %r" % (data["mode"], args.mode))
    flags = {name: getattr(args, flag) for name, (flag, _) in _FIELDS.items()}
    if args.painted is not None:
        flags["painted"] = [p for p in args.painted.split(",") if p.strip()]
    if args.jsigns not in (None, "default"):
        flags["complex_structure"] = json.loads(args.jsigns)
    given: Dict = {}
    for source in (data, flags):
        for name, (_, convert) in _FIELDS.items():
            if source.get(name) is not None:
                given[name] = source[name] if convert is None else _convert(name, source[name], convert)
    unread = [option for name, option in _DIRECTION_OPTIONS.items() if name in given]
    if args.mode == "flag-info" and unread:
        raise InputError("flag-info reads no direction options; given: %s" % ", ".join(unread))
    g = given.get
    job = JobSpec(args.mode, group=g("group"), painted=g("painted"), complex_structure=g("complex_structure"),
                  z_direction=g("z_direction"), m1=g("m1"), m2=g("m2"), tau=g("tau"), tol=g("tol"), grid=g("grid"),
                  arithmetic=g("arithmetic"), out=g("out"))
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


# the JobSpec fields of a direction and its segment, which flag-info does not read, with their options
_DIRECTION_OPTIONS = {"z_direction": "--z", "tau": "--tau", "tol": "--tol", "arithmetic": "--float/--exact",
                      "m1": "--m1", "m2": "--m2", "grid": "--grid", "out": "--out"}
# JobSpec field: (its command-line flag, the conversion of its value, or None)
_FIELDS = {
    "group": ("group", _group_name),
    "painted": ("painted", _int_list),
    "complex_structure": ("jsigns", None),
    "z_direction": ("z", None),
    "m1": ("m1", int),
    "m2": ("m2", int),
    "tau": ("tau", str),
    "tol": ("tol", float),
    "grid": ("grid", int),
    "arithmetic": ("arithmetic", None),
    "out": ("out", None),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        code, report = 0, run(_job_from_args(args))
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        code, report = 2, {"error": str(exc)}
    except OSError as exc:
        code, report = 1, {"error": "i/o failure: %s" % exc}
    except FlagkeError as exc:
        code, report = 1, {"error": "internal: %s" % exc}
    try:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed early: no more output, and none at exit ("Note on SIGPIPE", `signal`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
