#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline rows and summarise benchmark runs.

    python3 benchmarks/baseline.py --out benchmarks/results/BENCH_baseline.json

Each row times one public flagke call (or one CLI child) several times and
keeps the median and quartiles.  The per-workload summary reads the results
that ``benchmarks/run.py`` left in ``.bench_out/`` and gives, for every
workload and metric, the median and quartiles over the seeds found there.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import run

REPEATS = 5


def timed(fn, repeats: int = REPEATS) -> dict:
    xs = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        xs.append(time.perf_counter() - start)
    q = statistics.quantiles(xs, n=4)
    return {"median_s": statistics.median(xs), "q1_s": q[0], "q3_s": q[2], "repeats": repeats}


def rows() -> dict:
    sys.path.insert(0, str(run.SRC))
    from flagke import (CartanVector, LieAlgebraSpec, SegmentPolynomial, build_flag, build_root_system,
                        build_segment_polynomial, default_complex_structure, futaki, make_base, profile_solve,
                        search_diameters, sphere_in_chamber, u_eval, verify_profile)

    def cold_build(group):
        def fn():
            build_root_system.cache_clear()
            build_root_system(LieAlgebraSpec.parse(group))
        return fn

    def flag_of(group, painted):
        flag = build_flag(build_root_system(LieAlgebraSpec.parse(group)), painted)
        return flag, default_complex_structure(flag)

    def base_of(group, painted, z=None):
        flag, j = flag_of(group, painted)
        direction = flag.center_basis[0] if z is None else CartanVector(tuple(Fraction(v) for v in z))
        return make_base(flag, j, direction)

    env = dict(os.environ, PYTHONPATH=str(run.SRC))

    def child(*args):
        return lambda: subprocess.run([sys.executable] + list(args), check=True, capture_output=True,
                                      env=env, cwd=str(run.ROOT))

    diameter = base_of("A2xA2", [1, 3], [1, 0, -1, 0])
    sp = build_segment_polynomial(diameter, 1, 1)
    prof512 = profile_solve(sp, grid_size=512)
    e8_flag, e8_j = flag_of("E8", [])
    e8_base = base_of("E8", list(range(7)))
    d2_base = base_of("A2xA2", [1, 3])
    d3_base = base_of("A1xA1xA1", [])
    skew = SegmentPolynomial.from_base(base_of("A2xA2", [1, 3], [2, 0, -1, 0]), 1, 1, validate_degrees=False)
    cli = ["-m", "flagke.cli"]
    out = {
        "build_root_system E8 (uncached)": timed(cold_build("E8"), 3),
        "build_root_system B8 (uncached)": timed(cold_build("B8"), 3),
        "sphere_in_chamber E8 full flag": timed(lambda: sphere_in_chamber(e8_flag, e8_j), 3),
        "import flagke (child process)": timed(child("-c", "import flagke")),
        "bare interpreter (child process)": timed(child("-c", "pass")),
        "CLI roots --group A2": timed(child(*cli, "roots", "--group=A2")),
        "CLI solve A2xA2 diameter": timed(child(*cli, "solve", "--group=A2xA2", "--painted=1,3",
                                                "--z=1,0,-1,0", "--m1=1", "--m2=1")),
        "CLI verify A2xA2 diameter": timed(child(*cli, "verify", "--group=A2xA2", "--painted=1,3",
                                                 "--z=1,0,-1,0", "--m1=1", "--m2=1")),
        "profile_solve A2xA2, 512 points": timed(lambda: profile_solve(sp, grid_size=512)),
        "profile_solve A2xA2, 4096 points": timed(lambda: profile_solve(sp, grid_size=4096), 3),
        "verify_profile A2xA2, 64 checks": timed(lambda: verify_profile(sp, prof512, n_check=64)),
        "search_diameters d=2 (A2xA2 [1,3])": timed(lambda: search_diameters(d2_base)),
        "search_diameters d=3 (A1xA1xA1 full flag)": timed(lambda: search_diameters(d3_base), 3),
        "futaki E8 painted 0-6 (exact)": timed(lambda: futaki(e8_base.flag, e8_base.j, e8_base.z, 1, 1)),
        "segment polynomial E8 painted 0-6 (exact)": timed(
            lambda: SegmentPolynomial.from_base(e8_base, 1, 1, validate_degrees=False)),
        "u_eval per call, Einstein segment": timed(lambda: [u_eval(sp, 0.5) for _ in range(100)]),
        "u_eval per call, non-Einstein segment": timed(lambda: [u_eval(skew, 0.5) for _ in range(100)]),
    }
    for key in ("u_eval per call, Einstein segment", "u_eval per call, non-Einstein segment"):
        out[key] = {k: (v / 100 if k.endswith("_s") else v) for k, v in out[key].items()}
    return out


def workloads() -> dict:
    out = {}
    for path in sorted(glob.glob(str(run.OUT / "*-trace0.json"))):
        with open(path) as fh:
            res = json.load(fh)
        name = os.path.basename(path).split("-seed")[0]
        for metric, m in res["metrics"].items():
            out.setdefault(name, {}).setdefault(metric, []).append(m["value"])
        out[name].setdefault("failed", []).append(res["failed"])
    summary = {}
    for name, metrics in out.items():
        summary[name] = {"runs": len(metrics["failed"]), "failed_jobs": sum(metrics.pop("failed"))}
        for metric, xs in metrics.items():
            q = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            summary[name][metric] = {"median": med, "q1": q[0], "q3": q[2], "iqr_over_median": (q[2] - q[0]) / med}
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    result = {"metadata": run.metadata(), "rows": rows(), "workloads": workloads()}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result["rows"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
