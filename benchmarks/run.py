#!/usr/bin/env python3
"""flagke benchmark: one workload, one seed, a fixed measuring window.

    python3 benchmarks/run.py --workload {cli-cold,decide,construct} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; flagke is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs every job twice, untraced and traced, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.  Each run also
writes its result, run metadata and (traced) spans to ``.bench_out/``.
See ``benchmarks/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, Untraced, mean_or_zero, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli-cold", "decide", "construct")
SETUP_REPEATS = 2  # set-ups per untraced run (this process, then a fresh child); setup_s is their median
# Speed probe: a fixed pure-Python loop timed next to every job and set-up.
# Timings are reported in seconds at REF_PROBE_S, i.e. scaled by
# REF_PROBE_S / (the local median probe time), so that the machine's own
# speed swings (shared hosts drift by tens of percent over seconds) cancel.
PROBE_LOOP = 20000
REF_PROBE_S = 1e-3
PROBE_WINDOW = 2  # a job's probes plus those of the PROBE_WINDOW jobs on each side
SETUP_PROBES = 5  # probes before and after each set-up
# The first job after set-up runs measurably slower (a fresh CLI child by
# 5-40%), so this many jobs run untimed before the window opens.
WARM_UP_JOBS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# Layers that run inside a job, in report order: their per-job self times
# plus harness.self_s add up to trace.job_mean_s.
JOB_LAYERS = [
    "proc.spawn", "import.busy", "rootsys.build", "flag.busy",
    "model.make_base", "model.analyze_segment", "model.check_parametrization",
    "einstein.futaki", "einstein.segment", "einstein.profile", "einstein.verify",
    "einstein.sphere", "einstein.search_diameters", "einstein.search_walled",
    "cli.busy", "harness.self",
]
# Counters: the mean over the calls that recorded them (shares are means of 0/1).
COUNTERS = [
    ("rootsys.roots", "count"),
    ("einstein.futaki.roots", "count"),
    ("einstein.futaki.modules", "count"),
    ("einstein.futaki.quad_share", "ratio"),
    ("einstein.futaki.vanish_share", "ratio"),
    ("einstein.segment.degree", "count"),
    ("einstein.profile.points", "count"),
    ("einstein.verify.checks", "count"),
    ("einstein.search.directions", "count"),
    ("einstein.search.candidates", "count"),
    ("einstein.search.exact_ratio", "ratio"),
    ("einstein.search_walled.pairs", "count"),
    ("einstein.search_walled.hit_ratio", "ratio"),
]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up


def setup(name: str, seed: int, tr):
    """Import flagke, build the workload's inputs; returns (workload, seconds, import seconds)."""
    start = time.perf_counter()
    import flagke

    import_s = time.perf_counter() - start
    if Path(flagke.__file__).resolve().parent != SRC / "flagke":
        raise SystemExit("flagke was imported from %s, not from %s" % (flagke.__file__, SRC))
    import workloads

    wl = workloads.make(name, seed, tr)
    wl.round(0)
    return wl, time.perf_counter() - start, import_s


def probed_setup(name: str, seed: int, tr) -> tuple:
    """``setup`` between two sets of speed probes: (workload, seconds, import seconds, probe)."""
    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    wl, setup_s, import_s = setup(name, seed, tr)
    probes += [speed_probe() for _ in range(SETUP_PROBES)]
    return wl, setup_s, import_s, statistics.median(probes)


def setup_in_child(name: str, seed: int) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=120)
    if proc.returncode != 0:
        raise SystemExit("set-up child failed:\n" + proc.stderr[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["probe_s"]


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """Job times of one run; ``traced`` holds the traced twin of each job.

    ``probes[i]`` are the speed probes taken just before and just after
    ``times[i]``.
    """

    def __init__(self) -> None:
        self.times = []
        self.probes = []
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems = []


UNTRACED = Untraced()


def run_job(wl, job, tr, job_id: int):
    """One timed job, then its check (and, traced, its replay) outside the window."""
    tr.job, tr.kind = job_id, "call"
    t0 = time.perf_counter()
    try:
        out = wl.execute(job, tr)
        err = None
    except Exception:  # the loop must go on; the job counts as failed
        err = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    if tr.traced:
        tr.add_job(job_id, t0, t1)
    try:
        problems = [err] if err else wl.check(job, out, tr)
        if tr.traced and not err and hasattr(wl, "replay"):
            tr.kind = "replay"
            wl.replay(job, tr)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    return t1 - t0, problems


def measure(wl, seconds: float, tracer=None) -> Pass:
    """Run whole rounds, one job at a time, until the window is closest to full.

    The first WARM_UP_JOBS jobs of round 0 run once, untimed, before the
    window opens.  A further round starts only while the elapsed time plus
    half a mean round stays within ``seconds``; at least ``wl.min_rounds``
    rounds run (one when traced).  With a tracer every job runs twice,
    untraced and traced, the order alternating from job to job, so the two
    sets of times match job for job.
    """
    res = Pass()
    min_rounds = wl.min_rounds if tracer is None else 1  # the traced run reports no tail
    for job in wl.round(0)[:WARM_UP_JOBS]:
        run_job(wl, job, UNTRACED, -1)
    start = time.perf_counter()
    round_times = []
    job_id = 0
    while True:
        round_start = time.perf_counter()
        for job in wl.round(res.rounds):
            twins = [UNTRACED] if tracer is None else [UNTRACED, tracer][:: 1 if job_id % 2 else -1]
            for tr in twins:
                before = speed_probe()
                dt, problems = run_job(wl, job, tr, job_id)
                if tr.traced:
                    res.traced.append(dt)
                else:
                    res.times.append(dt)
                    res.probes.append((before, speed_probe()))
                res.attempted += 1
                if problems:
                    res.failed += 1
                    if len(res.problems) < 5:
                        res.problems.append({"job": job, "problems": problems})
            job_id += 1
        res.rounds += 1
        round_times.append(time.perf_counter() - round_start)
        if res.rounds >= min_rounds and time.perf_counter() - start + statistics.fmean(round_times) / 2 > seconds:
            return res


def speed_probe() -> float:
    """Seconds for PROBE_LOOP additions: the machine's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - start


def at_reference_speed(p: Pass) -> list:
    """Job times scaled by REF_PROBE_S over the median of the nearby probes."""
    out = []
    for i, t in enumerate(p.times):
        near = p.probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(t * REF_PROBE_S / statistics.median(x for pair in near for x in pair))
    return out


def percentile(values, pct: float):
    """Harrell-Davis estimate of a percentile, and how many samples lie beyond it.

    The estimate is a Beta-weighted mean of all order statistics, so it
    moves smoothly with the job times instead of jumping between the
    clusters of a lumpy job mix as a single order statistic does.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    p = pct / 100.0
    cdf = [betainc(p * (n + 1), (1 - p) * (n + 1), i / n) for i in range(n + 1)]
    q = sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))
    return float(q), sum(1 for x in xs if x > q)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, p: Pass, setups: list, peak_rss: float) -> tuple:
    times = at_reference_speed(p)
    tail, beyond = percentile(times, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(t * REF_PROBE_S / probe for t, probe in setups),
        "job_p50_s": percentile(times, 50)[0],
        "job_tail_s": tail,
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "job_tail_s": "p%d, %d of %d jobs beyond it" % (wl.tail_pct, beyond, len(times)),
        "failed_frac": "%s ratio (%d of %d jobs)" % (p.failed / p.attempted, p.failed, p.attempted),
        "probe_median_s": statistics.median(x for pair in p.probes for x in pair),
        "as measured": "setup %.4g s, p50 %.4g s, tail %.4g s, %.4g jobs/s" % (
            statistics.median(t for t, _ in setups), percentile(p.times, 50)[0],
            percentile(p.times, wl.tail_pct)[0], len(p.times) / sum(p.times)),
    }
    notes["job_times_s"] = times
    notes["job_times_as_measured_s"] = p.times
    notes["probes_s"] = p.probes
    return metrics, notes


def per_layer(name: str, tracer: Tracer, p: Pass, import_s: float) -> tuple:
    st = self_times(tracer.spans)
    n = st["jobs"]
    layers = st["layers"]
    metrics = {"%s_s" % layer: layers.get(layer, 0.0) / n for layer in JOB_LAYERS}
    if name != "cli-cold":
        # rootsys runs only in set-up here: seconds per build, outside the job sum
        builds = [end - start for _, start, end, _, kind in tracer.spans if kind == "setup"]
        metrics["rootsys.build_s"] = mean_or_zero(builds)
        metrics["import.busy_s"] = import_s
    metrics["rootsys.builds"] = len(tracer.counts.get("rootsys.roots", []))
    for cname, _ in COUNTERS:
        metrics[cname] = mean_or_zero(tracer.counts.get(cname, []))
    metrics["trace.job_mean_s"] = st["job_total"] / n
    metrics["trace.overhead_frac"] = sum(p.traced) / sum(p.times) - 1.0
    in_jobs = [layer for layer in JOB_LAYERS if not (name != "cli-cold" and layer in ("rootsys.build", "import.busy"))]
    gap = sum(metrics["%s_s" % layer] for layer in in_jobs) - metrics["trace.job_mean_s"]
    notes = {"layer_sum_minus_job_mean_s": gap, "jobs": n, "rounds": p.rounds}
    return metrics, notes


def per_layer_units() -> list:
    units = [("%s_s" % layer, "s") for layer in JOB_LAYERS]
    units.insert(units.index(("rootsys.build_s", "s")) + 1, ("rootsys.builds", "count"))
    return units + COUNTERS + [("trace.job_mean_s", "s"), ("trace.overhead_frac", "ratio")]


# ---------------------------------------------------------------------------
# metadata and output


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "processor": platform.processor(),
    }


def report(args, metrics: dict, units: list, notes: dict, attempted: int, failed: int, extra: dict) -> None:
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for name, unit in units:
        print("  %-34s %.6g %s" % (name, metrics[name], unit))
    for key, value in notes.items():
        if not isinstance(value, list):
            print("  %-34s %s" % (key, value))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(dict(result, notes=notes, **extra), fh, indent=1, default=str)
    print("metadata", json.dumps(extra["metadata"], sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "flagke" / "__init__.py").is_file():
        print("error: %s holds no flagke package; run from a flagke checkout" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one BLAS/OpenMP thread: a run never uses more than nproc
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        _, setup_s, _, probe = probed_setup(args.workload, args.seed, Untraced())
        print(json.dumps({"setup_s": setup_s, "probe_s": probe}))
        return 0

    tracer = Tracer() if args.trace else None
    setup_tr = tracer or Untraced()
    setup_tr.kind = "setup"
    wl, setup_s, import_s, probe = probed_setup(args.workload, args.seed, setup_tr)
    p = measure(wl, args.seconds, tracer)
    extra = {"metadata": metadata(), "rounds": p.rounds, "problems": p.problems}
    if tracer is None:
        # read before the set-up children run: for cli-cold it is the peak over the CLI children
        peak = peak_rss_mb(args.workload)
        setups = [(setup_s, probe)]
        setups += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        extra["setups_and_probes_s"] = setups
        metrics, notes = end_to_end(wl, p, setups, peak)
        report(args, metrics, END_TO_END, notes, p.attempted, p.failed, extra)
    else:
        metrics, notes = per_layer(args.workload, tracer, p, import_s)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed)))
        report(args, metrics, per_layer_units(), notes, p.attempted, p.failed, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
