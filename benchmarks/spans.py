"""In-memory spans and counters for the traced benchmark run.

A span is ``(name, start, end, job, kind)`` with ``perf_counter`` times.
``kind`` is ``"job"`` for the span the harness keeps around one job,
``"call"`` for a public flagke call made inside a job, ``"replay"`` for a
call replayed after a CLI job to split its child process into layers, and
``"setup"`` for a call made during set-up.  Spans are recorded only around
calls the harness itself makes; nothing inside ``flagke`` is instrumented.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Untraced:
    """Stand-in for ``Tracer`` in the timed run: calls straight through."""

    traced = False
    job: Optional[int] = None
    kind = "call"

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Collects spans and counters; written out once, when the run ends."""

    traced = True

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self.job: Optional[int] = None
        self.kind = "call"

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, start, time.perf_counter(), self.job, self.kind))
        return out

    def add_job(self, job: int, start: float, end: float) -> None:
        self.spans.append(("job", start, end, job, "job"))

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans: List[tuple]) -> Dict[str, object]:
    """Per-job self time of every layer, summed over the traced jobs.

    Inside a job the harness makes calls one after another, so a call span's
    self time is its duration and the harness's own time is the job span
    minus its call spans.  A ``cli.process`` span (a CLI child process) is
    split from outside by the job's replay spans: ``proc.spawn`` (a bare
    interpreter child), ``import.child`` (an ``import flagke`` child, of
    which ``import.busy`` is the part beyond ``proc.spawn``) and the replayed
    library calls; the rest of the child's time is ``cli.busy``.
    """
    jobs: Dict[int, float] = {}
    calls: Dict[int, List[tuple]] = defaultdict(list)
    replays: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, job, kind in spans:
        if kind == "job":
            jobs[job] = end - start
        elif kind == "call":
            calls[job].append((name, end - start))
        elif kind == "replay":
            replays[job][name] += end - start
    layers: Dict[str, float] = defaultdict(float)
    for job, total in jobs.items():
        inside = 0.0
        for name, dur in calls[job]:
            inside += dur
            if name != "cli.process":
                layers[name] += dur
                continue
            parts = dict(replays[job])  # empty when the job failed and was not replayed
            child_import = parts.pop("import.child", 0.0)
            parts["import.busy"] = child_import - parts.get("proc.spawn", 0.0)
            for pname, pdur in parts.items():
                layers[pname] += pdur
            layers["cli.busy"] += dur - sum(parts.values())
        layers["harness.self"] += total - inside
    return {"jobs": len(jobs), "job_total": sum(jobs.values()), "layers": dict(layers)}


def mean_or_zero(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0
