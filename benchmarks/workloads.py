"""The three benchmark workloads: seeded inputs, timed jobs and their checks.

Every workload runs closed loop with one client and one job in flight.  Jobs
come in rounds: a round holds the same kinds of job in the same numbers on
every seed, and the seed picks the concrete inputs and their order.  A run
measures whole rounds, so seeds differ in their inputs but not in their mix.

Each workload provides

* ``round(r)``: the jobs of round ``r``, a pure function of the seed and ``r``;
* ``execute(job, tr)``: the timed job, made only of public flagke calls, each
  wrapped in ``tr.call`` so the traced run gets one span per call;
* ``check(job, out, tr)``: the correctness check, run outside the timed
  window; in the traced run it also records the input properties;
* ``replay(job, tr)`` (cli-cold only): the job's library calls made again in
  this process, so the traced run can split a CLI child into layers.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import flagke.cli  # noqa: F401  (compiles the CLI's bytecode in set-up, not in the first timed job)
from flagke.einstein import (
    build_segment_polynomial,
    futaki,
    futaki_shifted,
    ke_endpoints,
    profile_solve,
    search_diameters,
    search_walled,
    sphere_in_chamber,
    verify_profile,
)
from flagke.flag import build_flag, chamber_position, default_complex_structure, ricci_invariant
from flagke.model import analyze_segment, check_parametrization, make_base
from flagke.rootsys import CartanVector, LieAlgebraSpec, build_root_system, classical_root_count, evaluate
from flagke.scalars import format_scalar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tolerances of the CLI's `verify` report, check by check.
VERIFY_TOL = {
    "f_delta_error": 1e-8,
    "fpp0": 1e-4,
    "fpp_delta": 1e-4,
    "max_ode_residual": 1e-8,
    "max_tangential_residual": 1e-6,
    "max_normal_residual": 1e-6,
    "normal_two_route_gap": 1e-6,
    "delta_ode_gap": 1e-6,
    "roundtrip_error": 1e-8,
}
SEARCH_N_GRID = 720  # search_diameters' default scan resolution


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, r))


def _spec(group: str):
    return LieAlgebraSpec.parse(group)


def prebuild(groups: List[str], tr) -> Dict[str, object]:
    """Build every root system a workload needs, once, during set-up."""
    out = {}
    for g in groups:
        rs = tr.call("rootsys.build", lambda g=g: build_root_system(_spec(g)))
        tr.count("rootsys.roots", len(rs.roots))
        out[g] = rs
    return out


def _center_direction(rng: random.Random, rank: int, unpainted: List[int]) -> List[int]:
    """A nonzero integer direction in the center: zero on every painted node."""
    while True:
        z = [0] * rank
        for k in unpainted:
            z[k] = rng.randint(-2, 2)
        if any(z):
            return z


def _random_painting(rng: random.Random, rank: int, n_unpainted: int):
    """(painted, unpainted) node lists with ``n_unpainted`` nodes left unpainted."""
    unpainted = sorted(rng.sample(range(rank), min(n_unpainted, rank)))
    return [k for k in range(rank) if k not in unpainted], unpainted


def _antisymmetric(g: str, node: int, sign: int = 1) -> dict:
    """G x G with one unpainted node per factor and z = c (+) -c: the obstruction is odd, so it vanishes."""
    n = _spec(g).rank
    z = [0] * (2 * n)
    z[node], z[n + node] = sign, -sign
    painted = [k for k in range(2 * n) if k not in (node, n + node)]
    return {"group": "%sx%s" % (g, g), "painted": painted, "z": z, "m1": 1, "m2": 1, "antisymmetric": True}


def _futaki_counts(tr, j, zk, base, rep) -> None:
    tr.count("einstein.futaki.roots", len(j.positive))
    tr.count("einstein.futaki.modules", len({(evaluate(a, zk), evaluate(a, base.z)) for a in j.positive}))
    tr.count("einstein.futaki.quad_share", base.z.kind == "quadratic")
    tr.count("einstein.futaki.vanish_share", rep.vanishes)


def _segment_and_deflations(base, m1: int, m2: int):
    sp = build_segment_polynomial(base, m1, m2)
    sp.deflations  # the profile needs both end deflations; build them here
    return sp


def _profile_problems(prof, res: Dict[str, float]) -> List[str]:
    values = dict(res)
    d = prof.diagnostics
    values["f_delta_error"] = d["f_delta_error"]
    values["fpp0"] = abs(d["fpp0"] - 1.0)
    values["fpp_delta"] = abs(d["fpp_delta"] + 1.0)
    values["max_ode_residual"] = d["max_ode_residual"]
    return ["%s = %.3e >= %g" % (k, values[k], tol) for k, tol in VERIFY_TOL.items() if not values[k] < tol]


def _search_directions(d: int) -> int:
    """Obstruction evaluations of a diameter scan, from n_grid and d."""
    if d == 1:
        return 2
    if d == 2:
        return SEARCH_N_GRID
    return max(8, SEARCH_N_GRID // 24) * SEARCH_N_GRID


def _search_counts(tr, d: int, res) -> None:
    tr.count("einstein.search.directions", _search_directions(d))
    tr.count("einstein.search.candidates", len(res.candidates))
    for c in res.candidates:
        tr.count("einstein.search.exact_ratio", c.confirmed_exact)


# ---------------------------------------------------------------------------
# decide: exact existence decisions, in process


class Decide:
    """Existence queries through the calls the `check-segment` handler makes.

    One random query per group of ``GROUPS`` plus one antisymmetric G x G
    diameter per ``ANTISYMMETRIC`` factor in every round: a quarter of the
    queries take the "obstruction vanishes" path.
    """

    name = "decide"
    tail_pct = 90
    min_rounds = 1
    GROUPS = ["A2", "A4", "A6", "A8", "B3", "B5", "C4", "C6", "D4", "D6",
              "G2", "F4", "E6", "E7", "E8", "A1xA1", "A2xA2", "B2xG2"]
    ANTISYMMETRIC = ["A2", "A5", "B3", "D4", "G2", "F4"]
    UNPAINTED = (1, 2, 3)
    BAND = 0.05

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed
        groups = self.GROUPS + ["%sx%s" % (g, g) for g in self.ANTISYMMETRIC]
        self.rs = prebuild(groups, tr)
        self.unpainted = {
            g: self._band(self.rs[g], [u for k in self.UNPAINTED for u in itertools.combinations(range(rank), k)])
            for g, rank in ((g, self.rs[g].rank) for g in self.GROUPS)
        }
        self.antisymmetric_nodes = {
            g: [u[0] for u in self._band(self.rs["%sx%s" % (g, g)], [(k,) for k in range(_spec(g).rank)])]
            for g in self.ANTISYMMETRIC
        }

    def _band(self, rs, sets: List[tuple]) -> List[tuple]:
        """The unpainted node sets whose |R_m+| lies within BAND of their (lower) median.

        Query cost grows with |R_m+|, so drawing each group's painting from
        this band keeps a round's cost nearly the same from seed to seed.
        """
        size = {u: sum(1 for a in rs.positive_roots if any(a.coords[i] for i in u)) for u in sets}
        target = statistics.median_low(size.values())
        return [u for u in sets if abs(size[u] - target) <= self.BAND * target]

    def round(self, r: int) -> List[dict]:
        rng = _rng(self.name, self.seed, r)
        jobs = []
        for g in self.GROUPS:
            rank = self.rs[g].rank
            unpainted = list(rng.choice(self.unpainted[g]))
            painted = [k for k in range(rank) if k not in unpainted]
            jobs.append({"group": g, "painted": painted, "z": _center_direction(rng, rank, unpainted),
                         "m1": rng.choice((1, 2)), "m2": rng.choice((1, 2)), "antisymmetric": False})
        jobs += [_antisymmetric(g, rng.choice(self.antisymmetric_nodes[g]), rng.choice((1, -1)))
                 for g in self.ANTISYMMETRIC]
        rng.shuffle(jobs)
        return jobs

    def execute(self, job: dict, tr):
        m1, m2 = job["m1"], job["m2"]
        flag = tr.call("flag.busy", build_flag, self.rs[job["group"]], job["painted"])
        j = tr.call("flag.busy", default_complex_structure, flag)
        base = tr.call("model.make_base", make_base, flag, j, CartanVector(tuple(Fraction(v) for v in job["z"])))
        rep = tr.call("einstein.futaki", futaki, flag, j, base.z, m1, m2)
        zk = tr.call("flag.busy", ricci_invariant, flag, j)
        z1, _ = tr.call("einstein.segment", ke_endpoints, zk, base.z, m1, m2)
        seg = tr.call("model.analyze_segment", analyze_segment, base, z1, Fraction(m1 + m2))
        return {"j": j, "zk": zk, "base": base, "futaki": rep, "segment": seg}

    def check(self, job: dict, out, tr) -> List[str]:
        rep, base = out["futaki"], out["base"]
        problems = []
        oracle = futaki_shifted(base, job["m1"], job["m2"])
        if not rep.exact or rep.value != oracle:
            problems.append("obstruction %s != futaki_shifted %s" % (rep.value, oracle))
        if rep.vanishes != (oracle == 0):
            problems.append("vanishes=%s but the obstruction is %s" % (rep.vanishes, oracle))
        if job["antisymmetric"] and not rep.vanishes:
            problems.append("antisymmetric diameter does not vanish")
        if tr.traced:
            _futaki_counts(tr, out["j"], out["zk"], base, rep)
        return problems


# ---------------------------------------------------------------------------
# construct: searches, profile solves and verification, in process


class Construct:
    """Diameter searches (d = 2 exact, d = 3 float) and Einstein profiles.

    Every round runs both searches, then solves and verifies the exact d = 2
    winner, two seeded d = 3 winners and one seeded antisymmetric G x G
    Einstein configuration from each |R_m+| band of ``GXG``.
    """

    name = "construct"
    tail_pct = 65
    min_rounds = 3  # a round has 11 jobs; the p65 tail needs ten jobs beyond it
    GRID = 1024
    N_CHECK = 64
    SEARCHES = {"d2": ("A2xA2", [1, 3]), "d3": ("A2xA2xA2", [1, 3, 5])}
    D3_WINNERS = 2
    # (G, unpainted node) of G x G, banded by |R_m+| so a round's cost barely
    # depends on the seed: 4-8, 10-12, 14-18, 20-26, 30-40 and 42-58
    GXG = [
        [("A2", 0), ("A3", 0), ("A3", 1), ("B2", 0), ("B2", 1), ("A4", 0)],
        [("G2", 0), ("G2", 1), ("B3", 0), ("C3", 0), ("A4", 1), ("B3", 2), ("C3", 2), ("D4", 0)],
        [("B3", 1), ("C3", 1), ("B4", 0), ("C4", 0), ("A5", 1), ("D5", 0), ("A5", 2), ("D4", 1)],
        [("A6", 1), ("B4", 3), ("C4", 3), ("D5", 3), ("B4", 1), ("C4", 1), ("A6", 2), ("D5", 1)],
        [("D5", 2), ("F4", 0), ("F4", 3), ("E6", 0), ("F4", 1), ("F4", 2)],
        [("E6", 1), ("E6", 2), ("E6", 4), ("E6", 3)],
    ]

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed
        groups = [g for g, _ in self.SEARCHES.values()]
        groups += sorted({"%sx%s" % (g, g) for band in self.GXG for g, _ in band})
        self.rs = prebuild(groups, tr)
        self.winners: Dict[str, list] = {}

    def round(self, r: int) -> List[dict]:
        rng = _rng(self.name, self.seed, r)
        solves = [{"kind": "winner", "search": "d2", "pick": 0}]
        solves += [{"kind": "winner", "search": "d3", "pick": rng.random()} for _ in range(self.D3_WINNERS)]
        solves += [dict(_antisymmetric(*rng.choice(band)), kind="gxg") for band in self.GXG]
        rng.shuffle(solves)
        return [{"kind": "search", "search": "d2"}, {"kind": "search", "search": "d3"}] + solves

    def _flag(self, group: str, painted: List[int], tr):
        flag = tr.call("flag.busy", build_flag, self.rs[group], painted)
        return flag, tr.call("flag.busy", default_complex_structure, flag)

    def execute(self, job: dict, tr):
        if job["kind"] == "search":
            group, painted = self.SEARCHES[job["search"]]
            flag, j = self._flag(group, painted, tr)
            base = tr.call("model.make_base", make_base, flag, j, flag.center_basis[0])
            res = tr.call("einstein.search_diameters", search_diameters, base)
            self.winners[job["search"]] = [c for c in res.candidates if c.ke_ok]
            return {"search": res, "d": flag.center_dim}
        if job["kind"] == "winner":
            group, painted = self.SEARCHES[job["search"]]
            winners = self.winners[job["search"]]
            z = winners[int(job["pick"] * len(winners))].z_values
        else:
            group, painted, z = job["group"], job["painted"], [Fraction(v) for v in job["z"]]
        flag, j = self._flag(group, painted, tr)
        base = tr.call("model.make_base", make_base, flag, j, CartanVector(tuple(z)))
        sp = tr.call("einstein.segment", _segment_and_deflations, base, 1, 1)
        prof = tr.call("einstein.profile", profile_solve, sp, grid_size=self.GRID)
        res = tr.call("einstein.verify", verify_profile, sp, prof, n_check=self.N_CHECK)
        return {"sp": sp, "profile": prof, "verify": res}

    def check(self, job: dict, out, tr) -> List[str]:
        if job["kind"] == "search":
            res = out["search"]
            problems = [] if res.candidates else ["search found no candidate"]
            problems += ["searched winner %s is not ke_ok" % (c.z_values,) for c in res.candidates if not c.ke_ok]
            if job["search"] == "d2" and not any(c.confirmed_exact for c in res.candidates):
                problems.append("d = 2 search has no exact winner")
            if tr.traced:
                _search_counts(tr, out["d"], res)
            return problems
        if tr.traced:
            tr.count("einstein.segment.degree", len(out["sp"].coeffs) - 1)
            tr.count("einstein.profile.points", len(out["profile"].t))
            tr.count("einstein.verify.checks", self.N_CHECK)
        return _profile_problems(out["profile"], out["verify"])


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m flagke.cli` process per job


A2XA2_DIAMETER = {"group": "A2xA2", "painted": "1,3", "z": "1,0,-1,0", "m1": 1, "m2": 1}


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class CliCold:
    """Command-line jobs, each paying interpreter start, import and a cold build.

    Every round has one `roots` or `flag-info` job on each of E8, E7, B8, C8
    and D8 and on five light groups of rank 2 to 5, a `futaki` and a
    `check-segment` job on small groups, and the fixed `solve`, `verify`,
    diameter `search` and walled `search` jobs.
    """

    name = "cli-cold"
    tail_pct = 60
    min_rounds = 2  # a round has 16 jobs; the p60 tail needs ten jobs beyond it
    # Nine of the sixteen jobs are import-bound, so the median falls inside
    # that cluster rather than on its edge.
    N_LIGHT = 5
    HEAVY = ["E8", "E7", "B8", "C8", "D8"]
    LIGHT = ["A3", "A4", "A5", "B3", "B4", "C3", "C5", "D4", "D5", "G2", "F4", "A2xA2", "B2xG2"]
    SMALL = ["A2", "A3", "B2", "G2", "A1xA1", "A2xA2", "A1xA1xA1"]
    FIXED = [
        ("solve", A2XA2_DIAMETER),
        ("verify", A2XA2_DIAMETER),
        ("search", {"group": "A2xA2", "painted": "1,3"}),
        ("search", {"group": "A2", "painted": "1", "m1": 3, "m2": 1, "tau": "1/3"}),
    ]

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _structure_job(self, rng: random.Random, group: str) -> dict:
        if rng.random() < 0.5:
            return {"mode": "roots", "opts": {"group": group}}
        painted, _ = _random_painting(rng, _spec(group).rank, rng.randint(1, _spec(group).rank))
        return {"mode": "flag-info", "opts": {"group": group, "painted": _csv(painted)}}

    def _small_job(self, rng: random.Random, mode: str) -> dict:
        group = rng.choice(self.SMALL)
        rank = _spec(group).rank
        painted, unpainted = _random_painting(rng, rank, rng.randint(1, rank))
        z = _center_direction(rng, rank, unpainted)
        opts = {"group": group, "painted": _csv(painted), "z": _csv(z),
                "m1": rng.choice((1, 2)), "m2": rng.choice((1, 2))}
        return {"mode": mode, "opts": opts}

    def round(self, r: int) -> List[dict]:
        rng = _rng(self.name, self.seed, r)
        jobs = [self._structure_job(rng, g) for g in self.HEAVY]
        jobs += [self._structure_job(rng, g) for g in rng.sample(self.LIGHT, self.N_LIGHT)]
        jobs += [self._small_job(rng, "futaki"), self._small_job(rng, "check-segment")]
        jobs += [{"mode": mode, "opts": dict(opts)} for mode, opts in self.FIXED]
        rng.shuffle(jobs)
        return jobs

    def _child(self, args: List[str]):
        return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                              env=self.env, cwd=str(ROOT), timeout=120)

    def execute(self, job: dict, tr):
        argv = [job["mode"]] + ["--%s=%s" % kv for kv in job["opts"].items()]
        return tr.call("cli.process", self._child, ["-m", "flagke.cli"] + argv)

    def check(self, job: dict, proc, tr) -> List[str]:
        if proc.returncode != 0:
            return ["exit code %d: %s" % (proc.returncode, (proc.stderr or proc.stdout)[-300:])]
        try:
            rep = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return ["report is not JSON: %s" % exc]
        try:
            return _cli_expectations(job["mode"], job["opts"], rep)
        except (KeyError, TypeError, IndexError) as exc:
            return ["report lacks an expected field: %r" % (exc,)]

    def replay(self, job: dict, tr) -> None:
        """Split the job's child process from outside, as spans of kind "replay".

        A bare interpreter child (``proc.spawn``) and an ``import flagke``
        child (``import.child``) are timed right after the job, then the
        job's library calls are made again in this process, starting from an
        uncached root-system build.
        """
        tr.call("proc.spawn", self._child, ["-c", "pass"])
        tr.call("import.child", self._child, ["-c", "import flagke"])
        mode, opts = job["mode"], job["opts"]
        build_root_system.cache_clear()
        rs = tr.call("rootsys.build", lambda: build_root_system(_spec(opts["group"])))
        tr.count("rootsys.roots", len(rs.roots))
        if mode == "roots":
            return
        flag = tr.call("flag.busy", build_flag, rs, _ints(opts["painted"]))
        j = tr.call("flag.busy", default_complex_structure, flag)
        if mode == "flag-info":
            zk = tr.call("flag.busy", ricci_invariant, flag, j)
            tr.call("flag.busy", chamber_position, flag, j, zk)
            if j.positive:
                tr.call("einstein.sphere", sphere_in_chamber, flag, j)
            return
        if mode == "search":
            tau = Fraction(opts.get("tau", "1"))
            base = tr.call("model.make_base", make_base, flag, j, flag.center_basis[0], period_scale=tau)
            if "m1" in opts:
                m1, m2 = opts["m1"], opts["m2"]
                cands = tr.call("einstein.search_walled", search_walled, base, m1, m2)
                pairs = math.comb(len(j.positive), m1 - 1) * math.comb(len(j.positive), m2 - 1)
                tr.count("einstein.search_walled.pairs", pairs)
                tr.count("einstein.search_walled.hit_ratio", len(cands) / pairs)
            else:
                res = tr.call("einstein.search_diameters", search_diameters, base)
                _search_counts(tr, flag.center_dim, res)
            return
        m1, m2 = opts["m1"], opts["m2"]
        base = tr.call("model.make_base", make_base, flag, j, _direction(opts["z"]))
        rep = tr.call("einstein.futaki", futaki, flag, j, base.z, m1, m2)
        zk = tr.call("flag.busy", ricci_invariant, flag, j)
        _futaki_counts(tr, j, zk, base, rep)
        if mode == "futaki":
            return
        z1, _ = tr.call("einstein.segment", ke_endpoints, zk, base.z, m1, m2)
        tr.call("model.analyze_segment", analyze_segment, base, z1, Fraction(m1 + m2))
        if mode == "check-segment":
            return
        sp = tr.call("einstein.segment", _segment_and_deflations, base, m1, m2)
        tr.count("einstein.segment.degree", len(sp.coeffs) - 1)
        prof = tr.call("einstein.profile", profile_solve, sp, grid_size=512)
        tr.count("einstein.profile.points", len(prof.t))
        n_check = 64 if mode == "verify" else 32
        tr.call("einstein.verify", verify_profile, sp, prof, n_check=n_check)
        tr.count("einstein.verify.checks", n_check)
        if mode == "verify":
            tr.call("model.check_parametrization", check_parametrization,
                    prof.t, prof.f, prof.delta, float(sp.f_delta))


def _ints(text: str) -> List[int]:
    return [int(p) for p in text.split(",") if p]


def _direction(text: str):
    return CartanVector(tuple(Fraction(v) for v in text.split(",")))


def _cli_expectations(mode: str, opts: dict, rep: dict) -> List[str]:
    spec = _spec(opts["group"])
    n_roots = sum(classical_root_count(f, r) for f, r in spec.components)
    problems = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append("%s: %s" % (mode, what))

    if mode == "roots":
        expect(rep["root_count"] == n_roots, "root_count %s != classical %d" % (rep["root_count"], n_roots))
        expect(len(rep["positive_roots"]) * 2 == n_roots, "positive roots are not half the roots")
        expect(rep["rank"] == spec.rank, "rank")
    elif mode == "flag-info":
        expect(rep["r_k_count"] + rep["r_m_count"] == n_roots, "R_K and R_m do not partition the roots")
        expect(rep["center_dim"] == spec.rank - len(_ints(opts["painted"])), "center dimension")
        expect(len(rep["positive_r_m"]) * 2 == rep["r_m_count"], "R_m+ is not half of R_m")
        expect(("sphere_in_chamber" in rep) == bool(rep["positive_r_m"]), "sphere check presence")
    elif mode in ("futaki", "check-segment"):
        flag = build_flag(build_root_system(spec), _ints(opts["painted"]))
        j = default_complex_structure(flag)
        base = make_base(flag, j, _direction(opts["z"]))
        oracle = format_scalar(futaki_shifted(base, opts["m1"], opts["m2"]))
        fut = rep if mode == "futaki" else rep["futaki"]
        expect(fut["value"] == oracle, "obstruction %s != futaki_shifted %s" % (fut["value"], oracle))
        expect(fut["vanishes"] == (oracle == "0"), "vanishes flag")
        if mode == "check-segment":
            expect(isinstance(rep["segment"]["overall_ok"], bool), "segment verdict")
    elif mode == "solve":
        expect(rep["verdict"] == "kahler_einstein", "verdict %s" % rep["verdict"])
        res = rep["residual_maxima"]
        expect(all(res[k] < VERIFY_TOL[k] for k in res), "residual maxima %s" % res)
    elif mode == "verify":
        expect(rep["verdict"] == "kahler_einstein", "verdict %s" % rep["verdict"])
        expect(rep["all_pass"] is True, "all_pass is %s" % rep["all_pass"])
    elif rep["kind"] == "walled":
        cands = rep["candidates"]
        expect(len(cands) == 1 and cands[0]["z"] == ["-1/6", "0"], "walled candidates %s" % cands)
        expect(all(c["futaki"] == "0" and c["admissible"] for c in cands), "walled candidate not Einstein")
    else:
        cands = rep["candidates"]
        expect(bool(cands) and all(c["ke_ok"] for c in cands), "diameter winners not all ke_ok")
        expect(any(c["confirmed_exact"] for c in cands), "no exact diameter winner")
    return problems


WORKLOADS = {w.name: w for w in (CliCold, Decide, Construct)}


def make(name: str, seed: int, tr):
    return WORKLOADS[name](seed, tr)
