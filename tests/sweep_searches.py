"""Sweep the CLI over the flags whose reports a change to the searches or the exact verdict may move.

    PYTHONPATH=src python tests/sweep_searches.py --out sweep.json
    python tests/sweep_searches.py --compare before.json after.json

``--out`` writes the report of 4 656 runs, keyed by their command line: the
diameter search on every flag with a 2- or 3-dimensional center of the 25
sweep groups, and the walled search on every flag of the groups up to rank
3 at the degrees of WALLED_DEGREES and on the unpainted rank-4 flags of
WALLED_EXTRA, each at the period scales 1 and 1/3;
then `flag-info` (Zk, its chamber position and the sphere check) on every
flag of the 25 groups and on the exceptional flags of FLAG_INFO_EXTRA;
`roots` on the 25 groups and on E6, E7 and E8; `check-segment` at the
degrees of SEGMENT_DEGREES, exact and with --float, along the first center
basis vector of every flag of the walled-search groups; and `futaki` and
`check-segment` at the degrees of DIRECTION_DEGREES along the non-unit
directions of `center_directions`, exact at the period scales 1 and 1/3
and with --float (DIRECTION_VARIANTS), on every flag of the walled-search
groups and on the exceptional flags of DIRECTION_EXTRA; and
`solve` and `verify`, exact and with --float, at both period scales, on the
antisymmetric diameters Z = e_i - e_(n+i) of G x G for G in
DIAMETER_GROUPS, with every node but i and n + i painted, the runs that
build a segment polynomial; and `solve` at the FINE_GRIDS, whose first
and last steps invert times far below a panel's width in t.  A command
line that occurs twice is run once.
``--compare`` sorts the runs of two such files into identical ones,
ones that differ only in floats within FLOAT_RTOL, and changed ones, and
lists the last two kinds; it exits with 1 when a run changed, or when the reader of its output
closes the pipe early.  Floats are compared relative to the larger
magnitude, or absolutely below 1: the float obstruction of a float
candidate is a zero at rounding level, whose relative change means
nothing.  Run ``--out`` on the source tree to be swept: a second checkout's
``src`` on PYTHONPATH sweeps that checkout.  ``--compare`` imports no
flagke and runs without PYTHONPATH.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys

GROUPS = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4",
          "A1xA1", "A1xA1xA1", "A1xA2", "A1xB2", "A1xG2", "A2xA2", "A1xA3", "A2xB2", "B2xG2", "A2xA3",
          "A1xA2xA2", "B2xB2"]
WALLED_DEGREES = [(1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)]
# walled searches with nothing painted on a 4-dimensional center, thousands of lines each: (group, degrees)
WALLED_EXTRA = [("B4", (3, 3)), ("B4", (2, 3)), ("C4", (3, 3)), ("C4", (2, 3)), ("F4", (2, 3))]
TAUS = ["1", "1/3"]
FLAG_INFO_EXTRA = [("E6", (0, 2, 3, 4)), ("E7", (0, 1, 2, 3)), ("E8", (0, 1, 2, 3, 4)), ("E8", (2,)), ("E8", ())]
SEGMENT_DEGREES = [(1, 1), (1, 2), (2, 1)]
DIRECTION_DEGREES = [(1, 1), (1, 2), (2, 1), (2, 2)]
DIRECTION_EXTRA = FLAG_INFO_EXTRA[:3]
# the runs along non-unit directions: exact at period scales 1 and 1/3, and with a float direction
DIRECTION_VARIANTS = [[], ["--tau", "1/3"], ["--float"]]
DIAMETER_GROUPS = ["A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
FLOAT_RTOL = 1e-12
# solve runs at fine grids: (arguments, grid); up to 65 536 points, the CLI's largest grid
FINE_GRIDS = [("--group A2xA2 --painted 0,2 --z 0,1,0,-1 --m1 1 --m2 1", 9794),
              ("--group A2xA2 --painted 0,2 --z 0,1,0,-1 --m1 1 --m2 1", 65536),
              ("--group B3xB3 --painted 0,2,3,5 --z 0,1,0,0,-1,0 --m1 1 --m2 1", 32768),
              ("--group E6xE6 --painted 0,2,3,4,5,6,8,9,10,11 --z 0,1,0,0,0,0,0,-1,0,0,0,0 --m1 1 --m2 1", 50021),
              ("--group A2 --painted 1 --z=-1/6,0 --tau 1/3 --m1 3 --m2 1", 40000)]


def paintings(group: str):
    """Every painted set of the group's simple roots, by size and then lexicographically."""
    from flagke.rootsys import LieAlgebraSpec

    rank = LieAlgebraSpec.parse(group).rank
    return itertools.chain.from_iterable(itertools.combinations(range(rank), k) for k in range(rank + 1))


def center_directions(rank: int, painted) -> list:
    """The sum of the unpainted unit vectors and the same with alternating signs, as --z values; the
    second only when it differs from the first."""
    unpainted = [i for i in range(rank) if i not in painted]
    out = []
    for signs in ([1] * len(unpainted), [(-1) ** n for n in range(len(unpainted))]):
        z = [0] * rank
        for i, sign in zip(unpainted, signs):
            z[i] = sign
        if ",".join(map(str, z)) not in out:
            out.append(",".join(map(str, z)))
    return out


def sweep_argvs():
    """The command lines of the sweep, once each: diameter runs first, then walled ones, flag-info, roots,
    check-segment, the futaki and check-segment runs along non-unit directions, and solve and verify on the
    antisymmetric diameters, and solve at the fine grids."""
    from flagke.rootsys import LieAlgebraSpec

    out = []
    for group in GROUPS:
        rank = LieAlgebraSpec.parse(group).rank
        for painted in paintings(group):
            if rank - len(painted) in (2, 3):
                out += [_argv(group, painted, tau) for tau in TAUS]
    walled = [(group, painted) for group in GROUPS if LieAlgebraSpec.parse(group).rank <= 3
              for painted in paintings(group) if len(painted) < LieAlgebraSpec.parse(group).rank]
    for group, painted in walled:
        out += [_argv(group, painted, tau, degrees) for degrees in WALLED_DEGREES for tau in TAUS]
    out += [_argv(group, (), tau, degrees) for group, degrees in WALLED_EXTRA for tau in TAUS]
    flags = [(group, painted) for group in GROUPS for painted in paintings(group)] + FLAG_INFO_EXTRA
    out += [["flag-info", "--group", group, "--painted", ",".join(map(str, painted))] for group, painted in flags]
    out += [["roots", "--group", group] for group in GROUPS + ["E6", "E7", "E8"]]
    for group, painted in walled:
        rank = LieAlgebraSpec.parse(group).rank
        first = min(set(range(rank)) - set(painted))
        z = ",".join(str(int(i == first)) for i in range(rank))
        for (m1, m2), arithmetic in itertools.product(SEGMENT_DEGREES, ([], ["--float"])):
            out.append(["check-segment", "--group", group, "--painted", ",".join(map(str, painted)), "--z", z,
                        "--m1", str(m1), "--m2", str(m2)] + arithmetic)
    for variant, (group, painted) in itertools.product(DIRECTION_VARIANTS, walled + DIRECTION_EXTRA):
        for z, (m1, m2), mode in itertools.product(center_directions(LieAlgebraSpec.parse(group).rank, painted),
                                                   DIRECTION_DEGREES, ("futaki", "check-segment")):
            out.append([mode, "--group", group, "--painted", ",".join(map(str, painted)), "--z", z,
                        "--m1", str(m1), "--m2", str(m2)] + variant)
    for group in DIAMETER_GROUPS:
        n = LieAlgebraSpec.parse(group).rank
        for i, mode, arithmetic, tau in itertools.product(range(n), ("solve", "verify"), ([], ["--float"]), TAUS):
            painted = ",".join(str(k) for k in range(2 * n) if k not in (i, n + i))
            z = ",".join("1" if k == i else "-1" if k == n + i else "0" for k in range(2 * n))
            out.append([mode, "--group", "%sx%s" % (group, group), "--painted", painted, "--z", z, "--tau", tau,
                        "--m1", "1", "--m2", "1"] + arithmetic)
    out += [["solve"] + args.split() + ["--grid", str(grid)] for args, grid in FINE_GRIDS]
    return list(map(list, dict.fromkeys(map(tuple, out))))


def _argv(group, painted, tau, degrees=None):
    argv = ["search", "--group", group, "--painted", ",".join(map(str, painted)), "--tau", tau]
    if degrees is not None:
        argv += ["--m1", str(degrees[0]), "--m2", str(degrees[1])]
    return argv


def sweep(argvs):
    """{command line: the JSON report the CLI prints for it}, run in this process."""
    from flagke import cli

    record = {}
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        record[" ".join(argv)] = json.loads(buf.getvalue())
    return record


def float_gap(a, b):
    """The largest difference between the floats of a and b, relative to max(|a|, |b|, 1), or None if
    they differ elsewhere."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) / max(abs(a), abs(b), 1.0)
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        a, b = [a[k] for k in a], [b[k] for k in a]
    if isinstance(a, list) and isinstance(b, list):
        gaps = [float_gap(x, y) for x, y in zip(a, b)]
        return None if len(a) != len(b) or None in gaps else max(gaps, default=0.0)
    return 0.0 if type(a) is type(b) and a == b else None


def compare(before, after):
    """The run keys of two sweep records, over the keys of either, as (identical, floats only, changed),
    and the largest float difference (`float_gap`) of the floats-only runs."""
    identical, floats_only, changed, worst = [], [], [], 0.0
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        gap = float_gap(a, b)
        if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
            identical.append(key)
        elif gap is not None and gap <= FLOAT_RTOL:
            floats_only.append(key)
            worst = max(worst, gap)
        else:
            changed.append(key)
    return identical, floats_only, changed, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the sweep to this JSON file")
    action.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two sweep files")
    args = parser.parse_args(argv)
    if args.out:
        record = sweep(sweep_argvs())
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        print("%d runs written to %s" % (len(record), args.out))
        return 0
    records = []
    for path in args.compare:
        with open(path) as fh:
            records.append(json.load(fh))
    identical, floats_only, changed, worst = compare(*records)
    print("%d runs identical, %d differ only in floats (by at most %.2g), %d changed"
          % (len(identical), len(floats_only), worst, len(changed)))
    for tag, keys in (("floats", floats_only), ("changed", changed)):
        for key in keys:
            print("%s: %s" % (tag, key))
    return 1 if changed else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # a reader such as `head` closed the pipe: no traceback ("Note on SIGPIPE", `signal`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
