#!/usr/bin/env python3
"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files saved by run.py (.bench_build/results/) or
directories of them. Results are grouped by (workload, trace); for every
metric the medians of both sides are printed with the relative change and
the spread of the base runs (interquartile range over median): a change
smaller than that spread is not resolved by these runs.
Refuses (exit 2) when the results were not all measured on the same kind
of host: core count, CPU model, SIMD path, build type and compiler must
match, since host seconds from different hosts do not compare. Also
refuses when the latency_tail_s values of one workload were taken at
different percentiles (a run that finished fewer jobs drops to a lower
rung of the tail rule, and its tail is then a different statistic).
"""

import json
import os
import sys

import stats


def load(path):
    """Result documents of a file or of every .json file in a directory."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        return [load(os.path.join(path, n))[0] for n in names]
    with open(path) as f:
        return [json.load(f)]


def compare(base, new):
    """Rows (workload, trace, metric, unit, base median, new median,
    change, base spread) for every metric both sides report. Raises
    ValueError when the host records differ."""
    results = base + new
    if not results:
        raise ValueError("no results to compare")
    first = results[0]["host"]
    for r in results[1:]:
        diff = stats.host_mismatch(first, r["host"])
        if diff:
            raise ValueError("results come from different hosts (%s): %s vs %s"
                             % (", ".join(diff), first, r["host"]))

    rungs = {}
    for r in results:
        if "latency_tail_pct" in r.get("notes", {}):
            rungs.setdefault(r["workload"], set()).add(
                r["notes"]["latency_tail_pct"])
    for workload, pcts in sorted(rungs.items()):
        if len(pcts) > 1:
            raise ValueError("%s: latency_tail_s taken at different "
                             "percentiles %s" % (workload, sorted(pcts)))

    def medians(side):
        groups = {}
        for r in side:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, (m["unit"], []))[1].append(m["value"])
        return {k: (u, stats.median(v), stats.spread(v))
                for k, (u, v) in groups.items()}

    b, n = medians(base), medians(new)
    rows = []
    for key in sorted(set(b) & set(n)):
        unit, bv, spread = b[key]
        nv = n[key][1]
        change = (nv - bv) / bv if bv else float("nan")
        rows.append(key + (unit, bv, nv, change, spread))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = compare(load(argv[1]), load(argv[2]))
    except (OSError, ValueError, KeyError) as e:
        print("compare: refusing: %s" % e, file=sys.stderr)
        return 2
    for workload, trace, name, unit, bv, nv, change, spread in rows:
        print("%-14s t%d %-40s %14.6g -> %14.6g %-10s %+8.2f%%  (base "
              "spread %.2f%%)" % (workload, trace, name, bv, nv, unit,
                                  100.0 * change, 100.0 * spread))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
