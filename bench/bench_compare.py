#!/usr/bin/env python3
"""Compare two gpumbir bench reports (results/BENCH_*.json) metric by metric.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [options]

Both files must carry schema gpumbir.bench/1 (the `numbers` object is what
gets compared). Prints a delta table for every metric the two reports share,
then applies the regression gate to the *named* metrics:

  --metric NAME[:higher|:lower]   gate this metric (repeatable). `higher`
                                  means larger is better (throughput),
                                  `lower` means smaller is better (latency).
                                  Unsuffixed names default by pattern:
                                  *jobs_per*/*per_host_second* -> higher,
                                  *_s/*_seconds/*rejects* -> lower.
  --threshold FRAC                regression tolerance (default 0.10 = 10%).

Exit status: 0 when no gated metric regressed by more than the threshold,
1 when at least one did, 2 on usage/schema errors. Typical CI use:

  python3 bench/bench_compare.py results/BENCH_throughput_shard.json \
      "$OUTDIR/BENCH_throughput_shard.json" \
      --metric d4_speedup:higher --metric d4_comm_overhead:lower
"""

import argparse
import json
import sys


def load_numbers(path):
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if doc.get("schema") != "gpumbir.bench/1":
        sys.exit(f"error: {path}: expected schema gpumbir.bench/1, "
                 f"got {doc.get('schema')!r}")
    numbers = doc.get("numbers")
    if not isinstance(numbers, dict):
        sys.exit(f"error: {path}: no 'numbers' object")
    return doc, numbers


def default_direction(name):
    lowered = name.lower()
    if "jobs_per" in lowered or "per_host_second" in lowered:
        return "higher"
    if lowered.endswith(("_s", "_seconds")) or "reject" in lowered:
        return "lower"
    return None


def parse_metric_arg(arg):
    if ":" in arg:
        name, direction = arg.rsplit(":", 1)
        if direction not in ("higher", "lower"):
            sys.exit(f"error: bad metric direction in {arg!r} "
                     "(expected :higher or :lower)")
        return name, direction
    direction = default_direction(arg)
    if direction is None:
        sys.exit(f"error: cannot infer direction for metric {arg!r}; "
                 "say NAME:higher or NAME:lower")
    return arg, direction


def regression_fraction(base, cur, direction):
    """How much worse `cur` is than `base`, as a fraction of base (>= 0)."""
    if base == 0:
        return 0.0 if cur == 0 else float("inf")
    if direction == "higher":
        return max(0.0, (base - cur) / abs(base))
    return max(0.0, (cur - base) / abs(base))


def main():
    ap = argparse.ArgumentParser(add_help=True)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--metric", action="append", default=[],
                    metavar="NAME[:higher|:lower]")
    ap.add_argument("--threshold", type=float, default=0.10)
    args = ap.parse_args()

    base_doc, base = load_numbers(args.baseline)
    cur_doc, cur = load_numbers(args.current)
    if base_doc.get("bench") != cur_doc.get("bench"):
        print(f"warning: comparing different benches "
              f"({base_doc.get('bench')!r} vs {cur_doc.get('bench')!r})",
              file=sys.stderr)

    shared = sorted(set(base) & set(cur))
    if shared:
        width = max(len(k) for k in shared)
        print(f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  delta")
        for key in shared:
            b, c = base[key], cur[key]
            delta = "n/a" if b == 0 else f"{(c - b) / abs(b):+8.1%}"
            print(f"{key:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta}")
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if only_base:
        print(f"only in baseline: {', '.join(only_base)}", file=sys.stderr)
    if only_cur:
        print(f"only in current:  {', '.join(only_cur)}", file=sys.stderr)

    failed = False
    for arg in args.metric:
        name, direction = parse_metric_arg(arg)
        if name not in base or name not in cur:
            sys.exit(f"error: gated metric {name!r} missing from "
                     f"{'baseline' if name not in base else 'current'}")
        frac = regression_fraction(base[name], cur[name], direction)
        verdict = "REGRESSED" if frac > args.threshold else "ok"
        print(f"gate {name} ({direction} is better): "
              f"{frac:.1%} worse than baseline -> {verdict}")
        failed |= frac > args.threshold
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
