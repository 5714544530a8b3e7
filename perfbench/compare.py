#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold run records as repeat.py writes them. For each workload
and end-to-end metric it prints both sides' median and quartiles, the pair
wins of the change (runs paired by seed), and a verdict under the metric's
bound from BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile distance, in the better direction;
  unresolved  the parent's own spread is wider than the bound, so "no
              worse" cannot be told apart from noise;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  no worse    otherwise.

Exits 1 when any metric regressed.
"""

import sys

from stats import load_runs, load_spec, quartiles, spread


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    by_seed = {r[0]: r[1] for r in parent}
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(better(c, p) for p, c in pairs)
    pq1, pmed, pq3 = quartiles([v for _, v in parent])
    _, cmed, _ = quartiles([v for _, v in change])
    gap = cmed - pmed
    worse = (gap if lower else -gap) / abs(pmed) if pmed else 0.0
    bound = metric["bound"]
    if pairs and wins >= 0.9 * len(pairs) and abs(gap) > pq3 - pq1 and \
            better(cmed, pmed):
        return "improved", wins, len(pairs)
    if spread([v for _, v in parent]) > bound:
        return "unresolved", wins, len(pairs)
    if worse > bound:
        return "regressed", wins, len(pairs)
    return "no worse", wins, len(pairs)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = load_spec()
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    regressed = 0
    print("%-16s %-14s %31s %31s %7s  %s" % (
        "workload", "metric", "parent med [q1, q3]", "change med [q1, q3]",
        "wins", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        for m in spec["end_to_end"]:
            side = {}
            for label, runs in (("parent", parent), ("change", change)):
                side[label] = [(r["host"]["seed"],
                                r["metrics"][m["name"]]["value"])
                               for r in runs[workload]]
            v, wins, n = verdict(m, side["parent"], side["change"])
            regressed += v == "regressed"
            cells = []
            for label in ("parent", "change"):
                q1, med, q3 = quartiles([x for _, x in side[label]])
                cells.append("%9.4g [%9.4g, %9.4g]" % (med, q1, q3))
            print("%-16s %-14s %31s %31s %3d/%-3d  %s" % (
                workload, m["name"], cells[0], cells[1], wins, n, v))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
