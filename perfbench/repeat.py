#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports its spread.

    python3 perfbench/repeat.py --out runs.jsonl [--workloads a,b]
                                [--seeds 1-10] [--trace 0]
    python3 perfbench/repeat.py --report runs.jsonl

Each run is the BENCHMARK.json command with --workload, --seed, --seconds
(run_seconds) and --trace, executed from the repository root; its host line
and result line are appended to --out as one record. The report gives, per
workload and end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) against the metric's
bound: "ok" below a third of the bound, "wide" below the bound, "OVER"
above it.

Seeds 1-10 are the tuning seeds. Seeds 9001-9010 are the holdout set: check
a performance claim on them too, as inputs the change was not tuned on.
"""

import argparse
import json
import subprocess
import sys

from stats import ROOT, load_runs, load_spec, quartiles, spread


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def report(path):
    spec = load_spec()
    bad = 0
    for workload, recs in load_runs(path).items():
        print("%s (%d runs, all correct: %s)" % (
            workload, len(recs), all(r["correct"] for r in recs)))
        names = spec["end_to_end"] if recs[0]["host"]["trace"] == 0 \
            else spec["per_layer"]
        for m in names:
            values = [r["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else ("wide" if s <= bound
                                                   else "OVER")
                bad += flag == "OVER"
            print("  %-40s med %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f"
                  "  bound %-5s %s" % (m["name"], med, q1, q3, s,
                                        bound if bound is not None else "-",
                                        flag))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    ap.add_argument("--report")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    if args.report:
        sys.exit(1 if report(args.report) else 0)
    if not args.out:
        ap.error("--out or --report is required")

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                sys.exit("run failed: %s seed %d" % (workload, seed))
            rec = {**json.loads(lines[-2]), **json.loads(lines[-1])}
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            print("%s seed %d: correct=%s" % (workload, seed, rec["correct"]),
                  flush=True)
    sys.exit(1 if report(args.out) else 0)


if __name__ == "__main__":
    main()
