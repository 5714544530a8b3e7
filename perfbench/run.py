#!/usr/bin/env python3
"""Runs one benchmark measurement of the Preference SQL engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--goodput-limit-ms W1=MS,W2=MS,...]

Run from the repository root. Builds the engine and the `prefbench` load
generator from source into .bench_build/perfbench (CMake, Release), runs the
workload, checks that every metric BENCHMARK.json declares was produced, and
prints as the last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1). The line before it holds the host
facts of the run. Traced runs write their spans to
.bench_build/perfbench/traces/. Exits non-zero without a result line when
the build, the run or the check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from stats import HERE, ROOT, load_spec

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds prefbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no engine sources next to perfbench/ (run from the repository "
             "root)")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step = subprocess.run(cmd, capture_output=True, text=True)
        if step.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed:\n" + step.stdout + step.stderr)
    step = subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                          capture_output=True, text=True)
    if step.returncode != 0:
        fail("build failed:\n" + step.stdout[-4000:] + step.stderr[-4000:])
    return os.path.join(BUILD, "prefbench")


def source_identity():
    """The git commit when the tree is a checkout, and always a digest of the
    engine and benchmark sources (the benchmark may run outside git)."""
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    paths = []
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths += [os.path.join(base, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def parse_limits(text):
    limits = {}
    for item in filter(None, (text or "").split(",")):
        name, _, value = item.partition("=")
        limits[name.strip()] = float(value)
    return limits


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--goodput-limit-ms", default="",
                    help="per-workload latency limit of goodput_qps, "
                         "as workload=ms pairs")
    args = ap.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    binary = build()
    limit = parse_limits(args.goodput_limit_ms).get(args.workload)
    if limit is None:
        fail("no goodput latency limit for " + args.workload)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goodput-limit-ms", str(limit)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(
            BUILD, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]

    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("prefbench did not finish within 170 s")
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("prefbench exited with %d" % proc.returncode)
    record = json.loads(lines[-1])

    metrics = {}
    for m in declared:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or in the wrong unit" % m["name"])
        metrics[m["name"]] = got

    commit, digest = source_identity()
    host = dict(record["facts"])
    host.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "goodput_limit_ms": limit,
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "git_commit": commit,
        "source_digest": digest,
        "checked_reads": record["checked"],
        "spans_file": os.path.relpath(trace_path, ROOT) if trace_path else None,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
