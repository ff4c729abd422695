#!/usr/bin/env python3
"""Build and run the repository's host-performance benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload core4t_mix --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench (a Release build of the
simulator library plus perfbench/src) under .bench_build/perfbench;
later runs only check that the build is up to date. The benchmark's
standard output is passed through. Its last line, one JSON object with
the keys correct, attempted, failed and metrics, is checked against
the metrics BENCHMARK.json declares: every declared end-to-end metric
must be present in a --trace 0 run, and a per-layer metric of a layer
that does no work on the workload is reported as 0. The exit code is
nonzero when the build fails, an output check fails, or the result
does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
WORKLOADS = ("core4t_mix", "chip4c8t_mem", "sweep_table4")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(BUILD_LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log: %s)" % BUILD_LOG)
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def complete(result, trace):
    """Check the result against BENCHMARK.json; fill idle layers."""
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in declared:
            fail("metric %s is not declared in BENCHMARK.json" % name)
        if m["unit"] != declared[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], declared[name]))
    for name, unit in declared.items():
        if name in metrics:
            continue
        if not trace:
            fail("end-to-end metric %s was not measured" % name)
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in declared}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(ROOT, "perfbench", "digests.txt"),
           "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                          universal_newlines=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if not lines:
        fail("no output (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result: %r" % lines[-1])
    result = complete(result, args.trace == 1)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
