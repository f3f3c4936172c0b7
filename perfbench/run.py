#!/usr/bin/env python3
"""Builds and runs the SpLPG benchmark.

One run measures one workload and prints, as its last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, and writes a Chrome trace-event file under
<build dir>/traces/ (open it at https://ui.perfetto.dev).

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and prints each end-to-end metric by name, with
its unit and direction, one column per workload.

The library is built from ../src with the benchmark's own CMake project into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), Release, before
each run; a build that is up to date costs a second.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark and runs its helper tests. Build
    output goes to stderr, so stdout carries only the benchmark's lines."""
    build_dir = os.path.join(build_root(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(command))
    tests = os.path.join(build_dir, "perfbench_helpers_test")
    result = subprocess.run([tests, "--gtest_brief=1"], stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise RuntimeError("the benchmark's helper tests failed")
    return os.path.join(build_dir, "splpg_perfbench")


def command_for(binary, workload, seed, seconds, trace):
    scratch = os.path.join(build_root(), "scratch")
    trace_out = os.path.join(build_root(), "traces", "%s-seed%d.json" % (workload, seed))
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scratch", scratch, "--trace-out", trace_out]


def run_one(binary, workload, seed, seconds, trace, capture):
    command = command_for(binary, workload, seed, seconds, trace)
    process = subprocess.Popen(command, cwd=ROOT,
                               stdout=subprocess.PIPE if capture else None)
    try:
        output, _ = process.communicate()
    except BaseException:
        process.kill()
        process.wait()
        raise
    return process.returncode, output.decode() if capture else ""


def run_all(binary, seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        log("running %s ..." % name)
        code, output = run_one(binary, name, seed, seconds, 0, capture=True)
        if code != 0:
            raise RuntimeError("workload %s exited with %d" % (name, code))
        lines = output.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("host:", "samples:", "latency")):
                print("%s %s" % (name, line))
        results[name] = json.loads(lines[-1])
    width = max(len(n) for n in names)
    print("%-20s %-5s %-6s " % ("metric", "unit", "better") +
          " ".join("%*s" % (width, n) for n in names))
    for metric in spec["end_to_end"]:
        values = ["%*.6g" % (width, results[n]["metrics"][metric["name"]]["value"])
                  for n in names]
        print("%-20s %-5s %-6s %s" % (metric["name"], metric["unit"], metric["better"],
                                      " ".join(values)))
    for name in names:
        r = results[name]
        print("%s: correct=%s attempted=%d failed=%d" %
              (name, r["correct"], r["attempted"], r["failed"]))
    return 0 if all(results[n]["correct"] for n in names) else 1


def main():
    parser = argparse.ArgumentParser(description="SpLPG benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print one table")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")
    try:
        binary = build()
        if args.all:
            return run_all(binary, args.seed, args.seconds)
        code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                          capture=False)
        return code
    except (RuntimeError, OSError) as error:
        log("run.py: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
