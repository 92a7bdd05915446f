#!/usr/bin/env python3
"""Build the benchmark from this checkout, run one workload, check its output.

    python3 perfbench/run.py --workload shared-scale10k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload serve-eco --seed 3 --seconds 50 --trace 1 --save r.jsonl

The first call configures and builds perfbench/ (the pts library from src/
plus the benchmark binary) into .bench_build/perfbench with CMake; later
calls only rebuild what changed. The binary's output is passed through.
Before its last line this script prints a `host:` line with the host
stamp, and it checks that the last line is a result object naming exactly
the metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1). --save appends the run, stamped, to a JSON-lines
file that perfbench/compare.py reads.

Exit status: 0 for a correct run; 1 if the run completed but its outputs
failed a check (the result line is still printed); 2 if nothing could be
measured (bad arguments, build failure, missing or malformed result), in
which case no result line is printed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 175.0  # a run must end within 180 s of its start


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def host_stamp():
    proc = subprocess.run([os.path.join(BUILD, "perfbench"), "--stamp"],
                          stdout=subprocess.PIPE, text=True, timeout=30)
    if proc.returncode != 0:
        fail("perfbench --stamp failed")
    stamp = json.loads(proc.stdout.strip().splitlines()[-1])
    # Google Benchmark reports its own build type in its JSON context.
    stamp["gbench_build_type"] = "absent"
    gbench = os.path.join(BUILD, "gbench_stamp")
    if os.path.exists(gbench):
        proc = subprocess.run([gbench, "--benchmark_format=json"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
        try:
            stamp["gbench_build_type"] = json.loads(proc.stdout)["context"][
                "library_build_type"]
        except (ValueError, KeyError):
            stamp["gbench_build_type"] = "unknown"
    return stamp


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        return None, "the last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                        "metrics"}:
        return None, "the result object has the wrong keys"
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        return None, "metrics missing: %s; unexpected: %s" % (missing, extra)
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            return None, "metric %s has unit %r, expected %r" % (
                name, metrics[name].get("unit"), unit)
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--save", help="append the stamped run to this JSON-lines file")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    trace = args.trace == "1"
    expected = expected_metrics(trace)
    build()
    work_dir = os.path.join(BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        # The daemon sockets get paths relative to the checkout root, which
        # keeps them under the Unix socket path limit wherever it lives.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %.0f s" % timeout)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with status %d" % proc.returncode)
    result, problem = check_result(lines[-1], expected)
    if problem:
        sys.stderr.write(proc.stdout)
        fail(problem)

    stamp = host_stamp()
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(stamp, sort_keys=True))
    print(lines[-1], flush=True)
    if args.save:
        record = {"stamp": stamp, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": trace, "result": result}
        with open(args.save, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
