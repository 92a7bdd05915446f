#!/usr/bin/env python3
"""Quick self-check of the benchmark: every workload, briefly, in both modes.

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json's shape, then runs each workload for one second with
--trace 0 and --trace 1 through run.py and fails loudly if a run fails or
is not correct. run.py itself refuses a result that leaves out any metric
BENCHMARK.json names for the mode. Finally it runs one traced run twice
with the same seed and requires every count metric to repeat exactly.
Takes about a minute.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def die(message):
    print("selfcheck: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        die("BENCHMARK.json keys are %s" % sorted(spec))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        die("a name is used twice in BENCHMARK.json")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            die("end_to_end entry %s is malformed" % m)
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            die("per_layer entry %s is malformed" % m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        die("setup_s must be an end_to_end metric with the largest bound")


def run(workload, trace, seed=1):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    if proc.returncode != 0:
        die("%s --trace %s exited %d:\n%s%s" % (workload, trace, proc.returncode,
                                                 proc.stdout[-3000:], proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for trace in ("0", "1"):
        for w in spec["workloads"]:
            result = run(w["name"], trace)
            print("ok  %-16s --trace %s  %3d metrics, %d operations checked" % (
                w["name"], trace, len(result["metrics"]), result["attempted"]))

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    first = run(spec["workloads"][0]["name"], "1", seed=7)["metrics"]
    second = run(spec["workloads"][0]["name"], "1", seed=7)["metrics"]
    differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
    if differ:
        die("counts differ between two traced runs with one seed: %s" % differ)
    print("ok  %d count metrics repeat exactly for a fixed seed" % len(counts))
    print("selfcheck: PASS")


if __name__ == "__main__":
    main()
