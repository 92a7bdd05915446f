#!/usr/bin/env python3
"""Compare two result sets saved by `perfbench/run.py --save`.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one stamped run per line. The comparison is refused (exit
status 3) unless every run in both sets carries the same host stamp: CPU
count, CPU model, L2 and L3 sizes, compiler, build type and Google
Benchmark's library build type. Otherwise, for each workload, trace mode
and metric present in both sets it prints each side's median and quartiles
and the change of the medians as a share of the first set's median. It
claims nothing: deciding whether a change is a gain is left to the rules
the reader applies to these numbers.
"""
import json
import statistics
import sys


def load(path):
    runs = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(json.loads(line))
            except ValueError:
                sys.exit("compare: %s:%d is not JSON" % (path, number))
    if not runs:
        sys.exit("compare: %s holds no runs" % path)
    return runs


def stamps(runs):
    return {json.dumps(run["stamp"], sort_keys=True) for run in runs}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py FIRST.jsonl SECOND.jsonl")
    first, second = load(sys.argv[1]), load(sys.argv[2])
    found = stamps(first) | stamps(second)
    if len(found) != 1:
        print("compare: refusing to compare result sets from different hosts or builds:",
              file=sys.stderr)
        for stamp in sorted(found):
            print("  " + stamp, file=sys.stderr)
        sys.exit(3)

    def table(runs):
        out = {}
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                key = (run["workload"], "traced" if run["trace"] else "plain", name)
                out.setdefault(key, (metric["unit"], []))[1].append(metric["value"])
        return out

    a, b = table(first), table(second)
    print("host: " + next(iter(found)))
    print("%-16s %-6s %-44s %-6s %26s %26s %9s" % (
        "workload", "mode", "metric", "unit", "first q1/median/q3", "second q1/median/q3",
        "change"))
    for key in sorted(set(a) & set(b)):
        unit, va = a[key]
        _, vb = b[key]
        qa, qb = quartiles(va), quartiles(vb)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        print("%-16s %-6s %-44s %-6s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %+8.2f%%  (n=%d/%d)" % (
            key[0], key[1], key[2], unit, *qa, *qb, 100 * change, len(va), len(vb)))


if __name__ == "__main__":
    main()
