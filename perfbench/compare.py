#!/usr/bin/env python3
"""Compare two sets of perfbench runs of one workload.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one or more `perfbench/run.py` runs,
concatenated. Every run prints a `stamp` line (nproc, kernel ISA, BLAS
threads, cache sizes, build type) and an `info run` line (workload,
trace mode); the comparison is refused, exit status 2, unless all of
them agree across both files — numbers from different machines or
builds are not a baseline for each other. It is also refused when a
base run was incorrect or had failed ops. Otherwise it prints, per
metric, both medians, the relative change, the bound from BENCHMARK.json
and whether the change is within it. A new run that was incorrect or had
failed ops counts as WORSE. Exit status 1 if anything is WORSE.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    stamps, runs, metrics, bad = set(), set(), {}, 0
    with open(path) as f:
        for line in f:
            if line.startswith("stamp "):
                stamps.add(line[6:].strip())
            elif line.startswith("info run "):
                runs.add(line[9:].strip())
            elif line.startswith("{"):
                res = json.loads(line)
                bad += not res["correct"] or res["failed"] > 0
                for name, m in res["metrics"].items():
                    metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return stamps, runs, metrics, bad


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    stamps = base[0] | new[0]
    if len(stamps) != 1:
        print("compare.py: refusing, machine stamps differ:", file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2
    kinds = {json.dumps({k: v for k, v in json.loads(r).items() if k != "seed"},
                        sort_keys=True) for r in base[1] | new[1]}
    if len(kinds) != 1:
        print("compare.py: refusing, runs of different workloads/modes: %s"
              % sorted(kinds), file=sys.stderr)
        return 2
    if base[3]:
        print("compare.py: refusing, %d base runs were incorrect or had "
              "failed ops" % base[3], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    print("%-32s %14s %14s %9s %7s" % ("metric", "base", "new", "change", "bound"))
    for name in sorted(set(base[2]) & set(new[2])):
        unit = base[2][name][0]
        b = statistics.median(base[2][name][1])
        n = statistics.median(new[2][name][1])
        change = (n - b) / abs(b) if b else float("nan")
        m = declared.get(name, {})
        bound = m.get("bound")
        verdict = ""
        if bound is not None and b:
            regress = change if m["better"] == "lower" else -change
            verdict = "ok" if regress <= bound else "WORSE"
            worse = worse or verdict == "WORSE"
        print("%-32s %14.6g %14.6g %+8.1f%% %7s %s %s" % (
            name, b, n, 100 * change, "" if bound is None else bound, unit,
            verdict))
    if new[3]:
        print("%d new runs were incorrect or had failed ops: WORSE" % new[3])
        worse = True
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
