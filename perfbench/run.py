#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
the randla library and the perfbench binary (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr so the binary's
stdout stays parseable: its last line is the JSON result.

--smoke runs a short mode of every workload listed in BENCHMARK.json,
traced and untraced, and fails unless every named metric is printed,
finite and carries its declared unit, the run is correct and no op
failed.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure and build; False if either step fails. Configuring every
    time is cheap, and CMake stops with an error when BUILD was configured
    for another checkout's sources, instead of timing that checkout."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run the perfbench binary to completion; (exit code, stdout)."""
    exe = os.path.join(BUILD, "perfbench")
    try:
        p = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: perfbench timed out", file=sys.stderr)
        return 1, ""
    return p.returncode, p.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "2",
                    "--trace", str(trace)]
            code, out = run_binary(args)
            where = "%s trace=%d" % (w["name"], trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d, no result" % (where, code))
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s failed=%d attempted=%d" % (
                    where, res["correct"], res["failed"], res["attempted"]))
            got = res["metrics"]
            for m in spec[key]:
                v = got.get(m["name"])
                if v is None:
                    problems.append("%s: %s missing" % (where, m["name"]))
                elif v.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %r, want %r" % (
                        where, m["name"], v.get("unit"), m["unit"]))
                elif not isinstance(v.get("value"), (int, float)) or \
                        not math.isfinite(v["value"]):
                    problems.append("%s: %s not finite" % (where, m["name"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: undeclared metrics %s" % (where, sorted(extra)))
            print("smoke %-28s %d metrics ok" % (where, len(got)) if not any(
                p.startswith(where) for p in problems) else "smoke %s FAILED" % where)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    if not build():
        return 1
    if sys.argv[1:] == ["--smoke"]:
        return smoke()
    code, out = run_binary(sys.argv[1:])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
