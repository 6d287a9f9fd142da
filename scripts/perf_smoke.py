#!/usr/bin/env python3
"""End-to-end perf smoke: every perfbench workload, reshaped for bench_compare.

Usage: perf_smoke.py OUT.json

Runs `perfbench/run.py --workload W --seed 1 --seconds 2 --trace 0` for
each workload BENCHMARK.json declares, from the repository root. Fails
(exit 1) when a run exits non-zero or its result line reports a digest
mismatch (`correct` false) or any failed operation. Otherwise writes each
run's wall_ms_per_sim_s as a google-benchmark row named
`perfbench/W/wall_ms_per_sim_s` (real_time in ms per simulated second)
to OUT.json, for `bench_compare.py scripts/perf_baseline.json OUT.json 2.0`.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(workload):
    """Returns the run's result line, or an error message."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "2",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, "exit %d" % proc.returncode
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return None, "no result line"
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None, "digest mismatch or invariant violation"
    if result.get("failed", 1) != 0:
        return None, "%s failed operations" % result.get("failed")
    return result, None


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    rows = []
    problems = []
    for workload in workloads():
        result, error = run(workload)
        if error:
            print("FAIL %-16s %s" % (workload, error))
            problems.append(workload)
            continue
        wall = result["metrics"]["wall_ms_per_sim_s"]["value"]
        print("ok   %-16s wall_ms_per_sim_s %.3f" % (workload, wall))
        rows.append({"name": "perfbench/%s/wall_ms_per_sim_s" % workload,
                     "run_type": "iteration", "iterations": 1,
                     "real_time": wall, "cpu_time": wall,
                     "time_unit": "ms"})
    if problems:
        print("perf smoke failed: " + ", ".join(problems))
        return 1
    with open(sys.argv[1], "w") as f:
        json.dump({"benchmarks": rows}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
