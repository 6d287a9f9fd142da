#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-references

Run from the repository root. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR or .bench_build, runs the workload, checks the
simulated outputs against the committed reference digest for the seed,
prints the model's error against the paper's rows (EXPERIMENTS.md), and
ends with one JSON result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ("tivo_offloaded", "tivo_copy", "fleet_open_loop")
RUN_TIMEOUT_S = 170

# Paper rows from EXPERIMENTS.md: Table 2 (client jitter median / std, ms),
# Table 3 (server CPU median, %), Table 4 (client CPU median, %) and
# Fig. 10 (server L2 miss rate normalized to the idle run).
PAPER = {
    "tivo_offloaded": {
        "gap_p50_ms": ("Table 2 Offloaded Server median", 5.00),
        "gap_std_ms": ("Table 2 Offloaded Server std", 0.0369),
        "server_cpu_pct": ("Table 3 Offloaded Server median", 2.90),
        "client_cpu_pct": ("Table 4 Offloaded Client median", 2.90),
        "server_l2_normalized": ("Fig. 10 Offloaded Server", 1.00),
    },
    "tivo_copy": {
        "gap_p50_ms": ("Table 2 Simple Server median", 6.99),
        "gap_std_ms": ("Table 2 Simple Server std", 0.5521),
        "server_cpu_pct": ("Table 3 Simple Server median", 7.50),
        "client_cpu_pct": ("Table 4 User-space Client median", 7.30),
        "server_l2_normalized": ("Fig. 10 Simple Server", 1.07),
    },
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once and build; returns the benchmark binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ beside perfbench/: nothing to build")
    build_dir = os.path.join(target_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_binary(exe, workload, seed, seconds, trace, spans_out=None):
    """Run one workload; returns (human-readable text, parsed JSON line)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("benchmark binary failed (exit %d)" % proc.returncode)
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_digest(raw, references):
    """Returns (ok, message) for the run's digest against the reference."""
    expected = references.get(raw["workload"], {}).get(str(raw["seed"]))
    if expected is None:
        return True, "digest %s (no reference for seed %d)" % (
            raw["digest"], raw["seed"])
    if expected == raw["digest"]:
        return True, "digest %s matches the reference" % raw["digest"]
    return False, "digest %s != reference %s" % (raw["digest"], expected)


def paper_errors(raw):
    """Model error against the paper's rows; not gated."""
    rows = PAPER.get(raw["workload"])
    if rows is None:
        return ["paper error: no reference rows; the fleet model is unvalidated"]
    virtual = {k: v["value"] for k, v in raw["virtual"].items()}
    if "idle_server_l2_miss_rate" in virtual:
        virtual["server_l2_normalized"] = (
            virtual["server_l2_miss_rate"] / virtual["idle_server_l2_miss_rate"])
    out = ["paper error (model vs EXPERIMENTS.md paper row; not gated):"]
    for name, (row, paper) in rows.items():
        if name not in virtual:
            out.append("  %-22s (needs the idle ladder: run with --trace 1)" % name)
            continue
        model = virtual[name]
        out.append("  %-22s model %-10.4g paper %-8.4g error %+7.1f%%  [%s]" % (
            name, model, paper, 100.0 * (model - paper) / paper, row))
    return out


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    exe = build()
    spans_out = None
    if args.trace:
        spans_out = os.path.join(target_dir(), "spans-%s-%d.tsv" % (
            args.workload, args.seed))
    text, raw = run_binary(exe, args.workload, args.seed, args.seconds,
                           args.trace, spans_out)
    print(text)
    digest_ok, message = check_digest(raw, load_references())
    print(message)
    print("\n".join(paper_errors(raw)))
    correct = digest_ok and not raw["violations"]
    available = {**raw["host"], **raw["virtual"], **raw["layers"]}
    metrics = {}
    for name in benchmark_metrics(args.trace):
        if name not in available:
            fail("metric %s missing from the run" % name)
        metrics[name] = available[name]
    attempted = max(1, raw["attempted"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": raw["failed"] if correct else attempted,
        "metrics": metrics,
    }))


def self_test():
    """Determinism, seed reach, and tracing transparency, per workload."""
    exe = build()
    references = load_references()
    problems = []
    for workload in WORKLOADS:
        _, a = run_binary(exe, workload, 1, 0, 0)
        _, again = run_binary(exe, workload, 1, 0, 0)
        _, other = run_binary(exe, workload, 2, 0, 0)
        _, traced = run_binary(exe, workload, 1, 0, 1)
        checks = [
            (a["digest"] == again["digest"] and a["virtual"] == again["virtual"],
             "two processes on one seed agree"),
            (a["digest"] != other["digest"], "a second seed changes the digest"),
            (not traced["violations"] and traced["digest"] == a["digest"],
             "tracing leaves events and virtual results unchanged"),
            (not a["violations"], "output invariants hold"),
            (check_digest(a, references)[0], "digest matches the reference"),
        ]
        for ok, what in checks:
            print("%s %-16s %s" % ("PASS" if ok else "FAIL", workload, what))
            if not ok:
                problems.append((workload, what))
    return 1 if problems else 0


def write_references():
    """Regenerates the reference digests of the shipped seeds 0-31."""
    exe = build()
    references = load_references() if os.path.exists(REFERENCES) else {}
    for workload in WORKLOADS:
        for seed in range(32):
            _, raw = run_binary(exe, workload, seed, 0, 0)
            if raw["violations"]:
                fail("%s seed %d: %s" % (workload, seed, raw["violations"]))
            references.setdefault(workload, {})[str(seed)] = raw["digest"]
            print(workload, seed, raw["digest"])
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.write_references:
        write_references()
        return
    if args.workload is None:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
