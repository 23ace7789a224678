#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload sweep_fixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --self-test             # oracle self-test

Run from the repository root.  The first run configures and builds a
Release tree under .bench_build/perfbench (about 40 s on 4 cores); later
runs rebuild incrementally.  Each workload runs in its own process, so its
peak RSS is its own.  BENCHMARK.json names the workloads and the metrics
with their units; the metrics the program measured are checked against it.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with --trace 1.  A failed
correctness check exits non-zero.  See perfbench/NOTES.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"repository sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")


def load_spec():
    """BENCHMARK.json: the workloads and the metrics, with their units."""
    if not os.path.isfile(SPEC_PATH):
        fail(f"{SPEC_PATH} not found")
    with open(SPEC_PATH) as f:
        return json.load(f)


def check_metrics(spec, measured, trace):
    """Returns the contract's metrics in BENCHMARK.json order, or None.

    With --trace 0 every end-to-end metric must have been measured.  A
    per-layer metric of a layer the workload does not run reads 0.  A unit
    or a name that BENCHMARK.json does not know is an error either way.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    errors = [f"metric {name} is not in BENCHMARK.json"
              for name in measured if name not in units]
    errors += [f"metric {name} has unit {m['unit']}, BENCHMARK.json says "
               f"{units[name]}" for name, m in measured.items()
               if name in units and m["unit"] != units[name]]
    if not trace:
        errors += [f"end-to-end metric {name} was not measured"
                   for name in units if name not in measured]
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if errors:
        return None
    metrics = {}
    for name, unit in units.items():
        m = measured.get(name, {"value": 0.0, "samples": 0})
        print(f"metric {name:<36} {m['value']:18.6f} {unit:<15} "
              f"n={m['samples']}"
              + ("" if name in measured else "  (layer not exercised)"))
        metrics[name] = {"value": m["value"], "unit": unit}
    return metrics


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, contract result)."""
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(120.0, 4.0 * seconds + 60.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None
    metrics = {}
    if proc.returncode == 0:
        metrics = check_metrics(spec, result["metrics"], trace)
        if metrics is None:
            return 3, None
    result["metrics"] = metrics
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode)

    if args.workload != "all":
        code, result = run_workload(spec, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    results = {}
    worst = 0
    for workload in workloads:
        print(f"== {workload}", flush=True)
        code, result = run_workload(spec, workload, args.seed, args.seconds,
                                    bool(args.trace))
        results[workload] = result
        worst = worst or code
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
