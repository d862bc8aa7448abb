#!/usr/bin/env python3
"""Builds the resched benchmark binary from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload engine --seed 1 --trace 0
  python3 perfbench/run.py --smoke      # every workload, traced and not

--seconds defaults to BENCHMARK.json's run_seconds; the amount of work a
run does scales with it. The build goes to .bench_build/perfbench (CMake +
Ninja, Release). The binary prints a human-readable report (every metric
with its unit and sample count, the output checks, the output digest) and
a JSON line with every metric it measured. This script passes the report
through and ends with one JSON object: correct, attempted, failed and
metrics, where the metrics are BENCHMARK.json's end_to_end list (--trace 0)
or its per_layer list (--trace 1). A per-layer metric whose layer does not
run on the workload reads 0; a missing end-to-end metric fails the run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
CONFIG = os.path.join(HERE, "workloads.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("engine", "service_repeat", "fleet_unique")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "3"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build step failed: {err}")
        return False
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no resched sources next to perfbench/; run from a full checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "--", "-j", BUILD_JOBS], 880)


def run_harness(workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark binary; returns (exit code, stdout lines, parsed
    result line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--config", CONFIG, "--scratch", BUILD_DIR]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: benchmark binary exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 1, [], None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def result_line(spec, result, trace):
    """The run's result in BENCHMARK.json's terms; None when the measured
    metrics do not fit it."""
    measured = result["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        got = measured.get(name)
        if got is None:
            if not trace:
                log(f"end-to-end metric not measured: {name}")
                return None
            got = {"value": 0.0, "unit": m["unit"]}  # layer does not run here
        if got["unit"] != m["unit"]:
            log(f"{name}: unit {got['unit']} differs from BENCHMARK.json's "
                f"{m['unit']}")
            return None
        metrics[name] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(spec):
    failures = 0
    runs = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs += 1
            code, lines, result = run_harness(workload, 7, 2, trace, smoke=True)
            line = result_line(spec, result, trace) if result else None
            ok = (code == 0 and line is not None and line["correct"]
                  and line["failed"] == 0)
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAIL'}")
            if not ok:
                failures += 1
                print("\n".join(lines[-40:]))
    print(f"smoke: {runs - failures}/{runs} passed")
    return 0 if failures == 0 else 1


def main():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run of every workload and check")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not build():
        return 2
    if args.smoke:
        return smoke(spec)

    code, lines, result = run_harness(args.workload, args.seed, args.seconds,
                                     args.trace)
    line = result_line(spec, result, args.trace) if result else None
    report = lines[:-1] if result is not None else lines
    print("\n".join(report))
    if line is None or code != 0:
        # No result line on failure: the report, then a non-zero exit.
        return code if code != 0 else 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
