#!/usr/bin/env python3
"""Builds and runs the characterization-study benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the simulator library from src/ plus the harness)
in $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only re-check the build.  Build output goes to stderr, so the last line of
stdout is the harness's JSON result.  The pinned logical signature and
kernel-event counts in perfbench/expected.json are passed to the harness,
which checks them.  --trace 1 also writes the repetitions' spans as Chrome
trace JSON under <build dir>/traces/.

Exit status: 0 when the run completed and every check held; nonzero
otherwise (build failure, failed check, timeout), with no result line when
the harness did not run.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir, target):
    """Configures (once) and builds `target`; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hpp")):
        fail(f"simulator sources not found under {ROOT}/src")
        return None
    if shutil.which("cmake") is None:
        fail("cmake not found")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            fail("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")
        return None
    return os.path.join(build_dir, target)


def expected_metric_names(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    target_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    try:
        binary = build(build_dir, "perfbench_selftest" if args.selftest else "perfbench")
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if binary is None:
        return 2
    if args.selftest:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S * 3).returncode

    if args.workload is None or args.seed < 0 or args.seconds < 1:
        return fail("--workload, a seed >= 0 and --seconds >= 1 are required")
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        pins = json.load(f)["workloads"].get(args.workload)
    if pins is None:
        return fail(f"unknown workload {args.workload}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-signature", pins["logical_signature"]]
    pinned_events = pins["kernel_events"].get(str(args.seed))
    if pinned_events is not None:
        cmd += ["--expect-kernel-events", str(pinned_events)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--chrome-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return fail(f"harness exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        return fail("harness's last line is not JSON")
    names = expected_metric_names(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        missing = sorted(set(names) ^ set(result["metrics"]))
        sys.stderr.write(proc.stdout)
        return fail(f"metrics differ from BENCHMARK.json: {missing}")
    print(proc.stdout, end="")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
