#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Builds perfbench/serve_bench (Release) from this checkout's sources into
.bench_build/perfbench, runs one workload and prints the result line:

    python3 perfbench/run.py --workload serve_reads --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The line before it is the run's provenance record. Exits non-zero, without
a result line, when the sources are missing, the build fails, the build is
not Release, or the run does not finish in time. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("serve_reads", "serve_events", "census_mix")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds serve_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no ppdb sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
             "--target", "serve_bench"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "serve_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses the result line and checks it carries exactly the metrics
    BENCHMARK.json declares for this mode, each with its unit."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    work = WORK_DIR / args.workload
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"serve_bench exited {run.returncode}")
        return run.returncode or 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as error:
        log(f"malformed result: {error}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
