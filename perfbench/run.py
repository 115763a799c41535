#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the zenesis libraries and the
zen_perfbench binary from source into .bench_build/ (Release), pins every
environment knob that changes what is measured, runs one workload and
relays its output. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero when the build fails, a correctness gate fails, or the
sources are missing. `--workload all` runs the workloads one after another
(each ends with its own result line) and fails if any of them does.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("volume_cold", "reprompt_warm", "wire_mixed")

# Knobs the library reads from the environment, pinned so that an
# inherited shell variable cannot change what is measured.
PINNED_ENV = {
    "ZENESIS_KERNEL": "auto",        # best backend this CPU supports
    "ZENESIS_PRECISION": "fp32",
    "ZENESIS_CACHE_BUDGET": "256MiB",
    "ZENESIS_TIFF_SOURCE": "mmap",
    "ZENESIS_TRACE": "0",            # zen_perfbench enables spans itself
}

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "zen_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"zenesis sources not found under {root / 'src'}")
    if not (root / "BENCHMARK.json").is_file():
        fail(f"{root / 'BENCHMARK.json'} not found")

    build_dir = root / ".bench_build" / "perfbench"
    build(bench_dir, build_dir)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(root, build_dir, name, args) for name in workloads]
    sys.exit(0 if all(code == 0 for code in codes) else 1)


def run_workload(root, build_dir, workload, args):
    """Runs one workload with the pinned environment and relays its output;
    returns its exit code."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    work_dir = root / ".bench_build" / f"work-{os.getpid()}"
    cmd = [str(build_dir / "zen_perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    got = set(result.get("metrics", {}))
    want = expected_metrics(root, args.trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(want - got)}, extra {sorted(got - want)}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    main()
