#!/usr/bin/env python3
"""End-to-end analysis benchmark: build, then run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload mixy-symbolic --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds the analysis libraries and the
benchmark (Release) into $CARGO_TARGET_DIR, or .bench_build when it is
unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result.
Exits non-zero without a result when the sources are missing or the
build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mixy-symbolic", "mixy-typed-large", "mixcheck-core", "mixyd-edit"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: analysis sources (src/) not found; nothing to build")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("e2ebench: build failed")
    return os.path.join(out, target)


def run_all(binary, args):
    """Runs every workload in its own process (peak RSS is per process)
    and prints one table plus a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        cmd = [binary, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("e2ebench: workload %s failed" % w)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        ratio = result["failed"] / result["attempted"]
        rows.append((w, "failed_ratio", ratio, "ratio"))
        for name, m in result["metrics"].items():
            combined["metrics"]["%s/%s" % (w, name)] = m
            rows.append((w, name, m["value"], m["unit"]))
    for w, name, value, unit in rows:
        print("%-18s %-28s %14.6g %s" % (w, name, value, unit))
    print(json.dumps(combined))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.self_test:
        test = build("e2ebench_selftest")
        sys.stdout.flush()
        os.execv(test, [test])
    if not args.workload:
        p.error("--workload is required")
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error("unknown workload %r (choose from %s, all)"
                % (args.workload, ", ".join(WORKLOADS)))

    binary = build("e2ebench")
    if args.workload == "all":
        run_all(binary, args)
        return
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
