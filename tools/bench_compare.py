#!/usr/bin/env python3
"""Compare two google-benchmark JSON reports by real time.

    python3 tools/bench_compare.py BASE.json NEW.json

BASE is usually a committed baseline (bench/baseline/<name>.json) and NEW
a fresh run of the same binary (each bench_* binary writes
BENCH_<name>.json in its working directory). Prints one markdown table
row per benchmark: real time in BASE and NEW, in the unit each report
uses, and the change. A benchmark more than 10% slower in NEW is flagged
with "REGRESSION", and the script then exits 1; it exits 0 otherwise.
When a report holds repetitions, their median aggregate is compared.
Benchmarks present on one side only are listed as added or removed.
"""

import json
import sys

THRESHOLD = 0.10
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Maps benchmark name to (real time in ns, unit) from one report."""
    with open(path) as f:
        report = json.load(f)
    plain, medians = {}, {}
    for b in report.get("benchmarks", []):
        unit = b.get("time_unit", "ns")
        ns = b["real_time"] * NS_PER_UNIT[unit]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = (ns, unit)
        else:
            plain.setdefault(b.get("run_name", b["name"]), (ns, unit))
    plain.update(medians)
    return plain


def fmt(ns, unit):
    return "%.4g %s" % (ns / NS_PER_UNIT[unit], unit)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    base, new = load(argv[1]), load(argv[2])
    print("| benchmark | base | new | change | |")
    print("|---|---|---|---|---|")
    regressed = 0
    for name, (base_ns, unit) in base.items():
        if name not in new:
            print("| %s | %s | - | removed | |" % (name, fmt(base_ns, unit)))
            continue
        new_ns, _ = new[name]
        change = new_ns / base_ns - 1.0 if base_ns else 0.0
        flag = "REGRESSION" if change > THRESHOLD else ""
        regressed += bool(flag)
        print("| %s | %s | %s | %+.1f%% | %s |"
              % (name, fmt(base_ns, unit), fmt(new_ns, unit), 100 * change,
                 flag))
    for name, (new_ns, unit) in new.items():
        if name not in base:
            print("| %s | - | %s | added | |" % (name, fmt(new_ns, unit)))
    print()
    print("%d of %d benchmarks more than %d%% slower than the baseline"
          % (regressed, len(base), round(100 * THRESHOLD)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
