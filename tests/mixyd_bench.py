#!/usr/bin/env python3
"""Benchmarks cold CLI runs against a warm mixyd daemon.

Usage: mixyd_bench.py <mixyd-binary> <mixyc-binary> [<out.json>]

Three measurements, written as one JSON document (default BENCH_daemon.json):
  * cold_cli_ms: per-request latency of a fresh mixyc process per request
    (fork + engine cold start every time),
  * warm_daemon_ms: per-request latency of the same requests against one
    daemon that keeps the engines and response cache warm — the repeats
    answer from_cache without re-running the fixpoint,
  * dedup: how a burst of identical concurrent requests is coalesced
    (executions vs cache hits vs in-flight dedup hits).

Non-gating: numbers are archived by CI for trend inspection, never
asserted against thresholds.
"""

import json
import subprocess
import sys
import threading
import time


CORPORA = ["case1", "case2", "case3", "case4", "vsftpd"]
ROUNDS = 4  # each corpus is requested this many times


class Daemon:
    """Thread-safe JSON-RPC client: a background thread drains stdout so
    concurrent callers never serialize behind one blocked readline."""

    def __init__(self, binary, args=()):
        self.proc = subprocess.Popen(
            [binary, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.cond = threading.Condition()
        self.pending = {}
        self.closed = False
        self.next_id = 0
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()

    def _drain(self):
        for line in self.proc.stdout:
            got = json.loads(line)
            if "method" in got:
                continue  # streamed notification; not measured here
            with self.cond:
                self.pending[got.get("id")] = got
                self.cond.notify_all()
        with self.cond:
            self.closed = True
            self.cond.notify_all()

    def call(self, method, params=None):
        with self.cond:
            self.next_id += 1
            rid = self.next_id
            msg = {"jsonrpc": "2.0", "id": rid, "method": method}
            if params is not None:
                msg["params"] = params
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
            self.cond.wait_for(lambda: rid in self.pending or self.closed)
            assert rid in self.pending, "daemon closed the pipe"
            return self.pending.pop(rid)

    def close(self):
        self.call("shutdown")
        self.proc.stdin.close()
        self.reader.join(timeout=60)
        return self.proc.wait(timeout=60)


def bench_cold_cli(mixyc):
    times = []
    for _ in range(ROUNDS):
        for corpus in CORPORA:
            start = time.monotonic()
            subprocess.run([mixyc, "--format=json", f"@{corpus}"],
                           capture_output=True)
            times.append((time.monotonic() - start) * 1000.0)
    return times


def bench_warm_daemon(daemon):
    times = []
    cached = 0
    # Per-phase wall time (inclusive, microseconds) as attributed by the
    # daemon's request telemetry. Only executed requests carry a phase
    # breakdown; cache hits contribute a latency sample but no phases.
    phase_us = {}
    for _ in range(ROUNDS):
        for corpus in CORPORA:
            params = {"version": 1, "tool": "mixy", "corpus": corpus,
                      "input_name": f"@{corpus}", "format": "json"}
            start = time.monotonic()
            resp = daemon.call("analyze", params)
            times.append((time.monotonic() - start) * 1000.0)
            if resp["result"].get("from_cache"):
                cached += 1
            for phase, us in resp["result"].get("phases", {}).items():
                phase_us.setdefault(phase, []).append(us)
    return times, cached, phase_us


def bench_dedup(daemon, burst=8):
    # Six independent branches give the block 64 paths, each classified by
    # a solver query, so one execution takes milliseconds: a wide enough
    # in-flight window that the burst exercises dedup even on one core.
    names = "abcdef"
    params = {"version": 1, "tool": "mixcheck",
              "source": "{s " + " + ".join(
                  "(if %s then 1 else 2)" % n for n in names) + " s}",
              "vars": [{"name": n, "type": "bool"} for n in names],
              "input_name": "bench-dedup", "format": "json"}
    threads = [threading.Thread(target=daemon.call, args=("analyze", params))
               for _ in range(burst)]
    before = daemon.call("status")["result"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    after = daemon.call("status")["result"]
    return {
        "burst": burst,
        "executed": after["requests"] - before["requests"],
        "cache_hits": after["cache_hits"] - before["cache_hits"],
        "dedup_hits": after["dedup_hits"] - before["dedup_hits"],
    }


def percentile(ordered, q):
    """Nearest-rank percentile of a pre-sorted sample."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def stats(times):
    ordered = sorted(times)
    return {
        "samples": len(ordered),
        "mean_ms": round(sum(ordered) / len(ordered), 3),
        "p50_ms": round(percentile(ordered, 0.50), 3),
        "p90_ms": round(percentile(ordered, 0.90), 3),
        "p99_ms": round(percentile(ordered, 0.99), 3),
        "max_ms": round(ordered[-1], 3),
    }


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    mixyd, mixyc = sys.argv[1], sys.argv[2]
    out_path = sys.argv[3] if len(sys.argv) > 3 else "BENCH_daemon.json"

    cold = bench_cold_cli(mixyc)
    # Several pool workers so burst requests genuinely overlap (the
    # default is one worker per hardware thread, which on a small runner
    # serializes the burst and never reaches the dedup path).
    daemon = Daemon(mixyd, ["--jobs=4"])
    warm, cached, phase_us = bench_warm_daemon(daemon)
    dedup = bench_dedup(daemon)
    code = daemon.close()
    assert code == 0, f"daemon exited {code}"

    report = {
        "benchmark": "daemon-vs-cli",
        "corpora": CORPORA,
        "rounds": ROUNDS,
        "cold_cli_ms": stats(cold),
        "warm_daemon_ms": stats(warm),
        "warm_from_cache": cached,
        # Median inclusive wall time per phase across the executed warm
        # requests (typecheck contains fixpoint contains block-exec
        # contains solver, so the medians do not sum to the total).
        "phase_median_us": {
            phase: percentile(sorted(samples), 0.50)
            for phase, samples in sorted(phase_us.items())
        },
        "dedup": dedup,
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
