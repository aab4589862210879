#!/usr/bin/env python3
"""Drives a mixyd daemon over stdio and checks the protocol contract.

Usage: mixyd_smoke.py <mixyd-binary> [<mixyc-binary>]

Speaks newline-delimited JSON-RPC 2.0 to one daemon process and asserts:
  * a cold analyze carries per-request metric deltas (the fixpoint ran),
  * an identical repeat answers from_cache with no metrics (it did not),
  * the diagnostics payload is byte-identical to what the CLI prints for
    the same input and format (when a mixyc binary is given),
  * "stream": true delivers per-diagnostic notifications before the result,
  * protocol errors (bad JSON, bad version, unknown field, unknown method)
    come back as the right structured JSON-RPC error codes,
  * an unknown solver backend is a usage error (exit 2), not a crash,
  * a program and then its edit, served warm, get the answer the CLI
    gives on the edit (when a mixyc binary is given),
  * executed responses carry request telemetry (request_id, total_us,
    phases) and cache hits carry a fresh id but no phase work,
  * status counters account for every request and expose request-latency
    quantiles plus the slow-request log,
  * the metrics method returns OpenMetrics text that carries the
    analyses' engine counters (solver, csym), and shutdown exits 0.

Responses are matched by JSON-RPC id, never by arrival order: analyses run
on a worker pool, so the daemon may legally answer out of order.

Used by ctest (tool_mixyd_stdio_smoke) and the CI daemon smoke step.
"""

import json
import signal
import subprocess
import sys
import time


class DaemonClient:
    def __init__(self, binary, args=()):
        self.proc = subprocess.Popen(
            [binary, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.pending = {}  # id -> response envelope
        self.notifications = []

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def send_raw(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def recv(self, want_id):
        """Reads envelopes until the response for want_id arrives; buffers
        other responses and collects notifications on the side."""
        if want_id in self.pending:
            return self.pending.pop(want_id)
        while True:
            line = self.proc.stdout.readline()
            assert line, f"daemon closed the pipe while waiting for id {want_id}"
            msg = json.loads(line)
            assert msg.get("jsonrpc") == "2.0", msg
            if "method" in msg:  # notification (streamed diagnostic)
                self.notifications.append(msg)
                continue
            if msg.get("id") == want_id:
                return msg
            self.pending[msg["id"]] = msg

    def request(self, rid, method, params=None):
        msg = {"jsonrpc": "2.0", "id": rid, "method": method}
        if params is not None:
            msg["params"] = params
        self.send(msg)
        return self.recv(rid)

    def close(self):
        self.proc.stdin.close()
        return self.proc.wait(timeout=60)


def analyze_params(**kw):
    params = {"version": 1, "tool": "mixy"}
    params.update(kw)
    return params


def run_cli(mixyc, args, stdin=None):
    return subprocess.run([mixyc, *args], capture_output=True, text=True,
                          input=stdin)


# a and b both pass a null to h, which dereferences it; the edit takes h
# out of a, so only b's warm summary can still report the dereference.
SHARED_CALLEE = """void h(int *p) {
  *p = 1;
}
void a(int *p) MIX(symbolic) {
  h(p);
}
void b(int *p) MIX(symbolic) {
  h(p);
}
int main(void) {
  a(NULL);
  b(NULL);
  return 0;
}
"""
SHARED_CALLEE_EDIT = SHARED_CALLEE.replace(
    "void a(int *p) MIX(symbolic) {\n  h(p);",
    "void a(int *p) MIX(symbolic) {\n  p = p;")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    mixyd = sys.argv[1]
    mixyc = sys.argv[2] if len(sys.argv) > 2 else None
    signal.alarm(300)  # hard stop if the daemon ever hangs

    client = DaemonClient(mixyd)

    # 1. Cold analyze: json format. Exit 0 (case1 annotated is clean); the
    #    response must carry its own engine metric deltas.
    cold = client.request(
        1, "analyze", analyze_params(corpus="case1", input_name="@case1",
                                     format="json"))
    result = cold["result"]
    assert result["version"] == 1, result
    assert result["exit"] == 0, result
    assert result.get("metrics"), "cold request must carry metric deltas"
    assert not result.get("from_cache"), result
    # The daemon runs with request telemetry on: an executed request
    # carries its id, wall time, and inclusive per-phase attribution.
    assert result.get("request_id"), result
    assert result.get("total_us", 0) > 0, result
    assert result.get("phases"), "executed request must carry phases"
    assert all(us <= result["total_us"] for us in result["phases"].values())

    # 2. Identical repeat: answered from the response cache, with no
    #    metrics field — the observable proof the fixpoint did not re-run.
    warm = client.request(
        2, "analyze", analyze_params(corpus="case1", input_name="@case1",
                                     format="json"))["result"]
    assert warm.get("from_cache") is True, warm
    assert "metrics" not in warm, "a cache hit did no engine work"
    # A cache hit is still a distinct request (fresh id) but did no phase
    # work, so the phase fields are absent.
    assert warm.get("request_id") and \
        warm["request_id"] != result["request_id"], warm
    assert "phases" not in warm and "total_us" not in warm, warm
    assert warm.get("payload", "") == result.get("payload", ""), \
        "warm payload must be byte-identical"

    # 3. Same input, sarif format: a different request key, executed fresh.
    sarif = client.request(
        3, "analyze", analyze_params(corpus="case1", input_name="@case1",
                                     format="sarif"))["result"]
    assert json.loads(sarif["payload"])["version"] == "2.1.0"

    # 4. Text format (the CLI's default stderr rendering).
    text = client.request(
        4, "analyze", analyze_params(corpus="vsftpd",
                                     input_name="@vsftpd"))["result"]
    assert text["exit"] == 1 and text["warnings"] > 0, text

    # CLI byte-identity: the daemon's payload against the tool's streams.
    if mixyc:
        cli = run_cli(mixyc, ["--format=json", "@case1"])
        assert cli.returncode == result["exit"]
        assert cli.stdout == result.get("payload", ""), \
            "daemon json payload != mixyc stdout"
        cli = run_cli(mixyc, ["--format=sarif", "@case1"])
        assert cli.stdout == sarif["payload"], \
            "daemon sarif payload != mixyc stdout"
        cli = run_cli(mixyc, ["@vsftpd"])
        assert cli.returncode == text["exit"]
        assert cli.stderr == text.get("payload", ""), \
            "daemon text payload != mixyc stderr"
        assert cli.stdout == f"{text['warnings']} warning(s)\n"

    # 5. Streaming: each diagnostic arrives as a notification before the
    #    final result envelope.
    streamed = client.request(
        5, "analyze", analyze_params(corpus="case1:baseline", baseline=True,
                                     stream=True))["result"]
    assert streamed["warnings"] > 0, streamed
    notes = [n for n in client.notifications
             if n["method"] == "diagnostic" and n["params"]["request"] == 5]
    assert len(notes) == len(streamed["diagnostics"]), \
        (len(notes), len(streamed.get("diagnostics", [])))
    for note, diag in zip(notes, streamed["diagnostics"]):
        assert note["params"]["diagnostic"] == diag

    # 6. Structured protocol errors.
    err = client.request(6, "analyze", analyze_params(formt="json"))["error"]
    assert err["code"] == -32602 and "formt" in err["message"], err
    err = client.request(
        7, "analyze", {"version": 2, "tool": "mixy", "corpus": "case1"})["error"]
    assert err["code"] == -32602 and "version" in err["message"], err
    err = client.request(8, "bogusMethod")["error"]
    assert err["code"] == -32601, err
    client.send_raw("this is not json")
    err = client.recv(None)["error"]
    assert err["code"] == -32700, err

    # 7. fileChanged: accepted (invalidation machinery is exercised by the
    #    unit tests; here we only check the wire contract).
    assert client.request(9, "fileChanged",
                          {"path": "/tmp/nonexistent.c"})["result"]["ok"]

    # 8. Status: every analyze accounted for. Four distinct keys executed
    #    (ids 1, 3, 4, 5), one cache hit (id 2); errors never reach the
    #    service.
    status = client.request(10, "status")["result"]
    assert status["in_flight"] == 0, status
    assert status["requests"] == 4, status
    assert status["cache_hits"] == 1, status
    assert status["busy_rejections"] == 0, status
    assert status["timeouts"] == 0, status
    # Request-latency quantiles: one histogram sample per executed
    # request, and the estimates are ordered.
    rq = status["request_us"]
    assert rq["count"] == 4, status
    assert 0 < rq["p50"] <= rq["p90"] <= rq["p99"], status
    # Slow-request log: every executed request, slowest first, unique ids.
    slow = status["slow_requests"]
    assert len(slow) == 4, status
    totals = [s["total_us"] for s in slow]
    assert totals == sorted(totals, reverse=True), status
    assert len({s["id"] for s in slow}) == 4, status

    # 9. OpenMetrics export: counters as _total, latency histograms as
    #    cumulative _bucket/_sum/_count series, terminated by # EOF.
    om = client.request(11, "metrics")["result"]["openmetrics"]
    assert "mix_service_requests_total 4" in om, om
    assert 'mix_service_request_us_bucket{le="+Inf"} 4' in om, om
    assert "mix_service_request_us_count 4" in om, om
    assert "mix_service_request_us_sum" in om, om
    assert om.endswith("# EOF\n"), om[-100:]
    # Each request records into a private registry that is then added
    # into the daemon's, so the exposition shows the analyses' work too.
    for series in ("mix_solver_queries_total", "mix_csym_paths_total"):
        line = next((l for l in om.splitlines()
                     if l.startswith(series + " ")), None)
        assert line and int(line.split()[1]) > 0, (series, om[:400])

    # 10. An unknown solver backend is a usage error naming the choices,
    #     and the daemon stays up to serve the next request.
    bad = client.request(
        12, "analyze", analyze_params(corpus="case1", solver="bogus"))["result"]
    assert bad["exit"] == 2, bad
    assert bad.get("error_text") == \
        "unknown solver backend 'bogus' (available: dnf smtlite)", bad
    nxt = client.request(
        13, "analyze", analyze_params(corpus="case1", input_name="@case1",
                                      format="json"))["result"]
    assert nxt["exit"] == 0, nxt

    # 11. A program, then its edit: the edit's answer replays b's warm
    #     block summary and must be what the CLI prints on the edit.
    first = client.request(
        14, "analyze", analyze_params(source=SHARED_CALLEE))["result"]
    assert first["exit"] == 1, first
    edit = client.request(
        15, "analyze", analyze_params(source=SHARED_CALLEE_EDIT))["result"]
    assert edit["exit"] == 1 and edit["warnings"] == 1, edit
    if mixyc:
        cli = run_cli(mixyc, ["-"], stdin=SHARED_CALLEE_EDIT)
        assert cli.returncode == edit["exit"]
        assert cli.stderr == edit.get("payload", ""), \
            "warm daemon answer on the edit != mixyc on the edit"

    # 12. Clean shutdown.
    assert client.request(16, "shutdown")["result"]["ok"]
    code = client.close()
    assert code == 0, f"daemon exited {code}"

    # 13. Deadline mode: a request that finishes before --deadline-ms gets
    #     exactly one reply. The watcher sweeps at the deadline even when
    #     the worker already answered; it must retire the ticket silently,
    #     not append a second bogus timeout error for the same id.
    client = DaemonClient(mixyd, ["--deadline-ms=1000"])
    ok = client.request(
        1, "analyze", analyze_params(corpus="case1", input_name="@case1",
                                     format="json"))
    assert ok["result"]["exit"] == 0, ok
    time.sleep(1.5)  # let the deadline pass and the watcher sweep
    status = client.request(2, "status")["result"]
    assert status["timeouts"] == 0, status
    assert not client.pending, \
        f"extra envelopes after completion: {client.pending}"
    assert client.request(3, "shutdown")["result"]["ok"]
    code = client.close()
    assert code == 0, f"deadline-mode daemon exited {code}"

    print("mixyd stdio smoke: all checks passed")


if __name__ == "__main__":
    main()
