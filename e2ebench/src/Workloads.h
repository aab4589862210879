//===--- Workloads.h - The benchmark's workloads and runner -----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload as a closed loop with a single client: each request
/// goes through AnalysisService (run() for the cold workloads, serve() on
/// a warm service for the daemon workload) only after the previous one
/// answered, with Jobs=1. Every response is checked against the input's
/// known answer (see Inputs.h).
///
/// Untraced runs report the end-to-end metrics, their times scaled by the
/// machine-speed probe (SpeedProbe.h). Traced runs first repeat
/// the untraced loop for a third of the time, then trace the rest: each
/// request's span tree joins the benchmark's own spans (around the
/// service call and around direct calls into cfront, ptranal, qual and
/// lang) with the spans the traced request returns, and the per-layer
/// metrics are computed from that tree and from the request's counter
/// deltas.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_E2EBENCH_WORKLOADS_H
#define MIX_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where a traced run writes its per-request records and span trees;
  /// empty writes nothing.
  std::string TraceFile;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// failed_ratio, the per-input work split of a traced run).
  std::vector<std::string> Report;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// Runs one workload. Throws std::runtime_error when set-up fails: an
/// unknown workload, or a generated input the service answers with a
/// usage or parse error (exit 2).
RunResult runWorkload(const RunOptions &Opts);

} // namespace e2e

#endif // MIX_E2EBENCH_WORKLOADS_H
