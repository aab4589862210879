//===--- main.cpp - End-to-end analysis benchmark driver ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Usage:
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-file PATH]
//
// Prints a human-readable report, one "name = value unit" line per
// metric, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Exits 1 without a result when set-up fails. e2ebench/run.py is
// the user-facing command.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\nworkloads:",
               Msg);
  for (const std::string &W : e2e::workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  e2e::RunOptions O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return usage("--seed takes a whole number");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0))
        return usage("--seconds takes a positive number");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--trace-file") {
      O.TraceFile = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (O.Workload.empty())
    return usage("--workload is required");

  e2e::RunResult R;
  try {
    R = e2e::runWorkload(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "e2ebench: %s\n", E.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, trace %d\n", O.Workload.c_str(),
              (unsigned long long)O.Seed, O.Trace ? 1 : 0);
  for (const std::string &Line : R.Report)
    std::printf("  %s\n", Line.c_str());
  for (const e2e::Metric &M : R.Metrics)
    std::printf("  %s = %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.10g", R.Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
            Num + ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
