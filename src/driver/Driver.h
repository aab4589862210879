//===--- Driver.h - Shared tool driver plumbing -----------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CLI half of the shared driver layer. Both tools own a
/// DriverContext; it registers the cross-cutting flags (--trace=FILE,
/// --metrics=FILE, --format=text|json|sarif, --explain, --stats,
/// --cache-dir, --solver), owns the process's AnalysisService, and
/// writes the requested artifacts at exit.
///
/// The analysis itself no longer lives here: since the service layer
/// (src/service) became the one request path, the context's job is to
/// translate flags into an AnalysisRequest (applyCommonRequest), route
/// the response's payload to the historical stream (emitPayload), and
/// flush artifacts. The observability accessors forward into the owned
/// service so library code and tests see one registry/sink per process:
///
///  - The registry is always live: --stats renders from it and the
///    library counters (block caches, solver, analyses) are cheap relaxed
///    atomics, so there is no "metrics off" tool mode to keep consistent.
///  - The trace sink is attached only when --trace was given; a null sink
///    pointer is the library-level off switch (one branch per site).
///  - The provenance sink is attached only when the output needs recorded
///    evidence (--explain or --format=sarif); null is the same
///    one-branch-per-site off switch.
///  - With --format=json or --format=sarif, stdout carries exactly one
///    JSON document, so machine consumers can pipe it straight into a
///    JSON parser; human-oriented extras (--stats) move to stderr.
///    Machine formats emit diagnostics sorted by (location, id) so the
///    document does not depend on the order they were reported in.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_DRIVER_DRIVER_H
#define MIX_DRIVER_DRIVER_H

#include "driver/OptionParser.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "provenance/Provenance.h"
#include "service/AnalysisService.h"
#include "solver/SolverFactory.h"

#include <string>

namespace mix::driver {

/// Cross-cutting driver state: the owned analysis service plus the
/// output-format switches, shared verbatim by both CLIs.
class DriverContext {
public:
  enum class OutputFormat { Text, Json, Sarif };

  /// The CLIs default-construct (one-shot service, shared registry);
  /// mixyd passes its daemon configuration (warm sessions, per-request
  /// metrics) so artifact writing and observability still route through
  /// one context.
  explicit DriverContext(service::ServiceConfig Config = {}) : Svc(Config) {}

  /// Registers --trace, --metrics, --format, --explain, --stats,
  /// --cache-dir, and --solver on \p P. The CLI-output trio (--format,
  /// --explain, --stats) registers under the option group "cli-output",
  /// and --cache-dir under "cache-dir", so a front end can exclude a
  /// group and still reuse this registrar without inheriting flags that
  /// make no sense for it: mixyd has per-request output and excludes
  /// "cli-output"; mixcheck persists nothing and excludes "cache-dir".
  void registerOptions(OptionParser &P);

  /// The service this context runs requests against (CLI configuration:
  /// no warm sessions, shared metrics registry).
  service::AnalysisService &service() { return Svc; }

  /// Copies the parsed cross-cutting flags into \p Req: output format,
  /// --explain, --trace attachment, --cache-dir, the solver spec, and
  /// the input name recorded by setInputName.
  void applyCommonRequest(service::AnalysisRequest &Req) const;

  /// Writes a response's diagnostics payload to the historical stream:
  /// machine formats (json/sarif) are the one document on stdout, text
  /// goes to stderr.
  void emitPayload(const std::string &Payload);

  /// The solver backend selection parsed from --solver (default:
  /// smtlite). --solver validates its value against the registered
  /// backends at parse time, so by the time a tool reads this the spec is
  /// known-constructible.
  const smt::SolverSpec &solverSpec() const { return Solver; }

  /// The registry every analysis in the process reports into.
  obs::MetricsRegistry &metrics() { return Svc.metrics(); }

  /// The trace sink to hand to analyses: the real sink when --trace or
  /// --profile was given (both need recorded spans), null otherwise
  /// (which turns every instrumentation site into a branch).
  obs::TraceSink *traceSink() {
    return TraceFile.empty() && ProfileFile.empty() ? nullptr
                                                    : &Svc.traceSink();
  }

  /// The provenance sink to hand to analyses: live (counting into the
  /// registry's provenance.* counters) when the selected output renders
  /// evidence — --explain or --format=sarif — and null otherwise, which
  /// keeps recording at one branch per site.
  prov::ProvenanceSink *provenanceSink();

  bool statsRequested() const { return Stats; }
  OutputFormat format() const { return Format; }
  bool jsonOutput() const { return Format != OutputFormat::Text; }
  bool explainRequested() const { return Explain; }

  /// Remembers the input path so SARIF output can cite it as the
  /// artifact URI ("input" when never set, e.g. stdin).
  void setInputName(const std::string &Name) { InputName = Name; }

  /// The --cache-dir value, empty when the user passed none.
  const std::string &cacheDir() const { return CacheDir; }

  /// Writes the --trace and --metrics artifacts, if requested, and saves
  /// the service's persistent cache sessions (if any). Returns false
  /// (with an error on stderr) when a file cannot be written; a cache
  /// save failure warns on stderr but does not fail the run.
  bool writeArtifacts(const std::string &Tool);

private:
  service::AnalysisService Svc;
  std::string TraceFile;
  std::string ProfileFile;
  std::string MetricsFile;
  std::string CacheDir;
  std::string InputName;
  smt::SolverSpec Solver;
  bool Stats = false;
  bool Explain = false;
  OutputFormat Format = OutputFormat::Text;
};

/// Writes \p Content to \p Path. Returns false after printing
/// "<tool>: cannot write '...'" to stderr.
bool writeFile(const std::string &Tool, const std::string &Path,
               const std::string &Content);

/// The --stats "phase breakdown" table: one line for each of the six
/// phases, 0 us included, with its share of the request's wall time, so
/// two runs of one input print the same lines. Phases nest (typecheck
/// contains fixpoint contains block-exec contains solver), so the
/// percentages are inclusive and do not sum to 100. Empty when the
/// response carries no attribution (telemetry off, so no request id).
std::string renderPhaseBreakdown(const service::AnalysisResponse &Resp);

} // namespace mix::driver

#endif // MIX_DRIVER_DRIVER_H
