//===--- AnalysisService.h - Analysis as a library API ----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Run an analysis" as a first-class library call. This layer carves the
/// request path out of the two CLIs: a versioned AnalysisRequest names the
/// tool, the input, and every semantic knob the CLIs expose; run() executes
/// it against the paper's analyses and returns an AnalysisResponse with the
/// rendered diagnostics payload, structured diagnostics, per-request metric
/// deltas, and the exit classification — it never writes to stdout/stderr.
///
/// Two consumers sit on top:
///  - mixcheck/mixyc stay thin clients: parse flags, build a request, call
///    run(), and copy the response pieces to the historical streams in the
///    historical order, so their output is byte-identical to the pre-service
///    tools (ServiceTest and the CI daemon smoke enforce this).
///  - mixyd keeps one AnalysisService hot and calls serve(), which adds
///    what a long-lived server needs: in-flight deduplication by request
///    key, a bounded response cache (a warm repeat answers without
///    re-running the fixpoint — its metric deltas are empty), and persist
///    sessions (on-disk or in-memory) kept warm across requests.
///
/// Payload contract (the byte-identity anchor): Payload holds exactly what
/// the CLI writes for the chosen format — text renders each diagnostic per
/// line (with --explain evidence when requested) as the CLI sends to
/// stderr; json is DiagnosticEngine::renderJSON(sorted) plus "\n"; sarif is
/// the SARIF 2.1.0 log plus "\n". Everything else the CLIs print (stats,
/// auto-place notes, the final ok/rejected/warning-count line) is carried
/// as separate structured fields so clients control stream interleaving.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SERVICE_ANALYSISSERVICE_H
#define MIX_SERVICE_ANALYSISSERVICE_H

#include "mix/MixChecker.h"
#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"
#include "persist/PersistSession.h"
#include "provenance/Provenance.h"
#include "solver/SolverFactory.h"
#include "support/Diagnostics.h"
#include "symexec/SymExecutor.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mix::service {

/// Version of the request/response model (and of the mixyd wire protocol,
/// which serializes exactly these structs). Bump on any incompatible
/// change; decodeRequest rejects other versions.
inline constexpr int ProtocolVersion = 1;

enum class Tool { MixCheck, Mixy };
enum class Format { Text, Json, Sarif };

/// One analysis to run. Plain data: everything the two CLIs can express
/// (minus their output plumbing), so a request built from argv and one
/// decoded from JSON-RPC take the identical path through the engines.
struct AnalysisRequest {
  int Version = ProtocolVersion;
  Tool ToolKind = Tool::Mixy;

  /// Input, one of three shapes (first non-empty wins in this order):
  /// inline source text (Source with HasSource), a built-in corpus spec
  /// ("case1".."case4" / "vsftpd", optionally ":baseline"), or a file
  /// path read when the request runs.
  std::string Source;
  bool HasSource = false;
  std::string Corpus;
  std::string Path;
  /// Artifact name cited by SARIF output; defaults to the path or
  /// "@corpus" spec when empty (stdin/inline stays unnamed).
  std::string InputName;

  Format OutputFormat = Format::Text;
  bool Explain = false;
  smt::SolverSpec Solver;
  /// Record a trace of this request into the service's trace sink.
  bool Trace = false;
  /// Persistent cache directory; empty uses no on-disk cache (the daemon
  /// may still attach a warm in-memory session, which cannot change
  /// output — see DESIGN.md section 15).
  std::string CacheDir;
  bool Incremental = false;

  // --- mixcheck knobs ---
  bool Symbolic = false;
  bool AutoPlace = false;
  bool PrintProgram = false;
  SymExecOptions::Strategy Strategy = SymExecOptions::Strategy::Fork;
  SymExecOptions::HavocPolicy Havoc = SymExecOptions::HavocPolicy::FullMemory;
  bool PreciseDeref = false;
  bool AssumeComplete = false;
  MixOptions::Exploration Explore = MixOptions::Exploration::AllPaths;
  /// Free variables for Gamma: (name, type spec like "int ref").
  std::vector<std::pair<std::string, std::string>> Vars;

  // --- mixy knobs ---
  bool Baseline = false;
  std::string Entry = "main";
  bool StartSymbolic = false;
  bool NoCache = false;
  bool NoAliasRestore = false;
  bool WarnDerefs = false;
};

/// One top-level diagnostic (or attached note) in render order — the
/// structured twin of the payload, which the daemon streams incrementally.
struct DiagnosticSummary {
  std::string Id;       ///< "MIX401"
  std::string Severity; ///< "error" | "warning" | "note"
  unsigned Line = 0;
  unsigned Column = 0;
  std::string Message;
};

/// What running a request produced. Exit follows the CLI contract
/// (0 clean, 1 findings, 2 usage/parse error).
struct AnalysisResponse {
  int Version = ProtocolVersion;
  int Exit = 0;

  /// The diagnostics bytes for the requested format (see file comment).
  std::string Payload;
  /// Usage-error text without the tool prefix (e.g. "bad type 'intt' for
  /// variable x", or the input-resolution failure); empty when none. The
  /// CLIs print "<tool>: <ErrorText>" to stderr.
  std::string ErrorText;

  unsigned Warnings = 0; ///< mixyc's "N warning(s)" count
  unsigned Errors = 0;

  // mixcheck results.
  bool Accepted = false;
  std::string ResultType; ///< accepted type's str(), empty on rejection
  /// "auto-placement inserted N symbolic block(s) in M refinement(s)\n"
  /// when --auto-place changed the program, else empty.
  std::string AutoPlaceNote;
  /// printExpr(program) + "\n" when PrintProgram, else empty.
  std::string PrintedProgram;

  // mixy block-cache counters, else empty.
  std::string SymCacheStats;
  std::string TypedCacheStats;

  /// Structured diagnostics in sorted render order (notes follow their
  /// parent), mirroring the sorted JSON/SARIF payload order.
  std::vector<DiagnosticSummary> Diagnostics;

  /// Name-sorted metric deltas this request added ("engine.*",
  /// "persist.*", "solver.*", ...). With ServiceConfig::PerRequestMetrics
  /// the engine-side counters are exact per request (each request runs
  /// against its own registry); the shared "persist.*" counters are exact
  /// when requests are sequential and approximate under concurrency.
  /// Empty on a response-cache hit — the observable proof that no engine
  /// work ran.
  std::vector<std::pair<std::string, uint64_t>> Metrics;

  bool FromCache = false; ///< served from the response cache (serve())
  bool Deduped = false;   ///< coalesced onto an identical in-flight run

  // --- request telemetry (ServiceConfig::RequestTelemetry) ---

  /// Stable per-request id ("r-17"); empty when telemetry is off. Cache
  /// and dedup hits get their own fresh id.
  std::string RequestId;
  /// End-to-end wall time of the execution, microseconds; 0 when
  /// telemetry is off or the response came from the cache.
  uint64_t TotalUs = 0;
  /// Inclusive per-phase wall microseconds, indexed by obs::Phase (the
  /// phase breakdown: typecheck contains fixpoint contains block-exec
  /// contains solver). All zero when telemetry is off.
  std::array<uint64_t, obs::NumPhases> PhaseUs{};
  /// This request's span tree (telemetry on and Trace requested), sorted
  /// by (ts, tid, name); empty otherwise.
  std::vector<obs::TraceEvent> Spans;
};

/// Service-level behavior switches.
struct ServiceConfig {
  /// Keep persist sessions warm across requests (daemon mode): on-disk
  /// sessions stay open (reopened when another writer bumps the cache
  /// generation), and requests without a CacheDir share in-memory
  /// sessions so summaries and solver verdicts survive between requests.
  bool KeepWarm = false;
  /// Run each request against a private metrics registry so its response
  /// carries exact engine/solver deltas even under concurrency (daemon
  /// mode). Off, every request records into metrics() — what the CLIs
  /// need for --stats and --metrics.
  bool PerRequestMetrics = false;
  /// How many recent requests the service remembers. serve() caches that
  /// many responses (FIFO eviction; 0 disables caching), and a warm
  /// in-memory session keeps only the block summaries that its last that
  /// many MIXY runs (at least one) stored or replayed.
  size_t ResponseCacheCap = 128;
  /// Attach a RequestTelemetry context to every executed request: stable
  /// request ids, a phase breakdown in the response, per-phase and
  /// whole-request histograms in metrics(), the slow-request log, and —
  /// when the request also sets Trace — a request-scoped span tree.
  /// Costs nothing on engine hot paths when off (null-handle discipline).
  bool RequestTelemetry = false;
  /// Capacity of the slow-request log (the slowest requests by wall
  /// time); 0 disables it.
  size_t SlowLogCap = 32;
};

/// One slow-request log entry: enough to answer "which request was slow,
/// and where did its time go" without a trace.
struct SlowRequest {
  std::string Id;
  uint64_t Key = 0; ///< requestKey() of the request
  uint64_t TotalUs = 0;
  std::array<uint64_t, obs::NumPhases> PhaseUs{};
  int Exit = 0;
  unsigned Warnings = 0;
  unsigned Errors = 0;
};

/// The service: owns the observability surfaces and warm state, turns
/// AnalysisRequests into AnalysisResponses. Thread-safe: serve() may be
/// called from many threads (mixyd does); requests that share a persist
/// session serialize on it, everything else runs concurrently.
class AnalysisService {
public:
  explicit AnalysisService(ServiceConfig Config = ServiceConfig());
  ~AnalysisService();

  /// The registry every request (in CLI mode) and all shared stores
  /// report into; --stats and --metrics render from it.
  obs::MetricsRegistry &metrics() { return Registry; }

  /// The trace sink requests with Trace=true record into.
  obs::TraceSink &traceSink() { return Sink; }

  /// The provenance sink used for requests that render evidence; counts
  /// into metrics() (attached lazily, once).
  prov::ProvenanceSink *provenanceSink();

  /// Turns on per-request telemetry after construction (the driver does
  /// this when --stats or --profile asks for a phase breakdown). Call
  /// before the first request.
  void enableRequestTelemetry() { Config.RequestTelemetry = true; }

  /// The slowest requests seen so far, slowest first (bounded by
  /// ServiceConfig::SlowLogCap).
  std::vector<SlowRequest> slowRequests() const;

  /// Executes the request unconditionally (no dedup, no response cache;
  /// warm sessions still apply under KeepWarm). What the CLIs call.
  AnalysisResponse run(const AnalysisRequest &Req);

  /// The daemon entry point: answers identical requests from the response
  /// cache, coalesces identical in-flight requests onto one execution,
  /// otherwise runs. Identity is requestKey() — resolved source bytes
  /// plus every semantic knob.
  AnalysisResponse serve(const AnalysisRequest &Req);

  /// A client reports that \p Path changed: cached responses that were
  /// computed from that path are dropped and every warm session forgets
  /// its block summaries and manifest (solver verdicts survive — they
  /// are keyed by the formula, not the file). Correctness does not
  /// depend on this call: path inputs are re-read and content-hashed per
  /// request; this reclaims warm state eagerly.
  void fileChanged(const std::string &Path);

  /// Saves every open persist session (no-op for in-memory ones).
  /// Returns false with \p Error set on the first failing session; true
  /// when there is nothing to save.
  bool save(std::string *Error = nullptr);

  /// Checks the solver backend, then resolves the request input to
  /// source text (inline > corpus > path). Returns false with \p Error
  /// set ("unknown solver backend 'b' (available: ...)", "unknown corpus
  /// 'x'", "cannot read 'p'", "no input") — ErrorText shape, no tool
  /// prefix.
  static bool resolveInput(const AnalysisRequest &Req, std::string &SourceOut,
                           std::string &Error);

  /// The dependency-closure identity serve() dedups and caches by:
  /// a stable digest of the resolved source bytes and every
  /// output-affecting request field (format, explain, knobs, solver,
  /// cache configuration).
  uint64_t requestKey(const AnalysisRequest &Req,
                      const std::string &Source) const;

  /// Renders \p Diags exactly as the CLIs do for \p F (see the payload
  /// contract above). Exposed so clients and tests can cross-check
  /// payloads against a DiagnosticEngine they ran themselves.
  static std::string renderPayload(const DiagnosticEngine &Diags, Format F,
                                   bool Explain, const std::string &ToolName,
                                   const std::string &InputName);

private:
  struct SessionEntry {
    /// Shared so a request keeps its session alive even if a concurrent
    /// reopen (externallyModified) swaps the map entry underneath it.
    std::shared_ptr<persist::PersistSession> Session;
    /// Present when concurrent requests may share the session and it has
    /// state that is not internally synchronized (the mixy manifest);
    /// such requests serialize on it.
    std::unique_ptr<std::mutex> Lock;
    std::string Path; ///< cache directory ("" for in-memory)
  };
  struct Pending {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    AnalysisResponse Response;
  };

  AnalysisResponse execute(const AnalysisRequest &Req,
                           const std::string &Source);
  void runMixCheck(const AnalysisRequest &Req, const std::string &Source,
                   DiagnosticEngine &Diags, obs::MetricsRegistry &Reg,
                   obs::RequestTelemetry *T, AnalysisResponse &Resp);
  void runMixy(const AnalysisRequest &Req, const std::string &Source,
               DiagnosticEngine &Diags, obs::MetricsRegistry &Reg,
               obs::RequestTelemetry *T, AnalysisResponse &Resp);

  /// Fresh "r-<n>" id (telemetry mode only).
  std::string nextRequestId() {
    return "r-" + std::to_string(
                      NextRequestId.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  /// Records a finished request into the bounded slow-request log.
  void noteSlowRequest(const AnalysisResponse &Resp, uint64_t Key);

  /// Finds or opens the persist session for this request (null when the
  /// request gets none), emitting the MIX502 degradation note exactly as
  /// the CLI driver did. When the session is shared and lockable, \p
  /// SessionLock is locked before return.
  std::shared_ptr<persist::PersistSession>
  openSession(const AnalysisRequest &Req, bool Incremental,
              uint64_t Fingerprint, DiagnosticEngine &Diags,
              std::unique_lock<std::mutex> &SessionLock);

  void fillStructured(const DiagnosticEngine &Diags, AnalysisResponse &Resp);

  ServiceConfig Config;
  obs::MetricsRegistry Registry;
  obs::TraceSink Sink;
  prov::ProvenanceSink Prov;
  bool ProvAttached = false;

  std::atomic<uint64_t> NextRequestId{0};

  std::mutex M; ///< guards everything below (cold path only)
  std::vector<SlowRequest> SlowLog; ///< sorted slowest-first, bounded
  std::map<std::string, SessionEntry> Sessions;
  std::map<uint64_t, std::shared_ptr<Pending>> InFlight;
  std::map<uint64_t, AnalysisResponse> ResponseCache;
  std::deque<uint64_t> ResponseOrder; ///< FIFO eviction order
  std::map<uint64_t, std::string> ResponsePath; ///< key -> source path
};

} // namespace mix::service

#endif // MIX_SERVICE_ANALYSISSERVICE_H
