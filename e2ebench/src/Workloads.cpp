//===--- Workloads.cpp - The benchmark's workloads and runner -------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Inputs.h"
#include "SpeedProbe.h"
#include "Stats.h"

#include "cfront/CParser.h"
#include "concrete/Interp.h"
#include "lang/Parser.h"
#include "ptranal/PointsTo.h"
#include "qual/QualInference.h"
#include "service/AnalysisService.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>

using namespace e2e;
using mix::service::AnalysisRequest;
using mix::service::AnalysisResponse;
using mix::service::AnalysisService;
using mix::service::ServiceConfig;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// An untraced run measures at least this many requests, so p90 has ten
/// samples beyond it.
constexpr uint64_t MinSamples = 100;
/// Traced loops report means, not tail percentiles.
constexpr uint64_t MinTracedSamples = 8;
/// A run that has not reached its minimum sample count stops measuring
/// here anyway, so the process ends well inside its time limit.
constexpr double MaxMeasureSeconds = 120;
/// Set-up runs this often per run; setup_s is the median.
constexpr unsigned SetupRepeats = 5;
/// The timed loop probes the machine's speed at least this often; a
/// request that takes longer gets a probe on each side of it.
constexpr double ProbeWindowSeconds = 0.05;

using Counters = std::map<std::string, uint64_t>;

Counters countersOf(const AnalysisResponse &R) {
  Counters C;
  for (const auto &[Name, V] : R.Metrics)
    C[Name] = V;
  return C;
}

uint64_t get(const Counters &C, const std::string &Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

/// Per-layer numbers one traced request contributes. Times are
/// microseconds; everything is summed over the traced requests.
struct LayerSums {
  std::map<std::string, double> V;
  void add(const std::string &K, double X) { V[K] += X; }
  double operator[](const std::string &K) const {
    auto It = V.find(K);
    return It == V.end() ? 0 : It->second;
  }
};

/// A workload: how to make its inputs, which service to run them on, how
/// to phrase request I, and what the answer must be.
class Workload {
public:
  virtual ~Workload() = default;

  /// Generates the inputs; a pure function of the seed.
  virtual void generate(uint64_t Seed) = 0;

  /// The service configuration requests run against. Traced runs add
  /// request telemetry to it.
  virtual ServiceConfig config() const { return ServiceConfig(); }

  /// serve() (daemon path) instead of run().
  virtual bool useServe() const { return false; }

  /// Distinct inputs; set-up validates each and the untimed warm-up
  /// answers each once.
  virtual size_t numInputs() const = 0;
  virtual AnalysisRequest inputRequest(size_t Input) const = 0;

  /// The request set-up validates \p Input with: it must not be a usage
  /// or parse error. MIXY inputs are validated with a baseline request,
  /// which parses the input exactly like the real one but then runs only
  /// qualifier inference, the same work every time, so set-up time is
  /// steady.
  virtual AnalysisRequest validationRequest(size_t Input) const {
    return inputRequest(Input);
  }

  /// Request number \p I of the timed loop and the input it belongs to
  /// (for the per-input work split).
  virtual AnalysisRequest request(uint64_t I, size_t &Input) const = 0;

  /// Does \p R match the known answer of \p Input?
  virtual bool check(size_t Input, const AnalysisResponse &R) const = 0;

  /// Oracles that run after the timed loop: inputs whose answer the
  /// oracle refutes (every request on them counts as failed).
  virtual std::vector<bool> refuted(const std::vector<bool> &Answered) const {
    return std::vector<bool>(Answered.size(), false);
  }

  /// Direct calls into the layers the service does not expose one by
  /// one, each wrapped in a benchmark span on \p Sink's clock.
  virtual void traceLayers(const AnalysisRequest &Req, mix::obs::TraceSink &Sink,
                           SpanTree &Tree, LayerSums &L) const = 0;
};

/// Times \p F as a span named \p Name.
template <typename Fn>
void timed(mix::obs::TraceSink &Sink, SpanTree &Tree, const char *Name, Fn F) {
  uint64_t B = Sink.nowUs();
  F();
  Tree.add(Name, {B, Sink.nowUs()});
}

//===----------------------------------------------------------------------===//
// MIXY workloads
//===----------------------------------------------------------------------===//

AnalysisRequest mixyRequest(std::string Source) {
  AnalysisRequest Req;
  Req.ToolKind = mix::service::Tool::Mixy;
  Req.Source = std::move(Source);
  Req.HasSource = true;
  Req.Entry = "filler_main";
  return Req;
}

AnalysisRequest baseline(AnalysisRequest Req) {
  Req.Baseline = true;
  return Req;
}

bool matchesMixyAnswer(const AnalysisResponse &R, bool WithCorpus) {
  MixyAnswer A(WithCorpus);
  if (R.Exit != A.Exit || R.Warnings != A.Warnings)
    return false;
  unsigned Seen = 0;
  for (const auto &D : R.Diagnostics) {
    if (D.Severity == "note")
      continue;
    if (D.Severity != "warning" || D.Line != A.WarningLine ||
        D.Message.find(A.WarningText) == std::string::npos)
      return false;
    ++Seen;
  }
  return Seen == A.Warnings;
}

void traceMixyLayers(const std::string &Source, mix::obs::TraceSink &Sink,
                     SpanTree &Tree, LayerSums &L) {
  mix::c::CAstContext Ctx;
  mix::DiagnosticEngine Diags;
  const mix::c::CProgram *P = nullptr;
  timed(Sink, Tree, "cfront.parse",
        [&] { P = mix::c::parseC(Source, Ctx, Diags); });
  if (!P)
    return;
  mix::c::PointsToAnalysis PT(*P, Ctx, Diags);
  timed(Sink, Tree, "ptranal.run", [&] { PT.run(); });
  L.add("ptranal.cells", PT.numCells());
  mix::c::QualInference Q(*P, Ctx, Diags);
  timed(Sink, Tree, "qual.generate", [&] { Q.analyzeAll(); });
  timed(Sink, Tree, "qual.solve", [&] { Q.solve(); });
  L.add("qual.nodes", Q.graph().numNodes());
  L.add("qual.edges", Q.graph().numEdges());
}

/// Cold MIXY requests over a pool of seeded programs, one fresh service
/// and run() each, as one mixyc invocation: nothing (solver, arena,
/// response cache, metrics) carries over from the previous request.
class MixyCold : public Workload {
public:
  /// \p Inputs programs of \p Modules filler modules, \p Symbolic of
  /// them MIX(symbolic).
  MixyCold(unsigned Inputs, unsigned Modules, unsigned Symbolic,
           bool WithCorpus)
      : Inputs(Inputs), Modules(Modules), Symbolic(Symbolic),
        WithCorpus(WithCorpus) {}

  void generate(uint64_t Seed) override {
    Sources.clear();
    for (unsigned I = 0; I != Inputs; ++I)
      Sources.push_back(
          makeMixyProgram(Seed * 16 + I, Modules, Symbolic, WithCorpus)
              .source());
  }
  size_t numInputs() const override { return Sources.size(); }
  AnalysisRequest inputRequest(size_t Input) const override {
    return mixyRequest(Sources[Input]);
  }
  AnalysisRequest validationRequest(size_t Input) const override {
    return baseline(inputRequest(Input));
  }
  AnalysisRequest request(uint64_t I, size_t &Input) const override {
    Input = I % Sources.size();
    return inputRequest(Input);
  }
  bool check(size_t, const AnalysisResponse &R) const override {
    return matchesMixyAnswer(R, WithCorpus);
  }
  void traceLayers(const AnalysisRequest &Req, mix::obs::TraceSink &Sink,
                   SpanTree &Tree, LayerSums &L) const override {
    traceMixyLayers(Req.Source, Sink, Tree, L);
  }

private:
  unsigned Inputs, Modules, Symbolic;
  bool WithCorpus;
  std::vector<std::string> Sources;
};

/// The daemon path: one warm service (mixyd's configuration) answering
/// serve() requests. Request I edits one symbolic filler function of
/// base program I mod 4; several bases keep one seed's constants from
/// setting the whole run's cost.
class MixydEdit : public Workload {
public:
  void generate(uint64_t Seed) override {
    Bases.clear();
    Edits.clear();
    for (unsigned B = 0; B != 4; ++B) {
      Bases.push_back(makeMixyProgram(Seed * 16 + B, 24, 8, WithCorpus));
      Edits.push_back(makeMixyEdits(Seed * 16 + B, Bases.back(), 1 << 14));
    }
  }
  ServiceConfig config() const override {
    ServiceConfig C;
    C.KeepWarm = true;
    C.PerRequestMetrics = true;
    C.RequestTelemetry = true;
    return C;
  }
  bool useServe() const override { return true; }
  /// The warm-up serves each unedited base once: the cold runs that fill
  /// the warm session's block summaries.
  size_t numInputs() const override { return Bases.size(); }
  AnalysisRequest inputRequest(size_t Input) const override {
    return mixyRequest(Bases[Input].source());
  }
  AnalysisRequest validationRequest(size_t Input) const override {
    return baseline(inputRequest(Input));
  }
  AnalysisRequest request(uint64_t I, size_t &Input) const override {
    Input = I % Bases.size();
    const std::vector<MixyEdit> &E = Edits[Input];
    return mixyRequest(
        applyEdit(Bases[Input], E[(I / Bases.size()) % E.size()]).source());
  }
  bool check(size_t, const AnalysisResponse &R) const override {
    return matchesMixyAnswer(R, WithCorpus);
  }
  void traceLayers(const AnalysisRequest &Req, mix::obs::TraceSink &Sink,
                   SpanTree &Tree, LayerSums &L) const override {
    traceMixyLayers(Req.Source, Sink, Tree, L);
  }

private:
  static constexpr bool WithCorpus = true;
  std::vector<MixyProgram> Bases;
  std::vector<std::vector<MixyEdit>> Edits;
};

//===----------------------------------------------------------------------===//
// Core-language workload
//===----------------------------------------------------------------------===//

class MixCheckCore : public Workload {
public:
  void generate(uint64_t Seed) override {
    Programs = makeCorePrograms(Seed, 2048, 7);
  }
  size_t numInputs() const override { return Programs.size(); }
  AnalysisRequest inputRequest(size_t Input) const override {
    AnalysisRequest Req;
    Req.ToolKind = mix::service::Tool::MixCheck;
    Req.Source = Programs[Input].Source;
    Req.HasSource = true;
    Req.Vars = coreGamma();
    return Req;
  }
  AnalysisRequest request(uint64_t I, size_t &Input) const override {
    Input = I % Programs.size();
    return inputRequest(Input);
  }
  bool check(size_t Input, const AnalysisResponse &R) const override {
    const CoreProgram &P = Programs[Input];
    if (!P.Accepted)
      return R.Exit == 1 && !R.Accepted;
    return R.Exit == 0 && R.Accepted && R.ResultType == P.Type;
  }

  /// Theorem 1 as an oracle (the SoundnessTest property): an accepted
  /// program never evaluates to the error token, and its value has the
  /// accepted type, from seeded environments conforming to Gamma.
  std::vector<bool> refuted(const std::vector<bool> &Answered) const override {
    std::vector<bool> Out(Programs.size(), false);
    std::mt19937_64 Gen(0x5EED);
    for (size_t I = 0; I != Programs.size(); ++I) {
      const CoreProgram &P = Programs[I];
      if (!Answered[I] || !P.Accepted)
        continue;
      mix::AstContext Ctx;
      mix::DiagnosticEngine Diags;
      const mix::Expr *E = mix::parseExpression(P.Source, Ctx, Diags);
      if (!E) {
        Out[I] = true;
        continue;
      }
      for (int Trial = 0; Trial != 4 && !Out[I]; ++Trial) {
        mix::ConcMemory Mem;
        mix::ConcEnv Env;
        Env["x"] = mix::ConcValue::intValue((long long)(Gen() % 21) - 10);
        Env["y"] = mix::ConcValue::intValue((long long)(Gen() % 21) - 10);
        Env["b"] = mix::ConcValue::boolValue(Gen() % 2 == 0);
        Env["p"] = mix::ConcValue::locValue(Mem.allocate(
            mix::ConcValue::intValue((long long)(Gen() % 7) - 3)));
        mix::EvalResult R = mix::evaluate(E, Env, Mem);
        bool TypeOk = P.Type == "int" ? R.Value.isInt() : R.Value.isBool();
        Out[I] = R.IsError || !TypeOk;
      }
    }
    return Out;
  }

  void traceLayers(const AnalysisRequest &Req, mix::obs::TraceSink &Sink,
                   SpanTree &Tree, LayerSums &) const override {
    mix::AstContext Ctx;
    mix::DiagnosticEngine Diags;
    timed(Sink, Tree, "lang.parse",
          [&] { mix::parseExpression(Req.Source, Ctx, Diags); });
  }

private:
  std::vector<CoreProgram> Programs;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  // With the corpus in front, a program with k symbolic filler blocks
  // does either k+5 or 2k+5 block runs, each about half the time and
  // differently from process to process (ROADMAP: "deterministic work"),
  // and the slow mode costs about four times the fast one: no statistic
  // of such a run repeats. mixy-symbolic therefore runs the filler alone,
  // whose k blocks each run once; the corpus's own variance stays visible
  // in mixyd-edit's traced mixy.work_variance_share.
  if (Name == "mixy-symbolic")
    return std::make_unique<MixyCold>(4, 24, 8, /*WithCorpus=*/false);
  if (Name == "mixy-typed-large")
    return std::make_unique<MixyCold>(2, 1000, 0, /*WithCorpus=*/true);
  if (Name == "mixcheck-core")
    return std::make_unique<MixCheckCore>();
  if (Name == "mixyd-edit")
    return std::make_unique<MixydEdit>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

AnalysisResponse send(AnalysisService &S, const Workload &W,
                      const AnalysisRequest &Req) {
  return W.useServe() ? S.serve(Req) : S.run(Req);
}

/// Fails set-up when an input is a usage or parse error.
void validate(const Workload &W) {
  for (size_t I = 0; I != W.numInputs(); ++I) {
    AnalysisService S;
    AnalysisResponse R = S.run(W.validationRequest(I));
    if (R.Exit == 2)
      throw std::runtime_error("generated input " + std::to_string(I) +
                               " is a usage or parse error: " + R.ErrorText +
                               R.Payload);
  }
}

/// Answers every input once, untimed: caches fill, and the daemon
/// workload's warm session gets the summaries of the unedited program.
void warmUp(AnalysisService &S, const Workload &W) {
  for (size_t I = 0; I != W.numInputs(); ++I)
    send(S, W, W.inputRequest(I));
}

/// The end-to-end tally of one timed loop.
struct Loop {
  std::vector<double> LatencyMs;
  double BusySeconds = 0; ///< summed request wall time
  /// Request wall times scaled to the probe's reference speed, and the
  /// probe samples they were scaled by (untraced loops only).
  std::vector<double> ScaledMs, ProbeMs;
  uint64_t Failed = 0;
  std::vector<uint64_t> PerInputRequests, PerInputFailed;
  std::vector<bool> Answered; ///< the input got at least one response

  explicit Loop(size_t Inputs)
      : PerInputRequests(Inputs), PerInputFailed(Inputs), Answered(Inputs) {}

  void note(size_t Input, double Ms, bool Ok) {
    LatencyMs.push_back(Ms);
    BusySeconds += Ms / 1000;
    ++PerInputRequests[Input];
    Answered[Input] = true;
    if (!Ok) {
      ++Failed;
      ++PerInputFailed[Input];
    }
  }

  /// Folds in the post-loop oracles.
  void applyOracle(const std::vector<bool> &Refuted) {
    for (size_t I = 0; I != Refuted.size(); ++I)
      if (Refuted[I]) {
        Failed += PerInputRequests[I] - PerInputFailed[I];
        PerInputFailed[I] = PerInputRequests[I];
      }
  }

  double requestsPerSecond() const {
    return ratio((double)LatencyMs.size(), BusySeconds);
  }

  double scaledRequestsPerSecond() const {
    double Ms = 0;
    for (double X : ScaledMs)
      Ms += X;
    return ratio((double)ScaledMs.size(), Ms / 1000);
  }
};

bool keepGoing(Clock::time_point Start, double Seconds, uint64_t N,
               uint64_t MinN) {
  double T = secondsSince(Start);
  return T < MaxMeasureSeconds && (T < Seconds || N < MinN);
}

/// The untraced closed loop. Cold workloads build a fresh service per
/// request (outside the timed section); the daemon workload uses \p Warm.
/// The machine's speed is probed between requests, outside their timed
/// sections.
Loop measure(AnalysisService &Warm, const Workload &W, ServiceConfig C,
             double Seconds, uint64_t MinN) {
  Loop L(W.numInputs());
  ScaledClock Scaled(ProbeWindowSeconds);
  Clock::time_point Start = Clock::now();
  for (uint64_t I = 0; keepGoing(Start, Seconds, I, MinN); ++I) {
    size_t Input = 0;
    AnalysisRequest Req = W.request(I, Input);
    std::unique_ptr<AnalysisService> Fresh;
    if (!W.useServe())
      Fresh = std::make_unique<AnalysisService>(C);
    AnalysisService &S = Fresh ? *Fresh : Warm;
    Clock::time_point T0 = Clock::now();
    AnalysisResponse R = send(S, W, Req);
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() - T0)
                    .count();
    L.note(Input, Ms, R.Exit != 2 && W.check(Input, R));
    Scaled.note(Ms);
    Scaled.tick();
  }
  Scaled.finish();
  L.ScaledMs = Scaled.scaledMs();
  L.ProbeMs = Scaled.probeMs();
  L.applyOracle(W.refuted(L.Answered));
  return L;
}

/// One traced request's record, kept for the per-input work split.
struct RequestRecord {
  size_t Input = 0;
  uint64_t SymBlockRuns = 0;
  uint64_t SolverQueries = 0;
  double LatencyMs = 0;
};

/// Everything a traced loop produces.
struct TracedLoop {
  Loop Tally;
  LayerSums L;
  std::vector<uint64_t> SolverBuckets; ///< delta over the traced requests
  std::vector<RequestRecord> Records;
  std::vector<SpanTree> Kept; ///< the first few span trees, for the file

  explicit TracedLoop(size_t Inputs) : Tally(Inputs) {}
};

/// Sums over a request's span tree and counters into \p L.
void accumulate(const SpanTree &T, const Counters &C, double SolverUs,
                bool Mixy, LayerSums &L) {
  // Layers the benchmark calls directly.
  for (const char *Name : {"cfront.parse", "lang.parse", "ptranal.run",
                           "qual.generate", "qual.solve"})
    L.add(std::string(Name) + "_us", T.outermostUs(Name));

  // The service request: its own span minus the parse / typecheck /
  // render phases it contains.
  L.add("service.overhead_us", T.selfUs("service.request"));
  L.add("service.render_us", T.outermostUs("phase.render"));
  L.add("ir.lower_us", T.outermostUs("phase.ir-lower"));

  // The analysis proper: the request's typecheck phase span is one
  // MixyAnalysis (or MixChecker) construction plus run.
  uint64_t RunUs = T.outermostUs("phase.typecheck");
  if (Mixy) {
    L.add("mixy.run_us", RunUs);
    // Blocks: union of the outermost block spans (a typed block inside a
    // symbolic block is covered once).
    std::vector<Interval> Blocks;
    for (const Span &S : T.spans())
      if (S.Name == "mixy.block.sym" || S.Name == "mixy.block.typed")
        Blocks.push_back(S.I);
    uint64_t BlockUs = coveredLength(Blocks, {0, UINT64_MAX});
    double Children = T.outermostUs("ptranal.run") +
                      T.outermostUs("qual.generate") +
                      T.outermostUs("qual.solve") + (double)BlockUs;
    L.add("mixy.self_us", std::max(0.0, RunUs - Children));
    // Symbolic-block self time: each block span minus its child spans
    // (nested blocks, traced solver queries). Decisions of the solver's
    // native incremental stack carry no span, so the rest of the
    // request's solver time is taken off too; MIXY only queries the
    // solver from inside symbolic blocks.
    double SolverSpanUs = 0;
    for (const Span &S : T.spans())
      if (S.Name == "solver.query")
        SolverSpanUs += S.I.End - S.I.Begin;
    double Untraced = std::max(0.0, SolverUs - SolverSpanUs);
    L.add("csym.block_us",
          std::max(0.0, T.selfUs("mixy.block.sym") - Untraced));
  } else {
    L.add("mix.check_us", RunUs);
  }
  L.add("solver.query_us", SolverUs);

  for (const char *Name :
       {"mixy.sym_block_runs", "mixy.typed_block_runs", "mixy.typed_cache_hits",
        "mixy.fixpoint_rounds", "exec.paths", "exec.terms.built",
        "mix.paths_explored", "mix.paths_infeasible",
        "mix.exhaustiveness_checks", "solver.queries", "solver.inc.queries",
        "solver.inc.cached", "solver.inc.model_reuse",
        "solver.inc.unsat_prefix", "ir.lower.misses", "exec.fallback.ast",
        "persist.block.hits", "persist.block.misses", "persist.block.stores",
        "persist.solver.hits", "persist.solver.misses"})
    L.add(Name, (double)get(C, Name));
  L.add("engine.blocks",
        (double)(get(C, "engine.mixy.blocks") + get(C, "engine.mix.blocks")));
  L.add("engine.cache.hits", (double)(get(C, "engine.cache.mixy.hits") +
                                      get(C, "engine.cache.mix.hits")));
}

/// The program spans a traced request returns that mark a layer
/// boundary. The other phase spans (fixpoint, block-exec, solver) repeat
/// these intervals and are left out, so containment stays a tree.
bool isBoundarySpan(const std::string &Name) {
  static const char *Names[] = {
      "phase.parse",     "phase.typecheck",  "phase.render",
      "phase.ir-lower",  "mixy.block.sym",   "mixy.block.typed",
      "mix.block.sym",   "mix.block.typed",  "solver.query"};
  for (const char *N : Names)
    if (Name == N)
      return true;
  return false;
}

/// The traced loop. Cold workloads get a fresh service per request, so
/// the service registry holds exactly that request's counters and solver
/// histogram; the daemon workload keeps its one warm service, whose
/// per-request registries make its counters exact but drop histograms.
TracedLoop measureTraced(const Workload &W, ServiceConfig C, double Seconds) {
  TracedLoop Out(W.numInputs());
  std::unique_ptr<AnalysisService> Warm;
  if (W.useServe()) {
    Warm = std::make_unique<AnalysisService>(C);
    warmUp(*Warm, W);
  }
  Clock::time_point Start = Clock::now();
  for (uint64_t I = 0; keepGoing(Start, Seconds, I, MinTracedSamples); ++I) {
    size_t Input = 0;
    AnalysisRequest Req = W.request(I, Input);
    Req.Trace = true;
    std::unique_ptr<AnalysisService> Fresh;
    if (!Warm)
      Fresh = std::make_unique<AnalysisService>(C);
    AnalysisService &S = Warm ? *Warm : *Fresh;
    mix::obs::TraceSink &Sink = S.traceSink();

    uint64_t B = Sink.nowUs();
    AnalysisResponse R = send(S, W, Req);
    uint64_t E = Sink.nowUs();
    Out.Tally.note(Input, (E - B) / 1000.0, R.Exit != 2 && W.check(Input, R));

    SpanTree T;
    T.add("service.request", {B, E});
    for (const mix::obs::TraceEvent &Ev : R.Spans)
      if (Ev.Ph == mix::obs::TracePhase::Complete && isBoundarySpan(Ev.Name))
        T.add(Ev.Name, {Ev.Ts, Ev.Ts + Ev.Dur});
    W.traceLayers(Req, Sink, T, Out.L);
    T.link();
    Counters Cs = countersOf(R);
    double SolverUs = (double)R.PhaseUs[(unsigned)mix::obs::Phase::Solver];
    accumulate(T, Cs, SolverUs, Req.ToolKind == mix::service::Tool::Mixy,
               Out.L);
    Out.L.add("service.from_cache", R.FromCache ? 1 : 0);
    if (Fresh) {
      mix::obs::HistogramSnapshot H =
          S.metrics().histogramSnapshot("solver.query_us");
      Out.SolverBuckets.resize(H.Buckets.size());
      for (size_t K = 0; K != H.Buckets.size(); ++K)
        Out.SolverBuckets[K] += H.Buckets[K];
    }
    Out.Records.push_back({Input, get(Cs, "mixy.sym_block_runs"),
                           get(Cs, "solver.queries"), (E - B) / 1000.0});
    if (Out.Kept.size() < 4)
      Out.Kept.push_back(std::move(T));
  }
  Out.Tally.applyOracle(W.refuted(Out.Tally.Answered));
  return Out;
}

/// Share of requests whose block-run count differs from the most common
/// count on the same input.
double workVarianceShare(const std::vector<RequestRecord> &Records) {
  std::map<size_t, std::map<uint64_t, uint64_t>> PerInput;
  for (const RequestRecord &R : Records)
    ++PerInput[R.Input][R.SymBlockRuns];
  uint64_t Differ = 0;
  for (const auto &[Input, Counts] : PerInput) {
    uint64_t Total = 0, Mode = 0;
    for (const auto &[Runs, N] : Counts) {
      Total += N;
      Mode = std::max(Mode, N);
    }
    Differ += Total - Mode;
  }
  return ratio((double)Differ, (double)Records.size());
}

/// The process's resident-set high-water mark. Read from VmHWM rather
/// than getrusage: ru_maxrss survives execve, so it would report the
/// launcher's peak when that was larger.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

std::string fmt(double V) {
  std::ostringstream OS;
  OS.precision(6);
  OS << V;
  return OS.str();
}

void writeTraceFile(const std::string &Path, const std::string &Workload,
                    const TracedLoop &T) {
  std::ofstream Out(Path);
  if (!Out)
    return;
  Out << "{\"workload\": \"" << Workload << "\",\n \"requests\": [";
  for (size_t I = 0; I != T.Records.size(); ++I) {
    const RequestRecord &R = T.Records[I];
    Out << (I ? ",\n  " : "\n  ") << "{\"input\": " << R.Input
        << ", \"sym_block_runs\": " << R.SymBlockRuns
        << ", \"solver_queries\": " << R.SolverQueries
        << ", \"latency_ms\": " << fmt(R.LatencyMs) << "}";
  }
  Out << "],\n \"span_trees\": [";
  for (size_t I = 0; I != T.Kept.size(); ++I) {
    Out << (I ? ",\n  [" : "\n  [");
    const std::vector<Span> &Spans = T.Kept[I].spans();
    for (size_t J = 0; J != Spans.size(); ++J)
      Out << (J ? ", " : "") << "{\"name\": \"" << Spans[J].Name
          << "\", \"begin_us\": " << Spans[J].I.Begin
          << ", \"end_us\": " << Spans[J].I.End
          << ", \"parent\": " << Spans[J].Parent << "}";
    Out << "]";
  }
  Out << "]}\n";
}

} // namespace

const std::vector<std::string> &e2e::workloadNames() {
  static const std::vector<std::string> Names = {
      "mixy-symbolic", "mixy-typed-large", "mixcheck-core", "mixyd-edit"};
  return Names;
}

RunResult e2e::runWorkload(const RunOptions &O) {
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    throw std::runtime_error("unknown workload '" + O.Workload + "'");

  // Set-up: generate and validate the inputs and build the service,
  // repeated so setup_s is a median, each time scaled by the probes
  // around it. The warm-up after it is untimed.
  std::vector<double> SetupS, RawSetupS;
  std::unique_ptr<AnalysisService> Service;
  SpeedProbe Probe;
  double Before = Probe.sampleMs();
  for (unsigned R = 0; R != SetupRepeats; ++R) {
    Service.reset();
    Clock::time_point T0 = Clock::now();
    W->generate(O.Seed);
    validate(*W);
    Service = std::make_unique<AnalysisService>(W->config());
    RawSetupS.push_back(secondsSince(T0));
    double After = Probe.sampleMs();
    SetupS.push_back(RawSetupS.back() *
                     SpeedProbe::scaleBetween(Before, After));
    Before = After;
  }
  warmUp(*Service, *W);

  RunResult Res;
  auto push = [&](std::string Name, double V, std::string Unit) {
    Res.Metrics.push_back({std::move(Name), V, std::move(Unit)});
  };
  auto tally = [&](const Loop &L) {
    Res.Attempted += L.LatencyMs.size();
    Res.Failed += L.Failed;
  };

  if (!O.Trace) {
    Loop L = measure(*Service, *W, W->config(), O.Seconds, MinSamples);
    tally(L);
    push("setup_s", median(SetupS), "s");
    push("requests_per_s", L.scaledRequestsPerSecond(), "1/s");
    push("latency_p50_ms", percentile(L.ScaledMs, 50), "ms");
    push("latency_p90_ms", percentile(L.ScaledMs, 90), "ms");
    push("peak_rss_mb", peakRssMb(), "MB");
    Res.Report.push_back(
        "unscaled: setup_s " + fmt(median(RawSetupS)) + ", requests_per_s " +
        fmt(L.requestsPerSecond()) + ", latency_p50_ms " +
        fmt(percentile(L.LatencyMs, 50)) + ", latency_p90_ms " +
        fmt(percentile(L.LatencyMs, 90)));
    Res.Report.push_back(
        "speed probe: median " + fmt(median(L.ProbeMs)) + " ms, from " +
        fmt(percentile(L.ProbeMs, 0)) + " to " +
        fmt(percentile(L.ProbeMs, 100)) + " ms over " +
        std::to_string(L.ProbeMs.size()) + " samples (reference " +
        fmt(SpeedProbe::ReferenceMs) + " ms)");
  } else {
    // A third of the time untraced, for the overhead baseline; the rest
    // traced, on a fresh service with request telemetry on.
    Loop Base =
        measure(*Service, *W, W->config(), O.Seconds / 3, MinTracedSamples);
    tally(Base);
    Service.reset();
    ServiceConfig C = W->config();
    C.RequestTelemetry = true;
    TracedLoop T = measureTraced(*W, C, O.Seconds * 2 / 3);
    tally(T.Tally);
    if (!O.TraceFile.empty())
      writeTraceFile(O.TraceFile, O.Workload, T);

    double N = (double)T.Records.size();
    const LayerSums &L = T.L;
    auto perMs = [&](const std::string &K) { return L[K] / 1000.0 / N; };
    auto per = [&](const std::string &K) { return L[K] / N; };
    push("cfront.parse_ms", perMs("cfront.parse_us"), "ms");
    push("lang.parse_ms", perMs("lang.parse_us"), "ms");
    push("ptranal.run_ms", perMs("ptranal.run_us"), "ms");
    push("ptranal.cells", per("ptranal.cells"), "count");
    push("qual.generate_ms", perMs("qual.generate_us"), "ms");
    push("qual.solve_ms", perMs("qual.solve_us"), "ms");
    push("qual.nodes", per("qual.nodes"), "count");
    push("qual.edges", per("qual.edges"), "count");
    push("mixy.run_ms", perMs("mixy.run_us"), "ms");
    push("mixy.self_ms", perMs("mixy.self_us"), "ms");
    push("mixy.sym_block_runs", per("mixy.sym_block_runs"), "count");
    push("mixy.typed_block_runs", per("mixy.typed_block_runs"), "count");
    push("mixy.typed_cache_hits", per("mixy.typed_cache_hits"), "count");
    push("mixy.fixpoint_rounds", per("mixy.fixpoint_rounds"), "count");
    push("mixy.work_variance_share", workVarianceShare(T.Records), "ratio");
    push("engine.blocks", per("engine.blocks"), "count");
    push("engine.cache_hit_ratio",
         ratio(L["engine.cache.hits"], L["engine.cache.hits"] +
                                           L["engine.blocks"]),
         "ratio");
    push("csym.block_ms", perMs("csym.block_us"), "ms");
    push("exec.paths", per("exec.paths"), "count");
    push("exec.terms_built", per("exec.terms.built"), "count");
    push("mix.check_ms", perMs("mix.check_us"), "ms");
    push("mix.paths_explored", per("mix.paths_explored"), "count");
    push("mix.infeasible_ratio",
         ratio(L["mix.paths_infeasible"], L["mix.paths_explored"]), "ratio");
    push("mix.exhaustiveness_checks", per("mix.exhaustiveness_checks"),
         "count");
    push("solver.queries", per("solver.queries"), "count");
    push("solver.query_ms", perMs("solver.query_us"), "ms");
    push("solver.query_us_p50", bucketQuantile(T.SolverBuckets, 0.5), "us");
    double Shortcuts = L["solver.inc.cached"] + L["solver.inc.model_reuse"] +
                       L["solver.inc.unsat_prefix"];
    push("solver.inc.reuse_ratio",
         ratio(Shortcuts, Shortcuts + L["solver.inc.queries"]), "ratio");
    push("ir.lower_ms", perMs("ir.lower_us"), "ms");
    push("ir.lower.misses", per("ir.lower.misses"), "count");
    push("exec.fallback_ast", per("exec.fallback.ast"), "count");
    push("persist.block_hit_ratio",
         ratio(L["persist.block.hits"],
               L["persist.block.hits"] + L["persist.block.misses"]),
         "ratio");
    push("persist.solver_hit_ratio",
         ratio(L["persist.solver.hits"],
               L["persist.solver.hits"] + L["persist.solver.misses"]),
         "ratio");
    push("persist.block_stores", per("persist.block.stores"), "count");
    push("service.overhead_ms", perMs("service.overhead_us"), "ms");
    push("service.render_ms", perMs("service.render_us"), "ms");
    push("service.cache_hit_ratio", per("service.from_cache"), "ratio");
    push("trace.overhead_ratio",
         ratio(T.Tally.requestsPerSecond(), Base.requestsPerSecond()),
         "ratio");

    // The per-input work split: how often each input did each amount of
    // work.
    std::map<size_t, std::map<std::pair<uint64_t, uint64_t>, unsigned>> Split;
    for (const RequestRecord &R : T.Records)
      ++Split[R.Input][{R.SymBlockRuns, R.SolverQueries}];
    for (const auto &[Input, Counts] : Split) {
      std::string Line = "input " + std::to_string(Input) + ":";
      for (const auto &[Work, N] : Counts)
        Line += " " + std::to_string(N) + "x(" + std::to_string(Work.first) +
                " block runs, " + std::to_string(Work.second) + " queries)";
      if (Split.size() <= 8)
        Res.Report.push_back(Line);
    }
    Res.Report.push_back("traced requests: " + std::to_string(T.Records.size()) +
                         ", untraced: " +
                         std::to_string(Base.LatencyMs.size()));
  }

  Res.Correct = Res.Failed == 0;
  Res.Report.push_back("failed_ratio: " +
                       fmt(ratio((double)Res.Failed, (double)Res.Attempted)) +
                       " (" + std::to_string(Res.Failed) + " of " +
                       std::to_string(Res.Attempted) + ")");
  return Res;
}
