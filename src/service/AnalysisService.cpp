//===--- AnalysisService.cpp - Analysis as a library API --------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "cfront/CParser.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "mix/AutoPlacement.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "provenance/Sarif.h"
#include "qual/QualInference.h"
#include "support/Hash.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

using namespace mix;
using namespace mix::service;

//===----------------------------------------------------------------------===//
// Input resolution
//===----------------------------------------------------------------------===//

namespace {

/// The built-in corpus behind '@' specs ("case1".."case4" and "vsftpd",
/// with an optional ":baseline" suffix for the un-annotated variants).
/// The single implementation — mixyc resolves through this too.
bool resolveCorpusSpec(const std::string &Spec, std::string &SourceOut) {
  bool Annotated = Spec.find(":baseline") == std::string::npos;
  std::string Corpus = Spec.substr(0, Spec.find(':'));
  if (Corpus == "vsftpd") {
    SourceOut = c::corpus::vsftpdFull(Annotated);
    return true;
  }
  if (Corpus.size() == 5 && Corpus.rfind("case", 0) == 0 && Corpus[4] >= '1' &&
      Corpus[4] <= '4') {
    SourceOut = c::corpus::vsftpdCase(Corpus[4] - '0', Annotated);
    return true;
  }
  return false;
}

/// Parses a type spelled in a request, e.g. "int ref ref" (the --var
/// grammar mixcheck has always accepted).
const Type *parseTypeSpec(TypeContext &Types, const std::string &Spec) {
  std::istringstream In(Spec);
  std::string Word;
  if (!(In >> Word))
    return nullptr;
  const Type *T = nullptr;
  if (Word == "int")
    T = Types.intType();
  else if (Word == "bool")
    T = Types.boolType();
  else
    return nullptr;
  while (In >> Word) {
    if (Word != "ref")
      return nullptr;
    T = Types.refType(T);
  }
  return T;
}

const char *severityName(DiagKind K) {
  switch (K) {
  case DiagKind::Error:
    return "error";
  case DiagKind::Warning:
    return "warning";
  case DiagKind::Note:
    return "note";
  }
  return "?";
}

} // namespace

bool AnalysisService::resolveInput(const AnalysisRequest &Req,
                                   std::string &SourceOut,
                                   std::string &Error) {
  // The analyses build solvers from the spec unchecked, so an unknown
  // backend must stop here, as a usage error.
  smt::SolverSpec Spec;
  if (!smt::parseSolverBackend(Req.Solver.Backend, Spec, Error))
    return false;
  if (Req.HasSource) {
    SourceOut = Req.Source;
    return true;
  }
  if (!Req.Corpus.empty()) {
    if (resolveCorpusSpec(Req.Corpus, SourceOut))
      return true;
    Error = "unknown corpus '" + Req.Corpus + "'";
    return false;
  }
  if (!Req.Path.empty()) {
    std::ifstream In(Req.Path);
    if (!In) {
      Error = "cannot read '" + Req.Path + "'";
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    SourceOut = Buf.str();
    return true;
  }
  Error = "no input";
  return false;
}

//===----------------------------------------------------------------------===//
// Request identity
//===----------------------------------------------------------------------===//

uint64_t AnalysisService::requestKey(const AnalysisRequest &Req,
                                     const std::string &Source) const {
  StableHasher H;
  H.u32((uint32_t)Req.Version);
  H.u8(Req.ToolKind == Tool::MixCheck ? 0 : 1);
  // The resolved content, not the spelling of the input: a path request
  // and an inline request for the same bytes are the same analysis, and a
  // path whose file changed is a different one (so staleness is
  // structurally impossible, with or without fileChanged()).
  H.str(Source);
  H.str(Req.InputName);
  H.u8((uint8_t)Req.OutputFormat);
  H.boolean(Req.Explain);
  H.boolean(Req.Trace);
  H.str(Req.Solver.Backend);
  H.str(Req.CacheDir);
  H.boolean(Req.Symbolic).boolean(Req.AutoPlace).boolean(Req.PrintProgram);
  H.u8((uint8_t)Req.Strategy).u8((uint8_t)Req.Havoc);
  H.boolean(Req.PreciseDeref).boolean(Req.AssumeComplete);
  H.u8((uint8_t)Req.Explore);
  H.u64(Req.Vars.size());
  for (const auto &[Name, Spec] : Req.Vars)
    H.str(Name).str(Spec);
  H.boolean(Req.Baseline);
  H.str(Req.Entry);
  H.boolean(Req.StartSymbolic).boolean(Req.NoCache);
  H.boolean(Req.NoAliasRestore).boolean(Req.WarnDerefs);
  return H.digest();
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string AnalysisService::renderPayload(const DiagnosticEngine &Diags,
                                           Format F, bool Explain,
                                           const std::string &ToolName,
                                           const std::string &InputName) {
  switch (F) {
  case Format::Sarif: {
    prov::SarifOptions SO;
    SO.ToolName = ToolName;
    SO.ArtifactUri = InputName;
    return prov::renderSarif(Diags, SO) + "\n";
  }
  case Format::Json:
    return Diags.renderJSON(/*Sorted=*/true) + "\n";
  case Format::Text:
    return Explain ? prov::renderExplainText(Diags) : Diags.str();
  }
  return std::string();
}

void AnalysisService::fillStructured(const DiagnosticEngine &Diags,
                                     AnalysisResponse &Resp) {
  const std::vector<Diagnostic> &All = Diags.diagnostics();
  auto push = [&](size_t I) {
    const Diagnostic &D = All[I];
    DiagnosticSummary S;
    S.Id = diagIdString(D.ID);
    S.Severity = severityName(D.Kind);
    S.Line = D.Loc.Line;
    S.Column = D.Loc.Column;
    S.Message = D.Message;
    Resp.Diagnostics.push_back(std::move(S));
  };
  for (size_t I : Diags.sortedTopLevelIndices()) {
    push(I);
    for (size_t N : Diags.notesFor(I))
      push(N);
  }
  Resp.Errors = Diags.errorCount();
}

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

AnalysisService::AnalysisService(ServiceConfig C) : Config(C) {
  if (Config.RequestTelemetry)
    attachTelemetryHistograms();
}

void AnalysisService::attachTelemetryHistograms() {
  if (RequestUsHistogram)
    return;
  RequestUsHistogram = Registry.histogram("service.request.us");
  for (unsigned I = 0; I != obs::NumPhases; ++I)
    PhaseHistograms[I] = Registry.histogram(
        std::string("phase.") + obs::phaseName((obs::Phase)I) + ".us");
}

AnalysisService::~AnalysisService() = default;

prov::ProvenanceSink *AnalysisService::provenanceSink() {
  std::lock_guard<std::mutex> Lock(M);
  if (!ProvAttached) {
    Prov.attachMetrics(Registry);
    ProvAttached = true;
  }
  return &Prov;
}

mix::persist::PersistSession *
AnalysisService::openSession(const AnalysisRequest &Req, uint64_t Fingerprint,
                             DiagnosticEngine &Diags,
                             std::unique_lock<std::mutex> &SessionLock) {
  bool InMemory = Req.CacheDir.empty();
  std::string Key = (InMemory ? std::string("<memory>") : Req.CacheDir) + "|" +
                    std::to_string(Fingerprint);

  persist::PersistSession *Session;
  std::mutex *SessionMutex;
  {
    std::lock_guard<std::mutex> Lock(M);
    // Entries are never erased, so the session and its mutex stay put.
    SessionEntry &Entry = Sessions[Key];
    if (!Entry.Session) {
      persist::PersistOptions PO;
      PO.Dir = Req.CacheDir;
      PO.BlockFingerprint = Fingerprint;
      PO.Metrics = &Registry;
      PO.InMemory = InMemory;
      Entry.Session.emplace(std::move(PO));
    }
    Session = &*Entry.Session;
    SessionMutex = &Entry.Lock;
  }
  SessionLock = std::unique_lock<std::mutex>(*SessionMutex);
  // The degradation note is per-run, matching a CLI that reopens the
  // directory every time.
  if (!Session->degradedReason().empty())
    Diags.note(SourceLoc(),
               "persistent cache unusable (" + Session->degradedReason() +
                   "); analysis starts cold",
               DiagID::CacheDegraded);
  return Session;
}

bool AnalysisService::save(std::string *Error) {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Key, Entry] : Sessions) {
    (void)Key;
    if (!Entry.Session)
      continue;
    if (!Entry.Session->save(Error))
      return false;
  }
  return true;
}

void AnalysisService::fileChanged(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(M);
  Registry.counter("service.file_changed").inc();
  // Drop cached responses computed from that path (content hashing would
  // catch this on the next run anyway; this frees the memory now). The
  // eviction queue must forget the keys too, or a re-cached key is queued
  // twice and its stale front entry later evicts the fresh response.
  std::set<uint64_t> Dropped;
  for (auto It = ResponseCache.begin(); It != ResponseCache.end();) {
    auto P = ResponsePath.find(It->first);
    if (P != ResponsePath.end() && P->second == Path) {
      Dropped.insert(It->first);
      ResponsePath.erase(P);
      It = ResponseCache.erase(It);
    } else {
      ++It;
    }
  }
  if (!Dropped.empty())
    ResponseOrder.erase(
        std::remove_if(ResponseOrder.begin(), ResponseOrder.end(),
                       [&](uint64_t K) { return Dropped.count(K) != 0; }),
        ResponseOrder.end());
  // Warm sessions forget their summaries.
  for (auto &[Key, Entry] : Sessions) {
    (void)Key;
    if (!Entry.Session)
      continue;
    std::lock_guard<std::mutex> SL(Entry.Lock);
    Entry.Session->invalidateSummaries();
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void AnalysisService::runMixCheck(const AnalysisRequest &Req,
                                  const std::string &Source,
                                  DiagnosticEngine &Diags,
                                  obs::MetricsRegistry &Reg,
                                  obs::RequestTelemetry *T,
                                  AnalysisResponse &Resp) {
  MixOptions Opts;
  Opts.Exec.Strat = Req.Strategy;
  Opts.Exec.Havoc = Req.Havoc;
  Opts.Exec.PreciseDeref = Req.PreciseDeref;
  if (Req.AssumeComplete)
    Opts.Exhaustive = MixOptions::Exhaustiveness::AssumeComplete;
  Opts.Explore = Req.Explore;
  Opts.Metrics = &Reg;
  // A traced request with telemetry records into its own sink; the events
  // fold back into the global trace at request end (shared epoch).
  Opts.Trace =
      Req.Trace ? (T && T->sink() ? T->sink() : &Sink) : nullptr;
  Opts.Telemetry = T;
  Opts.Prov = (Req.Explain || Req.OutputFormat == Format::Sarif)
                  ? provenanceSink()
                  : nullptr;
  Opts.Solver = Req.Solver;

  AstContext Ctx;

  auto finish = [&](int Exit) {
    {
      obs::PhaseTimer Render(T, obs::Phase::Render);
      Resp.Payload = renderPayload(Diags, Req.OutputFormat, Req.Explain,
                                   "mixcheck", Req.InputName);
    }
    fillStructured(Diags, Resp);
    Resp.Warnings = Diags.warningCount();
    Resp.Exit = Exit;
  };

  const Expr *Program;
  {
    obs::PhaseTimer Parse(T, obs::Phase::Parse);
    Program = parseExpression(Source, Ctx, Diags);
  }
  if (!Program)
    return finish(2);

  TypeEnv Gamma;
  for (const auto &[Name, Spec] : Req.Vars) {
    const Type *VarType = parseTypeSpec(Ctx.types(), Spec);
    if (!VarType) {
      Resp.ErrorText = "bad type '" + Spec + "' for variable " + Name;
      return finish(2);
    }
    Gamma[Name] = VarType;
  }

  const Type *ResultType = nullptr;
  {
    obs::PhaseTimer Check(T, obs::Phase::Typecheck);
    if (Req.AutoPlace) {
      AutoPlacementOptions APOpts;
      APOpts.Mix = Opts;
      AutoPlacementResult R =
          autoPlaceSymbolicBlocks(Ctx, Program, Gamma, Diags, APOpts);
      ResultType = R.ResultType;
      Program = R.Program;
      if (R.BlocksInserted)
        Resp.AutoPlaceNote = "auto-placement inserted " +
                             std::to_string(R.BlocksInserted) +
                             " symbolic block(s) in " +
                             std::to_string(R.Refinements) + " refinement(s)\n";
    } else {
      MixChecker Mix(Ctx.types(), Diags, Opts);
      ResultType = Req.Symbolic ? Mix.checkSymbolic(Program, Gamma)
                                : Mix.checkTyped(Program, Gamma);
    }
  }

  if (Req.PrintProgram)
    Resp.PrintedProgram = printExpr(Program) + "\n";

  Resp.Accepted = ResultType != nullptr;
  if (ResultType)
    Resp.ResultType = ResultType->str();
  finish(ResultType ? 0 : 1);
}

void AnalysisService::runMixy(const AnalysisRequest &Req,
                              const std::string &Source,
                              DiagnosticEngine &Diags,
                              obs::MetricsRegistry &Reg,
                              obs::RequestTelemetry *T,
                              AnalysisResponse &Resp) {
  c::MixyOptions Opts;
  Opts.EnableCache = !Req.NoCache;
  Opts.RestoreAliasing = !Req.NoAliasRestore;
  Opts.Qual.WarnAllDereferences = Req.WarnDerefs;
  Opts.Metrics = &Reg;
  Opts.Trace = Req.Trace ? (T && T->sink() ? T->sink() : &Sink) : nullptr;
  Opts.Telemetry = T;
  Opts.Prov = (Req.Explain || Req.OutputFormat == Format::Sarif)
                  ? provenanceSink()
                  : nullptr;
  // Before the fingerprint: the backend choice and provenance attachment
  // are part of the persisted-summary identity.
  Opts.Solver = Req.Solver;

  c::CAstContext Ctx;

  // A session holds block summaries: on disk under a cache directory,
  // otherwise in memory on a warm daemon. A --no-cache request opens none:
  // it stores no summary, and replaying one, its own run's included,
  // would do less work than the same request in `mixyc --no-cache`.
  bool WantsSession =
      !Req.NoCache && (!Req.CacheDir.empty() || Config.KeepWarm);
  std::unique_lock<std::mutex> SessionLock;
  persist::PersistSession *Session = nullptr;
  if (WantsSession)
    Session = openSession(Req, c::mixyPersistFingerprint(Opts), Diags,
                          SessionLock);
  Opts.Persist = Session;

  auto finish = [&](int Exit) {
    {
      obs::PhaseTimer Render(T, obs::Phase::Render);
      Resp.Payload = renderPayload(Diags, Req.OutputFormat, Req.Explain,
                                   "mixyc", Req.InputName);
    }
    fillStructured(Diags, Resp);
    Resp.Exit = Exit;
  };

  const c::CProgram *Program;
  {
    obs::PhaseTimer Parse(T, obs::Phase::Parse);
    Program = c::parseC(Source, Ctx, Diags);
  }
  // The parse's size, before the analyses derive types of their own.
  Reg.counter("cfront.ast_nodes").add(Ctx.numNodes());
  Reg.counter("cfront.ast_bytes").add(Ctx.numBytes());
  if (!Program) {
    Resp.Warnings = Diags.warningCount();
    return finish(2);
  }

  unsigned Warnings = 0;
  {
    obs::PhaseTimer Check(T, obs::Phase::Typecheck);
    if (Req.Baseline) {
      // Baseline inference runs outside MixyAnalysis, so the provenance
      // sink is pushed into the qualifier options here.
      Opts.Qual.Prov = Opts.Prov;
      c::QualInference Inference(*Program, Ctx, Diags, Opts.Qual);
      Inference.analyzeAll();
      Inference.solve();
      Warnings = Inference.reportWarnings();
      Reg.counter("qual.variables").add(Inference.graph().numNodes());
      Reg.counter("qual.flow_edges").add(Inference.graph().numEdges());
    } else {
      c::MixyAnalysis Analysis(*Program, Ctx, Diags, Opts);
      Warnings = Analysis.run(Req.StartSymbolic
                                  ? c::MixyAnalysis::StartMode::Symbolic
                                  : c::MixyAnalysis::StartMode::Typed,
                              Req.Entry);
      Resp.SymCacheStats = Analysis.symCacheStats().str();
      Resp.TypedCacheStats = Analysis.typedCacheStats().str();
      // A warm in-memory session keeps only the summaries its last
      // ResponseCacheCap runs used (at least this run's): edits leave
      // dead summaries behind, which would otherwise pile up for the
      // daemon's lifetime. The session lock is still held.
      if (Session && Req.CacheDir.empty())
        Session->retireUnused(
            std::max<size_t>(Config.ResponseCacheCap, 1));
    }
  }

  Resp.Warnings = Warnings;
  finish(Warnings == 0 ? 0 : 1);
}

AnalysisResponse AnalysisService::execute(const AnalysisRequest &Req,
                                          const std::string &Source) {
  AnalysisResponse Resp;
  Registry.counter("service.requests").inc();

  // Request telemetry: a per-request context the engines see only as a
  // nullable pointer. Span recording is opt-in per request (Trace), with
  // the request sink sharing the global sink's epoch so its events can be
  // folded back with comparable timestamps.
  std::unique_ptr<obs::RequestTelemetry> Telemetry;
  std::chrono::steady_clock::time_point StartTime;
  if (Config.RequestTelemetry) {
    Telemetry = std::make_unique<obs::RequestTelemetry>();
    Telemetry->Id = nextRequestId();
    if (Req.Trace)
      Telemetry->enableSpans(Sink.epoch());
    StartTime = std::chrono::steady_clock::now();
  }

  // Metrics isolation: in daemon mode each request records into a private
  // registry so its deltas are exact under concurrency; the shared
  // persist stores still count into the service registry, so their
  // per-request share is recovered as a snapshot delta of the persist.*
  // counters (exact when requests are sequential). The private registry
  // is then added into the service registry, except persist.*, so the
  // daemon's exposition shows the engines' work too. In CLI mode
  // everything lands in the one registry --stats reads.
  obs::MetricsRegistry Local;
  obs::MetricsRegistry &Reg = Config.PerRequestMetrics ? Local : Registry;
  std::string_view Shared = Config.PerRequestMetrics ? "persist." : "";
  obs::MetricsSnapshot Before = Registry.snapshot(Shared);

  DiagnosticEngine Diags;
  if (Req.ToolKind == Tool::MixCheck)
    runMixCheck(Req, Source, Diags, Reg, Telemetry.get(), Resp);
  else
    runMixy(Req, Source, Diags, Reg, Telemetry.get(), Resp);

  if (Config.PerRequestMetrics) {
    for (const auto &[Name, Value] : Local.counters())
      if (Value)
        Resp.Metrics.emplace_back(Name, Value);
    for (auto &[Name, Delta] : Registry.deltaSince(Before, Shared))
      Resp.Metrics.emplace_back(Name, Delta);
    std::sort(Resp.Metrics.begin(), Resp.Metrics.end());
    Registry.absorb(Local, Shared);
  } else {
    Resp.Metrics = Registry.deltaSince(Before);
  }

  if (Telemetry) {
    Resp.RequestId = Telemetry->Id;
    Resp.TotalUs =
        (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - StartTime)
            .count();
    for (unsigned I = 0; I != obs::NumPhases; ++I)
      Resp.PhaseUs[I] = Telemetry->phaseUs((obs::Phase)I);
    // One sample per request into the global histograms — exact even
    // under concurrency (the request total is accumulated privately and
    // recorded once, at this barrier). Every phase records, 0 included.
    RequestUsHistogram.record(Resp.TotalUs);
    for (unsigned I = 0; I != obs::NumPhases; ++I)
      PhaseHistograms[I].record(Resp.PhaseUs[I]);
    if (obs::TraceSink *RS = Telemetry->sink()) {
      Resp.Spans = RS->snapshotEvents();
      Sink.import(Resp.Spans);
    }
    noteSlowRequest(Resp, requestKey(Req, Source));
  }
  return Resp;
}

/// How many of the slowest requests the slow-request log keeps.
static constexpr size_t SlowLogCap = 32;

void AnalysisService::noteSlowRequest(const AnalysisResponse &Resp,
                                      uint64_t Key) {
  SlowRequest S;
  S.Id = Resp.RequestId;
  S.Key = Key;
  S.TotalUs = Resp.TotalUs;
  S.PhaseUs = Resp.PhaseUs;
  S.Exit = Resp.Exit;
  S.Warnings = Resp.Warnings;
  S.Errors = Resp.Errors;
  std::lock_guard<std::mutex> Lock(M);
  // Keep the log sorted slowest-first; the fastest entry falls off when
  // the cap is hit.
  auto It = std::upper_bound(SlowLog.begin(), SlowLog.end(), S.TotalUs,
                             [](uint64_t V, const SlowRequest &E) {
                               return V > E.TotalUs;
                             });
  SlowLog.insert(It, std::move(S));
  if (SlowLog.size() > SlowLogCap)
    SlowLog.pop_back();
}

std::vector<SlowRequest> AnalysisService::slowRequests() const {
  std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(M));
  return SlowLog;
}

AnalysisResponse AnalysisService::run(const AnalysisRequest &Req) {
  AnalysisResponse Resp;
  std::string Source, Error;
  if (!resolveInput(Req, Source, Error)) {
    Resp.Exit = 2;
    Resp.ErrorText = Error;
    return Resp;
  }
  return execute(Req, Source);
}

AnalysisResponse AnalysisService::serve(const AnalysisRequest &Req) {
  AnalysisResponse Resp;
  std::string Source, Error;
  if (!resolveInput(Req, Source, Error)) {
    Resp.Exit = 2;
    Resp.ErrorText = Error;
    return Resp;
  }
  uint64_t Key = requestKey(Req, Source);

  std::shared_ptr<Pending> Mine, Theirs;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto Hit = ResponseCache.find(Key);
    if (Hit != ResponseCache.end()) {
      Registry.counter("service.cache.hits").inc();
      AnalysisResponse R = Hit->second;
      R.FromCache = true;
      // A cache hit did no engine work; its deltas and phase breakdown
      // say exactly that. It is still its own request, so it gets a
      // fresh id.
      R.Metrics.clear();
      R.TotalUs = 0;
      R.PhaseUs = {};
      R.Spans.clear();
      R.RequestId = Config.RequestTelemetry ? nextRequestId() : std::string();
      return R;
    }
    auto In = InFlight.find(Key);
    if (In != InFlight.end()) {
      Theirs = In->second;
    } else {
      Mine = std::make_shared<Pending>();
      InFlight.emplace(Key, Mine);
    }
  }

  if (Theirs) {
    // An identical request is already running: ride it instead of doing
    // the same work twice.
    Registry.counter("service.dedup.hits").inc();
    std::unique_lock<std::mutex> Lock(Theirs->M);
    Theirs->CV.wait(Lock, [&] { return Theirs->Done; });
    AnalysisResponse R = Theirs->Response;
    R.Deduped = true;
    R.Metrics.clear();
    R.TotalUs = 0;
    R.PhaseUs = {};
    R.Spans.clear();
    R.RequestId = Config.RequestTelemetry ? nextRequestId() : std::string();
    return R;
  }

  Resp = execute(Req, Source);

  {
    std::lock_guard<std::mutex> Lock(M);
    InFlight.erase(Key);
    // Only successful analyses are worth memoizing; usage errors are
    // cheap to reproduce and should not occupy cache slots.
    if (Config.ResponseCacheCap && Resp.Exit != 2) {
      while (ResponseOrder.size() >= Config.ResponseCacheCap) {
        uint64_t Evict = ResponseOrder.front();
        ResponseOrder.pop_front();
        ResponseCache.erase(Evict);
        ResponsePath.erase(Evict);
      }
      // emplace and the order queue must stay in lockstep: a key that is
      // somehow already cached must not be queued a second time. The
      // cached copy drops its span tree — hits never serve spans, so
      // there is no reason to hold them.
      auto Cached = ResponseCache.emplace(Key, Resp);
      if (Cached.second) {
        Cached.first->second.Spans.clear();
        ResponseOrder.push_back(Key);
      }
      if (!Req.HasSource && Req.Corpus.empty() && !Req.Path.empty())
        ResponsePath.emplace(Key, Req.Path);
    }
  }
  {
    std::lock_guard<std::mutex> Lock(Mine->M);
    Mine->Response = Resp;
    Mine->Done = true;
  }
  Mine->CV.notify_all();
  return Resp;
}
