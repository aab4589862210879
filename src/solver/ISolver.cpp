//===--- ISolver.cpp - Pluggable solver backend interface -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/ISolver.h"

#include "solver/QueryHash.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace mix::smt;

const char *mix::smt::solveResultName(SolveResult R) {
  switch (R) {
  case SolveResult::Sat:
    return "sat";
  case SolveResult::Unsat:
    return "unsat";
  case SolveResult::Unknown:
    return "unknown";
  }
  return "unknown";
}

QueryCache::~QueryCache() = default;

std::vector<std::pair<std::string, std::string>>
mix::smt::modelBindings(const TermArena &Arena, const SmtModel &Model) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const auto &[Var, Value] : Model.Ints)
    if (Var < Arena.numIntVars())
      Out.emplace_back(Arena.varName(Sort::Int, Var), std::to_string(Value));
  for (const auto &[Var, Value] : Model.Bools)
    if (Var < Arena.numBoolVars())
      Out.emplace_back(Arena.varName(Sort::Bool, Var),
                       Value ? "true" : "false");
  std::sort(Out.begin(), Out.end());
  return Out;
}

ISolver::ISolver(TermArena &Arena, SmtOptions Opts)
    : Arena(Arena), Opts(Opts) {
  if (Opts.Metrics) {
    CQueries = Opts.Metrics->counter("solver.queries");
    CSat = Opts.Metrics->counter("solver.sat");
    CUnsat = Opts.Metrics->counter("solver.unsat");
    CUnknown = Opts.Metrics->counter("solver.unknown");
    HQueryUs = Opts.Metrics->histogram("solver.query_us");
    Work.SatVars = Opts.Metrics->counter("solver.sat.vars");
    Work.SatClauses = Opts.Metrics->counter("solver.sat.clauses");
    Work.SatConflicts = Opts.Metrics->counter("solver.sat.conflicts");
    Work.SatDecisions = Opts.Metrics->counter("solver.sat.decisions");
    Work.TheoryChecks = Opts.Metrics->counter("solver.theory.checks");
  }
}

ISolver::~ISolver() = default;

void ISolver::bumpVerdict(SolveResult R) {
  (R == SolveResult::Sat     ? CSat
   : R == SolveResult::Unsat ? CUnsat
                             : CUnknown)
      .inc();
}

SolveResult ISolver::checkSat(const Term *Formula, SmtModel *ModelOut) {
  // Persistent memo (src/persist/): only verdicts are stored, so a model
  // request must run the real solver; Unknown is a resource-cap artifact
  // and is neither served nor recorded. A hit still counts as a query so
  // hit-rate arithmetic against "solver.queries" stays meaningful.
  uint64_t CacheKey = 0;
  bool UseCache = Opts.Cache && !ModelOut;
  if (UseCache) {
    CacheKey = canonicalQueryHash(Formula);
    SolveResult R;
    if (Opts.Cache->lookup(CacheKey, R)) {
      CQueries.inc();
      (R == SolveResult::Sat ? CSat : CUnsat).inc();
      return R;
    }
  }

  // The uninstrumented run is the common case: every sink null, so the
  // whole observability layer costs three branches per query and no
  // clock reads.
  if (!HQueryUs && !Opts.Trace && !Opts.Telemetry) {
    SolveResult R = decide(Formula, ModelOut);
    ++QueryCount;
    CQueries.inc();
    bumpVerdict(R);
    if (UseCache && R != SolveResult::Unknown)
      Opts.Cache->store(CacheKey, R);
    return R;
  }

  uint64_t Start = Opts.Trace ? Opts.Trace->nowUs() : 0;
  auto T0 = std::chrono::steady_clock::now();
  SolveResult R = decide(Formula, ModelOut);
  uint64_t DurUs =
      (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count();
  ++QueryCount;
  CQueries.inc();
  bumpVerdict(R);
  HQueryUs.record(DurUs);
  if (Opts.Telemetry)
    Opts.Telemetry->addPhase(obs::Phase::Solver, DurUs);
  if (Opts.Trace)
    Opts.Trace->complete("solver.query", "solver", Start, DurUs,
                         std::string("{\"result\": \"") + solveResultName(R) +
                             "\"}");
  if (UseCache && R != SolveResult::Unknown)
    Opts.Cache->store(CacheKey, R);
  return R;
}
