//===--- Fixpoint.cpp - Engine fixpoint scheduling --------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "engine/Fixpoint.h"

#include <string>
#include <vector>

using namespace mix::engine;

FixpointDriver::FixpointDriver(FixpointConfig C) : Cfg(std::move(C)) {
  if (Cfg.Metrics) {
    CRounds = Cfg.Metrics->counter("engine.fixpoint.rounds");
    CReruns = Cfg.Metrics->counter("engine.worklist.reruns");
    CCut = Cfg.Metrics->counter("engine.fixpoint.cut");
  }
}

FixpointResult FixpointDriver::run(const FixpointCallbacks &CB) {
  obs::PhaseTimer Timer(Cfg.Telemetry, obs::Phase::Fixpoint);
  FixpointResult Result;
  std::vector<bool> Seen;
  for (unsigned Iter = 0; Iter != Cfg.MaxRounds; ++Iter) {
    obs::TraceSpan Span(Cfg.Trace, Cfg.RoundSpanName,
                        Cfg.SpanCategory);
    if (Cfg.Trace)
      Span.setArgs("{\"round\": " + std::to_string(Iter) + "}");
    if (CB.OnRoundBegin)
      CB.OnRoundBegin(Iter);
    bool Changed = false;
    // Snapshot the count: nested analyses may append sites while we
    // iterate, and those get picked up next round (indexing instead of a
    // range-for also keeps appends from invalidating our position).
    size_t N = CB.NumSites();
    if (Seen.size() < N)
      Seen.resize(N, false);
    for (size_t I = 0; I != N; ++I) {
      if (!CB.Refresh(I))
        continue;
      Changed = true;
      if (Seen[I])
        CReruns.inc();
      Seen[I] = true;
      CB.Evaluate(I);
    }
    if (!Changed)
      return Result;
    ++Result.Rounds;
    CRounds.inc();
  }

  // Every allowed round changed something. The last one may still have
  // reached the fixpoint, so refresh (without evaluating) once more: a
  // context that still changes means the cap cut the run off.
  if (CB.OnRoundBegin)
    CB.OnRoundBegin(Cfg.MaxRounds);
  size_t N = CB.NumSites();
  for (size_t I = 0; I != N && Result.Converged; ++I)
    Result.Converged = !CB.Refresh(I);
  if (!Result.Converged)
    CCut.inc();
  return Result;
}
