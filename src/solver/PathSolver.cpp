//===--- PathSolver.cpp - Per-path incremental feasibility ----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/PathSolver.h"

using namespace mix::smt;

PathSolver::PathSolver(ISolver &Backend, bool Incremental,
                       obs::MetricsRegistry *Metrics)
    : Backend(Backend) {
  if (Incremental)
    Stack = std::make_unique<AssertionStack>(Backend);
  if (Metrics) {
    CPush = Metrics->counter("solver.inc.push");
    CPop = Metrics->counter("solver.inc.pop");
    CFallbacks = Metrics->counter("solver.inc.fallbacks");
    CCached = Metrics->counter("solver.inc.cached");
    CModelReuse = Metrics->counter("solver.inc.model_reuse");
    CUnsatPrefix = Metrics->counter("solver.inc.unsat_prefix");
    CStackQueries = Metrics->counter("solver.inc.queries");
  }
}

void PathSolver::mirrorStackStats() {
  const AssertionStack::Stats &S = Stack->stats();
  CStackQueries.add(S.Queries - Mirrored.Queries);
  CCached.add(S.CachedVerdicts - Mirrored.CachedVerdicts);
  CModelReuse.add(S.ModelReuses - Mirrored.ModelReuses);
  CUnsatPrefix.add(S.UnsatPrefixCuts - Mirrored.UnsatPrefixCuts);
  Mirrored = S;
}

void PathSolver::syncTo(const PathCondition &PC) {
  // Collect the target chain outermost-first.
  std::vector<std::shared_ptr<const PathCondition::Node>> Target(PC.length());
  {
    auto N = PC.Tail;
    for (size_t I = PC.length(); I-- > 0; N = N->Parent)
      Target[I] = N;
  }

  // Longest common prefix. Folded terms are hash-consed: pointer-equal
  // folds mean the same conjunction, so two independently-built chains
  // that agree on a prefix diff as cheaply as literal siblings.
  size_t Common = 0;
  while (Common < Synced.size() && Common < Target.size() &&
         Synced[Common]->Folded == Target[Common]->Folded)
    ++Common;

  for (size_t I = Synced.size(); I-- > Common;) {
    Stack->pop();
    CPop.inc();
  }
  Synced.resize(Common);
  for (size_t I = Common; I != Target.size(); ++I) {
    Stack->push();
    Stack->assertTerm(Target[I]->Delta);
    CPush.inc();
    Synced.push_back(Target[I]);
  }
}

SolveResult PathSolver::checkPath(const PathCondition &PC,
                                  const Term *PathTerm, SmtModel *ModelOut) {
  if (!Stack)
    return Backend.checkSat(PathTerm, ModelOut);
  if (PC.folded(Backend.arena()) != PathTerm) {
    // The executor's path drifted from the chain (a hook rewrote it):
    // stay correct with a direct query.
    CFallbacks.inc();
    return Backend.checkSat(PathTerm, ModelOut);
  }
  syncTo(PC);
  SolveResult R = Stack->checkSat(ModelOut);
  mirrorStackStats();
  return R;
}

SolveResult PathSolver::checkPathWith(const PathCondition &PC,
                                      const Term *PathTerm, const Term *Extra,
                                      SmtModel *ModelOut) {
  if (!Stack)
    return Backend.checkSat(Backend.arena().andTerm(PathTerm, Extra),
                            ModelOut);
  if (PC.folded(Backend.arena()) != PathTerm) {
    CFallbacks.inc();
    return Backend.checkSat(Backend.arena().andTerm(PathTerm, Extra),
                            ModelOut);
  }
  syncTo(PC);
  Stack->push();
  Stack->assertTerm(Extra);
  SolveResult R = Stack->checkSat(ModelOut);
  Stack->pop();
  mirrorStackStats();
  return R;
}
