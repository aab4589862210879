//===--- AssertionStack.cpp - Incremental assertion stacks ----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/AssertionStack.h"

#include "solver/TermEval.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace mix::smt;

namespace {

/// Restricts \p Model to the variables that actually occur in \p T.
/// A decision lowers every if-then-else integer term (CSym's memory
/// model builds them) to a fresh "ite" variable, and the backend reports
/// values for those too. Dropping them keeps witness models to the
/// program's variables and restores the "unmentioned = unconstrained"
/// reading, which is what makes cached models reusable against future
/// deltas over fresh variables.
void projectModel(const Term *T, SmtModel &Model) {
  std::unordered_set<const Term *> Seen;
  std::unordered_set<unsigned> IntVars, BoolVars;
  std::vector<const Term *> Stack{T};
  while (!Stack.empty()) {
    const Term *N = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(N).second)
      continue;
    if (N->kind() == TermKind::IntVar)
      IntVars.insert(N->varId());
    else if (N->kind() == TermKind::BoolVar)
      BoolVars.insert(N->varId());
    for (unsigned I = 0, E = N->numOperands(); I != E; ++I)
      Stack.push_back(N->operand(I));
  }
  for (auto It = Model.Ints.begin(); It != Model.Ints.end();)
    It = IntVars.count(It->first) ? std::next(It) : Model.Ints.erase(It);
  for (auto It = Model.Bools.begin(); It != Model.Bools.end();)
    It = BoolVars.count(It->first) ? std::next(It) : Model.Bools.erase(It);
}

} // namespace

AssertionStack::AssertionStack(ISolver &Backend) : Backend(Backend) {}

void AssertionStack::push() { Frames.push_back(Assertions.size()); }

void AssertionStack::pop() {
  assert(!Frames.empty() && "pop() on an empty assertion stack");
  size_t Start = Frames.back();
  Frames.pop_back();
  // A cached model of the longer conjunction satisfies every prefix of
  // it, so surviving a pop is sound: re-anchor it at the new length and
  // sibling probes (pop one delta, push another) can evaluate against
  // it instead of re-solving. Only while it is still anchored, though —
  // a fold mismatch at its recorded length means that prefix was
  // already rebuilt into something else.
  for (size_t I = 0; I != Models.size();) {
    ModelCache &MC = Models[I];
    if (MC.Len > Start) {
      if (MC.Len > Assertions.size() || Folded[MC.Len - 1] != MC.Fold) {
        Models.erase(Models.begin() + I);
        continue;
      }
      MC.Len = Start;
      MC.Fold = Start ? Folded[Start - 1] : Backend.arena().trueTerm();
    }
    ++I;
  }
  Assertions.resize(Start);
  Folded.resize(Start);
}

void AssertionStack::assertTerm(const Term *T) {
  assert(T->isBool() && "assertTerm() requires a boolean term");
  const Term *Prev =
      Folded.empty() ? Backend.arena().trueTerm() : Folded.back();
  Assertions.push_back(T);
  Folded.push_back(Backend.arena().andTerm(Prev, T));
}

const Term *AssertionStack::conjunction() const {
  return Folded.empty() ? Backend.arena().trueTerm() : Folded.back();
}

SolveResult AssertionStack::checkSat(SmtModel *ModelOut) {
  const Term *Fold = conjunction();

  // Constant fold: the arena already decided the formula.
  if (Fold->kind() == TermKind::BoolConst) {
    ++Statistics.CachedVerdicts;
    if (ModelOut)
      *ModelOut = SmtModel();
    return Fold->value() ? SolveResult::Sat : SolveResult::Unsat;
  }

  // Unsat-prefix cut: the conjunction only grows, so any extension of a
  // known-Unsat prefix is Unsat. Valid while the prefix is still live
  // (fold pointers are identity, so a pop/re-assert that rebuilt a
  // different prefix fails the check).
  if (Unsat.Fold && Unsat.Len <= Assertions.size() &&
      Unsat.Len >= 1 && Folded[Unsat.Len - 1] == Unsat.Fold) {
    ++Statistics.UnsatPrefixCuts;
    return SolveResult::Unsat;
  }

  // Verdict cache: unchanged formula, unchanged answer. A Sat hit can
  // only serve a model request if some cached model belongs to this
  // exact fold; otherwise fall through to a real solve.
  if (LastVerdict.Fold == Fold) {
    bool NeedModel = ModelOut && LastVerdict.R == SolveResult::Sat;
    const ModelCache *Have = nullptr;
    if (NeedModel)
      for (const ModelCache &MC : Models)
        if (MC.Fold == Fold && MC.Len == Assertions.size()) {
          Have = &MC;
          break;
        }
    if (!NeedModel || Have) {
      ++Statistics.CachedVerdicts;
      if (Have)
        *ModelOut = *Have->Model;
      return LastVerdict.R;
    }
  }

  // Model reuse: for each cached model (most recent first) still
  // anchored at a live prefix, evaluate the deltas beyond it; if they
  // all hold, the model (extended with default values for any new
  // variables) satisfies the whole conjunction — Sat with zero queries.
  for (size_t MI = 0; MI != Models.size(); ++MI) {
    ModelCache &MC = Models[MI];
    if (!MC.Model->Complete || MC.Len > Assertions.size())
      continue;
    if (MC.Len != 0 && Folded[MC.Len - 1] != MC.Fold)
      continue;
    bool AllHold = true;
    for (size_t I = MC.Len, E = Assertions.size(); I != E; ++I)
      if (!evalBool(Assertions[I], *MC.Model)) {
        AllHold = false;
        break;
      }
    if (!AllHold)
      continue;
    if (MC.Len == Assertions.size())
      ++Statistics.CachedVerdicts;
    else
      ++Statistics.ModelReuses;
    MC.Len = Assertions.size();
    MC.Fold = Fold;
    LastVerdict = {Fold, SolveResult::Sat};
    if (ModelOut)
      *ModelOut = *MC.Model;
    std::rotate(Models.begin(), Models.begin() + MI, Models.begin() + MI + 1);
    return SolveResult::Sat;
  }

  // Real backend decision. The model is always captured, for reuse.
  auto Captured = std::make_shared<SmtModel>();
  ++Statistics.Queries;
  SolveResult R = Backend.checkSat(Fold, Captured.get());
  if (R == SolveResult::Sat) {
    projectModel(Fold, *Captured);
    LastVerdict = {Fold, SolveResult::Sat};
    Models.insert(Models.begin(),
                  ModelCache{Assertions.size(), Fold, Captured});
    if (Models.size() > MaxCachedModels)
      Models.pop_back();
    if (ModelOut)
      *ModelOut = *Captured;
  } else if (R == SolveResult::Unsat) {
    LastVerdict = {Fold, SolveResult::Unsat};
    Unsat = {Assertions.size(), Fold};
  }
  return R;
}
