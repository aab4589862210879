//===--- ConcolicDriver.cpp - DART-style path exploration -------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mix/ConcolicDriver.h"

#include <deque>
#include <set>

using namespace mix;

namespace {

/// Converts a solver model into a concrete valuation for the executor,
/// by inverting the translator's symbolic-expression-to-term map.
ConcolicSeed seedFromModel(const SymToSmt &Translator,
                           const smt::SmtModel &Model) {
  ConcolicSeed Seed;
  for (const auto &[Sym, Term] : Translator.translations()) {
    if (Term->kind() == smt::TermKind::IntVar) {
      auto It = Model.Ints.find(Term->varId());
      if (It == Model.Ints.end())
        continue;
      if (Sym->kind() == SymKind::Var && Sym->type()->isInt())
        Seed.IntVars[Sym->varId()] = It->second;
      else if (Sym->kind() == SymKind::Select && Sym->type()->isInt())
        Seed.IntSelects[Sym] = It->second;
    } else if (Term->kind() == smt::TermKind::BoolVar) {
      auto It = Model.Bools.find(Term->varId());
      if (It == Model.Bools.end())
        continue;
      if (Sym->kind() == SymKind::Var && Sym->type()->isBool())
        Seed.BoolVars[Sym->varId()] = It->second;
      else if (Sym->kind() == SymKind::Select && Sym->type()->isBool())
        Seed.BoolSelects[Sym] = It->second;
    }
  }
  return Seed;
}

} // namespace

ConcolicExploreResult mix::exploreConcolic(SymExecutor &Exec,
                                           smt::ISolver &Solver,
                                           SymToSmt &Translator,
                                           const Expr *Body,
                                           const SymEnv &Env, SymState Init,
                                           ConcolicOptions Opts) {
  ConcolicExploreResult Out;
  smt::TermArena &Terms = Translator.terms();

  // Nested explorations (through re-entrant blocks) must not clobber the
  // enclosing run's valuation.
  const ConcolicSeed *SavedSeed = Exec.concolicSeed();

  std::deque<ConcolicSeed> Worklist;
  Worklist.emplace_back(); // the all-defaults first run
  std::set<const smt::Term *> SeenPaths;
  std::set<const smt::Term *> AttemptedPrefixes;

  while (!Worklist.empty()) {
    if (Out.Runs >= Opts.MaxRuns) {
      Out.BudgetExhausted = true;
      break;
    }
    ConcolicSeed Seed = std::move(Worklist.front());
    Worklist.pop_front();

    Exec.setConcolicSeed(&Seed);
    SymExecResult RunResult = Exec.run(Body, Env, Init);
    ++Out.Runs;
    if (RunResult.ResourceLimitHit)
      Out.BudgetExhausted = true;

    for (PathResult &P : RunResult.Paths) {
      const smt::Term *PathTerm = Translator.translate(P.State.Path);
      if (!SeenPaths.insert(PathTerm).second)
        continue;
      // Schedule the flips before moving the result: negate each decision
      // under the prefix of earlier ones ("ask an SMT solver later
      // whether the path not taken was feasible").
      const smt::Term *Prefix = Translator.translate(Init.Path);
      for (const SymExpr *Decision : P.State.Decisions) {
        const smt::Term *DecTerm = Translator.translate(Decision);
        const smt::Term *Flipped =
            Terms.andTerm(Prefix, Terms.notTerm(DecTerm));
        if (AttemptedPrefixes.insert(Flipped).second) {
          smt::SmtModel Model;
          smt::SolveResult SR = Solver.checkSat(Flipped, &Model);
          if (SR == smt::SolveResult::Sat && Model.Complete)
            Worklist.push_back(seedFromModel(Translator, Model));
          else if (SR != smt::SolveResult::Unsat)
            // Sat without an extractable model, or Unknown: the flip may
            // hide a real path we cannot reach — completeness is lost.
            Out.BudgetExhausted = true;
        }
        Prefix = Terms.andTerm(Prefix, DecTerm);
      }
      Out.Paths.push_back(std::move(P));
    }
  }

  if (!Worklist.empty())
    Out.BudgetExhausted = true;
  Exec.setConcolicSeed(SavedSeed);
  return Out;
}
