//===--- SmtSolver.cpp - DPLL(T) SMT backend ("smtlite") ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/SmtSolver.h"

#include "solver/SmtInternals.h"

#include <cassert>

using namespace mix::smt;
using namespace mix::smt::detail;

namespace {

/// The lazy DPLL(T) loop: alternate CDCL SAT search with theory checks of
/// the integer atoms each propositional model assigns, blocking
/// theory-conflicting polarity combinations.
SolveResult runTheoryLoop(SatSolver &Sat, TseitinEncoder &Encoder,
                          const SmtOptions &Opts, SmtSolver::Stats &Stats,
                          SmtModel *ModelOut) {
  for (unsigned Iter = 0; Iter != Opts.MaxTheoryIterations; ++Iter) {
    ++Stats.SatCalls;
    SatResult SR = Sat.solve();
    if (SR == SatResult::Unsat)
      return SolveResult::Unsat;
    if (SR == SatResult::Interrupted)
      return SolveResult::Unknown;

    auto FillBools = [&] {
      if (!ModelOut)
        return;
      ModelOut->Bools.clear();
      for (const auto &[VarId, L] : Encoder.boolVarLits())
        ModelOut->Bools[VarId] = Sat.modelValue(L.var()) != L.negated();
    };

    const auto &Atoms = Encoder.theoryAtoms();
    if (Atoms.empty()) {
      if (ModelOut) {
        ModelOut->Ints.clear();
        ModelOut->Complete = true;
        FillBools();
      }
      return SolveResult::Sat;
    }

    // Build the conjunction of integer atoms as assigned by the model.
    std::vector<LinConstraint> Constraints;
    std::vector<Lit> ModelLits;
    Constraints.reserve(Atoms.size());
    ModelLits.reserve(Atoms.size());
    for (const auto &A : Atoms) {
      bool Positive = Sat.modelValue(A.SatVar);
      Constraints.push_back(atomToConstraint(A.Atom, Positive));
      ModelLits.push_back(Lit(A.SatVar, /*Negated=*/!Positive));
    }

    ++Stats.TheoryChecks;
    LiaResult R = checkLinearConjunction(Constraints, Opts.Lia);
    if (R.Verdict == LiaVerdict::Sat) {
      if (ModelOut) {
        ModelOut->Ints = R.Model;
        ModelOut->Complete = R.HasModel;
        FillBools();
      }
      return SolveResult::Sat;
    }
    if (R.Verdict == LiaVerdict::Unknown)
      return SolveResult::Unknown;

    // Theory conflict: block this combination of atom polarities.
    std::vector<Lit> Blocking;
    if (R.Core.empty()) {
      for (Lit L : ModelLits)
        Blocking.push_back(~L);
    } else {
      for (unsigned Idx : R.Core) {
        assert(Idx < ModelLits.size() && "core index out of range");
        Blocking.push_back(~ModelLits[Idx]);
      }
    }
    if (Blocking.empty())
      return SolveResult::Unsat;
    Sat.addClause(std::move(Blocking));
    ++Stats.BlockedModels;
  }
  return SolveResult::Unknown;
}

} // namespace

SolveResult SmtSolver::decide(const Term *Formula, SmtModel *ModelOut) {
  ++Statistics.Queries;
  assert(Formula->isBool() && "checkSat() requires a boolean formula");

  // Lower if-then-else integer terms and conjoin their definitions.
  IteLowering Lowering(Arena);
  const Term *F = Lowering.lower(Formula);
  for (const Term *Def : Lowering.definitions())
    F = Arena.andTerm(F, Def);

  if (F->kind() == TermKind::BoolConst) {
    if (ModelOut)
      *ModelOut = SmtModel();
    return F->value() ? SolveResult::Sat : SolveResult::Unsat;
  }

  SatSolver Sat;
  Sat.setInterrupt(Opts.Cancel);
  TseitinEncoder Encoder(Sat);
  Lit Root = Encoder.encode(F);
  Sat.addClause({Root});

  uint64_t ChecksBefore = Statistics.TheoryChecks;
  SolveResult R = runTheoryLoop(Sat, Encoder, Opts, Statistics, ModelOut);
  Work.SatVars.add(Sat.numVars());
  Work.SatClauses.add(Sat.numClauses());
  Work.SatConflicts.add(Sat.stats().Conflicts);
  Work.SatDecisions.add(Sat.stats().Decisions);
  Work.TheoryChecks.add(Statistics.TheoryChecks - ChecksBefore);
  return R;
}
