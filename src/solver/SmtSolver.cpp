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

/// Bound on SAT-model / theory-check round trips per query: a query that
/// needs more answers Unknown.
constexpr unsigned MaxTheoryIterations = 50000;

/// The lazy DPLL(T) loop: alternate CDCL SAT search with theory checks of
/// the integer atoms each propositional model assigns, blocking
/// theory-conflicting polarity combinations.
SolveResult runTheoryLoop(SatSolver &Sat, TseitinEncoder &Encoder,
                          const SmtOptions &Opts, SmtSolver::Stats &Stats,
                          SmtModel *ModelOut) {
  for (unsigned Iter = 0; Iter != MaxTheoryIterations; ++Iter) {
    ++Stats.SatCalls;
    SatResult SR = Sat.solve();
    if (SR == SatResult::Unsat)
      return SolveResult::Unsat;

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

/// True when the integer term \p T contains no if-then-else.
bool iteFree(const Term *T) {
  if (T->kind() == TermKind::IteInt)
    return false;
  for (unsigned I = 0, E = T->numOperands(); I != E; ++I)
    if (!iteFree(T->operand(I)))
      return false;
  return true;
}

/// Appends the literals of \p T (under \p Positive) to \p Out when \p T
/// is a conjunction of literals over ITE-free atoms; returns false for any
/// other shape. The literals come left to right with each atom once, the
/// order and deduplication of the Tseitin encoder's theory atoms, so the
/// Fourier-Motzkin check sees the constraint list the DPLL(T) loop would
/// build. An atom met with both polarities sets \p Conflict.
bool collectLiterals(const Term *T, bool Positive, Cube &Out,
                     bool &Conflict) {
  switch (T->kind()) {
  case TermKind::And:
    return Positive && collectLiterals(T->operand(0), true, Out, Conflict) &&
           collectLiterals(T->operand(1), true, Out, Conflict);
  case TermKind::Not:
    return collectLiterals(T->operand(0), !Positive, Out, Conflict);
  case TermKind::EqInt:
  case TermKind::Lt:
  case TermKind::Le:
    if (!iteFree(T->operand(0)) || !iteFree(T->operand(1)))
      return false;
    [[fallthrough]];
  case TermKind::BoolVar:
    for (const CubeLit &L : Out)
      if (L.Atom == T) {
        Conflict |= L.Positive != Positive;
        return true;
      }
    Out.push_back({T, Positive});
    return true;
  default:
    return false;
  }
}

} // namespace

SolveResult SmtSolver::decide(const Term *Formula, SmtModel *ModelOut) {
  ++Statistics.Queries;
  assert(Formula->isBool() && "checkSat() requires a boolean formula");

  if (Formula->kind() == TermKind::BoolConst) {
    if (ModelOut)
      *ModelOut = SmtModel();
    return Formula->value() ? SolveResult::Sat : SolveResult::Unsat;
  }

  // A conjunction of literals has exactly one propositional model, so the
  // loop below would make exactly one theory check: make it directly,
  // with no lowering, encoding or SAT search. Path conditions have this
  // shape; exhaustiveness checks (disjunctions) take the loop.
  Cube Lits;
  Lits.reserve(8); // a branch cascade's path condition fits
  bool Conflict = false;
  if (collectLiterals(Formula, true, Lits, Conflict)) {
    if (Conflict)
      return SolveResult::Unsat;
    for (const CubeLit &L : Lits)
      if (L.Atom->kind() != TermKind::BoolVar) {
        ++Statistics.TheoryChecks;
        Work.TheoryChecks.inc();
        break;
      }
    return decideCube(Lits, Opts.Lia, ModelOut);
  }

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
