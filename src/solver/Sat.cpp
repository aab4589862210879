//===--- Sat.cpp - CDCL SAT solver core -----------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/Sat.h"

#include <algorithm>
#include <cassert>

using namespace mix::smt;

unsigned SatSolver::newVar() {
  unsigned Var = (unsigned)Assigns.size();
  Assigns.push_back(LBool::Undef);
  Levels.push_back(0);
  Reasons.push_back(NoReason);
  Activities.push_back(0.0);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  return Var;
}

void SatSolver::addClause(std::vector<Lit> Lits) {
  // Normalize: drop duplicate literals; a clause with both polarities of a
  // variable is a tautology and can be skipped.
  std::sort(Lits.begin(), Lits.end(),
            [](Lit A, Lit B) { return A.code() < B.code(); });
  Lits.erase(std::unique(Lits.begin(), Lits.end()), Lits.end());
  for (size_t I = 0; I + 1 < Lits.size(); ++I)
    if (Lits[I].var() == Lits[I + 1].var())
      return; // tautology

  if (Lits.empty()) {
    FoundEmptyClause = true;
    return;
  }

  Clauses.push_back({std::move(Lits), /*Learned=*/false});
  attachClause((ClauseRef)(Clauses.size() - 1));
}

void SatSolver::attachClause(ClauseRef Cr) {
  Clause &C = Clauses[Cr];
  if (C.Lits.size() == 1)
    return; // units handled at solve() start
  Watches[(~C.Lits[0]).code()].push_back({Cr, C.Lits[1]});
  Watches[(~C.Lits[1]).code()].push_back({Cr, C.Lits[0]});
}

bool SatSolver::enqueue(Lit L, ClauseRef Reason) {
  LBool V = litValue(L);
  if (V != LBool::Undef)
    return V == LBool::True;
  Assigns[L.var()] = L.negated() ? LBool::False : LBool::True;
  Levels[L.var()] = (unsigned)TrailLimits.size();
  Reasons[L.var()] = Reason;
  Trail.push_back(L);
  return true;
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    ++Statistics.Propagations;
    std::vector<Watcher> &Ws = Watches[P.code()];
    size_t Kept = 0;
    for (size_t I = 0; I != Ws.size(); ++I) {
      Watcher W = Ws[I];
      // Quick skip: if the blocker is already true the clause is satisfied.
      if (litValue(W.Blocker) == LBool::True) {
        Ws[Kept++] = W;
        continue;
      }
      Clause &C = Clauses[W.Cl];
      // Ensure the falsified literal ~P is at position 1.
      if (C.Lits[0] == ~P)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == ~P && "watched literal invariant violated");

      if (litValue(C.Lits[0]) == LBool::True) {
        Ws[Kept++] = {W.Cl, C.Lits[0]};
        continue;
      }

      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (size_t K = 2; K != C.Lits.size(); ++K) {
        if (litValue(C.Lits[K]) == LBool::False)
          continue;
        std::swap(C.Lits[1], C.Lits[K]);
        Watches[(~C.Lits[1]).code()].push_back({W.Cl, C.Lits[0]});
        FoundWatch = true;
        break;
      }
      if (FoundWatch)
        continue;

      // Clause is unit or conflicting.
      Ws[Kept++] = W;
      if (litValue(C.Lits[0]) == LBool::False) {
        // Conflict: restore remaining watchers and report.
        for (size_t K = I + 1; K != Ws.size(); ++K)
          Ws[Kept++] = Ws[K];
        Ws.resize(Kept);
        PropagateHead = Trail.size();
        return W.Cl;
      }
      enqueue(C.Lits[0], W.Cl);
    }
    Ws.resize(Kept);
  }
  return NoReason;
}

void SatSolver::bumpVarActivity(unsigned Var) {
  Activities[Var] += ActivityInc;
  if (Activities[Var] > 1e100) {
    for (double &A : Activities)
      A *= 1e-100;
    ActivityInc *= 1e-100;
  }
}

void SatSolver::decayVarActivities() { ActivityInc *= (1.0 / 0.95); }

void SatSolver::analyze(ClauseRef Conflict, std::vector<Lit> &Learned,
                        unsigned &BackLevel) {
  // First-UIP learning scheme.
  Learned.clear();
  Learned.push_back(Lit()); // placeholder for the asserting literal
  unsigned Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIndex = Trail.size();
  unsigned CurrentLevel = (unsigned)TrailLimits.size();

  ClauseRef Reason = Conflict;
  do {
    assert(Reason != NoReason && "analysis walked past a decision");
    Clause &C = Clauses[Reason];
    for (Lit Q : C.Lits) {
      // In a reason clause, skip the literal that was asserted by it.
      if (HaveP && Q == P)
        continue;
      unsigned V = Q.var();
      if (Seen[V] || Levels[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVarActivity(V);
      if (Levels[V] == CurrentLevel)
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Find the next literal on the trail to resolve on.
    while (!Seen[Trail[TrailIndex - 1].var()])
      --TrailIndex;
    --TrailIndex;
    P = Trail[TrailIndex];
    HaveP = true;
    Seen[P.var()] = 0;
    Reason = Reasons[P.var()];
    --Counter;
  } while (Counter > 0);
  Learned[0] = ~P;

  // Compute the backtrack level: the second-highest level in the clause.
  BackLevel = 0;
  if (Learned.size() > 1) {
    size_t MaxIdx = 1;
    for (size_t I = 2; I != Learned.size(); ++I)
      if (Levels[Learned[I].var()] > Levels[Learned[MaxIdx].var()])
        MaxIdx = I;
    std::swap(Learned[1], Learned[MaxIdx]);
    BackLevel = Levels[Learned[1].var()];
  }

  for (Lit L : Learned)
    Seen[L.var()] = 0;
}

void SatSolver::backtrackTo(unsigned Level) {
  if (TrailLimits.size() <= Level)
    return;
  size_t Bound = TrailLimits[Level];
  for (size_t I = Trail.size(); I-- > Bound;) {
    unsigned V = Trail[I].var();
    Assigns[V] = LBool::Undef;
    Reasons[V] = NoReason;
  }
  Trail.resize(Bound);
  TrailLimits.resize(Level);
  PropagateHead = Trail.size();
}

unsigned SatSolver::pickBranchVar() {
  unsigned Best = UINT32_MAX;
  double BestAct = -1.0;
  for (unsigned V = 0, E = numVars(); V != E; ++V) {
    if (Assigns[V] != LBool::Undef)
      continue;
    if (Activities[V] > BestAct) {
      BestAct = Activities[V];
      Best = V;
    }
  }
  return Best;
}

void SatSolver::resetSearchState() {
  for (size_t I = Trail.size(); I-- > 0;) {
    unsigned V = Trail[I].var();
    Assigns[V] = LBool::Undef;
    Reasons[V] = NoReason;
  }
  Trail.clear();
  TrailLimits.clear();
  PropagateHead = 0;
}

SatResult SatSolver::solve() {
  if (FoundEmptyClause)
    return SatResult::Unsat;

  resetSearchState();

  // Enqueue all unit clauses at level 0.
  for (ClauseRef Cr = 0; Cr != Clauses.size(); ++Cr) {
    Clause &C = Clauses[Cr];
    if (C.Lits.size() == 1 && !enqueue(C.Lits[0], NoReason))
      return SatResult::Unsat;
  }

  uint64_t ConflictBudget = 128;
  uint64_t ConflictsThisRestart = 0;

  for (;;) {
    if (InterruptFlag && InterruptFlag->load(std::memory_order_relaxed))
      return SatResult::Interrupted;

    ClauseRef Conflict = propagate();
    if (Conflict != NoReason) {
      ++Statistics.Conflicts;
      ++ConflictsThisRestart;
      if (TrailLimits.empty())
        return SatResult::Unsat;

      std::vector<Lit> Learned;
      unsigned BackLevel = 0;
      analyze(Conflict, Learned, BackLevel);
      backtrackTo(BackLevel);

      if (Learned.size() == 1) {
        backtrackTo(0);
        if (!enqueue(Learned[0], NoReason))
          return SatResult::Unsat;
      } else {
        Clauses.push_back({Learned, /*Learned=*/true});
        ClauseRef Cr = (ClauseRef)(Clauses.size() - 1);
        attachClause(Cr);
        enqueue(Learned[0], Cr);
      }
      decayVarActivities();
      continue;
    }

    if (ConflictsThisRestart >= ConflictBudget) {
      ++Statistics.Restarts;
      ConflictsThisRestart = 0;
      ConflictBudget = ConflictBudget + ConflictBudget / 2;
      backtrackTo(0);
      continue;
    }

    unsigned Var = pickBranchVar();
    if (Var == UINT32_MAX) {
      // Full assignment: record the model.
      Model.assign(numVars(), false);
      for (unsigned V = 0, E = numVars(); V != E; ++V)
        Model[V] = Assigns[V] == LBool::True;
      return SatResult::Sat;
    }
    ++Statistics.Decisions;
    TrailLimits.push_back((unsigned)Trail.size());
    enqueue(Lit(Var, /*Negated=*/true), NoReason);
  }
}
