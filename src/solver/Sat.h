//===--- Sat.h - CDCL SAT solver core ---------------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSat tradition:
/// two-watched-literal propagation, first-UIP conflict analysis with
/// non-chronological backtracking, VSIDS-style activity-based branching,
/// and geometric restarts. This is the propositional engine underneath the
/// project's DPLL(T) SMT facade (SmtSolver).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SAT_H
#define MIX_SOLVER_SAT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mix::smt {

/// A literal: variable index with a sign. Encoded as 2*Var+Sign.
class Lit {
public:
  Lit() = default;
  Lit(unsigned Var, bool Negated) : Code(2 * Var + (Negated ? 1 : 0)) {}

  unsigned var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  unsigned code() const { return Code; }

  friend bool operator==(Lit A, Lit B) { return A.Code == B.Code; }
  friend bool operator!=(Lit A, Lit B) { return A.Code != B.Code; }

private:
  uint32_t Code = 0;
};

/// Ternary truth value of a variable or literal during search.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/// Satisfiability verdict. Interrupted reports a search abandoned at the
/// cooperative interrupt flag (see setInterrupt) — no verdict.
enum class SatResult { Sat, Unsat, Interrupted };

/// The CDCL solver. Usage: newVar() for each variable, addClause() for each
/// clause, then solve(); the SMT layer's theory loop repeats
/// addClause()/solve() with blocking clauses (learned clauses are kept
/// across calls). A Sat answer assigns every variable, so an instance
/// should hold one query's clauses: the SMT layer builds a fresh one per
/// decision.
class SatSolver {
public:
  /// Allocates a new variable and returns its index.
  unsigned newVar();

  unsigned numVars() const { return (unsigned)Assigns.size(); }

  /// Clauses in the database, problem and learned.
  size_t numClauses() const { return Clauses.size(); }

  /// Adds a clause (a disjunction of literals). An empty clause makes the
  /// instance trivially unsatisfiable.
  void addClause(std::vector<Lit> Lits);

  /// Runs the CDCL search. Safe to call repeatedly after adding clauses.
  SatResult solve();

  /// Installs a cooperative interrupt flag (null to clear): when the flag
  /// becomes true, the next main-loop iteration abandons the search and
  /// returns SatResult::Interrupted. Used by the portfolio to stop losing
  /// backends.
  void setInterrupt(const std::atomic<bool> *Flag) { InterruptFlag = Flag; }

  /// After solve() returns Sat: the model value of \p Var.
  bool modelValue(unsigned Var) const { return Model[Var]; }

  /// Search statistics, reset never (cumulative over the solver lifetime).
  struct Stats {
    uint64_t Conflicts = 0;
    uint64_t Decisions = 0;
    uint64_t Propagations = 0;
    uint64_t Restarts = 0;
  };
  const Stats &stats() const { return Statistics; }

private:
  using ClauseRef = uint32_t;
  static constexpr ClauseRef NoReason = UINT32_MAX;

  struct Clause {
    std::vector<Lit> Lits;
    bool Learned = false;
  };

  struct Watcher {
    ClauseRef Cl;
    Lit Blocker;
  };

  LBool litValue(Lit L) const {
    LBool V = Assigns[L.var()];
    if (V == LBool::Undef)
      return LBool::Undef;
    bool B = (V == LBool::True) != L.negated();
    return B ? LBool::True : LBool::False;
  }

  void attachClause(ClauseRef Cr);
  bool enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  void analyze(ClauseRef Conflict, std::vector<Lit> &Learned,
               unsigned &BackLevel);
  void backtrackTo(unsigned Level);
  unsigned pickBranchVar();
  void bumpVarActivity(unsigned Var);
  void decayVarActivities();
  void resetSearchState();

  std::vector<Clause> Clauses;
  std::vector<std::vector<Watcher>> Watches; // indexed by literal code
  std::vector<LBool> Assigns;                // per variable
  std::vector<unsigned> Levels;              // per variable
  std::vector<ClauseRef> Reasons;            // per variable
  std::vector<double> Activities;            // per variable
  std::vector<char> Seen;                    // scratch for analyze()
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLimits; // decision-level boundaries
  size_t PropagateHead = 0;
  std::vector<bool> Model;
  double ActivityInc = 1.0;
  bool FoundEmptyClause = false;
  const std::atomic<bool> *InterruptFlag = nullptr;
  Stats Statistics;
};

} // namespace mix::smt

#endif // MIX_SOLVER_SAT_H
