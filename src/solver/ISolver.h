//===--- ISolver.h - Pluggable solver backend interface ---------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend-neutral solver interface the rest of the project talks to.
/// The paper's prototype used STP behind a thin wrapper; this project now
/// keeps the same shape: every satisfiability engine (the SMT-lite
/// DPLL(T) core, the DNF/Fourier-Motzkin backend) implements ISolver's
/// decision procedure, and clients select one through SolverFactory
/// (`--solver=NAME` on the CLIs).
///
/// Three-valued results: Unknown arises only from resource caps; every
/// client in this project treats Unknown in the conservative direction
/// (possible path is explored, exhaustiveness is rejected, a warning is
/// kept).
///
/// Every checkSat is a fresh decision of the whole formula: no verdict is
/// remembered, within a run or across runs (the persistent cache,
/// src/persist/, keeps MIXY's block summaries, not solver verdicts). Path
/// exploration avoids decisions one level up: the mini-C executor keeps a
/// witness model per path and evaluates each branch condition under it
/// (TermEval.h) before asking a backend.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_ISOLVER_H
#define MIX_SOLVER_ISOLVER_H

#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"
#include "solver/LinearArith.h"
#include "solver/Term.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mix::smt {

/// Verdict of a satisfiability query.
enum class SolveResult { Sat, Unsat, Unknown };

/// Stable label for a \ref SolveResult ("sat", "unsat", "unknown").
const char *solveResultName(SolveResult R);

/// A satisfying assignment for a Sat query. Variables not mentioned were
/// unconstrained (any value works; treat as 0/false). Complete is false
/// when integer-model reconstruction hit a gap the rational relaxation
/// glossed over — the Sat verdict still stands, but the integer values
/// are unavailable.
struct SmtModel {
  std::map<unsigned, long long> Ints;
  std::map<unsigned, bool> Bools;
  bool Complete = true;

  long long intValue(unsigned Var) const {
    auto It = Ints.find(Var);
    return It == Ints.end() ? 0 : It->second;
  }
  bool boolValue(unsigned Var) const {
    auto It = Bools.find(Var);
    return It != Bools.end() && It->second;
  }
};

/// Renders \p Model as deterministic, name-sorted (name, value) pairs
/// using the source-level variable names interned in \p Arena. Only the
/// variables the model actually constrains appear (unconstrained ones
/// may take any value). The model-extraction surface diagnostic
/// provenance renders concrete witnesses from.
std::vector<std::pair<std::string, std::string>>
modelBindings(const TermArena &Arena, const SmtModel &Model);

/// Configuration shared by every solver backend.
struct SmtOptions {
  LiaOptions Lia;

  /// Observability sinks (see src/observe/). When attached, every query
  /// bumps the "solver.queries" / "solver.sat" / "solver.unsat" /
  /// "solver.unknown" counters and records its latency in the
  /// "solver.query_us" histogram; a trace sink additionally gets one
  /// "solver.query" span per query, tagged with the verdict. Null (the
  /// default) keeps the hot path at a single branch.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceSink *Trace = nullptr;

  /// Per-request telemetry context (see src/observe/Phase.h). When
  /// attached, each query's wall time is added to the request's solver
  /// phase. Null keeps the no-histogram fast path clock-free.
  obs::RequestTelemetry *Telemetry = nullptr;
};

/// A solver backend: the metrics/trace instrumentation around a virtual
/// decision procedure. SmtSolver (smtlite) and DnfSolver implement it.
/// One instance serves one term arena on one thread; each analysis
/// builds its own.
class ISolver {
public:
  ISolver(TermArena &Arena, SmtOptions Opts);
  virtual ~ISolver();

  /// Stable backend name ("smtlite", "dnf", ...): the SolverFactory
  /// registration key, the `--solver=` value, and the provenance label
  /// for "which backend decided this witness".
  virtual const char *name() const = 0;

  /// Is \p Formula (bool sort) satisfiable? When \p ModelOut is non-null
  /// and the answer is Sat, it receives a satisfying assignment.
  SolveResult checkSat(const Term *Formula, SmtModel *ModelOut = nullptr);

  /// The term arena queries against this backend must be built in.
  TermArena &arena() { return Arena; }

  /// The configuration this backend was constructed with.
  const SmtOptions &options() const { return Opts; }

  /// Number of queries decided by this backend, cumulative over its
  /// lifetime.
  uint64_t queries() const { return QueryCount; }

  // --- Convenience verdict helpers (shared by every backend) -------------

  /// True iff the formula is definitely unsatisfiable. Unknown maps to
  /// false — the conservative direction for feasibility pruning (an
  /// Unknown path is still explored).
  bool isDefinitelyUnsat(const Term *Formula) {
    return checkSat(Formula) == SolveResult::Unsat;
  }

  /// True iff the formula is definitely valid (a tautology). This
  /// implements the paper's exhaustive(g1, ..., gn) check: the
  /// disjunction of path conditions must be a tautology. Unknown maps to
  /// false — the conservative direction (exhaustiveness is rejected).
  bool isDefinitelyValid(const Term *Formula) {
    return checkSat(arena().notTerm(Formula)) == SolveResult::Unsat;
  }

  /// True iff the formula may be satisfiable (Sat or Unknown) — the
  /// conservative answer for "could this error occur".
  bool isPossiblySat(const Term *Formula) {
    return checkSat(Formula) != SolveResult::Unsat;
  }

protected:
  /// The actual decision procedure.
  virtual SolveResult decide(const Term *Formula, SmtModel *ModelOut) = 0;

  TermArena &Arena;
  SmtOptions Opts;

  /// Search work of backends with a SAT core, added once per decision:
  /// "solver.sat.vars", "solver.sat.clauses" (problem plus learned),
  /// "solver.sat.conflicts", "solver.sat.decisions" and
  /// "solver.theory.checks". Deterministic, so two runs can be diffed.
  /// Detached (free) unless Opts.Metrics was set.
  struct WorkCounters {
    obs::Counter SatVars, SatClauses, SatConflicts, SatDecisions,
        TheoryChecks;
  } Work;

private:
  void bumpVerdict(SolveResult R);

  uint64_t QueryCount = 0;

  // Observability handles; detached (free) unless Opts.Metrics was set.
  obs::Counter CQueries, CSat, CUnsat, CUnknown;
  obs::Histogram HQueryUs;
};

} // namespace mix::smt

#endif // MIX_SOLVER_ISOLVER_H
