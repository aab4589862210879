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
/// DPLL(T) core, the DNF/Fourier-Motzkin backend, the racing portfolio)
/// implements ISolver, and clients select one through SolverFactory
/// (`--solver=NAME` on the CLIs).
///
/// Three-valued results: Unknown arises only from resource caps; every
/// client in this project treats Unknown in the conservative direction
/// (possible path is explored, exhaustiveness is rejected, a warning is
/// kept).
///
/// Incrementality lives one level up, in \ref AssertionStack (see
/// AssertionStack.h): a push/pop assertion stack constructed over any
/// backend, so path exploration can assert branch deltas and have most
/// checks answered from its caches instead of by a backend decision.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_ISOLVER_H
#define MIX_SOLVER_ISOLVER_H

#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"
#include "solver/LinearArith.h"
#include "solver/Term.h"

#include <atomic>
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

/// A persistent memo of query verdicts, keyed by canonicalQueryHash (see
/// solver/QueryHash.h). The canonical hash is backend-independent — it
/// digests the formula's structure alone — so any backend may serve or
/// record a verdict. Implemented by src/persist/ over an on-disk store;
/// solvers consult it only for model-free queries and never store Unknown
/// (a resource-cap artifact, not a property of the formula).
/// Implementations must be thread-safe: SolverPool copies one cache
/// pointer into every pooled instance.
class QueryCache {
public:
  virtual ~QueryCache();
  /// True (with \p Out set to Sat or Unsat) when \p Key has a recorded
  /// verdict.
  virtual bool lookup(uint64_t Key, SolveResult &Out) = 0;
  /// Records a Sat/Unsat verdict for \p Key.
  virtual void store(uint64_t Key, SolveResult Result) = 0;
};

/// Configuration shared by every solver backend.
struct SmtOptions {
  LiaOptions Lia;
  /// Bound on SAT-model / theory-check round trips per query (smtlite).
  unsigned MaxTheoryIterations = 50000;
  /// Bound on the number of DNF cubes the dnf backend expands before
  /// answering Unknown.
  unsigned DnfMaxCubes = 4096;

  /// Observability sinks (see src/observe/). When attached, every query
  /// bumps the "solver.queries" / "solver.sat" / "solver.unsat" /
  /// "solver.unknown" counters and records its latency in the
  /// "solver.query_us" histogram; a trace sink additionally gets one
  /// "solver.query" span per query, tagged with the verdict. Null (the
  /// default) keeps the hot path at a single branch. SolverPool copies
  /// these into every pooled instance, so per-worker solvers aggregate
  /// into the same registry.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceSink *Trace = nullptr;

  /// Per-request telemetry context (see src/observe/Phase.h). When
  /// attached, each query's wall time is added to the request's solver
  /// phase. Null keeps the no-histogram fast path clock-free.
  obs::RequestTelemetry *Telemetry = nullptr;

  /// Optional persistent query memo (see QueryCache above). Null — the
  /// default — keeps checkSat untouched.
  QueryCache *Cache = nullptr;

  /// Cooperative cancellation: when non-null and set, the backend aborts
  /// the in-flight query at its next safe point and returns Unknown. The
  /// portfolio uses this to stop losing backends once a definitive
  /// answer arrived.
  const std::atomic<bool> *Cancel = nullptr;
};

/// The abstract solver backend. One instance serves one term arena;
/// instances are not thread-safe (SolverPool hands out one per worker).
class ISolver {
public:
  virtual ~ISolver();

  /// Stable backend name ("smtlite", "dnf", "portfolio", ...): the
  /// SolverFactory registration key, the `--solver=` value, and the
  /// provenance label for "which backend decided this witness".
  virtual const char *name() const = 0;

  /// Is \p Formula (bool sort) satisfiable? When \p ModelOut is non-null
  /// and the answer is Sat, it receives a satisfying assignment.
  virtual SolveResult checkSat(const Term *Formula,
                               SmtModel *ModelOut = nullptr) = 0;

  /// checkSat, additionally reporting which backend decided the verdict
  /// in \p DecidedBy. For plain backends that is name(); the portfolio
  /// reports the racing winner. Diagnostic provenance uses this so
  /// --explain can attribute a witness (and in particular an Unknown kept
  /// in the conservative direction) to the backend that produced it.
  virtual SolveResult checkSatDecided(const Term *Formula, SmtModel *ModelOut,
                                      std::string &DecidedBy);

  /// The term arena queries against this backend must be built in.
  virtual TermArena &arena() = 0;

  /// The configuration this backend was constructed with.
  virtual const SmtOptions &options() const = 0;

  /// Number of queries actually decided by this backend (persistent
  /// cache hits excluded), cumulative over its lifetime.
  virtual uint64_t queries() const = 0;

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
};

/// Shared backend scaffolding: the metrics/trace instrumentation and the
/// persistent-cache protocol around a virtual decision procedure.
/// SmtSolver (smtlite) and DnfSolver both sit on this.
class SolverBase : public ISolver {
public:
  SolverBase(TermArena &Arena, SmtOptions Opts);

  SolveResult checkSat(const Term *Formula, SmtModel *ModelOut = nullptr) final;
  TermArena &arena() final { return Arena; }
  const SmtOptions &options() const final { return Opts; }
  uint64_t queries() const final { return QueryCount; }

protected:
  /// The actual decision procedure.
  virtual SolveResult decide(const Term *Formula, SmtModel *ModelOut) = 0;

  /// True when the cooperative cancellation flag is raised.
  bool cancelled() const {
    return Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed);
  }

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
