//===--- AssertionStack.h - Incremental assertion stacks --------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental solving semantics for every backend: an SMT-LIB-style
/// push/pop/assert/check-sat stack constructed over an ISolver. Path
/// exploration holds one of these (through PathSolver) and pushes branch
/// deltas instead of re-solving whole path conditions.
///
/// A check that reaches the backend is one fresh checkSat of the live
/// conjunction, so its cost never depends on the stack's history. The
/// savings come from three shortcuts in front of it:
///
/// - **Verdict cache**: the asserted conjunction is folded in the
///   backend's hash-consed arena, so formula identity is pointer
///   identity; re-checking an unchanged stack is free.
/// - **Unsat-prefix cut**: a conjunction only grows down a path, so once
///   some prefix is Unsat every extension is Unsat — answered with zero
///   backend queries.
/// - **Model reuse**: a satisfying model cached for a prefix is
///   evaluated against the new deltas (TermEval); if they all hold, the
///   extension is Sat without a query (the KLEE counterexample-cache
///   trick).
///
/// Answers produced by these three shortcuts never touch the backend and
/// therefore never count as solver queries — that is exactly the drop
/// the incremental-mode regression tests measure.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_ASSERTIONSTACK_H
#define MIX_SOLVER_ASSERTIONSTACK_H

#include "solver/ISolver.h"

#include <memory>
#include <vector>

namespace mix::smt {

/// An incremental assertion stack over one backend. Not thread-safe; one
/// stack per exploration worker.
class AssertionStack {
public:
  explicit AssertionStack(ISolver &Backend);

  /// Opens a new frame. Assertions made after push() are retracted by the
  /// matching pop().
  void push();

  /// Closes the innermost frame, retracting its assertions. Requires
  /// depth() > 0.
  void pop();

  /// Asserts \p T (bool sort) in the innermost frame (or at the base
  /// level when no frame is open — base assertions cannot be retracted).
  void assertTerm(const Term *T);

  /// Is the conjunction of all live assertions satisfiable? When
  /// \p ModelOut is non-null and the answer is Sat, it receives a model.
  /// A model served from the reuse cache covers the variables the
  /// original solve constrained; variables introduced by later deltas
  /// satisfy them at the default values (0/false), per the SmtModel
  /// contract.
  SolveResult checkSat(SmtModel *ModelOut = nullptr);

  /// Number of open frames.
  unsigned depth() const { return (unsigned)Frames.size(); }

  /// Number of live assertions (across all frames and the base level).
  size_t numAssertions() const { return Assertions.size(); }

  /// The folded conjunction of all live assertions (true when empty),
  /// built in the backend's arena. Because terms are hash-consed and the
  /// fold is maintained left-associatively, this is pointer-equal to a
  /// path-condition term built by the same sequence of andTerm() calls —
  /// the drift guard PathSolver relies on.
  const Term *conjunction() const;

  ISolver &backend() { return Backend; }

  /// Cumulative shortcut/query statistics for this stack.
  struct Stats {
    uint64_t Queries = 0;         ///< checkSat calls that hit the backend
    uint64_t CachedVerdicts = 0;  ///< answered by the verdict cache
    uint64_t ModelReuses = 0;     ///< answered by re-evaluating a model
    uint64_t UnsatPrefixCuts = 0; ///< answered by the unsat-prefix cut
  };
  const Stats &stats() const { return Statistics; }

private:
  ISolver &Backend;

  std::vector<size_t> Frames; ///< start index of each open frame
  std::vector<const Term *> Assertions;
  /// Folded[i] = conjunction of Assertions[0..i]; truncated with pops.
  std::vector<const Term *> Folded;

  // Shortcut caches. Folded terms are hash-consed, so two assertion
  // prefixes with pointer-equal folds denote the same formula — which
  // keeps every cache sound across pop/re-assert sequences.
  struct VerdictCache {
    const Term *Fold = nullptr;
    SolveResult R = SolveResult::Unknown;
  } LastVerdict;
  struct ModelCache {
    size_t Len = 0;
    const Term *Fold = nullptr; ///< fold of the prefix the model satisfies
    std::shared_ptr<SmtModel> Model;
  };
  /// Recently captured models, most recent first — a bounded
  /// counterexample cache. Each entry is anchored at the longest prefix
  /// it is known to satisfy (pops re-anchor it downward: a model of a
  /// conjunction satisfies every prefix of it), and checkSat consults
  /// all of them before solving. Keeping several matters for sibling
  /// probes: then/else probes alternate, so the single most recent model
  /// is usually the complement of the delta being probed.
  std::vector<ModelCache> Models;
  static constexpr size_t MaxCachedModels = 64;
  struct UnsatPrefix {
    size_t Len = 0;
    const Term *Fold = nullptr; ///< fold of the unsat prefix (null = none)
  } Unsat;

  Stats Statistics;
};

} // namespace mix::smt

#endif // MIX_SOLVER_ASSERTIONSTACK_H
