//===--- Fixpoint.h - Engine fixpoint scheduling ----------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-level fixpoint driver. MIXY's qualifier inference (and any
/// future mix with cross-block feedback) evaluates a set of *sites* —
/// symbolic-block calling contexts — until no site's context changes
/// (Section 4.1: start optimistic, re-run until stable). This driver owns
/// the schedule; the domain supplies, type-erased:
///
///   NumSites()        how many sites exist right now (may grow mid-run
///                     as nested analyses discover new calls)
///   Refresh(i)        recompute site i's calling context; true if changed
///   Evaluate(i)       analyze site i under its refreshed context
///   OnRoundBegin(r)   per-round setup (MIXY: solve the qualifier graph)
///
/// The schedule is Gauss-Seidel: each round refreshes the sites in index
/// order and evaluates each changed one on the spot, so every evaluation
/// sees every earlier one's effects. The run ends after the first round
/// that changes nothing, or after MaxRounds rounds. A run that uses up
/// its rounds may still have converged in the last one, so the driver
/// then makes one refresh-only pass and reports whether any site's
/// context was still changing, i.e. whether the cap cut the fixpoint off.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_ENGINE_FIXPOINT_H
#define MIX_ENGINE_FIXPOINT_H

#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"

#include <cstddef>
#include <functional>

namespace mix::engine {

struct FixpointConfig {
  /// Bound on rounds.
  unsigned MaxRounds = 16;
  obs::TraceSink *Trace = nullptr;
  /// Span emitted per round; domains keep their historical names
  /// (MIXY passes "mixy.round"/"mixy"). Static strings only: the trace
  /// sink keeps the pointers until it renders, which is after the
  /// analysis — and this config — are gone.
  const char *RoundSpanName = "engine.round";
  const char *SpanCategory = "engine";
  obs::MetricsRegistry *Metrics = nullptr;
  /// Per-request telemetry: every run charges its wall time to the
  /// request's fixpoint phase. Null costs one branch per run.
  obs::RequestTelemetry *Telemetry = nullptr;
};

/// The type-erased domain callbacks (see file comment).
struct FixpointCallbacks {
  std::function<size_t()> NumSites;
  std::function<bool(size_t)> Refresh;
  std::function<void(size_t)> Evaluate;
  std::function<void(unsigned)> OnRoundBegin; // optional
};

/// What one fixpoint run did.
struct FixpointResult {
  /// Rounds that evaluated at least one site.
  unsigned Rounds = 0;
  /// False when the run stopped at MaxRounds with a site's context still
  /// changing: the state it left is not a fixpoint.
  bool Converged = true;
};

/// Counter names (registry-backed; inert without a registry):
///   engine.fixpoint.rounds    rounds that evaluated at least 1 site
///   engine.worklist.reruns    site evaluations beyond each site's first
class FixpointDriver {
public:
  explicit FixpointDriver(FixpointConfig C);

  /// Gauss-Seidel, one site at a time (see file comment).
  FixpointResult run(const FixpointCallbacks &CB);

private:
  FixpointConfig Cfg;
  obs::Counter CRounds;
  obs::Counter CReruns;
};

} // namespace mix::engine

#endif // MIX_ENGINE_FIXPOINT_H
