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
/// the scheduling policy; the domain supplies, type-erased:
///
///   NumSites()        how many sites exist right now (may grow mid-run
///                     as nested analyses discover new calls)
///   Refresh(i)        recompute site i's calling context; true if changed
///   EvaluateWave(S,t) analyze the changed sites S (tag t identifies the
///                     wave for deterministic diagnostic ordering)
///   OnRoundBegin(r)   per-round setup (MIXY: solve the qualifier graph)
///   Edges()           static dependency edges i -> j: re-evaluating i may
///                     change j's context (worklist schedule only)
///
/// Two schedules, both reaching the same least fixpoint of the same
/// monotone constraint system:
///
///  - Serial: Gauss-Seidel — refresh+evaluate one site at a time, each
///    evaluation seeing every earlier one's effects. Byte-identical to
///    the historical single-threaded loop.
///  - Worklist: dependency-aware — condense Edges() into SCCs, iterate
///    each SCC internally, and release an SCC's dependents the moment it
///    stabilizes, so independent chains pipeline through the pool instead
///    of waiting for the slowest member of every round. A final
///    validation sweep of Jacobi rounds (refresh all sites against the
///    same state, evaluate the changed ones as one wave) guarantees the
///    least fixpoint even if Edges() under-approximated (and catches
///    sites discovered after the SCC partition was built).
///
/// Wave tags are deterministic functions of the schedule structure, never
/// of thread timing, so a domain that buffers diagnostics per tag and
/// merges in tag order gets a run-to-run stable diagnostic stream.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_ENGINE_FIXPOINT_H
#define MIX_ENGINE_FIXPOINT_H

#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mix::rt {
class ThreadPool;
}

namespace mix::engine {

struct FixpointConfig {
  /// Bound on rounds (serial) and on intra-SCC + validation rounds
  /// (worklist).
  unsigned MaxRounds = 16;
  obs::TraceSink *Trace = nullptr;
  /// Span emitted per round; domains keep their historical names
  /// (MIXY passes "mixy.round"/"mixy"). Static strings only: the trace
  /// sink keeps the pointers until it renders, which is after the
  /// analysis — and this config — are gone.
  const char *RoundSpanName = "engine.round";
  const char *SpanCategory = "engine";
  obs::MetricsRegistry *Metrics = nullptr;
  /// Per-request telemetry: every run() variant charges its wall time to
  /// the request's fixpoint phase. Null costs one branch per run.
  obs::RequestTelemetry *Telemetry = nullptr;
};

/// The type-erased domain callbacks (see file comment).
struct FixpointCallbacks {
  std::function<size_t()> NumSites;
  std::function<bool(size_t)> Refresh;
  std::function<void(const std::vector<size_t> &, uint64_t)> EvaluateWave;
  std::function<void(unsigned)> OnRoundBegin;                      // optional
  std::function<std::vector<std::pair<size_t, size_t>>()> Edges;   // worklist
};

/// Counter names (registry-backed; inert without a registry):
///   engine.fixpoint.rounds    rounds/waves that evaluated at least 1 site
///   engine.worklist.reruns    site evaluations beyond each site's first
class FixpointDriver {
public:
  explicit FixpointDriver(FixpointConfig C);

  /// Gauss-Seidel, one site at a time. Returns rounds with changes.
  unsigned runSerial(const FixpointCallbacks &CB);

  /// Dependency-aware SCC worklist over \p Pool. Returns evaluation
  /// waves (intra-SCC rounds plus validation rounds) with changes.
  unsigned runWorklist(const FixpointCallbacks &CB, rt::ThreadPool &Pool);

private:
  FixpointConfig Cfg;
  obs::Counter CRounds;
  obs::Counter CReruns;
};

} // namespace mix::engine

#endif // MIX_ENGINE_FIXPOINT_H
