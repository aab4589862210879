//===--- Phase.h - Request telemetry and RAII phase timers ------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request telemetry: a fixed phase taxonomy (parse, typecheck,
/// fixpoint, block-exec, solver, render), a RequestTelemetry context that
/// accumulates per-phase wall time and optionally records a
/// request-scoped span tree, and a PhaseTimer RAII guard that feeds it.
///
/// The context follows the null-handle discipline from DESIGN.md section
/// 10: every instrumentation site takes a RequestTelemetry pointer, and a
/// null pointer reduces the timer to one predictable branch and no clock
/// reads (bench_observe guards this).
///
/// Phase attribution is inclusive (see DESIGN.md section 17): the
/// typecheck phase contains fixpoint, which contains block-exec, which
/// contains solver time. Consumers that want exclusive ("self") time
/// subtract along that chain.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_OBSERVE_PHASE_H
#define MIX_OBSERVE_PHASE_H

#include "observe/Trace.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace mix::obs {

/// The analysis phase taxonomy. Order is the canonical rendering order
/// (pipeline order, container before contained).
enum class Phase : unsigned {
  Parse = 0,
  Typecheck,
  Fixpoint,
  BlockExec,
  Solver,
  Render,
};

constexpr unsigned NumPhases = 6;

/// Stable lowercase name ("parse", "block-exec", ...) used in response
/// JSON, --stats tables, and metric names (dots instead of dashes there).
const char *phaseName(Phase P);

/// The span name a PhaseTimer emits ("phase.parse", ...).
const char *phaseSpanName(Phase P);

/// Per-request telemetry context. One is created per AnalysisService
/// request when request telemetry is enabled; engine code only sees it as
/// an optional pointer. The request's thread is the only one that reaches
/// it (the solver and the PhaseTimers that add to it run there), so the
/// phase totals are plain integers.
class RequestTelemetry {
public:
  RequestTelemetry() = default;
  RequestTelemetry(const RequestTelemetry &) = delete;
  RequestTelemetry &operator=(const RequestTelemetry &) = delete;

  /// Stable request id ("r-17"), assigned by the service.
  std::string Id;

  void addPhase(Phase P, uint64_t Us) { PhaseUs[(unsigned)P] += Us; }

  uint64_t phaseUs(Phase P) const { return PhaseUs[(unsigned)P]; }

  /// Turns on the request-scoped span tree. \p SharedEpoch should be the
  /// process-global sink's epoch() so imported events keep their
  /// timestamps (TraceSink::import).
  void enableSpans(TraceSink::EpochTime SharedEpoch) {
    Spans.emplace(SharedEpoch);
  }

  /// The request-scoped sink, or null when spans were not enabled —
  /// instrumentation passes this straight to TraceSpan.
  TraceSink *sink() { return Spans ? &*Spans : nullptr; }

private:
  std::array<uint64_t, NumPhases> PhaseUs{};
  std::optional<TraceSink> Spans;
};

/// RAII phase timer. Null telemetry costs one branch in the constructor
/// and one in the destructor; attached, it accumulates wall microseconds
/// into the phase and, when the request records spans, emits a
/// "phase.<name>" complete event.
class PhaseTimer {
public:
  PhaseTimer(RequestTelemetry *T, Phase P) : T(T), P(P) {
    if (T) {
      Sink = T->sink();
      SpanStart = Sink ? Sink->nowUs() : 0;
      Start = std::chrono::steady_clock::now();
    }
  }

  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

  ~PhaseTimer() {
    if (!T)
      return;
    uint64_t Us =
        (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count();
    T->addPhase(P, Us);
    if (Sink)
      Sink->complete(phaseSpanName(P), "phase", SpanStart,
                     Sink->nowUs() - SpanStart);
  }

private:
  RequestTelemetry *T;
  Phase P;
  TraceSink *Sink = nullptr;
  uint64_t SpanStart = 0;
  std::chrono::steady_clock::time_point Start;
};

} // namespace mix::obs

#endif // MIX_OBSERVE_PHASE_H
