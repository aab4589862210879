//===--- Trace.h - Chrome-trace-format span/event sink ----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability subsystem. A TraceSink records
/// phase spans (complete events), instant events, and thread-name
/// metadata, and renders them as Chrome trace format JSON — loadable in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Recording appends to one event vector under one mutex: the CLIs trace
/// one thread, each request's sink is written by the thread serving it,
/// and only the service's sink sees mixyd's workers. Events carry a tid
/// (the recording thread's threadSlot()), so a ThreadPool run renders one
/// timeline lane per worker.
///
/// Like metrics handles, a null sink pointer is the off switch: TraceSpan
/// and every record helper branch on the pointer and do nothing else, so
/// untraced runs pay one predictable branch per instrumentation site.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_OBSERVE_TRACE_H
#define MIX_OBSERVE_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mix::obs {

/// A small, stable per-thread index, used as a trace event's tid.
/// Assigned on first use, process wide, and never reused; the main
/// thread typically gets 0.
unsigned threadSlot();

/// Chrome trace event phases. 'X' = complete (span), 'i' = instant,
/// 'M' = metadata (thread names).
enum class TracePhase : char { Complete = 'X', Instant = 'i', Metadata = 'M' };

/// One recorded event. Public so a request-scoped sink's events can be
/// snapshotted into an AnalysisResponse and imported into the global
/// sink (timestamps stay comparable when the sinks share an epoch).
struct TraceEvent {
  TracePhase Ph = TracePhase::Complete;
  std::string Name;
  std::string Cat;
  uint64_t Ts = 0;
  uint64_t Dur = 0;
  unsigned Tid = 0;
  std::string Args; ///< pre-rendered JSON object, may be empty
};

/// Collects trace events; thread-safe.
class TraceSink {
public:
  using EpochTime = std::chrono::steady_clock::time_point;

  TraceSink();

  /// Epoch-sharing constructor: nowUs() counts from \p SharedEpoch, so
  /// events recorded here and in the sink the epoch came from use one
  /// time base (the service gives each request sink the global epoch).
  explicit TraceSink(EpochTime SharedEpoch);

  /// The time zero of nowUs().
  EpochTime epoch() const { return Epoch; }

  /// Microseconds since the sink was created (steady clock).
  uint64_t nowUs() const;

  /// A zero-duration marker, e.g. one path fork. \p ArgsJson, when
  /// non-empty, must be a JSON object ("{\"k\": 1}") rendered verbatim
  /// into the event's "args".
  void instant(const char *Name, const char *Cat,
               const std::string &ArgsJson = std::string());

  /// A span [StartUs, StartUs + DurUs) — usually recorded via TraceSpan.
  void complete(const char *Name, const char *Cat, uint64_t StartUs,
                uint64_t DurUs, const std::string &ArgsJson = std::string());

  /// Names the calling thread's timeline lane ("mixyd worker 3").
  void nameCurrentThread(const std::string &Name);

  /// Number of events recorded so far (spans + instants + metadata).
  size_t eventCount() const;

  /// The whole trace as Chrome trace format JSON, events sorted by
  /// timestamp (deterministic rendering for a given event multiset).
  std::string renderJSON() const;

  /// Every event recorded so far, sorted by (ts, tid, name) like
  /// renderJSON — the building block for per-request span trees.
  std::vector<TraceEvent> snapshotEvents() const;

  /// Appends \p Events verbatim, preserving their tids and timestamps
  /// (meaningful only when both sinks share an epoch). Used to fold a
  /// request-scoped sink back into the process-global trace.
  void import(const std::vector<TraceEvent> &Events);

  /// The complete spans as a speedscope-compatible JSON profile
  /// (https://www.speedscope.app/file-format-schema.json): one "evented"
  /// profile per thread lane, frames deduplicated by span name, child
  /// spans clamped into their parents. \p Name labels the document.
  std::string renderSpeedscope(const std::string &Name = "mix") const;

private:
  void record(TraceEvent E);

  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<TraceEvent> Events; ///< in record order
};

/// RAII span: records a complete event covering its lifetime. Null sink
/// means both constructor and destructor reduce to a branch.
class TraceSpan {
public:
  TraceSpan(TraceSink *Sink, const char *Name, const char *Cat)
      : Sink(Sink), Name(Name), Cat(Cat),
        Start(Sink ? Sink->nowUs() : 0) {}

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attaches args to the event emitted at scope exit; \p Json must be a
  /// JSON object.
  void setArgs(std::string Json) {
    if (Sink)
      Args = std::move(Json);
  }

  ~TraceSpan() {
    if (Sink)
      Sink->complete(Name, Cat, Start, Sink->nowUs() - Start, Args);
  }

private:
  TraceSink *Sink;
  const char *Name;
  const char *Cat;
  uint64_t Start;
  std::string Args;
};

} // namespace mix::obs

#endif // MIX_OBSERVE_TRACE_H
