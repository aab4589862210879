//===--- Metrics.h - Counters and histograms --------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability subsystem: a registry of named
/// counters and latency histograms that analysis code can bump from any
/// thread without taking a lock.
///
/// Design contract (see DESIGN.md section 10):
///  - Handles, not names, on the hot path. Code resolves a Counter or
///    Histogram handle once at setup time (registry lookups intern the
///    name under a mutex) and then increments through the handle.
///  - One atomic per value. A counter is one relaxed atomic and a
///    histogram one set of bucket, count, sum, min and max atomics, held
///    in the registry's map node; a handle is a plain pointer to it.
///    Atomics, because mixyd's workers and its --metrics-file flusher
///    share the service registry.
///  - Null handles are free. A default-constructed handle carries a null
///    pointer and every record operation is a single branch on it —
///    instrumented code paths cost nothing when no registry is attached
///    (bench_observe guards this).
///  - Reads (renderText / renderJSON / counterValue) are exact at a
///    barrier, which is when the CLIs render --stats / --metrics.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_OBSERVE_METRICS_H
#define MIX_OBSERVE_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mix::obs {

struct HistogramSnapshot;

namespace detail {

/// Histograms bucket by floor(log2(value)) — enough resolution to tell
/// microsecond solver queries from millisecond block analyses.
constexpr unsigned HistogramBuckets = 40;

struct HistogramData {
  std::array<std::atomic<uint64_t>, HistogramBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};

  HistogramSnapshot snapshot() const;

  /// Min/max races only lose against a strictly better value.
  void lowerMin(uint64_t Value) {
    uint64_t Cur = Min.load(std::memory_order_relaxed);
    while (Value < Cur &&
           !Min.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
      ;
  }
  void raiseMax(uint64_t Value) {
    uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (Value > Cur &&
           !Max.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
      ;
  }
};

} // namespace detail

/// Hot-path handle to a registry counter. Default-constructed handles are
/// detached: add() is a branch on a null pointer and nothing else.
class Counter {
public:
  Counter() = default;

  explicit operator bool() const { return Data != nullptr; }

  void add(uint64_t N) {
    if (Data)
      Data->fetch_add(N, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// The current total (exact at a barrier).
  uint64_t value() const {
    return Data ? Data->load(std::memory_order_relaxed) : 0;
  }

private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<uint64_t> *Data) : Data(Data) {}
  std::atomic<uint64_t> *Data = nullptr;
};

/// Point-in-time view of one histogram.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< 0 when Count == 0
  uint64_t Max = 0;
  std::array<uint64_t, detail::HistogramBuckets> Buckets{};

  /// Quantile estimate for \p Q in [0, 1]: finds the log2 bucket holding
  /// the rank and interpolates linearly within it, so the error is
  /// bounded by that bucket's width. Clamped to the observed [Min, Max];
  /// 0 when the histogram is empty.
  double quantile(double Q) const;
};

/// Hot-path handle to a registry histogram (values are unit-free; the
/// solver records microseconds). Detached handles record nothing.
class Histogram {
public:
  Histogram() = default;

  explicit operator bool() const { return Data != nullptr; }

  void record(uint64_t Value) {
    if (!Data)
      return;
    Data->Buckets[bucketOf(Value)].fetch_add(1, std::memory_order_relaxed);
    Data->Count.fetch_add(1, std::memory_order_relaxed);
    Data->Sum.fetch_add(Value, std::memory_order_relaxed);
    Data->lowerMin(Value);
    Data->raiseMax(Value);
  }

  HistogramSnapshot snapshot() const {
    return Data ? Data->snapshot() : HistogramSnapshot();
  }

  /// Bucket index: floor(log2(Value)) clamped to the bucket range; 0 maps
  /// to bucket 0.
  static unsigned bucketOf(uint64_t Value) {
    unsigned B = 0;
    while (Value > 1 && B + 1 < detail::HistogramBuckets) {
      Value >>= 1;
      ++B;
    }
    return B;
  }

private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramData *Data) : Data(Data) {}
  detail::HistogramData *Data = nullptr;
};

/// Point-in-time view of every counter in a registry, used to compute
/// per-request deltas in long-lived processes (the mixyd daemon serves
/// many requests from one registry; each response carries only what that
/// request added). Histograms are deliberately excluded: their min/max
/// are not subtractable, and no per-request consumer needs them.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> Counters;
};

/// The registry: interns metric names to their storage and renders the
/// whole set as text or JSON. Registration is mutex-guarded (cold path);
/// recording goes through the handles above (lock-free). Map nodes never
/// move, so a handle stays valid for the registry's lifetime.
class MetricsRegistry {
public:
  /// Returns the (interned) counter named \p Name; repeated calls with
  /// the same name share storage.
  Counter counter(const std::string &Name);

  /// Returns the (interned) histogram named \p Name.
  Histogram histogram(const std::string &Name);

  /// Value of the named counter, or 0 when it was never registered.
  uint64_t counterValue(const std::string &Name) const;

  /// Snapshot of the named histogram (all-zero when never registered).
  HistogramSnapshot histogramSnapshot(const std::string &Name) const;

  /// The counters whose names start with \p Prefix (all by default),
  /// name-sorted, with their current values.
  std::vector<std::pair<std::string, uint64_t>>
  counters(std::string_view Prefix = {}) const;

  /// Current values of the counters starting with \p Prefix, for later
  /// use with deltaSince(). Exact when taken at a barrier (no concurrent
  /// recording), like every other read.
  MetricsSnapshot snapshot(std::string_view Prefix = {}) const;

  /// Name-sorted (name, now - then) pairs for every counter starting
  /// with \p Prefix that grew since \p Since was taken; counters absent
  /// from the snapshot count from zero, zero deltas are dropped.
  std::vector<std::pair<std::string, uint64_t>>
  deltaSince(const MetricsSnapshot &Since,
             std::string_view Prefix = {}) const;

  /// Adds every counter and histogram of \p From whose name does not
  /// start with \p SkipPrefix into the same-named metric here,
  /// registering it when new. The service folds a request's private
  /// registry into its own this way.
  void absorb(const MetricsRegistry &From, std::string_view SkipPrefix);

  /// All histogram names, sorted.
  std::vector<std::string> histogramNames() const;

  /// "name = value" per line, name-sorted — the --stats building block.
  std::string renderText() const;

  /// {"counters": {...}, "histograms": {...}} — the --metrics=FILE body.
  std::string renderJSON() const;

  /// OpenMetrics text exposition (the mixyd `metrics` RPC body and the
  /// --metrics-file flush format): every counter as a `_total` series,
  /// every histogram as cumulative `_bucket{le="..."}` series derived
  /// from the log2 buckets plus `_sum`/`_count`, and interpolated
  /// p50/p90/p99 gauges. Names are prefixed "mix_" and sanitized to
  /// [a-zA-Z0-9_:]. Ends with "# EOF".
  std::string renderOpenMetrics() const;

private:
  mutable std::mutex M;
  std::map<std::string, std::atomic<uint64_t>> Counters;
  std::map<std::string, detail::HistogramData> Histograms;
};

} // namespace mix::obs

#endif // MIX_OBSERVE_METRICS_H
