//===--- Metrics.cpp - Counters and histograms ------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "observe/Metrics.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace mix::obs;

HistogramSnapshot detail::HistogramData::snapshot() const {
  HistogramSnapshot Out;
  Out.Count = Count.load(std::memory_order_relaxed);
  Out.Sum = Sum.load(std::memory_order_relaxed);
  Out.Min = Out.Count == 0 ? 0 : Min.load(std::memory_order_relaxed);
  Out.Max = Max.load(std::memory_order_relaxed);
  for (unsigned B = 0; B != HistogramBuckets; ++B)
    Out.Buckets[B] = Buckets[B].load(std::memory_order_relaxed);
  return Out;
}

double HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  // Rank in [0, Count]; the bucket whose cumulative count reaches it
  // holds the quantile.
  double Rank = Q * (double)Count;
  uint64_t Cum = 0;
  for (unsigned B = 0; B != detail::HistogramBuckets; ++B) {
    uint64_t N = Buckets[B];
    if (N == 0)
      continue;
    if ((double)(Cum + N) >= Rank) {
      // Bucket 0 covers [0, 2); bucket B covers [2^B, 2^(B+1)).
      double Lo = B == 0 ? 0.0 : std::ldexp(1.0, (int)B);
      double Hi = std::ldexp(1.0, (int)B + 1);
      double Frac = (Rank - (double)Cum) / (double)N;
      double V = Lo + Frac * (Hi - Lo);
      // The true range within the bucket is narrower than the bucket
      // bounds whenever Min/Max landed inside it.
      return std::min(std::max(V, (double)Min), (double)Max);
    }
    Cum += N;
  }
  return (double)Max;
}

Counter MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Counter(&Counters.try_emplace(Name, 0).first->second);
}

Histogram MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Histogram(&Histograms.try_emplace(Name).first->second);
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0
                              : It->second.load(std::memory_order_relaxed);
}

HistogramSnapshot
MetricsRegistry::histogramSnapshot(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? HistogramSnapshot() : It->second.snapshot();
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::counters(std::string_view Prefix) const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (auto It = Counters.lower_bound(std::string(Prefix));
       It != Counters.end() && startsWith(It->first, Prefix); ++It)
    Out.emplace_back(It->first, It->second.load(std::memory_order_relaxed));
  return Out;
}

MetricsSnapshot MetricsRegistry::snapshot(std::string_view Prefix) const {
  MetricsSnapshot Out;
  for (const auto &[Name, Value] : counters(Prefix))
    Out.Counters.emplace(Name, Value);
  return Out;
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::deltaSince(const MetricsSnapshot &Since,
                            std::string_view Prefix) const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const auto &[Name, Now] : counters(Prefix)) {
    auto It = Since.Counters.find(Name);
    uint64_t Then = It == Since.Counters.end() ? 0 : It->second;
    if (Now > Then)
      Out.emplace_back(Name, Now - Then);
  }
  return Out;
}

void MetricsRegistry::absorb(const MetricsRegistry &From,
                             std::string_view SkipPrefix) {
  for (const auto &[Name, Value] : From.counters())
    if (!startsWith(Name, SkipPrefix))
      counter(Name).add(Value);
  for (const std::string &Name : From.histogramNames()) {
    if (startsWith(Name, SkipPrefix))
      continue;
    HistogramSnapshot S = From.histogramSnapshot(Name);
    detail::HistogramData &D = *histogram(Name).Data;
    for (unsigned B = 0; B != detail::HistogramBuckets; ++B)
      D.Buckets[B].fetch_add(S.Buckets[B], std::memory_order_relaxed);
    D.Count.fetch_add(S.Count, std::memory_order_relaxed);
    D.Sum.fetch_add(S.Sum, std::memory_order_relaxed);
    if (S.Count) {
      D.lowerMin(S.Min);
      D.raiseMax(S.Max);
    }
  }
}

std::vector<std::string> MetricsRegistry::histogramNames() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Out;
  Out.reserve(Histograms.size());
  for (const auto &[Name, Data] : Histograms) {
    (void)Data;
    Out.push_back(Name);
  }
  return Out;
}

std::string MetricsRegistry::renderText() const {
  std::string Out;
  for (const auto &[Name, Value] : counters())
    Out += Name + " = " + std::to_string(Value) + "\n";
  for (const std::string &Name : histogramNames()) {
    HistogramSnapshot S = histogramSnapshot(Name);
    Out += Name + " = count " + std::to_string(S.Count) + ", sum " +
           std::to_string(S.Sum) + ", min " + std::to_string(S.Min) +
           ", max " + std::to_string(S.Max) + "\n";
  }
  return Out;
}

std::string MetricsRegistry::renderJSON() const {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : counters()) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Name) + "\": " + std::to_string(Value);
  }
  Out += First ? "},\n" : "\n  },\n";
  Out += "  \"histograms\": {";
  First = true;
  for (const std::string &Name : histogramNames()) {
    HistogramSnapshot S = histogramSnapshot(Name);
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Name) + "\": {\"count\": " +
           std::to_string(S.Count) + ", \"sum\": " + std::to_string(S.Sum) +
           ", \"min\": " + std::to_string(S.Min) +
           ", \"max\": " + std::to_string(S.Max) + ", \"buckets\": [";
    // Trailing zero buckets are elided so files stay small; bucket i
    // counts values in [2^i, 2^(i+1)).
    unsigned Last = detail::HistogramBuckets;
    while (Last > 0 && S.Buckets[Last - 1] == 0)
      --Last;
    for (unsigned B = 0; B != Last; ++B)
      Out += (B ? ", " : "") + std::to_string(S.Buckets[B]);
    Out += "]}";
  }
  Out += First ? "}\n" : "\n  }\n";
  Out += "}\n";
  return Out;
}

/// Metric names in OpenMetrics are [a-zA-Z_:][a-zA-Z0-9_:]*; dots (the
/// registry's separator) and anything else exotic become underscores.
static std::string openMetricsName(const std::string &Name) {
  std::string Out = "mix_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  return Out;
}

/// Shortest round-trip-ish rendering of a quantile estimate ("12", or
/// "12.5"): fixed precision, trailing zeros trimmed, deterministic.
static std::string openMetricsDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  std::string S(Buf);
  while (!S.empty() && S.back() == '0')
    S.pop_back();
  if (!S.empty() && S.back() == '.')
    S.pop_back();
  return S.empty() ? "0" : S;
}

std::string MetricsRegistry::renderOpenMetrics() const {
  std::string Out;
  for (const auto &[Name, Value] : counters()) {
    std::string N = openMetricsName(Name);
    Out += "# TYPE " + N + " counter\n";
    Out += N + "_total " + std::to_string(Value) + "\n";
  }
  for (const std::string &Name : histogramNames()) {
    HistogramSnapshot S = histogramSnapshot(Name);
    std::string N = openMetricsName(Name);
    Out += "# TYPE " + N + " histogram\n";
    // Cumulative buckets; bucket B's upper bound is 2^(B+1) (bucket 0 is
    // [0, 2)). Trailing empty buckets collapse into the +Inf series.
    unsigned Last = detail::HistogramBuckets;
    while (Last > 0 && S.Buckets[Last - 1] == 0)
      --Last;
    uint64_t Cum = 0;
    for (unsigned B = 0; B != Last; ++B) {
      Cum += S.Buckets[B];
      Out += N + "_bucket{le=\"" + std::to_string((uint64_t)1 << (B + 1)) +
             "\"} " + std::to_string(Cum) + "\n";
    }
    Out += N + "_bucket{le=\"+Inf\"} " + std::to_string(S.Count) + "\n";
    Out += N + "_sum " + std::to_string(S.Sum) + "\n";
    Out += N + "_count " + std::to_string(S.Count) + "\n";
    for (double Q : {0.5, 0.9, 0.99}) {
      std::string QN = N + (Q == 0.5 ? "_p50" : Q == 0.9 ? "_p90" : "_p99");
      Out += "# TYPE " + QN + " gauge\n";
      Out += QN + " " + openMetricsDouble(S.quantile(Q)) + "\n";
    }
  }
  Out += "# EOF\n";
  return Out;
}
