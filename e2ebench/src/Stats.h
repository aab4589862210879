//===--- Stats.h - Percentiles, ratios and span self times ------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic the benchmark reports with: percentiles of latency
/// samples, guarded ratios, quantiles of the program's log2-bucket
/// histograms, and self time of a span (its length minus the part its
/// child spans cover — computed as an interval union, so nested children
/// are never counted twice).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_E2EBENCH_STATS_H
#define MIX_E2EBENCH_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// The \p P-th percentile (0..100) of \p Samples, interpolating linearly
/// between closest ranks (rank = P/100 * (n-1)). 0 for no samples.
double percentile(std::vector<double> Samples, double P);

/// percentile(Samples, 50).
double median(std::vector<double> Samples);

/// \p Num / \p Den, or 0 when \p Den is 0.
double ratio(double Num, double Den);

/// The \p Q-quantile (0..1) of values recorded in log2 buckets, where
/// bucket 0 holds 0 and 1 and bucket b > 0 holds [2^b, 2^(b+1)). The
/// rank is located by cumulative count and interpolated linearly inside
/// its bucket. 0 when the buckets are empty.
double bucketQuantile(const std::vector<uint64_t> &Buckets, double Q);

/// A half-open time interval [Begin, End) in microseconds.
struct Interval {
  uint64_t Begin = 0;
  uint64_t End = 0;
};

/// Total length of the union of \p Spans clipped to \p Within.
uint64_t coveredLength(std::vector<Interval> Spans, Interval Within);

/// \p Parent's length minus the part of it that \p Children cover.
uint64_t selfTime(Interval Parent, const std::vector<Interval> &Children);

/// One recorded span of a request: a name, an interval, and the index of
/// the span that contains it (-1 for a root).
struct Span {
  std::string Name;
  Interval I;
  int Parent = -1;
};

/// A request's span tree. Spans are added in any order; parents are
/// assigned by containment (the tightest enclosing span), which is how
/// the program's own spans — recorded without parent links — join the
/// spans the benchmark records around its calls.
class SpanTree {
public:
  void add(std::string Name, Interval I) {
    Spans.push_back({std::move(Name), I, -1});
  }

  /// Links every span to its tightest enclosing span.
  void link();

  const std::vector<Span> &spans() const { return Spans; }

  /// Summed self time (microseconds) of the spans named \p Name, where a
  /// span's children are its direct children in the linked tree.
  uint64_t selfUs(const std::string &Name) const;

  /// Summed length of spans named \p Name that have no ancestor of the
  /// same name (nested repeats are not counted twice).
  uint64_t outermostUs(const std::string &Name) const;

private:
  std::vector<Span> Spans;
};

} // namespace e2e

#endif // MIX_E2EBENCH_STATS_H
