//===--- Stats.cpp - Percentiles, ratios and span self times --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace e2e;

double e2e::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::clamp(P, 0.0, 100.0) / 100.0 * (Samples.size() - 1);
  size_t Lo = (size_t)std::floor(Rank);
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * (Rank - Lo);
}

double e2e::median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50);
}

double e2e::ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

double e2e::bucketQuantile(const std::vector<uint64_t> &Buckets, double Q) {
  uint64_t Total = 0;
  for (uint64_t C : Buckets)
    Total += C;
  if (Total == 0)
    return 0;
  double Target = std::clamp(Q, 0.0, 1.0) * Total;
  uint64_t Seen = 0;
  for (size_t B = 0; B != Buckets.size(); ++B) {
    if (Buckets[B] == 0)
      continue;
    if (Seen + Buckets[B] >= Target) {
      double Lo = B == 0 ? 0.0 : std::ldexp(1.0, (int)B);
      double Hi = std::ldexp(1.0, (int)B + 1);
      double Frac = (Target - Seen) / Buckets[B];
      return Lo + (Hi - Lo) * Frac;
    }
    Seen += Buckets[B];
  }
  return std::ldexp(1.0, (int)Buckets.size());
}

uint64_t e2e::coveredLength(std::vector<Interval> Spans, Interval Within) {
  for (Interval &S : Spans) {
    S.Begin = std::max(S.Begin, Within.Begin);
    S.End = std::min(S.End, Within.End);
  }
  std::sort(Spans.begin(), Spans.end(), [](const Interval &A,
                                           const Interval &B) {
    return A.Begin < B.Begin;
  });
  uint64_t Total = 0, CurBegin = 0, CurEnd = 0;
  bool Open = false;
  for (const Interval &S : Spans) {
    if (S.End <= S.Begin)
      continue;
    if (Open && S.Begin <= CurEnd) {
      CurEnd = std::max(CurEnd, S.End);
      continue;
    }
    if (Open)
      Total += CurEnd - CurBegin;
    CurBegin = S.Begin;
    CurEnd = S.End;
    Open = true;
  }
  if (Open)
    Total += CurEnd - CurBegin;
  return Total;
}

uint64_t e2e::selfTime(Interval Parent, const std::vector<Interval> &Children) {
  uint64_t Len = Parent.End > Parent.Begin ? Parent.End - Parent.Begin : 0;
  return Len - std::min(Len, coveredLength(Children, Parent));
}

void SpanTree::link() {
  // Sweep in (begin ascending, end descending, insertion) order with a
  // stack of open spans: the tightest container of a span is the top of
  // the stack once every span that ends before it has been popped. Equal
  // intervals keep insertion order, so the earlier span is the parent.
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const Interval &X = Spans[A].I, &Y = Spans[B].I;
    if (X.Begin != Y.Begin)
      return X.Begin < Y.Begin;
    if (X.End != Y.End)
      return X.End > Y.End;
    return A < B;
  });
  std::vector<size_t> Open;
  for (size_t I : Order) {
    while (!Open.empty() && Spans[Open.back()].I.End < Spans[I].I.End)
      Open.pop_back();
    Spans[I].Parent = Open.empty() ? -1 : (int)Open.back();
    Open.push_back(I);
  }
}

uint64_t SpanTree::selfUs(const std::string &Name) const {
  std::vector<std::vector<Interval>> Children(Spans.size());
  for (const Span &C : Spans)
    if (C.Parent >= 0)
      Children[C.Parent].push_back(C.I);
  uint64_t Total = 0;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == Name)
      Total += selfTime(Spans[I].I, Children[I]);
  return Total;
}

uint64_t SpanTree::outermostUs(const std::string &Name) const {
  uint64_t Total = 0;
  for (const Span &S : Spans) {
    if (S.Name != Name)
      continue;
    bool Nested = false;
    for (int P = S.Parent; P >= 0 && !Nested; P = Spans[P].Parent)
      Nested = Spans[P].Name == Name;
    if (!Nested)
      Total += S.I.End - S.I.Begin;
  }
  return Total;
}
