//===--- SpeedProbe.cpp - Machine-speed probe for time metrics ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "SpeedProbe.h"

#include "Stats.h"

#include <chrono>
#include <map>
#include <string>

using namespace e2e;

namespace {

using Clock = std::chrono::steady_clock;

double nowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The kernel builds a node-based map of short heap strings, 3000
/// inserts over 4096 keys, then walks it; twice per run. Allocation and
/// pointer chasing are what the analysis does most. Of the kernels tried
/// on a shared 4-vCPU Xeon VM (an open-addressing table, a sort, an
/// indirect-call dispatch, larger maps, hashing and sorting strings),
/// this one slowed most like a request when the host got busier: 1.31-1.39
/// times against the requests' 1.43-1.49, the others 1.13-1.35.
constexpr unsigned Rounds = 2;
constexpr unsigned MapInserts = 3000;

uint64_t next(uint64_t &X) {
  X = X * 6364136223846793005ull + 1442695040888963407ull;
  return X;
}

} // namespace

uint64_t SpeedProbe::runKernel() {
  uint64_t X = 0x9E3779B97F4A7C15ull, Sum = 0;
  for (unsigned R = 0; R != Rounds; ++R) {
    std::map<uint64_t, std::string> Map;
    for (unsigned I = 0; I != MapInserts; ++I) {
      uint64_t V = next(X);
      Map[V >> 52] = std::string(24 + (V & 31), 'a');
    }
    for (const auto &[K, S] : Map)
      Sum += K * S.size();
  }
  return Sum;
}

double SpeedProbe::sampleMs() {
  std::vector<double> Ms;
  for (int I = 0; I != 3; ++I) {
    Clock::time_point T0 = Clock::now();
    Checksum ^= runKernel();
    Ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
  }
  return median(Ms);
}

double SpeedProbe::scaleBetween(double BeforeMs, double AfterMs) {
  return ratio(2 * ReferenceMs, BeforeMs + AfterMs);
}

ScaledClock::ScaledClock(double WindowSeconds) : WindowSeconds(WindowSeconds) {
  Samples.push_back(Probe.sampleMs());
  OpenedAt = nowSeconds();
}

void ScaledClock::tick() {
  if (nowSeconds() - OpenedAt >= WindowSeconds)
    close();
}

void ScaledClock::finish() {
  if (!Pending.empty())
    close();
}

void ScaledClock::close() {
  Samples.push_back(Probe.sampleMs());
  double Scale =
      SpeedProbe::scaleBetween(Samples[Samples.size() - 2], Samples.back());
  for (double Ms : Pending)
    Scaled.push_back(Ms * Scale);
  Pending.clear();
  OpenedAt = nowSeconds();
}
