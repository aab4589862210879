//===--- SpeedProbe.h - Machine-speed probe for time metrics ----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared host the machine's speed changes in steps lasting seconds,
/// by up to half, with the load of other tenants. A run's wall times then
/// say as much about the neighbours as about the program. The probe runs
/// a fixed kernel that uses none of the analysis code (it fills a
/// std::map with short strings) and times it. Wall times
/// taken next to a probe are scaled by ReferenceMs / probe time: they read
/// as the time the same work takes when the probe takes ReferenceMs.
///
/// A change to the program cannot change the probe's time, so it shows in
/// the scaled times in full; a change of machine speed moves request and
/// probe alike and mostly cancels.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_E2EBENCH_SPEEDPROBE_H
#define MIX_E2EBENCH_SPEEDPROBE_H

#include <cstdint>
#include <vector>

namespace e2e {

class SpeedProbe {
public:
  /// The probe time that scaled times are expressed at: about what the
  /// kernel takes on one vCPU of a 2.1 GHz Xeon VM, so scaled times there
  /// read close to wall times.
  static constexpr double ReferenceMs = 1.5;

  /// Runs the kernel once and returns its checksum, the same on every
  /// call and every machine.
  uint64_t runKernel();

  /// The median wall time, in milliseconds, of three kernel runs.
  double sampleMs();

  /// ReferenceMs over the mean of two probe samples: the factor that
  /// scales a wall time taken between them.
  static double scaleBetween(double BeforeMs, double AfterMs);

private:
  /// Folds in every sampled run's checksum, so the runs are not dead code.
  uint64_t Checksum = 0;
};

/// Wall times scaled by probes taken around them. A window opens with a
/// probe sample; the times noted in it are scaled once the next sample
/// closes it, by the mean of the two samples.
class ScaledClock {
public:
  /// Probes at least every \p WindowSeconds of wall time.
  explicit ScaledClock(double WindowSeconds);

  /// Notes a raw wall time of the current window.
  void note(double Ms) { Pending.push_back(Ms); }

  /// Closes the window when it has lasted WindowSeconds.
  void tick();

  /// Closes the current window (call once, after the last note).
  void finish();

  /// The scaled times, in the order noted.
  const std::vector<double> &scaledMs() const { return Scaled; }

  /// Every probe sample taken, in milliseconds.
  const std::vector<double> &probeMs() const { return Samples; }

private:
  void close();

  SpeedProbe Probe;
  double WindowSeconds;
  double OpenedAt = 0; ///< seconds on the steady clock
  std::vector<double> Pending, Scaled, Samples;
};

} // namespace e2e

#endif // MIX_E2EBENCH_SPEEDPROBE_H
