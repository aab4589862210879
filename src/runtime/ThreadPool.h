//===--- ThreadPool.h - FIFO worker pool ------------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed set of worker threads serving one FIFO task queue. mixyd runs
/// each analyze request as one task on it; the analysis itself stays on
/// the worker that picked the request up (DESIGN.md section 9).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_RUNTIME_THREADPOOL_H
#define MIX_RUNTIME_THREADPOOL_H

#include "observe/Trace.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mix::rt {

class ThreadPool {
public:
  /// Spawns \p Workers threads (at least one).
  ///
  /// With a trace sink attached, each worker names its timeline lane
  /// ("<name> worker N") and every executed task is recorded as a
  /// "pool.task" span on the worker that ran it; a null sink costs one
  /// branch per task.
  explicit ThreadPool(unsigned Workers, obs::TraceSink *Trace = nullptr,
                      const char *Name = "pool");

  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workerCount() const { return (unsigned)Workers.size(); }

  /// A sensible default worker count for "use all the hardware".
  static unsigned hardwareWorkers() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }

  /// Queues \p Task behind every task submitted before it. The future
  /// becomes ready once the task has run, and get() rethrows anything
  /// it threw.
  std::future<void> submit(std::function<void()> Task);

private:
  void workerLoop(unsigned Index);

  obs::TraceSink *Trace;
  const char *PoolName;

  std::mutex M;
  std::condition_variable Cv;
  std::deque<std::packaged_task<void()>> Queue;
  bool Stopping = false;

  std::vector<std::thread> Workers;
};

} // namespace mix::rt

#endif // MIX_RUNTIME_THREADPOOL_H
