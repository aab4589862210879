//===--- ThreadPool.cpp - FIFO worker pool ----------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadPool.h"

#include <algorithm>

using namespace mix::rt;

ThreadPool::ThreadPool(unsigned WorkerCount, obs::TraceSink *TraceSink,
                       const char *Name)
    : Trace(TraceSink), PoolName(Name) {
  WorkerCount = std::max(WorkerCount, 1u);
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I != WorkerCount; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  Cv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::future<void> ThreadPool::submit(std::function<void()> Fn) {
  std::packaged_task<void()> Task(std::move(Fn));
  std::future<void> Result = Task.get_future();
  {
    std::lock_guard<std::mutex> Lock(M);
    Queue.push_back(std::move(Task));
  }
  Cv.notify_one();
  return Result;
}

void ThreadPool::workerLoop(unsigned Index) {
  if (Trace)
    Trace->nameCurrentThread(std::string(PoolName) + " worker " +
                             std::to_string(Index));
  for (;;) {
    std::packaged_task<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(M);
      Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // stopping, and nothing is left to run
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    obs::TraceSpan Span(Trace, "pool.task", "pool");
    Task();
  }
}
