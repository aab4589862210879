//===--- ThreadPoolTest.cpp - Tests for the FIFO worker pool --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The pool serves mixyd's analyze requests, so these tests pin its
// contract: submit/join round trips, exception propagation through
// futures, FIFO order on one worker, the destructor running every queued
// task, and many tasks over many workers.
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace mix::rt;

TEST(ThreadPoolTest, SubmitAndJoinReturnsValues) {
  ThreadPool Pool(4);
  std::vector<int> Results(100, -1);
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 100; ++I)
    Futures.push_back(
        Pool.submit([&Results, I] { Results[(size_t)I] = I * I; }));
  for (int I = 0; I != 100; ++I) {
    Futures[(size_t)I].get();
    EXPECT_EQ(Results[(size_t)I], I * I);
  }
}

TEST(ThreadPoolTest, VoidTasksComplete) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.submit([&Count] { ++Count; });
    // No future is awaited: the destructor runs every queued task before
    // it joins the workers.
  }
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughGet) {
  ThreadPool Pool(2);
  std::future<void> Bad =
      Pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  int Seven = 0;
  Pool.submit([&Seven] { Seven = 7; }).get();
  EXPECT_EQ(Seven, 7);
}

TEST(ThreadPoolTest, OneWorkerIsSerial) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  // All tasks run on the single worker thread, never concurrently and in
  // submission order: an unsynchronized vector records 0, 1, ..., 199.
  std::vector<int> Order;
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 200; ++I)
    Futures.push_back(Pool.submit([&Order, I] { Order.push_back(I); }));
  for (auto &F : Futures)
    F.get();
  std::vector<int> Expected(200);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPoolTest, ManyTasksAcrossManyWorkersSum) {
  ThreadPool Pool(8);
  std::atomic<long long> Total{0};
  std::vector<std::future<void>> Futures;
  for (long long I = 1; I <= 1000; ++I)
    Futures.push_back(Pool.submit([&Total, I] { Total += I; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Total.load(), 500500);
}
