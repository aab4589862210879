//===--- Fixpoint.cpp - Engine fixpoint scheduling --------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "engine/Fixpoint.h"

#include "runtime/ThreadPool.h"
#include "support/Scc.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <set>

using namespace mix::engine;

FixpointDriver::FixpointDriver(FixpointConfig C) : Cfg(std::move(C)) {
  if (Cfg.Metrics) {
    CRounds = Cfg.Metrics->counter("engine.fixpoint.rounds");
    CReruns = Cfg.Metrics->counter("engine.worklist.reruns");
  }
}

unsigned FixpointDriver::runSerial(const FixpointCallbacks &CB) {
  obs::PhaseTimer Timer(Cfg.Telemetry, obs::Phase::Fixpoint);
  unsigned Rounds = 0;
  std::vector<bool> Seen;
  for (unsigned Iter = 0; Iter != Cfg.MaxRounds; ++Iter) {
    obs::TraceSpan Span(Cfg.Trace, Cfg.RoundSpanName,
                        Cfg.SpanCategory);
    if (Cfg.Trace)
      Span.setArgs("{\"round\": " + std::to_string(Iter) + "}");
    if (CB.OnRoundBegin)
      CB.OnRoundBegin(Iter);
    bool Changed = false;
    // Snapshot the count: nested analyses may append sites while we
    // iterate, and those get picked up next round (indexing instead of a
    // range-for also keeps appends from invalidating our position).
    size_t N = CB.NumSites();
    if (Seen.size() < N)
      Seen.resize(N, false);
    for (size_t I = 0; I != N; ++I) {
      if (!CB.Refresh(I))
        continue;
      Changed = true;
      if (Seen[I])
        CReruns.inc();
      Seen[I] = true;
      CB.EvaluateWave({I}, Iter);
    }
    if (!Changed)
      break;
    ++Rounds;
    CRounds.inc();
  }
  return Rounds;
}

unsigned FixpointDriver::runRoundBarrier(const FixpointCallbacks &CB) {
  obs::PhaseTimer Timer(Cfg.Telemetry, obs::Phase::Fixpoint);
  unsigned Rounds = 0;
  std::vector<bool> Seen;
  for (unsigned Iter = 0; Iter != Cfg.MaxRounds; ++Iter) {
    obs::TraceSpan Span(Cfg.Trace, Cfg.RoundSpanName,
                        Cfg.SpanCategory);
    if (Cfg.Trace)
      Span.setArgs("{\"round\": " + std::to_string(Iter) + "}");
    if (CB.OnRoundBegin)
      CB.OnRoundBegin(Iter);
    size_t N = CB.NumSites();
    if (Seen.size() < N)
      Seen.resize(N, false);
    std::vector<size_t> ChangedSites;
    for (size_t I = 0; I != N; ++I)
      if (CB.Refresh(I))
        ChangedSites.push_back(I);
    if (ChangedSites.empty())
      break;
    ++Rounds;
    CRounds.inc();
    for (size_t I : ChangedSites) {
      if (Seen[I])
        CReruns.inc();
      Seen[I] = true;
    }
    CB.EvaluateWave(ChangedSites, Iter);
  }
  return Rounds;
}

unsigned FixpointDriver::runWorklist(const FixpointCallbacks &CB,
                                     rt::ThreadPool &Pool) {
  obs::PhaseTimer Timer(Cfg.Telemetry, obs::Phase::Fixpoint);
  // The SCC partition is built over the sites known now; sites appended
  // during evaluation are handled by the validation sweep below.
  size_t N0 = CB.NumSites();
  std::vector<std::vector<size_t>> Adj(N0);
  if (CB.Edges) {
    for (auto [From, To] : CB.Edges()) {
      if (From == To || From >= N0 || To >= N0)
        continue;
      Adj[From].push_back(To);
    }
    for (std::vector<size_t> &Out : Adj) {
      std::sort(Out.begin(), Out.end());
      Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    }
  }

  std::vector<std::vector<size_t>> Sccs = tarjanSccs(N0, Adj);
  size_t NumSccs = Sccs.size();
  // Tarjan emits sinks first; topological position = reversed emission
  // order. Used only to build deterministic wave tags.
  std::vector<size_t> TopoPos(NumSccs);
  for (size_t I = 0; I != NumSccs; ++I)
    TopoPos[I] = NumSccs - 1 - I;

  std::vector<size_t> SccOf(N0);
  for (size_t S = 0; S != NumSccs; ++S)
    for (size_t V : Sccs[S])
      SccOf[V] = S;

  // Condensation: cross-SCC successor sets and predecessor counts.
  std::vector<std::set<size_t>> SuccSets(NumSccs);
  std::vector<unsigned> Pending(NumSccs, 0);
  for (size_t V = 0; V != N0; ++V)
    for (size_t W : Adj[V])
      if (SccOf[V] != SccOf[W])
        SuccSets[SccOf[V]].insert(SccOf[W]);
  for (size_t S = 0; S != NumSccs; ++S)
    for (size_t T : SuccSets[S])
      ++Pending[T];

  unsigned Waves = 0;
  std::vector<bool> Seen(N0, false);
  std::mutex DriverM; // guards Waves/Seen and the counters from workers

  // Coordinator state: an SCC becomes Ready when all its predecessor
  // SCCs are Done. The coordinator (caller thread) submits ready SCCs to
  // the pool and sleeps until everything is Done.
  std::mutex M;
  std::condition_variable Cv;
  std::vector<size_t> Ready;
  size_t Done = 0;
  std::exception_ptr FirstError;
  for (size_t S = 0; S != NumSccs; ++S)
    if (Pending[S] == 0)
      Ready.push_back(S);

  uint64_t TagStride = (uint64_t)Cfg.MaxRounds + 1;
  auto RunScc = [&](size_t S) {
    try {
      const std::vector<size_t> &Members = Sccs[S];
      for (unsigned R = 0; R != Cfg.MaxRounds; ++R) {
        std::vector<size_t> ChangedSites;
        for (size_t I : Members)
          if (CB.Refresh(I))
            ChangedSites.push_back(I);
        if (ChangedSites.empty())
          break;
        {
          std::lock_guard<std::mutex> Lock(DriverM);
          ++Waves;
          CRounds.inc();
          for (size_t I : ChangedSites) {
            if (Seen[I])
              CReruns.inc();
            Seen[I] = true;
          }
        }
        CB.EvaluateWave(ChangedSites, (uint64_t)TopoPos[S] * TagStride + R);
      }
    } catch (...) {
      std::lock_guard<std::mutex> Lock(M);
      if (!FirstError)
        FirstError = std::current_exception();
    }
    // Completion must run even after an exception, or the coordinator
    // never sees Done reach NumSccs.
    std::lock_guard<std::mutex> Lock(M);
    ++Done;
    for (size_t T : SuccSets[S])
      if (--Pending[T] == 0)
        Ready.push_back(T);
    Cv.notify_all();
  };

  std::vector<rt::TaskFuture<void>> Futures;
  {
    std::unique_lock<std::mutex> Lock(M);
    while (Done != NumSccs) {
      while (!Ready.empty()) {
        size_t S = Ready.back();
        Ready.pop_back();
        Lock.unlock();
        Futures.push_back(Pool.submit([&RunScc, S] { RunScc(S); }));
        Lock.lock();
      }
      if (Done == NumSccs)
        break;
      Cv.wait(Lock, [&] { return Done == NumSccs || !Ready.empty(); });
    }
  }
  for (rt::TaskFuture<void> &F : Futures)
    F.get();
  if (FirstError)
    std::rethrow_exception(FirstError);

  // Validation sweep: plain round-barrier rounds on the coordinator
  // thread. For a monotone constraint system this drives any residue —
  // under-approximated edges, sites appended after the partition — to
  // the same least fixpoint the barrier schedule reaches.
  for (unsigned E = 0; E != Cfg.MaxRounds; ++E) {
    obs::TraceSpan Span(Cfg.Trace, Cfg.RoundSpanName,
                        Cfg.SpanCategory);
    if (Cfg.Trace)
      Span.setArgs("{\"round\": " + std::to_string(E) + "}");
    if (CB.OnRoundBegin)
      CB.OnRoundBegin(E);
    size_t N = CB.NumSites();
    if (Seen.size() < N)
      Seen.resize(N, false);
    std::vector<size_t> ChangedSites;
    for (size_t I = 0; I != N; ++I)
      if (CB.Refresh(I))
        ChangedSites.push_back(I);
    if (ChangedSites.empty())
      break;
    {
      std::lock_guard<std::mutex> Lock(DriverM);
      ++Waves;
      CRounds.inc();
      for (size_t I : ChangedSites) {
        if (Seen[I])
          CReruns.inc();
        Seen[I] = true;
      }
    }
    CB.EvaluateWave(ChangedSites, (uint64_t)NumSccs * TagStride + E);
  }
  return Waves;
}
