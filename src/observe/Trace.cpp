//===--- Trace.cpp - Chrome-trace-format span/event sink --------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "observe/Trace.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <atomic>
#include <map>

using namespace mix::obs;

unsigned mix::obs::threadSlot() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Slot = Next.fetch_add(1, std::memory_order_relaxed);
  return Slot;
}

TraceSink::TraceSink() : Epoch(std::chrono::steady_clock::now()) {}

TraceSink::TraceSink(EpochTime SharedEpoch) : Epoch(SharedEpoch) {}

uint64_t TraceSink::nowUs() const {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void TraceSink::record(TraceEvent E) {
  E.Tid = threadSlot();
  std::lock_guard<std::mutex> Lock(M);
  Events.push_back(std::move(E));
}

void TraceSink::instant(const char *Name, const char *Cat,
                        const std::string &ArgsJson) {
  TraceEvent E;
  E.Ph = TracePhase::Instant;
  E.Name = Name;
  E.Cat = Cat;
  E.Ts = nowUs();
  E.Args = ArgsJson;
  record(std::move(E));
}

void TraceSink::complete(const char *Name, const char *Cat, uint64_t StartUs,
                         uint64_t DurUs, const std::string &ArgsJson) {
  TraceEvent E;
  E.Ph = TracePhase::Complete;
  E.Name = Name;
  E.Cat = Cat;
  E.Ts = StartUs;
  E.Dur = DurUs;
  E.Args = ArgsJson;
  record(std::move(E));
}

void TraceSink::nameCurrentThread(const std::string &Name) {
  TraceEvent E;
  E.Ph = TracePhase::Metadata;
  E.Name = "thread_name";
  E.Cat = "__metadata";
  E.Args = "{\"name\": \"" + mix::jsonEscape(Name) + "\"}";
  record(std::move(E));
}

size_t TraceSink::eventCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events.size();
}

std::vector<TraceEvent> TraceSink::snapshotEvents() const {
  // Order by (ts, tid, name) so the result is deterministic for a given
  // multiset of events; the stable sort keeps each thread's ties in
  // record order.
  std::vector<TraceEvent> All;
  {
    std::lock_guard<std::mutex> Lock(M);
    All = Events;
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.Ts != B.Ts)
                       return A.Ts < B.Ts;
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     return A.Name < B.Name;
                   });
  return All;
}

void TraceSink::import(const std::vector<TraceEvent> &Imported) {
  std::lock_guard<std::mutex> Lock(M);
  Events.insert(Events.end(), Imported.begin(), Imported.end());
}

std::string TraceSink::renderJSON() const {
  std::vector<TraceEvent> All = snapshotEvents();

  std::string Out = "{\"traceEvents\": [";
  bool First = true;
  for (const TraceEvent &E : All) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "  {\"name\": \"" + mix::jsonEscape(E.Name) + "\", \"cat\": \"";
    Out += E.Cat;
    Out += "\", \"ph\": \"";
    Out += (char)E.Ph;
    Out += "\", \"pid\": 1, \"tid\": " + std::to_string(E.Tid);
    if (E.Ph != TracePhase::Metadata)
      Out += ", \"ts\": " + std::to_string(E.Ts);
    if (E.Ph == TracePhase::Complete)
      Out += ", \"dur\": " + std::to_string(E.Dur);
    if (E.Ph == TracePhase::Instant)
      Out += ", \"s\": \"t\"";
    if (!E.Args.empty())
      Out += ", \"args\": " + E.Args;
    Out += "}";
  }
  Out += First ? "],\n" : "\n],\n";
  Out += "\"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

std::string TraceSink::renderSpeedscope(const std::string &Name) const {
  // Only complete spans become stack frames; instants and metadata have
  // no extent. Spans are grouped per tid into one evented profile each.
  std::vector<TraceEvent> All = snapshotEvents();
  All.erase(std::remove_if(All.begin(), All.end(),
                           [](const TraceEvent &E) {
                             return E.Ph != TracePhase::Complete;
                           }),
            All.end());

  // Frame table: span names deduplicated, sorted for determinism.
  std::map<std::string, size_t> FrameIdx;
  for (const TraceEvent &E : All)
    FrameIdx.emplace(E.Name, 0);
  {
    size_t I = 0;
    for (auto &[FrameName, Idx] : FrameIdx)
      Idx = I++;
  }

  std::map<unsigned, std::vector<const TraceEvent *>> ByTid;
  for (const TraceEvent &E : All)
    ByTid[E.Tid].push_back(&E);

  std::string Out = "{\n  \"$schema\": "
                    "\"https://www.speedscope.app/file-format-schema.json\",\n";
  Out += "  \"name\": \"" + mix::jsonEscape(Name) + "\",\n";
  Out += "  \"exporter\": \"mix\",\n";
  Out += "  \"activeProfileIndex\": 0,\n";
  Out += "  \"shared\": {\"frames\": [";
  bool First = true;
  for (const auto &[FrameName, Idx] : FrameIdx) {
    (void)Idx;
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    {\"name\": \"" + mix::jsonEscape(FrameName) + "\"}";
  }
  Out += First ? "]},\n" : "\n  ]},\n";
  Out += "  \"profiles\": [";

  First = true;
  for (auto &[Tid, Spans] : ByTid) {
    // Longest span first at equal start, so parents open before children;
    // children are clamped into the enclosing span (overlap from clock
    // skew between nested nowUs() reads never produces a negative stack).
    std::stable_sort(Spans.begin(), Spans.end(),
                     [](const TraceEvent *A, const TraceEvent *B) {
                       if (A->Ts != B->Ts)
                         return A->Ts < B->Ts;
                       if (A->Dur != B->Dur)
                         return A->Dur > B->Dur;
                       return A->Name < B->Name;
                     });

    std::string Events;
    bool FirstEv = true;
    auto emit = [&](char Type, size_t Frame, uint64_t At) {
      Events += FirstEv ? "\n" : ",\n";
      FirstEv = false;
      Events += "        {\"type\": \"";
      Events += Type;
      Events += "\", \"frame\": " + std::to_string(Frame) +
                ", \"at\": " + std::to_string(At) + "}";
    };

    std::vector<std::pair<size_t, uint64_t>> Stack; // (frame, end)
    uint64_t EndValue = 0;
    for (const TraceEvent *E : Spans) {
      while (!Stack.empty() && Stack.back().second <= E->Ts) {
        emit('C', Stack.back().first, Stack.back().second);
        EndValue = std::max(EndValue, Stack.back().second);
        Stack.pop_back();
      }
      uint64_t End = E->Ts + E->Dur;
      if (!Stack.empty())
        End = std::min(End, Stack.back().second);
      size_t Frame = FrameIdx[E->Name];
      emit('O', Frame, E->Ts);
      Stack.emplace_back(Frame, End);
    }
    while (!Stack.empty()) {
      emit('C', Stack.back().first, Stack.back().second);
      EndValue = std::max(EndValue, Stack.back().second);
      Stack.pop_back();
    }

    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    {\"type\": \"evented\", \"name\": \"thread " +
           std::to_string(Tid) + "\", \"unit\": \"microseconds\",\n";
    Out += "      \"startValue\": 0, \"endValue\": " +
           std::to_string(EndValue) + ",\n";
    Out += "      \"events\": [" + Events + (FirstEv ? "]}" : "\n      ]}");
  }
  Out += First ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}
