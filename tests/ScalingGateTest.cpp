//===--- ScalingGateTest.cpp - Work counters must grow linearly -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Complexity gates on deterministic counters: each generator runs at size
// N and at 4N through AnalysisService, as mixyc and mixyd run it, and
// every counter a super-linear cost would move must grow by at most 4.5x.
// Wall time on a shared machine is too noisy to gate on; these counters
// are exact, so a quadratic step shows as a ratio near 16 on any machine.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "mixy/VsftpdMini.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace mix;
namespace service = mix::service;

namespace {

struct Measured {
  size_t SourceBytes = 0;
  std::map<std::string, uint64_t> Counters;

  uint64_t counter(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
};

/// One cold MIXY request over the corpus plus \p Modules typed filler
/// modules, entered through filler_main so the whole program is analyzed
/// (e2ebench's mixy-typed-large at 1,000 modules).
Measured typedFiller(unsigned Modules) {
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Source = c::corpus::vsftpdScaled(/*Annotated=*/true, Modules, 0);
  Req.HasSource = true;
  Req.Entry = "filler_main";
  service::AnalysisResponse Resp = Svc.run(Req);
  EXPECT_NE(Resp.Exit, 2) << Resp.Payload;
  Measured Out;
  Out.SourceBytes = Req.Source.size();
  for (const auto &[Name, Value] : Resp.Metrics)
    Out.Counters[Name] = Value;
  return Out;
}

} // namespace

TEST(ScalingGateTest, TypedSideGrowsLinearlyWithFillerModules) {
  Measured Small = typedFiller(250);
  Measured Large = typedFiller(1000);
  // The parse, the points-to pre-pass and the qualifier graph. Each grows
  // 3.95-3.98x today: the corpus is a fixed part of both programs.
  for (const char *Name : {"cfront.ast_bytes", "cfront.ast_nodes",
                           "ptranal.cells", "qual.variables",
                           "qual.flow_edges"}) {
    SCOPED_TRACE(Name);
    uint64_t S = Small.counter(Name), L = Large.counter(Name);
    ASSERT_GT(S, 0u);
    EXPECT_GT(L, S);
    EXPECT_LE((double)L / (double)S, 4.5) << S << " -> " << L;
  }
  // The front end's arena stays within a fixed multiple of the source
  // (about 11 bytes per source byte; DESIGN.md "The front end allocates
  // per parse").
  for (const Measured *R : {&Small, &Large})
    EXPECT_LE(R->counter("cfront.ast_bytes"), 12 * R->SourceBytes)
        << R->SourceBytes << " source bytes";
}
