//===--- DriverTest.cpp - Tests for the shared driver layer ---------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers the redesigned tool driver: option parsing with "did you mean"
// suggestions, the shared --jobs parser, input loading (file / stdin /
// @corpus), the exit-code contract, the DriverContext observability
// flags, and a golden round-trip of --format=json diagnostics for the
// built-in case studies.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "driver/Driver.h"
#include "driver/InputLoader.h"
#include "driver/OptionParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "runtime/ThreadPool.h"
#include "support/Diagnostics.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace mix;
namespace driver = mix::driver;

namespace {

/// Runs \p P.parse over \p Args (argv[0] is supplied).
bool parseArgs(driver::OptionParser &P, std::vector<std::string> Args) {
  std::vector<char *> Argv;
  static std::string Tool = "tool";
  Argv.push_back(Tool.data());
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return P.parse((int)Argv.size(), Argv.data());
}

//===----------------------------------------------------------------------===//
// OptionParser
//===----------------------------------------------------------------------===//

TEST(OptionParserTest, FlagsAndPositionals) {
  driver::OptionParser P("tool");
  bool Flag = false;
  P.flag("--flag", &Flag);
  ASSERT_TRUE(parseArgs(P, {"--flag", "input.c", "-"}));
  EXPECT_TRUE(Flag);
  ASSERT_EQ(P.positionals().size(), 2u);
  EXPECT_EQ(P.positionals()[0], "input.c");
  EXPECT_EQ(P.positionals()[1], "-"); // "-" is a positional, not a flag
}

TEST(OptionParserTest, CallbackFlag) {
  driver::OptionParser P("tool");
  int Hits = 0;
  P.flag("--bump", [&Hits] { ++Hits; });
  ASSERT_TRUE(parseArgs(P, {"--bump", "--bump"}));
  EXPECT_EQ(Hits, 2);
}

TEST(OptionParserTest, ValueOptions) {
  driver::OptionParser P("tool");
  std::string Mode;
  P.value("--mode", [&Mode](const std::string &V) {
    if (V != "typed" && V != "symbolic")
      return false;
    Mode = V;
    return true;
  });
  ASSERT_TRUE(parseArgs(P, {"--mode=symbolic"}));
  EXPECT_EQ(Mode, "symbolic");
  // A rejected value is a usage error.
  driver::OptionParser P2("tool");
  P2.value("--mode", [](const std::string &) { return false; });
  EXPECT_FALSE(parseArgs(P2, {"--mode=bogus"}));
}

TEST(OptionParserTest, SeparateValue) {
  driver::OptionParser P("tool");
  std::vector<std::string> Vars;
  P.separateValue("--var", [&Vars](const std::string &V) {
    Vars.push_back(V);
    return true;
  });
  ASSERT_TRUE(parseArgs(P, {"--var", "x:int", "--var", "y:bool"}));
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0], "x:int");
  EXPECT_EQ(Vars[1], "y:bool");
  // Missing trailing value is a usage error.
  driver::OptionParser P2("tool");
  P2.separateValue("--var", [](const std::string &) { return true; });
  EXPECT_FALSE(parseArgs(P2, {"--var"}));
}

TEST(OptionParserTest, UnknownOptionFails) {
  driver::OptionParser P("tool");
  bool Flag = false;
  P.flag("--strategy", &Flag);
  EXPECT_FALSE(parseArgs(P, {"--bogus"}));
}

TEST(OptionParserTest, Suggestions) {
  driver::OptionParser P("tool");
  bool B = false;
  P.flag("--strategy", &B);
  P.flag("--stats", &B);
  P.flag("--jobs", &B);
  // A one-transposition typo suggests the real flag (value part ignored).
  EXPECT_EQ(P.suggestionFor("--strateyg=fork"), "--strategy");
  EXPECT_EQ(P.suggestionFor("--stast"), "--stats");
  // Nothing close enough: no suggestion rather than a misleading one.
  EXPECT_EQ(P.suggestionFor("--completely-unrelated"), "");
}

TEST(OptionParserTest, JobsParsing) {
  driver::OptionParser P("tool");
  unsigned Jobs = 1;
  P.jobs(&Jobs);
  ASSERT_TRUE(parseArgs(P, {"--jobs=4"}));
  EXPECT_EQ(Jobs, 4u);

  // 0 resolves to one worker per hardware thread.
  driver::OptionParser P0("tool");
  unsigned Jobs0 = 1;
  P0.jobs(&Jobs0);
  ASSERT_TRUE(parseArgs(P0, {"--jobs=0"}));
  EXPECT_EQ(Jobs0, rt::ThreadPool::hardwareWorkers());
  EXPECT_GE(Jobs0, 1u);

  // Non-numeric values and values past UINT_MAX are usage errors, never
  // an exception or a wrap-around.
  for (const char *Bad :
       {"--jobs=many", "--jobs=4294967296", "--jobs=99999999999999999999"}) {
    driver::OptionParser PBad("tool");
    unsigned JobsBad = 1;
    PBad.jobs(&JobsBad);
    EXPECT_FALSE(parseArgs(PBad, {Bad})) << Bad;
    EXPECT_EQ(JobsBad, 1u) << Bad;
  }
}

TEST(OptionParserTest, ExitCodeContract) {
  // The contract both CLIs document in --help; these values are part of
  // the tool interface and must never drift.
  EXPECT_EQ(driver::ExitClean, 0);
  EXPECT_EQ(driver::ExitFindings, 1);
  EXPECT_EQ(driver::ExitUsage, 2);
}

TEST(OptionParserTest, RenderHelpCoversEveryRegisteredOption) {
  // --help is generated from the registration table, so it cannot drift:
  // every registered spelling must appear in the rendered text, in
  // registration order, with its help string.
  driver::OptionParser P("tool");
  bool B = false;
  P.flag("--baseline", &B, "run the baseline analysis");
  P.value(
      "--entry", [](const std::string &) { return true; }, "NAME",
      "analyze starting from NAME");
  P.separateValue(
      "--var", [](const std::string &) { return true; }, "name:type",
      "add a typed variable");
  unsigned Jobs = 1;
  P.jobs(&Jobs);

  std::string Help = P.renderHelp();
  size_t Last = 0;
  for (const std::string &Name : P.optionNames()) {
    size_t At = Help.find(Name);
    ASSERT_NE(At, std::string::npos) << "missing from --help: " << Name;
    EXPECT_GE(At, Last) << "out of registration order: " << Name;
    Last = At;
  }
  EXPECT_NE(Help.find("run the baseline analysis"), std::string::npos);
  EXPECT_NE(Help.find("--entry=NAME"), std::string::npos);
  // separateValue options take their value as the next argv element.
  EXPECT_NE(Help.find("--var name:type"), std::string::npos);
}

TEST(DriverContextTest, RegisteredFlagsAllDocumented) {
  // The shared DriverContext flags ride along in every tool's --help.
  driver::DriverContext Driver;
  driver::OptionParser P("tool");
  Driver.registerOptions(P);
  std::string Help = P.renderHelp();
  for (const char *Name : {"--trace", "--metrics", "--format", "--explain",
                           "--stats", "--cache-dir"}) {
    EXPECT_NE(Help.find(Name), std::string::npos)
        << "missing from --help: " << Name;
  }
  // Each option renders with a non-empty help string: the line must be
  // longer than the spelling itself.
  EXPECT_NE(Help.find("--cache-dir=DIR"), std::string::npos);
  EXPECT_NE(Help.find("--format=text|json|sarif"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// InputLoader
//===----------------------------------------------------------------------===//

class TempFile {
public:
  TempFile(const std::string &Name, const std::string &Content)
      : Path(::testing::TempDir() + Name) {
    std::ofstream Out(Path);
    Out << Content;
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string Path;
};

TEST(InputLoaderTest, ReadsFiles) {
  TempFile F("driver_test_input.txt", "1 + 2\n");
  std::string Source;
  ASSERT_TRUE(driver::loadInput("tool", F.Path, Source));
  EXPECT_EQ(Source, "1 + 2\n");
}

TEST(InputLoaderTest, MissingFileFails) {
  std::string Source;
  EXPECT_FALSE(
      driver::loadInput("tool", "/nonexistent/driver_test_input", Source));
}

TEST(InputLoaderTest, CorpusSpecs) {
  auto Resolver = [](const std::string &Spec, std::string &Out) {
    if (Spec != "case1" && Spec != "case1:baseline")
      return false;
    Out = "corpus:" + Spec;
    return true;
  };
  std::string Source;
  ASSERT_TRUE(driver::loadInput("tool", "@case1", Source, Resolver));
  EXPECT_EQ(Source, "corpus:case1");
  ASSERT_TRUE(driver::loadInput("tool", "@case1:baseline", Source, Resolver));
  EXPECT_EQ(Source, "corpus:case1:baseline");
  EXPECT_FALSE(driver::loadInput("tool", "@case9", Source, Resolver));
}

TEST(InputLoaderTest, AtWithoutResolverIsAFile) {
  // mixcheck has no corpus; "@name" must fall back to a file path.
  TempFile F("@driver_test_at_file", "content");
  std::string Source;
  ASSERT_TRUE(driver::loadInput("tool", F.Path, Source));
  EXPECT_EQ(Source, "content");
}

//===----------------------------------------------------------------------===//
// DriverContext
//===----------------------------------------------------------------------===//

TEST(DriverContextTest, Defaults) {
  driver::DriverContext Driver;
  driver::OptionParser P("tool");
  Driver.registerOptions(P);
  ASSERT_TRUE(parseArgs(P, {}));
  EXPECT_EQ(Driver.traceSink(), nullptr); // no --trace: instrumentation off
  EXPECT_FALSE(Driver.statsRequested());
  EXPECT_FALSE(Driver.jsonOutput());
}

TEST(DriverContextTest, ObservabilityFlags) {
  driver::DriverContext Driver;
  driver::OptionParser P("tool");
  Driver.registerOptions(P);
  ASSERT_TRUE(
      parseArgs(P, {"--trace=/tmp/t.json", "--format=json", "--stats"}));
  EXPECT_NE(Driver.traceSink(), nullptr);
  EXPECT_TRUE(Driver.statsRequested());
  EXPECT_TRUE(Driver.jsonOutput());
}

TEST(DriverContextTest, ProvenanceSinkFollowsTheOutputSurface) {
  // Null by default and under --format=json (nothing renders evidence):
  // the null-handle off switch the analyses branch on.
  {
    driver::DriverContext Driver;
    driver::OptionParser P("tool");
    Driver.registerOptions(P);
    ASSERT_TRUE(parseArgs(P, {"--format=json"}));
    EXPECT_EQ(Driver.provenanceSink(), nullptr);
    EXPECT_FALSE(Driver.explainRequested());
  }
  // --explain keeps text output but turns recording on.
  {
    driver::DriverContext Driver;
    driver::OptionParser P("tool");
    Driver.registerOptions(P);
    ASSERT_TRUE(parseArgs(P, {"--explain"}));
    EXPECT_TRUE(Driver.explainRequested());
    EXPECT_NE(Driver.provenanceSink(), nullptr);
    EXPECT_FALSE(Driver.jsonOutput());
  }
  // --format=sarif needs the evidence for codeFlows, so the sink is live
  // and counts into the shared registry.
  {
    driver::DriverContext Driver;
    driver::OptionParser P("tool");
    Driver.registerOptions(P);
    ASSERT_TRUE(parseArgs(P, {"--format=sarif"}));
    EXPECT_EQ(Driver.format(), driver::DriverContext::OutputFormat::Sarif);
    EXPECT_TRUE(Driver.jsonOutput()); // machine format: one doc on stdout
    prov::ProvenanceSink *Sink = Driver.provenanceSink();
    ASSERT_NE(Sink, nullptr);
    Sink->countWitness();
    EXPECT_EQ(Driver.metrics().counterValue("provenance.witnesses"), 1u);
  }
}

TEST(DriverContextTest, BadFormatRejected) {
  driver::DriverContext Driver;
  driver::OptionParser P("tool");
  Driver.registerOptions(P);
  EXPECT_FALSE(parseArgs(P, {"--format=xml"}));
}

TEST(DriverContextTest, EmptyArtifactPathsRejected) {
  driver::DriverContext Driver;
  driver::OptionParser P("tool");
  Driver.registerOptions(P);
  EXPECT_FALSE(parseArgs(P, {"--trace="}));
  driver::DriverContext Driver2;
  driver::OptionParser P2("tool");
  Driver2.registerOptions(P2);
  EXPECT_FALSE(parseArgs(P2, {"--metrics="}));
}

TEST(DriverContextTest, MetricsRegistryIsLive) {
  driver::DriverContext Driver;
  Driver.metrics().counter("x").add(3);
  EXPECT_EQ(Driver.metrics().counterValue("x"), 3u);
}

TEST(DriverContextTest, ExcludingTheCacheDirGroupDropsTheFlag) {
  // mixcheck persists nothing, so it excludes the "cache-dir" group:
  // --cache-dir is then an unknown option, neither in --help nor offered
  // as a suggestion.
  driver::DriverContext Driver;
  driver::OptionParser P("mixcheck");
  P.excludeGroup("cache-dir");
  Driver.registerOptions(P);
  EXPECT_EQ(P.renderHelp().find("--cache-dir"), std::string::npos);
  EXPECT_FALSE(parseArgs(P, {"--cache-dir=d", "-"}));
  EXPECT_TRUE(Driver.cacheDir().empty());
}

TEST(PhaseBreakdownTest, ListsAllSixPhasesZeroIncluded) {
  // Two runs of one input must print the same lines, so a phase that
  // took under a microsecond still gets its row.
  service::AnalysisResponse Resp;
  Resp.RequestId = "r-1";
  Resp.TotalUs = 200;
  Resp.PhaseUs[(unsigned)obs::Phase::Parse] = 50;
  Resp.PhaseUs[(unsigned)obs::Phase::Typecheck] = 100;
  std::string Table = driver::renderPhaseBreakdown(Resp);
  EXPECT_EQ(Table, "phase breakdown (inclusive, total 200 us):\n"
                   "  parse      :         50 us ( 25.0%)\n"
                   "  typecheck  :        100 us ( 50.0%)\n"
                   "  fixpoint   :          0 us (  0.0%)\n"
                   "  block-exec :          0 us (  0.0%)\n"
                   "  solver     :          0 us (  0.0%)\n"
                   "  render     :          0 us (  0.0%)\n");

  // A request that took under a microsecond in all still lists them.
  service::AnalysisResponse Instant;
  Instant.RequestId = "r-2";
  std::string Zero = driver::renderPhaseBreakdown(Instant);
  EXPECT_EQ(std::count(Zero.begin(), Zero.end(), '\n'), 7);

  // Without telemetry there is no attribution, so no table.
  EXPECT_EQ(driver::renderPhaseBreakdown(service::AnalysisResponse()), "");
}

//===----------------------------------------------------------------------===//
// Golden --format=json round-trip for the case studies
//===----------------------------------------------------------------------===//

const char *severityName(DiagKind K) {
  switch (K) {
  case DiagKind::Error:
    return "error";
  case DiagKind::Warning:
    return "warning";
  case DiagKind::Note:
    return "note";
  }
  return "?";
}

/// Runs MIXY over one corpus case and checks that renderJSON() is a
/// faithful, machine-parseable image of the engine's diagnostic list:
/// every non-attached diagnostic appears once, in order, with matching
/// id/severity/location/message, and every attached note appears inside
/// its parent's "notes" array.
void roundTripCase(int CaseNo, bool Annotated) {
  SCOPED_TRACE("case" + std::to_string(CaseNo) +
               (Annotated ? "" : ":baseline"));
  c::CAstContext Ctx;
  DiagnosticEngine Diags;
  const std::string Source = c::corpus::vsftpdCase(CaseNo, Annotated);
  const c::CProgram *P = c::parseC(Source, Ctx, Diags);
  ASSERT_NE(P, nullptr);
  c::MixyAnalysis Analysis(*P, Ctx, Diags);
  Analysis.run(c::MixyAnalysis::StartMode::Typed);

  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Diags.renderJSON(), Doc, &Error))
      << Error;
  ASSERT_TRUE(Doc.isArray());

  const std::vector<Diagnostic> &All = Diags.diagnostics();
  size_t Rendered = 0;
  for (size_t I = 0; I != All.size(); ++I) {
    const Diagnostic &D = All[I];
    if (D.Kind == DiagKind::Note && D.Parent != Diagnostic::NoParent)
      continue; // appears inside its parent, checked below
    ASSERT_LT(Rendered, Doc.size());
    const testjson::Value &Obj = Doc[Rendered++];
    ASSERT_TRUE(Obj.isObject());
    EXPECT_EQ(Obj["id"].Str, diagIdString(D.ID));
    EXPECT_EQ(Obj["category"].Str, diagCategory(D.ID));
    EXPECT_EQ(Obj["severity"].Str, severityName(D.Kind));
    EXPECT_EQ(Obj["line"].Num, D.Loc.Line);
    EXPECT_EQ(Obj["column"].Num, D.Loc.Column);
    EXPECT_EQ(Obj["message"].Str, D.Message);
    std::vector<size_t> Notes = Diags.notesFor(I);
    ASSERT_TRUE(Obj["notes"].isArray());
    ASSERT_EQ(Obj["notes"].size(), Notes.size());
    for (size_t N = 0; N != Notes.size(); ++N) {
      const Diagnostic &Note = All[Notes[N]];
      const testjson::Value &NObj = Obj["notes"][N];
      EXPECT_EQ(NObj["id"].Str, diagIdString(Note.ID));
      EXPECT_EQ(NObj["severity"].Str, "note");
      EXPECT_EQ(NObj["message"].Str, Note.Message);
      EXPECT_EQ(NObj["line"].Num, Note.Loc.Line);
      EXPECT_EQ(NObj["column"].Num, Note.Loc.Column);
    }
  }
  EXPECT_EQ(Rendered, Doc.size());
}

TEST(JsonRoundTripTest, Case1) { roundTripCase(1, true); }
TEST(JsonRoundTripTest, Case2) { roundTripCase(2, true); }
TEST(JsonRoundTripTest, Case3) { roundTripCase(3, true); }
TEST(JsonRoundTripTest, Case4) { roundTripCase(4, true); }

// The baseline variants actually produce warnings (with qualifier-flow
// notes), so the notes path is exercised for real.
TEST(JsonRoundTripTest, Case1Baseline) { roundTripCase(1, false); }
TEST(JsonRoundTripTest, Case4Baseline) { roundTripCase(4, false); }

} // namespace
