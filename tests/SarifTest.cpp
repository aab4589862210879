//===--- SarifTest.cpp - Provenance rendering and SARIF export ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers the diagnostic-provenance subsystem end to end: the --explain
// text renderer against a byte-exact golden, the persistence round-trip
// of provenance payloads, and the SARIF 2.1.0 export for the two evidence
// shapes the analyses record — a symbolic witness path (MIX through a
// feasible ill-typed branch) and a qualifier flow chain (MIXY on the
// vsftpd corpus, crossing a mix boundary and an aliasing edge). A final
// test pins that SARIF results carry exactly the locations the sorted
// --format=json document reports, in the same order.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "lang/Parser.h"
#include "mix/MixChecker.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "provenance/Provenance.h"
#include "provenance/Sarif.h"
#include "support/Diagnostics.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mix;

namespace {

//===----------------------------------------------------------------------===//
// renderExplain: byte-exact golden
//===----------------------------------------------------------------------===//

prov::DiagProvenance fullProvenance() {
  prov::DiagProvenance P;
  prov::WitnessPath W;
  W.Steps.push_back({SourceLoc(1, 7), "condition true"});
  W.Steps.push_back({SourceLoc(2, 3), "condition false"});
  W.PathCondition = "a0:bool";
  W.Model.push_back({"b", "true"});
  W.Model.push_back({"x", "-3"});
  W.ModelComplete = true;
  P.Witness = std::move(W);

  prov::FlowChain F;
  prov::FlowStep S1;
  S1.Desc = "NULL literal";
  S1.Loc = SourceLoc(3, 12);
  prov::FlowStep S2;
  S2.Desc = "g_addr";
  S2.Loc = SourceLoc(5, 3);
  S2.EdgeFromPrev = prov::FlowEdgeKind::MixBoundary;
  prov::FlowStep S3;
  S3.Desc = "param p_ptr of sysutil_free"; // no location: no "at" suffix
  S3.EdgeFromPrev = prov::FlowEdgeKind::Flow;
  F.Steps = {S1, S2, S3};
  P.Flow = std::move(F);

  P.Block.Stack = {"main [typed]", "sockaddr_clear [symbolic]"};
  P.Block.Disposition = prov::BlockDisposition::Fresh;
  return P;
}

TEST(ExplainRenderTest, GoldenFullPayload) {
  const std::string Expected =
      "  witness path:\n"
      "    1:7: condition true\n"
      "    2:3: condition false\n"
      "  path condition: a0:bool\n"
      "  for example, when b = true, x = -3\n"
      "  qualifier flow:\n"
      "    $null source: NULL literal at 3:12\n"
      "    -> (mix boundary) g_addr at 5:3\n"
      "    -> (flow) param p_ptr of sysutil_free  [$nonnull sink]\n"
      "  block context: main [typed] > sockaddr_clear [symbolic] (fresh)\n";
  EXPECT_EQ(renderExplain(fullProvenance(), "  "), Expected);
}

TEST(ExplainRenderTest, StraightLineWitnessAndPartialModel) {
  prov::DiagProvenance P;
  prov::WitnessPath W;
  W.PathCondition = "";
  W.Model.push_back({"p", "null"});
  W.ModelComplete = false;
  P.Witness = std::move(W);
  EXPECT_EQ(renderExplain(P, ""),
            "witness path:\n"
            "  (no branches: the error is on the straight-line path)\n"
            "for example, when p = null (model may be partial)\n");
}

TEST(ExplainRenderTest, ExplainTextFallsBackToPlainDiagnostics) {
  // Diagnostics without provenance render exactly as str() does, so
  // --explain on an unexplained engine is the historical text output.
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(1, 2), "boom", DiagID::TypeError);
  Diags.note(SourceLoc(1, 3), "context", DiagID::None);
  EXPECT_EQ(prov::renderExplainText(Diags), Diags.str());

  size_t Idx = Diags.report(DiagKind::Warning, SourceLoc(2, 1), "warn",
                            DiagID::NullWarning);
  auto P = std::make_shared<prov::DiagProvenance>();
  P->Block.Disposition = prov::BlockDisposition::WarmHit;
  Diags.attachProvenance(Idx, P);
  EXPECT_EQ(prov::renderExplainText(Diags),
            Diags.str() + "    block context: <top level> (warm hit)\n");
}

//===----------------------------------------------------------------------===//
// Persistence round-trip
//===----------------------------------------------------------------------===//

TEST(ProvenancePersistTest, EncodeDecodeRoundTrip) {
  prov::DiagProvenance P = fullProvenance();
  persist::ByteWriter W;
  prov::encodeProvenance(P, W);
  std::string Bytes = W.take();

  persist::ByteReader R(Bytes);
  std::shared_ptr<const prov::DiagProvenance> Q = prov::decodeProvenance(R);
  ASSERT_NE(Q, nullptr);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
  // The decoded payload explains identically — the property warm cache
  // replay relies on.
  EXPECT_EQ(renderExplain(*Q, "  "), renderExplain(P, "  "));
  EXPECT_EQ(Q->Block.Disposition, prov::BlockDisposition::Fresh);
  ASSERT_TRUE(Q->Witness.has_value());
  EXPECT_TRUE(Q->Witness->ModelComplete);
}

TEST(ProvenancePersistTest, TruncatedPayloadRejected) {
  persist::ByteWriter W;
  prov::encodeProvenance(fullProvenance(), W);
  std::string Bytes = W.take();
  for (size_t Cut : {Bytes.size() / 4, Bytes.size() / 2, Bytes.size() - 1}) {
    std::string Short = Bytes.substr(0, Cut);
    persist::ByteReader R(Short);
    EXPECT_EQ(prov::decodeProvenance(R), nullptr) << "cut at " << Cut;
  }
}

TEST(ProvenancePersistTest, BadEnumValuesRejected) {
  // A corrupted edge kind or disposition must not decode into a payload
  // the renderers would misprint.
  persist::ByteWriter W;
  W.boolean(false); // no witness
  W.boolean(true);  // flow with one step
  W.u32(1);
  W.str("node");
  W.u32(1).u32(1);
  W.u8(200); // bogus FlowEdgeKind
  persist::ByteReader R(W.bytes());
  EXPECT_EQ(prov::decodeProvenance(R), nullptr);

  persist::ByteWriter W2;
  W2.boolean(false);
  W2.boolean(false);
  W2.u8(200); // bogus BlockDisposition
  W2.u32(0);
  persist::ByteReader R2(W2.bytes());
  EXPECT_EQ(prov::decodeProvenance(R2), nullptr);
}

//===----------------------------------------------------------------------===//
// SARIF export: symbolic witness (MIX)
//===----------------------------------------------------------------------===//

/// Runs the mixed checker with a provenance sink over a program whose
/// ill-typed branch is feasible only under a symbolic condition, then
/// renders SARIF. The MIX301 result must carry the witness as a codeFlow
/// and the path condition + solver model in its property bag.
std::string mixWitnessSarif(DiagnosticEngine &Diags) {
  AstContext Ctx;
  const Expr *E = parseExpression(
      "{s if b then {t 1 + true t} else {t 0 t} s}", Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  TypeEnv Gamma;
  Gamma["b"] = Ctx.types().boolType();

  obs::MetricsRegistry Reg;
  prov::ProvenanceSink Sink;
  Sink.attachMetrics(Reg);
  MixOptions Opts;
  Opts.Prov = &Sink;
  MixChecker Mix(Ctx.types(), Diags, Opts);
  EXPECT_EQ(Mix.checkTyped(E, Gamma), nullptr); // the branch is feasible
  EXPECT_GT(Reg.counterValue("provenance.witnesses"), 0u);

  prov::SarifOptions SO;
  SO.ToolName = "mixcheck";
  SO.ArtifactUri = "witness.mix";
  return prov::renderSarif(Diags, SO);
}

const testjson::Value *findResult(const testjson::Value &Doc,
                                  const std::string &RuleId) {
  const testjson::Value &Results = Doc["runs"][0]["results"];
  for (size_t I = 0; I != Results.size(); ++I)
    if (Results[I]["ruleId"].Str == RuleId)
      return &Results[I];
  return nullptr;
}

TEST(SarifExportTest, SymbolicWitnessBecomesCodeFlow) {
  DiagnosticEngine Diags;
  std::string Sarif = mixWitnessSarif(Diags);

  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sarif, Doc, &Error)) << Error << "\n"
                                                           << Sarif;
  std::string Why;
  ASSERT_TRUE(testjson::checkSarifShape(Doc, &Why)) << Why << "\n" << Sarif;

  const testjson::Value &Driver = Doc["runs"][0]["tool"]["driver"];
  EXPECT_EQ(Driver["name"].Str, "mixcheck");
  EXPECT_EQ(Driver["informationUri"].Str,
            "https://doi.org/10.1145/1706299.1706325");
  EXPECT_EQ(Doc["runs"][0]["artifacts"][0]["location"]["uri"].Str,
            "witness.mix");

  const testjson::Value *R = findResult(Doc, "MIX301");
  ASSERT_NE(R, nullptr) << Sarif;
  EXPECT_EQ((*R)["level"].Str, "error");

  // The witness path: branch decisions first, the report site last.
  ASSERT_TRUE((*R)["codeFlows"].isArray());
  ASSERT_EQ((*R)["codeFlows"].size(), 1u);
  const testjson::Value &Locs =
      (*R)["codeFlows"][0]["threadFlows"][0]["locations"];
  ASSERT_TRUE(Locs.isArray());
  ASSERT_GE(Locs.size(), 2u);
  EXPECT_NE(Locs[0]["location"]["message"]["text"].Str.find("condition"),
            std::string::npos);
  EXPECT_EQ(Locs[Locs.size() - 1]["location"]["message"]["text"].Str,
            "reported here");
  // Every flow step cites the shared artifact.
  for (size_t I = 0; I != Locs.size(); ++I)
    EXPECT_EQ(Locs[I]["location"]["physicalLocation"]["artifactLocation"]
                  ["uri"].Str,
              "witness.mix");

  // Path condition and satisfying model ride in the property bag; the
  // model names the source-level variable with the value that reaches
  // the ill-typed branch.
  ASSERT_TRUE((*R)["properties"].isObject()) << Sarif;
  EXPECT_FALSE((*R)["properties"]["pathCondition"].Str.empty());
  EXPECT_EQ((*R)["properties"]["model"].Str, "b = true");
}

//===----------------------------------------------------------------------===//
// SARIF export: qualifier flow chain (MIXY, vsftpd corpus)
//===----------------------------------------------------------------------===//

std::string mixyFlowSarif(DiagnosticEngine &Diags) {
  c::CAstContext Ctx;
  const std::string Source = c::corpus::vsftpdFull(/*Annotated=*/true);
  const c::CProgram *P = c::parseC(Source, Ctx, Diags);
  EXPECT_NE(P, nullptr);

  obs::MetricsRegistry Reg;
  prov::ProvenanceSink Sink;
  Sink.attachMetrics(Reg);
  c::MixyOptions Opts;
  Opts.Prov = &Sink;
  c::MixyAnalysis Analysis(*P, Ctx, Diags, Opts);
  EXPECT_GT(Analysis.run(c::MixyAnalysis::StartMode::Typed), 0u);
  EXPECT_GT(Reg.counterValue("provenance.flows"), 0u);

  prov::SarifOptions SO;
  SO.ToolName = "mixyc";
  SO.ArtifactUri = "@vsftpd";
  return prov::renderSarif(Diags, SO);
}

TEST(SarifExportTest, QualifierFlowChainBecomesCodeFlow) {
  DiagnosticEngine Diags;
  std::string Sarif = mixyFlowSarif(Diags);

  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sarif, Doc, &Error)) << Error;
  std::string Why;
  ASSERT_TRUE(testjson::checkSarifShape(Doc, &Why)) << Why << "\n" << Sarif;

  const testjson::Value *R = findResult(Doc, "MIX401");
  ASSERT_NE(R, nullptr) << Sarif;
  EXPECT_EQ((*R)["level"].Str, "warning");

  // The warning's explanatory note becomes a relatedLocation.
  ASSERT_TRUE((*R)["relatedLocations"].isArray()) << Sarif;
  ASSERT_GE((*R)["relatedLocations"].size(), 1u);
  EXPECT_FALSE((*R)["relatedLocations"][0]["message"]["text"].Str.empty());

  // The flow chain: $null source first, $nonnull sink last, and on this
  // corpus the chain crosses both a mix-rule boundary and an aliasing
  // edge — the two edge kinds the paper's Section 4 machinery induces.
  ASSERT_TRUE((*R)["codeFlows"].isArray()) << Sarif;
  const testjson::Value &Locs =
      (*R)["codeFlows"][0]["threadFlows"][0]["locations"];
  ASSERT_GE(Locs.size(), 3u);
  std::string First = Locs[0]["location"]["message"]["text"].Str;
  std::string Last = Locs[Locs.size() - 1]["location"]["message"]["text"].Str;
  EXPECT_EQ(First.rfind("$null source: ", 0), 0u) << First;
  EXPECT_NE(Last.find(" [$nonnull sink]"), std::string::npos) << Last;
  bool SawBoundary = false, SawAlias = false;
  for (size_t I = 1; I != Locs.size(); ++I) {
    const std::string &Text = Locs[I]["location"]["message"]["text"].Str;
    SawBoundary |= Text.rfind("(mix boundary) ", 0) == 0;
    SawAlias |= Text.rfind("(alias) ", 0) == 0;
  }
  EXPECT_TRUE(SawBoundary) << Sarif;
  EXPECT_TRUE(SawAlias) << Sarif;
}

//===----------------------------------------------------------------------===//
// SARIF <-> sorted JSON agreement, and the empty document
//===----------------------------------------------------------------------===//

TEST(SarifExportTest, SarifResultsMatchSortedJsonLocations) {
  // The two machine formats share sortedTopLevelIndices(), so result K of
  // the SARIF log and entry K of the sorted JSON array must describe the
  // same diagnostic: same rule id, same line, same column.
  DiagnosticEngine Diags;
  std::string Sarif = mixyFlowSarif(Diags);

  testjson::Value SarifDoc, JsonDoc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sarif, SarifDoc, &Error)) << Error;
  ASSERT_TRUE(
      testjson::parseDocument(Diags.renderJSON(/*Sorted=*/true), JsonDoc,
                              &Error))
      << Error;

  const testjson::Value &Results = SarifDoc["runs"][0]["results"];
  ASSERT_TRUE(JsonDoc.isArray());
  ASSERT_EQ(Results.size(), JsonDoc.size());
  ASSERT_GT(Results.size(), 0u);
  for (size_t I = 0; I != Results.size(); ++I) {
    const testjson::Value &Region =
        Results[I]["locations"][0]["physicalLocation"]["region"];
    EXPECT_EQ(Results[I]["ruleId"].Str, JsonDoc[I]["id"].Str);
    EXPECT_EQ(Region["startLine"].Num, JsonDoc[I]["line"].Num);
    EXPECT_EQ(Region["startColumn"].Num, JsonDoc[I]["column"].Num);
  }
}

TEST(SarifExportTest, EmptyEngineRendersValidEmptyLog) {
  DiagnosticEngine Diags;
  prov::SarifOptions SO;
  std::string Sarif = prov::renderSarif(Diags, SO);
  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sarif, Doc, &Error)) << Error;
  std::string Why;
  EXPECT_TRUE(testjson::checkSarifShape(Doc, &Why)) << Why;
  EXPECT_EQ(Doc["runs"][0]["results"].size(), 0u);
  // No diagnostics, no rules — but the artifact and driver still render.
  EXPECT_EQ(Doc["runs"][0]["tool"]["driver"]["rules"].size(), 0u);
  EXPECT_EQ(Doc["runs"][0]["artifacts"][0]["location"]["uri"].Str, "input");
}

} // namespace
