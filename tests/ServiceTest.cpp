//===--- ServiceTest.cpp - Tests for the AnalysisService layer ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers src/service/: the protocol v1 wire codec (golden strings, strict
// decoding, the JSON-RPC error/timeout envelopes), the CLI-vs-service
// byte-identity contract (service payloads against a DiagnosticEngine run
// through the engines directly), the daemon-side serve() machinery
// (response cache, in-flight dedup, fileChanged, warm in-memory
// sessions), plus the satellite pieces: MetricsRegistry snapshot deltas
// and OptionParser option groups.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"
#include "service/Protocol.h"

#include "cfront/CParser.h"
#include "driver/OptionParser.h"
#include "lang/Parser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "provenance/Sarif.h"
#include "qual/QualInference.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace mix;
namespace service = mix::service;

namespace {

//===----------------------------------------------------------------------===//
// Protocol v1: golden encodings and strict decoding
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, MinimalRequestGolden) {
  service::AnalysisRequest Req;
  // Every field at its default: only the two mandatory members appear.
  EXPECT_EQ(service::encodeRequest(Req), "{\"version\": 1, \"tool\": \"mixy\"}");

  service::AnalysisRequest Out;
  std::string Error;
  ASSERT_TRUE(service::decodeRequest(service::encodeRequest(Req), Out, Error))
      << Error;
  EXPECT_EQ(service::encodeRequest(Out), service::encodeRequest(Req));
}

TEST(ProtocolTest, FullMixCheckRequestGoldenRoundTrip) {
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::MixCheck;
  Req.Source = "1 + x";
  Req.HasSource = true;
  Req.InputName = "demo.mix";
  Req.OutputFormat = service::Format::Sarif;
  Req.Explain = true;
  Req.Solver.Backend = "dnf";
  Req.Trace = true;
  Req.CacheDir = "/tmp/mixcache";
  Req.Incremental = true;
  Req.Symbolic = true;
  Req.AutoPlace = true;
  Req.PrintProgram = true;
  Req.Strategy = SymExecOptions::Strategy::Defer;
  Req.Havoc = SymExecOptions::HavocPolicy::WriteEffects;
  Req.PreciseDeref = true;
  Req.AssumeComplete = true;
  Req.Explore = MixOptions::Exploration::Concolic;
  Req.Vars.emplace_back("x", "int ref");

  const std::string Golden =
      "{\"version\": 1, \"tool\": \"mixcheck\", \"source\": \"1 + x\", "
      "\"input_name\": \"demo.mix\", \"format\": \"sarif\", "
      "\"explain\": true, \"solver\": \"dnf\", "
      "\"trace\": true, \"cache_dir\": \"/tmp/mixcache\", "
      "\"incremental\": true, "
      "\"mode\": \"symbolic\", \"auto_place\": true, "
      "\"print_program\": true, \"strategy\": \"defer\", "
      "\"havoc\": \"effects\", \"precise_deref\": true, "
      "\"assume_complete\": true, \"explore\": \"concolic\", "
      "\"vars\": [{\"name\": \"x\", \"type\": \"int ref\"}]}";
  EXPECT_EQ(service::encodeRequest(Req), Golden);

  service::AnalysisRequest Out;
  std::string Error;
  ASSERT_TRUE(service::decodeRequest(Golden, Out, Error)) << Error;
  EXPECT_EQ(Out.ToolKind, service::Tool::MixCheck);
  EXPECT_TRUE(Out.HasSource);
  EXPECT_EQ(Out.Source, "1 + x");
  EXPECT_EQ(Out.OutputFormat, service::Format::Sarif);
  EXPECT_EQ(Out.Solver.Backend, "dnf");
  EXPECT_EQ(Out.Strategy, SymExecOptions::Strategy::Defer);
  EXPECT_EQ(Out.Havoc, SymExecOptions::HavocPolicy::WriteEffects);
  EXPECT_EQ(Out.Explore, MixOptions::Exploration::Concolic);
  ASSERT_EQ(Out.Vars.size(), 1u);
  EXPECT_EQ(Out.Vars[0].first, "x");
  EXPECT_EQ(Out.Vars[0].second, "int ref");
  // Canonical: decode then re-encode reproduces the wire bytes.
  EXPECT_EQ(service::encodeRequest(Out), Golden);
}

TEST(ProtocolTest, MixyKnobsGoldenRoundTrip) {
  service::AnalysisRequest Req;
  Req.Corpus = "case1";
  Req.Baseline = true;
  Req.Entry = "loop";
  Req.StartSymbolic = true;
  Req.NoCache = true;
  Req.NoAliasRestore = true;
  Req.WarnDerefs = true;

  const std::string Golden =
      "{\"version\": 1, \"tool\": \"mixy\", \"corpus\": \"case1\", "
      "\"baseline\": true, \"entry\": \"loop\", \"start\": \"symbolic\", "
      "\"no_cache\": true, \"no_alias_restore\": true, "
      "\"warn_derefs\": true}";
  EXPECT_EQ(service::encodeRequest(Req), Golden);

  service::AnalysisRequest Out;
  std::string Error;
  ASSERT_TRUE(service::decodeRequest(Golden, Out, Error)) << Error;
  EXPECT_EQ(Out.Entry, "loop");
  EXPECT_TRUE(Out.StartSymbolic);
  EXPECT_EQ(service::encodeRequest(Out), Golden);
}

TEST(ProtocolTest, RequestDecodeIsStrict) {
  service::AnalysisRequest Out;
  std::string Error;

  // A typo'd field is an error, not a silently ignored default.
  EXPECT_FALSE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixy\", \"formt\": \"json\"}", Out, Error));
  EXPECT_EQ(Error, "unknown request field 'formt'");

  EXPECT_FALSE(
      service::decodeRequest("{\"version\": 2, \"tool\": \"mixy\"}", Out, Error));
  EXPECT_EQ(Error, "unsupported protocol version (this build speaks version 1)");

  EXPECT_FALSE(service::decodeRequest("{\"tool\": \"mixy\"}", Out, Error));
  EXPECT_EQ(Error, "missing 'version'");

  EXPECT_FALSE(service::decodeRequest("{\"version\": 1}", Out, Error));
  EXPECT_EQ(Error, "missing 'tool'");

  EXPECT_FALSE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixy\", \"format\": \"yaml\"}", Out, Error));
  EXPECT_EQ(Error, "field 'format' must be one of text|json|sarif");

  // A version beyond int's range is compared as a double, not cast (the
  // out-of-range conversion is undefined behavior).
  for (const char *Ver : {"1e30", "-1e30"}) {
    EXPECT_FALSE(service::decodeRequest(
        std::string("{\"version\": ") + Ver + ", \"tool\": \"mixy\"}", Out,
        Error))
        << Ver;
    EXPECT_EQ(Error,
              "unsupported protocol version (this build speaks version 1)");
  }

  EXPECT_FALSE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixy\", \"entry\": \"\"}", Out, Error));
  EXPECT_EQ(Error, "field 'entry' must be a non-empty string");

  // Not JSON at all: the parse error surfaces.
  EXPECT_FALSE(service::decodeRequest("{not json", Out, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ProtocolTest, RequestWithRetiredKeysIsRejected) {
  // There is no engine selector, no solver racing and no per-request
  // worker count on the wire: a request carrying "exec",
  // "solver_portfolio" or "jobs" fails strict decoding like any other
  // unknown field, while the protocol version stays 1 for every client
  // that never sent them.
  service::AnalysisRequest Out;
  std::string Error;
  EXPECT_FALSE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixcheck\", \"exec\": \"ir\"}", Out,
      Error));
  EXPECT_EQ(Error, "unknown request field 'exec'");
  EXPECT_FALSE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixcheck\", "
      "\"solver_portfolio\": true}",
      Out, Error));
  EXPECT_EQ(Error, "unknown request field 'solver_portfolio'");
  EXPECT_FALSE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixcheck\", \"jobs\": 4}", Out, Error));
  EXPECT_EQ(Error, "unknown request field 'jobs'");
  EXPECT_TRUE(service::decodeRequest(
      "{\"version\": 1, \"tool\": \"mixcheck\"}", Out, Error))
      << Error;
}

TEST(ProtocolTest, UnicodeEscapesDecodeToUtf8) {
  json::Value V;
  std::string Error;
  // ensure_ascii clients (Python json.dumps and friends) escape every
  // non-ASCII character; the decoded bytes must be the UTF-8 the client
  // meant, not a one-byte truncation of the code point.
  ASSERT_TRUE(json::parseDocument(
      "{\"path\": \"caf\\u00e9\", \"text\": \"\\u0041\\u20ac\\ud83d\\ude00\"}",
      V, &Error))
      << Error;
  EXPECT_EQ(V["path"].str(), "caf\xc3\xa9");
  EXPECT_EQ(V["text"].str(), "A\xe2\x82\xac\xf0\x9f\x98\x80");

  // Lone or out-of-order surrogates are malformed input, not data.
  EXPECT_FALSE(json::parseDocument("\"\\ud83d\"", V, &Error));
  EXPECT_FALSE(json::parseDocument("\"\\ude00\\ud83d\"", V, &Error));
  EXPECT_FALSE(json::parseDocument("\"\\ud83dxx\"", V, &Error));
}

TEST(ProtocolTest, ResponseGoldenRoundTrip) {
  service::AnalysisResponse Resp;
  Resp.Exit = 1;
  Resp.Payload = "w1\nw2\n"; // newlines must escape: one line per message
  Resp.Warnings = 2;
  service::DiagnosticSummary D;
  D.Id = "MIX401";
  D.Severity = "warning";
  D.Line = 3;
  D.Column = 7;
  D.Message = "possible null deref";
  Resp.Diagnostics.push_back(D);
  Resp.Metrics.emplace_back("engine.mixy.blocks", 4);
  Resp.FromCache = true;

  const std::string Golden =
      "{\"version\": 1, \"exit\": 1, \"payload\": \"w1\\nw2\\n\", "
      "\"warnings\": 2, \"diagnostics\": [{\"id\": \"MIX401\", "
      "\"severity\": \"warning\", \"line\": 3, \"column\": 7, "
      "\"message\": \"possible null deref\"}], "
      "\"metrics\": {\"engine.mixy.blocks\": 4}, \"from_cache\": true}";
  EXPECT_EQ(service::encodeResponse(Resp), Golden);
  EXPECT_EQ(Golden.find('\n'), std::string::npos);

  service::AnalysisResponse Out;
  std::string Error;
  ASSERT_TRUE(service::decodeResponse(Golden, Out, Error)) << Error;
  EXPECT_EQ(Out.Exit, 1);
  EXPECT_EQ(Out.Payload, "w1\nw2\n");
  EXPECT_EQ(Out.Warnings, 2u);
  ASSERT_EQ(Out.Diagnostics.size(), 1u);
  EXPECT_EQ(Out.Diagnostics[0].Id, "MIX401");
  EXPECT_EQ(Out.Diagnostics[0].Line, 3u);
  ASSERT_EQ(Out.Metrics.size(), 1u);
  EXPECT_EQ(Out.Metrics[0].first, "engine.mixy.blocks");
  EXPECT_EQ(Out.Metrics[0].second, 4u);
  EXPECT_TRUE(Out.FromCache);
  EXPECT_EQ(service::encodeResponse(Out), Golden);

  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 0, \"bogus\": 1}", Out, Error));
  EXPECT_EQ(Error, "unknown response field 'bogus'");

  // A line number past unsigned's range is malformed, not cast.
  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 1, \"diagnostics\": [{\"id\": \"MIX401\", "
      "\"severity\": \"warning\", \"line\": 1e30, \"column\": 7, "
      "\"message\": \"m\"}]}",
      Out, Error));
  EXPECT_EQ(Error, "field 'diagnostics' entries are malformed");
}

TEST(ProtocolTest, ResponseTelemetryFieldsGoldenRoundTrip) {
  service::AnalysisResponse Resp;
  Resp.Exit = 0;
  Resp.RequestId = "r-42";
  Resp.TotalUs = 1234;
  Resp.PhaseUs[(unsigned)obs::Phase::Parse] = 10;
  Resp.PhaseUs[(unsigned)obs::Phase::Typecheck] = 1200;
  obs::TraceEvent Span;
  Span.Name = "phase.parse";
  Span.Cat = "phase";
  Span.Ts = 5;
  Span.Dur = 10;
  Span.Tid = 1;
  Resp.Spans.push_back(Span);

  const std::string Golden =
      "{\"version\": 1, \"exit\": 0, \"request_id\": \"r-42\", "
      "\"total_us\": 1234, \"phases\": {\"parse\": 10, \"typecheck\": 1200}, "
      "\"spans\": [{\"name\": \"phase.parse\", \"cat\": \"phase\", "
      "\"ts\": 5, \"dur\": 10, \"tid\": 1}]}";
  EXPECT_EQ(service::encodeResponse(Resp), Golden);

  service::AnalysisResponse Out;
  std::string Error;
  ASSERT_TRUE(service::decodeResponse(Golden, Out, Error)) << Error;
  EXPECT_EQ(Out.RequestId, "r-42");
  EXPECT_EQ(Out.TotalUs, 1234u);
  EXPECT_EQ(Out.PhaseUs[(unsigned)obs::Phase::Parse], 10u);
  EXPECT_EQ(Out.PhaseUs[(unsigned)obs::Phase::Typecheck], 1200u);
  EXPECT_EQ(Out.PhaseUs[(unsigned)obs::Phase::Solver], 0u);
  ASSERT_EQ(Out.Spans.size(), 1u);
  EXPECT_EQ(Out.Spans[0].Name, "phase.parse");
  EXPECT_EQ(Out.Spans[0].Cat, "phase");
  EXPECT_EQ(Out.Spans[0].Ts, 5u);
  EXPECT_EQ(Out.Spans[0].Dur, 10u);
  EXPECT_EQ(Out.Spans[0].Tid, 1u);
  EXPECT_EQ(Out.Spans[0].Ph, obs::TracePhase::Complete);
  EXPECT_EQ(service::encodeResponse(Out), Golden);

  // A response with no telemetry encodes none of the new fields.
  service::AnalysisResponse Plain;
  EXPECT_EQ(service::encodeResponse(Plain), "{\"version\": 1, \"exit\": 0}");

  // Strictness: unknown phase names and malformed spans are rejected.
  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 0, \"phases\": {\"warp\": 3}}", Out, Error));
  EXPECT_EQ(Error, "field 'phases' has unknown phase 'warp'");
  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 0, \"spans\": [{\"name\": \"x\"}]}", Out,
      Error));
  EXPECT_EQ(Error, "field 'spans' entries are malformed");

  // Integral doubles beyond uint64_t's range are rejected, not cast (the
  // out-of-range conversion is undefined behavior).
  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 0, \"total_us\": 1e30}", Out, Error));
  EXPECT_EQ(Error, "field 'total_us' must be a non-negative integer");
  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 0, \"phases\": {\"parse\": 1e30}}", Out,
      Error));
  EXPECT_EQ(Error, "field 'phases' values must be non-negative integers");
}

TEST(ProtocolTest, ResponseWithLoweringPhaseIsRejected) {
  // "ir-lower" is not one of the phases, so a response naming it is
  // rejected like any other unknown phase.
  service::AnalysisResponse Out;
  std::string Error;
  EXPECT_FALSE(service::decodeResponse(
      "{\"version\": 1, \"exit\": 0, \"phases\": {\"ir-lower\": 1}}", Out,
      Error));
  EXPECT_EQ(Error, "field 'phases' has unknown phase 'ir-lower'");
}

TEST(ProtocolTest, RpcIdEncoding) {
  json::Value Id;
  Id.K = json::Value::Kind::Number;
  Id.Num = 7;
  EXPECT_EQ(service::encodeRpcId(Id), "7");

  // An id a long long cannot hold echoes as the same number, not as a
  // wrapped-around integer the client could not match.
  Id.Num = 1e30;
  std::string Echoed = service::encodeRpcId(Id);
  json::Value Parsed;
  ASSERT_TRUE(json::parseDocument(Echoed, Parsed)) << Echoed;
  EXPECT_TRUE(Parsed.isNumber()) << Echoed;
  EXPECT_EQ(Parsed.Num, 1e30) << Echoed;

  Id.K = json::Value::Kind::String;
  Id.Str = "req-\"1\"";
  EXPECT_EQ(service::encodeRpcId(Id), "\"req-\\\"1\\\"\"");

  Id.K = json::Value::Kind::Null;
  EXPECT_EQ(service::encodeRpcId(Id), "null");

  // Anything else (a boolean id is not legal JSON-RPC) encodes as null.
  Id.K = json::Value::Kind::Bool;
  Id.B = true;
  EXPECT_EQ(service::encodeRpcId(Id), "null");
}

TEST(ProtocolTest, ErrorAndTimeoutEnvelopeGoldens) {
  // The timeout envelope a client sees when --deadline-ms expires.
  EXPECT_EQ(service::rpcError("7", service::RpcDeadlineExceeded,
                              "request exceeded deadline (150 ms)"),
            "{\"jsonrpc\": \"2.0\", \"id\": 7, \"error\": "
            "{\"code\": -32000, \"message\": "
            "\"request exceeded deadline (150 ms)\"}}");

  // Admission control: max in-flight reached.
  EXPECT_EQ(service::rpcError("\"c1\"", service::RpcServerBusy,
                              "server busy: 8 requests in flight"),
            "{\"jsonrpc\": \"2.0\", \"id\": \"c1\", \"error\": "
            "{\"code\": -32001, \"message\": "
            "\"server busy: 8 requests in flight\"}}");

  EXPECT_EQ(service::rpcResult("1", "{\"version\": 1, \"exit\": 0}"),
            "{\"jsonrpc\": \"2.0\", \"id\": 1, \"result\": "
            "{\"version\": 1, \"exit\": 0}}");

  EXPECT_EQ(service::rpcNotification("diagnostic", "{\"request\": 3}"),
            "{\"jsonrpc\": \"2.0\", \"method\": \"diagnostic\", "
            "\"params\": {\"request\": 3}}");

  // Every envelope must itself parse as one JSON document.
  for (const std::string &Line :
       {service::rpcError("null", service::RpcParseError, "line is not JSON"),
        service::rpcResult("42", "{\"version\": 1, \"exit\": 2}"),
        service::rpcNotification("diagnostic", "{}")}) {
    json::Value V;
    std::string Error;
    EXPECT_TRUE(json::parseDocument(Line, V, &Error)) << Line << ": " << Error;
    EXPECT_EQ(V["jsonrpc"].str(), "2.0");
  }
}

//===----------------------------------------------------------------------===//
// Byte identity: service payloads vs a direct engine run
//===----------------------------------------------------------------------===//

/// Runs mixy exactly as the pre-service CLI did — parse, analyze, render
/// straight off the DiagnosticEngine — so the comparison against
/// AnalysisService is not circular through renderPayload's switch.
struct MixyReference {
  std::string Payload;
  unsigned Warnings = 0;
};

MixyReference referenceMixy(const std::string &Spec, bool Baseline,
                            service::Format F, bool Explain,
                            const std::string &InputName) {
  std::string Source, Error;
  service::AnalysisRequest Probe;
  Probe.Corpus = Spec;
  EXPECT_TRUE(service::AnalysisService::resolveInput(Probe, Source, Error))
      << Error;

  c::CAstContext Ctx;
  DiagnosticEngine Diags;
  obs::MetricsRegistry Reg;
  prov::ProvenanceSink Prov;
  c::MixyOptions Opts;
  Opts.Metrics = &Reg;
  Opts.Prov = (Explain || F == service::Format::Sarif) ? &Prov : nullptr;

  MixyReference Ref;
  const c::CProgram *Program = c::parseC(Source, Ctx, Diags);
  if (Program) {
    if (Baseline) {
      Opts.Qual.Prov = Opts.Prov;
      c::QualInference Inference(*Program, Ctx, Diags, Opts.Qual);
      Inference.analyzeAll();
      Inference.solve();
      Ref.Warnings = Inference.reportWarnings();
    } else {
      c::MixyAnalysis Analysis(*Program, Ctx, Diags, Opts);
      Ref.Warnings = Analysis.run(c::MixyAnalysis::StartMode::Typed, "main");
    }
  }

  switch (F) {
  case service::Format::Sarif: {
    prov::SarifOptions SO;
    SO.ToolName = "mixyc";
    SO.ArtifactUri = InputName;
    Ref.Payload = prov::renderSarif(Diags, SO) + "\n";
    break;
  }
  case service::Format::Json:
    Ref.Payload = Diags.renderJSON(/*Sorted=*/true) + "\n";
    break;
  case service::Format::Text:
    Ref.Payload = Explain ? prov::renderExplainText(Diags) : Diags.str();
    break;
  }
  return Ref;
}

TEST(ServiceByteIdentityTest, MixyMatchesDirectEngineRun) {
  for (service::Format F : {service::Format::Text, service::Format::Json,
                            service::Format::Sarif}) {
    service::AnalysisService Svc; // CLI configuration
    service::AnalysisRequest Req;
    Req.ToolKind = service::Tool::Mixy;
    Req.Corpus = "vsftpd";
    Req.InputName = "@vsftpd";
    Req.OutputFormat = F;
    service::AnalysisResponse Resp = Svc.run(Req);

    MixyReference Ref =
        referenceMixy("vsftpd", /*Baseline=*/false, F, /*Explain=*/false,
                      "@vsftpd");
    EXPECT_EQ(Resp.Payload, Ref.Payload) << "format " << (int)F;
    EXPECT_EQ(Resp.Warnings, Ref.Warnings);
    EXPECT_EQ(Resp.Exit, Ref.Warnings == 0 ? 0 : 1);
  }
}

TEST(ServiceByteIdentityTest, MixyExplainMatchesDirectEngineRun) {
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Corpus = "vsftpd";
  Req.InputName = "@vsftpd";
  Req.Explain = true;
  service::AnalysisResponse Resp = Svc.run(Req);

  MixyReference Ref = referenceMixy("vsftpd", /*Baseline=*/false,
                                    service::Format::Text, /*Explain=*/true,
                                    "@vsftpd");
  EXPECT_EQ(Resp.Payload, Ref.Payload);
  EXPECT_NE(Resp.Payload.find("qualifier flow:"), std::string::npos);
}

TEST(ServiceByteIdentityTest, BaselineMatchesDirectEngineRun) {
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Corpus = "case1:baseline";
  Req.InputName = "@case1:baseline";
  Req.Baseline = true;
  service::AnalysisResponse Resp = Svc.run(Req);

  MixyReference Ref = referenceMixy("case1:baseline", /*Baseline=*/true,
                                    service::Format::Text, /*Explain=*/false,
                                    "@case1:baseline");
  EXPECT_EQ(Resp.Payload, Ref.Payload);
  EXPECT_EQ(Resp.Warnings, Ref.Warnings);
  EXPECT_GT(Resp.Warnings, 0u) << "baseline case1 should warn";
}

TEST(ServiceByteIdentityTest, MixCheckMatchesDirectEngineRun) {
  const std::string Source = "{s if b then {t 1 + true t} else {t 0 t} s}";
  for (service::Format F : {service::Format::Text, service::Format::Json,
                            service::Format::Sarif}) {
    service::AnalysisService Svc;
    service::AnalysisRequest Req;
    Req.ToolKind = service::Tool::MixCheck;
    Req.Source = Source;
    Req.HasSource = true;
    Req.OutputFormat = F;
    Req.Vars.emplace_back("b", "bool");
    service::AnalysisResponse Resp = Svc.run(Req);

    // The reference run, straight through the engines.
    AstContext Ctx;
    DiagnosticEngine Diags;
    obs::MetricsRegistry Reg;
    prov::ProvenanceSink Prov;
    MixOptions Opts;
    Opts.Metrics = &Reg;
    Opts.Prov = F == service::Format::Sarif ? &Prov : nullptr;
    const Expr *Program = parseExpression(Source, Ctx, Diags);
    ASSERT_NE(Program, nullptr);
    TypeEnv Gamma;
    Gamma["b"] = Ctx.types().boolType();
    MixChecker Mix(Ctx.types(), Diags, Opts);
    const Type *Result = Mix.checkTyped(Program, Gamma);

    EXPECT_EQ(Resp.Payload,
              service::AnalysisService::renderPayload(
                  Diags, F, /*Explain=*/false, "mixcheck", ""));
    EXPECT_EQ(Result == nullptr, !Resp.Accepted);
    EXPECT_FALSE(Resp.Accepted);
    EXPECT_EQ(Resp.Exit, 1);
  }
}

TEST(ServiceByteIdentityTest, MixCheckAcceptance) {
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::MixCheck;
  Req.Source = "{s if true then {t 5 t} else {t 1 + true t} s}";
  Req.HasSource = true;
  service::AnalysisResponse Resp = Svc.run(Req);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_TRUE(Resp.Accepted);
  EXPECT_EQ(Resp.ResultType, "int");
  EXPECT_TRUE(Resp.Payload.empty()); // no diagnostics in text mode
}

TEST(ServiceByteIdentityTest, MixCheckBadVarType) {
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::MixCheck;
  Req.Source = "1 + 2";
  Req.HasSource = true;
  Req.Vars.emplace_back("x", "bogus");
  service::AnalysisResponse Resp = Svc.run(Req);
  EXPECT_EQ(Resp.Exit, 2);
  EXPECT_EQ(Resp.ErrorText, "bad type 'bogus' for variable x");
}

//===----------------------------------------------------------------------===//
// Input resolution and request identity
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ResolveInputShapes) {
  std::string Source, Error;

  service::AnalysisRequest Inline;
  Inline.Source = "int main(void) { return 0; }";
  Inline.HasSource = true;
  Inline.Corpus = "case1"; // inline wins over corpus
  EXPECT_TRUE(service::AnalysisService::resolveInput(Inline, Source, Error));
  EXPECT_EQ(Source, Inline.Source);

  service::AnalysisRequest Corpus;
  Corpus.Corpus = "case1";
  EXPECT_TRUE(service::AnalysisService::resolveInput(Corpus, Source, Error));
  EXPECT_FALSE(Source.empty());

  service::AnalysisRequest Unknown;
  Unknown.Corpus = "case9";
  EXPECT_FALSE(service::AnalysisService::resolveInput(Unknown, Source, Error));
  EXPECT_EQ(Error, "unknown corpus 'case9'");

  service::AnalysisRequest Missing;
  Missing.Path = "/nonexistent/mix-service-test.c";
  EXPECT_FALSE(service::AnalysisService::resolveInput(Missing, Source, Error));
  EXPECT_EQ(Error, "cannot read '/nonexistent/mix-service-test.c'");

  service::AnalysisRequest Empty;
  EXPECT_FALSE(service::AnalysisService::resolveInput(Empty, Source, Error));
  EXPECT_EQ(Error, "no input");

  // The analyses build the solver unchecked, so an unknown backend is
  // caught here, before any input is read.
  service::AnalysisRequest BadSolver;
  BadSolver.Corpus = "case1";
  BadSolver.Solver.Backend = "bogus";
  EXPECT_FALSE(
      service::AnalysisService::resolveInput(BadSolver, Source, Error));
  EXPECT_EQ(Error, "unknown solver backend 'bogus' (available: dnf smtlite)");

  // Through run(): a resolution failure is the usage-error response shape.
  service::AnalysisService Svc;
  service::AnalysisResponse Resp = Svc.run(Unknown);
  EXPECT_EQ(Resp.Exit, 2);
  EXPECT_EQ(Resp.ErrorText, "unknown corpus 'case9'");
  EXPECT_TRUE(Resp.Payload.empty());
  Resp = Svc.run(BadSolver);
  EXPECT_EQ(Resp.Exit, 2);
  EXPECT_EQ(Resp.ErrorText,
            "unknown solver backend 'bogus' (available: dnf smtlite)");
  EXPECT_TRUE(Resp.Payload.empty());
}

TEST(ServiceTest, RequestKeySeparatesOutputAffectingKnobs) {
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.Corpus = "case1";

  service::AnalysisRequest Json = Req;
  Json.OutputFormat = service::Format::Json;
  EXPECT_NE(Svc.requestKey(Req, "src"), Svc.requestKey(Json, "src"));
  EXPECT_NE(Svc.requestKey(Req, "src"), Svc.requestKey(Req, "other src"));
}

//===----------------------------------------------------------------------===//
// serve(): response cache, dedup, invalidation, warm sessions
//===----------------------------------------------------------------------===//

service::ServiceConfig daemonConfig() {
  service::ServiceConfig SC;
  SC.KeepWarm = true;
  SC.PerRequestMetrics = true;
  return SC;
}

uint64_t metricValue(const service::AnalysisResponse &Resp,
                     const std::string &Name) {
  for (const auto &[N, V] : Resp.Metrics)
    if (N == Name)
      return V;
  return 0;
}

TEST(ServiceTest, RepeatedRunsAddTheirEngineCounters) {
  // The CLI configuration: every run() records into the one service
  // registry. Each analysis adds its counters there, so an identical
  // second run reports the same deltas as the first, and the registry
  // holds both runs' work.
  service::AnalysisService Svc;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Corpus = "vsftpd";
  service::AnalysisResponse First = Svc.run(Req);
  service::AnalysisResponse Second = Svc.run(Req);
  EXPECT_EQ(metricValue(First, "mixy.sym_block_runs"), 5u);
  EXPECT_EQ(metricValue(First, "csym.paths"), 13u);
  EXPECT_EQ(Second.Metrics, First.Metrics);
  EXPECT_EQ(Svc.metrics().counterValue("mixy.sym_block_runs"),
            2 * metricValue(First, "mixy.sym_block_runs"));
}

TEST(ServiceServeTest, SecondIdenticalRequestAnswersFromCache) {
  service::AnalysisService Svc(daemonConfig());
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Corpus = "case1";

  service::AnalysisResponse Cold = Svc.serve(Req);
  EXPECT_FALSE(Cold.FromCache);
  // A cold request carries its engine deltas — proof the fixpoint ran.
  EXPECT_FALSE(Cold.Metrics.empty());

  service::AnalysisResponse Warm = Svc.serve(Req);
  EXPECT_TRUE(Warm.FromCache);
  // ...and a warm one carries none — proof it did not run again.
  EXPECT_TRUE(Warm.Metrics.empty());
  EXPECT_EQ(Warm.Payload, Cold.Payload);
  EXPECT_EQ(Warm.Exit, Cold.Exit);
  EXPECT_EQ(Warm.Warnings, Cold.Warnings);

  EXPECT_EQ(Svc.metrics().counterValue("service.requests"), 1u);
  EXPECT_EQ(Svc.metrics().counterValue("service.cache.hits"), 1u);
}

TEST(ServiceServeTest, RepeatedRequestsDoTheSameWork) {
  // serve()'s side of MixyTest.RepeatedRunsDoTheSameWork: with every
  // cache off (no response cache, no in-run block cache, and no session
  // to replay block summaries from, even on a warm daemon), each
  // identical request runs the whole analysis again in one long-lived
  // process, where the allocator hands out different addresses each
  // time. Each must answer the same bytes after the same work, which is
  // what `mixyc --no-cache --stats` reports for the program: 14 symbolic
  // and 134 typed block runs.
  service::ServiceConfig Plain;
  Plain.PerRequestMetrics = true;
  Plain.ResponseCacheCap = 0;
  service::ServiceConfig Warm = daemonConfig();
  Warm.ResponseCacheCap = 0;
  for (const service::ServiceConfig &SC : {Plain, Warm}) {
    SCOPED_TRACE(SC.KeepWarm ? "warm daemon" : "no warm sessions");
    service::AnalysisService Svc(SC);
    service::AnalysisRequest Req;
    Req.ToolKind = service::Tool::Mixy;
    Req.Source = c::corpus::vsftpdScaled(true, 24, 8);
    Req.HasSource = true;
    Req.Entry = "filler_main";
    Req.NoCache = true;
    auto Work = [](const service::AnalysisResponse &Resp) {
      std::map<std::string, uint64_t> Out;
      for (const auto &[Name, Value] : Resp.Metrics)
        for (const char *Prefix : {"csym.", "solver.queries", "ptranal.",
                                   "qual.", "mixy.sym_block_runs",
                                   "mixy.typed_block_runs", "cfront."})
          if (Name.rfind(Prefix, 0) == 0)
            Out[Name] = Value;
      return Out;
    };
    service::AnalysisResponse First = Svc.serve(Req);
    ASSERT_FALSE(First.FromCache);
    std::map<std::string, uint64_t> FirstWork = Work(First);
    for (const char *Name :
         {"csym.paths", "csym.forks", "solver.queries", "ptranal.cells",
          "qual.variables", "qual.flow_edges", "mixy.sym_block_runs",
          "mixy.typed_block_runs", "cfront.ast_nodes", "cfront.ast_bytes"})
      EXPECT_GT(FirstWork[Name], 0u) << Name;
    EXPECT_EQ(FirstWork["mixy.sym_block_runs"], 14u);
    EXPECT_EQ(FirstWork["mixy.typed_block_runs"], 134u);
    for (int I = 1; I != 20; ++I) {
      service::AnalysisResponse Resp = Svc.serve(Req);
      EXPECT_FALSE(Resp.FromCache) << "request " << I;
      EXPECT_EQ(Resp.Payload, First.Payload) << "request " << I;
      EXPECT_EQ(Work(Resp), FirstWork) << "request " << I;
    }
  }
}

TEST(ServiceServeTest, UsageErrorsAreNotCached) {
  service::AnalysisService Svc(daemonConfig());
  service::AnalysisRequest UnknownCorpus;
  UnknownCorpus.Corpus = "case9";
  service::AnalysisRequest UnknownSolver;
  UnknownSolver.Corpus = "case1";
  UnknownSolver.Solver.Backend = "bogus";
  for (const service::AnalysisRequest &Req : {UnknownCorpus, UnknownSolver}) {
    service::AnalysisResponse A = Svc.serve(Req);
    service::AnalysisResponse B = Svc.serve(Req);
    EXPECT_EQ(A.Exit, 2);
    EXPECT_FALSE(A.FromCache);
    EXPECT_FALSE(B.FromCache); // cheap to reproduce; no cache slot spent
  }
}

TEST(ServiceServeTest, FileChangedDropsCachedPathResponses) {
  std::string Path = ::testing::TempDir() + "mix_service_filechanged.c";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "int main(void) { return 0; }\n";
  }

  service::AnalysisService Svc(daemonConfig());
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Path = Path;

  service::AnalysisResponse Cold = Svc.serve(Req);
  EXPECT_FALSE(Cold.FromCache);
  EXPECT_TRUE(Svc.serve(Req).FromCache);

  Svc.fileChanged(Path);
  EXPECT_EQ(Svc.metrics().counterValue("service.file_changed"), 1u);
  service::AnalysisResponse After = Svc.serve(Req);
  EXPECT_FALSE(After.FromCache);
  EXPECT_EQ(After.Payload, Cold.Payload); // same bytes -> same findings

  std::filesystem::remove(Path);
}

TEST(ServiceServeTest, FileChangedForgetsEvictionOrder) {
  // fileChanged must drop invalidated keys from the eviction queue too:
  // with a stale front entry left behind, a re-cached key is queued
  // twice and the duplicate later evicts the fresh response early.
  std::string Path = ::testing::TempDir() + "mix_service_fc_order.c";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "int main(void) { return 0; }\n";
  }

  service::ServiceConfig SC = daemonConfig();
  SC.ResponseCacheCap = 2;
  service::AnalysisService Svc(SC);

  service::AnalysisRequest A;
  A.ToolKind = service::Tool::Mixy;
  A.Path = Path;
  service::AnalysisRequest B;
  B.ToolKind = service::Tool::Mixy;
  B.Corpus = "case1";

  EXPECT_FALSE(Svc.serve(A).FromCache); // cache: [A]
  Svc.fileChanged(Path);                // cache: [] (queue too)
  EXPECT_FALSE(Svc.serve(A).FromCache); // cache: [A] again
  EXPECT_FALSE(Svc.serve(B).FromCache); // cache: [A, B] — within cap

  // Both must still be resident; a stale queue entry for A would have
  // evicted the fresh A when B was cached.
  EXPECT_TRUE(Svc.serve(A).FromCache);
  EXPECT_TRUE(Svc.serve(B).FromCache);

  std::filesystem::remove(Path);
}

TEST(ServiceServeTest, WarmInMemorySessionServesBlockSummaries) {
  // The daemon's warm in-memory persist session: a repeat run() (no
  // response cache involved) must answer every block lookup from the
  // session instead of re-running the block, with identical output.
  const std::string Source =
      "int *g_p;\n"
      "void use(void) MIX(symbolic) {\n"
      "  int x;\n"
      "  if (g_p != NULL) {\n"
      "    x = *g_p;\n"
      "  }\n"
      "  x = *g_p;\n"
      "}\n"
      "int main(void) {\n"
      "  g_p = NULL;\n"
      "  use();\n"
      "  return 0;\n"
      "}\n";
  service::AnalysisService Svc(daemonConfig());
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Source = Source;
  Req.HasSource = true;
  Req.WarnDerefs = true;

  service::AnalysisResponse Cold = Svc.run(Req);
  EXPECT_GT(Cold.Warnings, 0u);
  EXPECT_GT(metricValue(Cold, "persist.block.stores"), 0u);

  service::AnalysisResponse WarmRun = Svc.run(Req);
  EXPECT_EQ(WarmRun.Payload, Cold.Payload);
  EXPECT_EQ(WarmRun.Warnings, Cold.Warnings);
  EXPECT_GT(metricValue(WarmRun, "persist.block.hits"), 0u);
  EXPECT_EQ(metricValue(WarmRun, "persist.block.misses"), 0u);
}

TEST(ServiceServeTest, WarmInMemorySessionForgetsSummariesPastTheHorizon) {
  // The warm session keeps a summary only while one of its last
  // ResponseCacheCap MIXY runs stored or replayed it. A has no indirect
  // calls, so editing `other` leaves use's closure hash, and its block
  // key, unchanged.
  auto ProgramA = [](int Inc) {
    return "int *g_p;\n"
           "int other(int v) {\n"
           "  return v + " +
           std::to_string(Inc) +
           ";\n"
           "}\n"
           "void use(void) MIX(symbolic) {\n"
           "  int x;\n"
           "  if (g_p != NULL) {\n"
           "    x = *g_p;\n"
           "  }\n"
           "}\n"
           "int main(void) {\n"
           "  g_p = NULL;\n"
           "  use();\n"
           "  return other(1);\n"
           "}\n";
  };
  auto Unrelated = [](int K) {
    std::string N = std::to_string(K);
    return "int f" + N + "(int v) MIX(symbolic) {\n"
           "  if (v < " + N + ") { return 0; }\n"
           "  return v;\n"
           "}\n"
           "int main(void) { return f" + N + "(" + N + "); }\n";
  };
  auto Request = [](const std::string &Source) {
    service::AnalysisRequest Req;
    Req.ToolKind = service::Tool::Mixy;
    Req.Source = Source;
    Req.HasSource = true;
    return Req;
  };

  // With the default capacity the summary outlives three unrelated
  // requests; with a capacity of 2 it does not.
  for (size_t Cap : {size_t(128), size_t(2)}) {
    SCOPED_TRACE("ResponseCacheCap " + std::to_string(Cap));
    service::ServiceConfig SC = daemonConfig();
    SC.ResponseCacheCap = Cap;
    service::AnalysisService Svc(SC);

    service::AnalysisResponse A = Svc.serve(Request(ProgramA(1)));
    EXPECT_GT(metricValue(A, "persist.block.stores"), 0u);

    service::AnalysisResponse A1 = Svc.serve(Request(ProgramA(2)));
    EXPECT_FALSE(A1.FromCache);
    EXPECT_GT(metricValue(A1, "persist.block.hits"), 0u);
    EXPECT_EQ(metricValue(A1, "persist.block.misses"), 0u);

    for (int K = 1; K <= 3; ++K)
      EXPECT_FALSE(Svc.serve(Request(Unrelated(K))).FromCache);

    service::AnalysisResponse A2 = Svc.serve(Request(ProgramA(3)));
    EXPECT_FALSE(A2.FromCache);
    EXPECT_EQ(A2.Payload, A.Payload);
    if (Cap == 2) {
      EXPECT_EQ(metricValue(A2, "persist.block.hits"), 0u);
      EXPECT_GT(metricValue(A2, "persist.block.misses"), 0u);
    } else {
      EXPECT_GT(metricValue(A2, "persist.block.hits"), 0u);
      EXPECT_EQ(metricValue(A2, "persist.block.misses"), 0u);
    }
  }
}

TEST(ServiceServeTest, MultiClientStressKeepsAccountingAndBytesExact) {
  // N threads x M requests over a handful of keys. Whatever mix of
  // executions, cache hits, and dedup coalescing the timing produces,
  // two invariants hold: every request is accounted to exactly one of
  // the three counters, and every response for a key carries the same
  // bytes.
  service::AnalysisService Svc(daemonConfig());
  const std::vector<std::string> Corpora = {"case1", "case2", "case3",
                                            "case4"};
  const unsigned Threads = 6, PerThread = 8;

  std::vector<std::vector<std::pair<size_t, service::AnalysisResponse>>>
      Results(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        size_t Pick = (T + I) % Corpora.size();
        service::AnalysisRequest Req;
        Req.ToolKind = service::Tool::Mixy;
        Req.Corpus = Corpora[Pick];
        Results[T].emplace_back(Pick, Svc.serve(Req));
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  const obs::MetricsRegistry &Reg = Svc.metrics();
  EXPECT_EQ(Threads * PerThread, Reg.counterValue("service.requests") +
                                     Reg.counterValue("service.cache.hits") +
                                     Reg.counterValue("service.dedup.hits"));
  // Each distinct key executed at least once and at most... well, once:
  // with 4 keys and 48 sends, all 4 must be in the cache by the end.
  EXPECT_GE(Reg.counterValue("service.requests"), Corpora.size());

  std::map<size_t, service::AnalysisResponse> Canonical;
  for (const auto &PerThreadResults : Results)
    for (const auto &[Pick, Resp] : PerThreadResults) {
      auto [It, New] = Canonical.emplace(Pick, Resp);
      if (!New) {
        EXPECT_EQ(Resp.Payload, It->second.Payload) << Corpora[Pick];
        EXPECT_EQ(Resp.Exit, It->second.Exit) << Corpora[Pick];
        EXPECT_EQ(Resp.Warnings, It->second.Warnings) << Corpora[Pick];
      }
      if (Resp.FromCache || Resp.Deduped) {
        EXPECT_TRUE(Resp.Metrics.empty());
      }
    }
}

TEST(ServiceServeTest, ConcurrentIdenticalRequestsCoalesce) {
  // Volleys of simultaneous identical requests with a fresh key each
  // round; the race window is wide enough that a bounded number of
  // rounds reliably produces at least one dedup coalescing. (A single
  // unretried volley would be flaky; the accounting identity above is
  // the deterministic backstop.)
  service::AnalysisService Svc(daemonConfig());
  const unsigned Threads = 6;
  bool Coalesced = false;
  for (int Attempt = 0; Attempt != 25 && !Coalesced; ++Attempt) {
    // Six independent branches give the block 64 paths, each classified
    // by a solver query, so one execution takes milliseconds. On a
    // single-core host the scheduler preempts the executing thread in
    // that time, and the other volley threads land while the request is
    // still in flight, which is the window the dedup path needs.
    service::AnalysisRequest Req;
    Req.ToolKind = service::Tool::MixCheck;
    Req.Source = "{s (if a then 1 else 2) + (if b then 1 else 2) + "
                 "(if c then 1 else 2) + (if d then 1 else 2) + "
                 "(if e then 1 else 2) + (if f then 1 else 2) s}";
    Req.HasSource = true;
    for (const char *V : {"a", "b", "c", "d", "e", "f"})
      Req.Vars.emplace_back(V, "bool");
    Req.InputName = "volley-" + std::to_string(Attempt); // fresh key
    uint64_t Before = Svc.metrics().counterValue("service.dedup.hits");

    std::atomic<unsigned> Ready{0};
    std::vector<service::AnalysisResponse> Resps(Threads);
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        Ready.fetch_add(1);
        // Start line. Sleeping (not spinning) matters on a single-core
        // host: sleepers keep a low vruntime, so when they wake they
        // preempt whichever thread is mid-execute and land in the
        // in-flight window instead of finding a finished, cached
        // response.
        while (Ready.load() != Threads)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        Resps[T] = Svc.serve(Req);
      });
    for (std::thread &Th : Pool)
      Th.join();

    for (unsigned T = 1; T != Threads; ++T) {
      EXPECT_EQ(Resps[T].Payload, Resps[0].Payload);
      if (Resps[T].Deduped) {
        EXPECT_TRUE(Resps[T].Metrics.empty());
      }
    }
    Coalesced = Svc.metrics().counterValue("service.dedup.hits") > Before;
  }
  EXPECT_TRUE(Coalesced) << "no volley coalesced in 25 attempts";
}

/// A small MIXY program whose symbolic block makes solver queries; \p K
/// makes each source distinct, so no two requests share a key.
service::AnalysisRequest symbolicRequest(unsigned K) {
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.HasSource = true;
  Req.Source = "int *g;\n"
               "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n"
               "void blk(int n) MIX(symbolic) {\n"
               "  if (n < " + std::to_string(K) + ") { g = NULL; }\n"
               "  if (n == " + std::to_string(K + 2) + ") { g = NULL; }\n"
               "}\n"
               "int main(void) { blk(1); sysutil_free((void*)g); return 0; }\n";
  return Req;
}

TEST(ServiceServeTest, EngineCountersReachTheServiceRegistry) {
  // Each daemon request records into a private registry; afterwards its
  // counters and histograms are added into the service registry, so the
  // metrics RPC and --metrics-file see the engines' work. Each response
  // still carries only its own request's counters.
  service::ServiceConfig SC = daemonConfig();
  SC.ResponseCacheCap = 0;
  service::AnalysisService Svc(SC);
  std::vector<service::AnalysisResponse> Resps;
  for (unsigned K = 1; K != 4; ++K) {
    Resps.push_back(Svc.serve(symbolicRequest(K)));
    ASSERT_FALSE(Resps.back().FromCache);
  }

  const obs::MetricsRegistry &Reg = Svc.metrics();
  uint64_t Queries = 0;
  for (const service::AnalysisResponse &R : Resps)
    Queries += metricValue(R, "solver.queries");
  EXPECT_GT(Queries, 0u);
  EXPECT_EQ(Reg.counterValue("solver.queries"), Queries);
  EXPECT_GT(Reg.histogramSnapshot("solver.query_us").Count, 0u);
  // Every engine counter in the registry is exactly the responses' sum,
  // so no request's counters were counted twice or leaked into another.
  for (const auto &[Name, Value] : Reg.counters()) {
    if (Name.rfind("persist.", 0) == 0 || Name.rfind("service.", 0) == 0)
      continue;
    uint64_t Sum = 0;
    for (const service::AnalysisResponse &R : Resps)
      Sum += metricValue(R, Name);
    EXPECT_EQ(Value, Sum) << Name;
  }
}

TEST(ServiceServeTest, ConcurrentServeKeepsServiceTotalsExact) {
  // 4 threads serve 5 distinct requests each on one service: nothing is
  // cached or coalesced, so all 20 execute, and the shared registry's
  // atomics must add up exactly.
  service::ServiceConfig SC = daemonConfig();
  SC.ResponseCacheCap = 0;
  SC.RequestTelemetry = true;
  service::AnalysisService Svc(SC);
  const unsigned Threads = 4, PerThread = 5;
  std::vector<std::vector<service::AnalysisResponse>> Resps(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I)
        Resps[T].push_back(Svc.serve(symbolicRequest(1 + T * PerThread + I)));
    });
  for (std::thread &Th : Pool)
    Th.join();

  const obs::MetricsRegistry &Reg = Svc.metrics();
  EXPECT_EQ(Reg.counterValue("service.requests"), Threads * PerThread);
  EXPECT_EQ(Reg.histogramSnapshot("service.request.us").Count,
            Threads * PerThread);
  uint64_t Queries = 0;
  for (const auto &PerThreadResps : Resps)
    for (const service::AnalysisResponse &R : PerThreadResps) {
      EXPECT_FALSE(R.FromCache || R.Deduped);
      Queries += metricValue(R, "solver.queries");
    }
  EXPECT_GT(Queries, 0u);
  EXPECT_EQ(Reg.counterValue("solver.queries"), Queries);
}

//===----------------------------------------------------------------------===//
// serve(): per-request telemetry (request ids, phase attribution, spans)
//===----------------------------------------------------------------------===//

TEST(ServiceServeTest, TelemetryOffLeavesResponseClean) {
  // The default daemon config has RequestTelemetry off: responses carry
  // no ids, no phase attribution, no spans, and the request-latency
  // histogram never materializes — the null-handle off switch.
  service::AnalysisService Svc(daemonConfig());
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Corpus = "case1";

  service::AnalysisResponse Resp = Svc.serve(Req);
  EXPECT_TRUE(Resp.RequestId.empty());
  EXPECT_EQ(Resp.TotalUs, 0u);
  for (uint64_t V : Resp.PhaseUs)
    EXPECT_EQ(V, 0u);
  EXPECT_TRUE(Resp.Spans.empty());
  EXPECT_EQ(Svc.metrics().histogramSnapshot("service.request.us").Count, 0u);
  EXPECT_TRUE(Svc.slowRequests().empty());
}

TEST(ServiceServeTest, TelemetryPhaseBreakdownAndFreshIds) {
  service::ServiceConfig SC = daemonConfig();
  SC.RequestTelemetry = true;
  service::AnalysisService Svc(SC);
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;
  Req.Corpus = "case1";

  // Cold: the request executed, so it carries a wall time, per-phase
  // attribution, and a slot in the slow-request log.
  service::AnalysisResponse Cold = Svc.serve(Req);
  EXPECT_FALSE(Cold.FromCache);
  EXPECT_EQ(Cold.RequestId, "r-1");
  EXPECT_GT(Cold.TotalUs, 0u);
  bool AnyPhase = false;
  for (uint64_t V : Cold.PhaseUs)
    AnyPhase |= V != 0;
  EXPECT_TRUE(AnyPhase);
  // Inclusive attribution: no phase can outlast the whole request.
  for (uint64_t V : Cold.PhaseUs)
    EXPECT_LE(V, Cold.TotalUs);
  // Spans stay off unless the request traces.
  EXPECT_TRUE(Cold.Spans.empty());
  EXPECT_EQ(Svc.metrics().histogramSnapshot("service.request.us").Count, 1u);
  ASSERT_EQ(Svc.slowRequests().size(), 1u);
  EXPECT_EQ(Svc.slowRequests()[0].Id, "r-1");
  EXPECT_EQ(Svc.slowRequests()[0].TotalUs, Cold.TotalUs);

  // Warm: a cache hit gets a fresh id (it is a distinct request) but no
  // phase work, no histogram sample, and no slow-log entry — nothing
  // executed.
  service::AnalysisResponse Warm = Svc.serve(Req);
  EXPECT_TRUE(Warm.FromCache);
  EXPECT_EQ(Warm.RequestId, "r-2");
  EXPECT_EQ(Warm.TotalUs, 0u);
  for (uint64_t V : Warm.PhaseUs)
    EXPECT_EQ(V, 0u);
  EXPECT_TRUE(Warm.Spans.empty());
  EXPECT_EQ(Svc.metrics().histogramSnapshot("service.request.us").Count, 1u);
  EXPECT_EQ(Svc.slowRequests().size(), 1u);
}

TEST(ServiceServeTest, ConcurrentRequestsGetDisjointSpanTrees) {
  // Two requests in flight at once, each tracing: every span a response
  // carries must come from its own request's sink — distinct ids,
  // exactly one "phase.parse" span each, no cross-request leakage.
  service::ServiceConfig SC = daemonConfig();
  SC.RequestTelemetry = true;
  service::AnalysisService Svc(SC);

  service::AnalysisRequest A;
  A.ToolKind = service::Tool::Mixy;
  A.Corpus = "case1";
  A.Trace = true;
  service::AnalysisRequest B = A;
  B.Corpus = "case2";

  service::AnalysisResponse RespA, RespB;
  std::thread TA([&] { RespA = Svc.serve(A); });
  std::thread TB([&] { RespB = Svc.serve(B); });
  TA.join();
  TB.join();

  EXPECT_FALSE(RespA.RequestId.empty());
  EXPECT_FALSE(RespB.RequestId.empty());
  EXPECT_NE(RespA.RequestId, RespB.RequestId);

  auto CountParse = [](const std::vector<obs::TraceEvent> &Spans) {
    size_t N = 0;
    for (const obs::TraceEvent &E : Spans)
      N += E.Name == "phase.parse";
    return N;
  };
  EXPECT_FALSE(RespA.Spans.empty());
  EXPECT_FALSE(RespB.Spans.empty());
  EXPECT_EQ(CountParse(RespA.Spans), 1u);
  EXPECT_EQ(CountParse(RespB.Spans), 1u);

  // Both request trees were also imported into the service-global sink.
  size_t GlobalParse = 0;
  for (const obs::TraceEvent &E : Svc.traceSink().snapshotEvents())
    GlobalParse += E.Name == "phase.parse";
  EXPECT_EQ(GlobalParse, 2u);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry snapshot/delta (satellite 3)
//===----------------------------------------------------------------------===//

TEST(MetricsSnapshotTest, DeltaSinceReportsOnlyGrowth) {
  obs::MetricsRegistry Reg;
  Reg.counter("a").add(2);
  Reg.counter("steady").add(5);

  obs::MetricsSnapshot Before = Reg.snapshot();
  Reg.counter("a").add(3);
  Reg.counter("b").inc(); // born after the snapshot: counts from zero

  std::vector<std::pair<std::string, uint64_t>> Delta =
      Reg.deltaSince(Before);
  ASSERT_EQ(Delta.size(), 2u); // "steady" did not grow -> absent
  EXPECT_EQ(Delta[0].first, "a");
  EXPECT_EQ(Delta[0].second, 3u);
  EXPECT_EQ(Delta[1].first, "b");
  EXPECT_EQ(Delta[1].second, 1u);

  EXPECT_TRUE(Reg.deltaSince(Reg.snapshot()).empty());
}

//===----------------------------------------------------------------------===//
// OptionParser groups (satellite 1)
//===----------------------------------------------------------------------===//

bool parseArgs(driver::OptionParser &P, std::vector<std::string> Args) {
  std::vector<char *> Argv;
  static std::string Tool = "tool";
  Argv.push_back(Tool.data());
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return P.parse((int)Argv.size(), Argv.data());
}

void registerGrouped(driver::OptionParser &P, bool *Grouped, bool *Plain) {
  P.beginGroup("cli-output");
  P.flag("--grouped", Grouped, "a grouped flag");
  P.endGroup();
  P.flag("--plain", Plain, "an ungrouped flag");
}

TEST(OptionGroupTest, GroupsParseNormallyWhenNotExcluded) {
  driver::OptionParser P("tool");
  bool Grouped = false, Plain = false;
  registerGrouped(P, &Grouped, &Plain);
  EXPECT_TRUE(parseArgs(P, {"--grouped", "--plain"}));
  EXPECT_TRUE(Grouped);
  EXPECT_TRUE(Plain);
  EXPECT_EQ(P.optionNames(),
            (std::vector<std::string>{"--grouped", "--plain"}));
}

TEST(OptionGroupTest, ExcludedGroupDropsRegistrationsEntirely) {
  driver::OptionParser P("tool");
  P.excludeGroup("cli-output"); // before the registrar runs, like mixyd
  bool Grouped = false, Plain = false;
  registerGrouped(P, &Grouped, &Plain);

  // Not parsed: the excluded flag gets the unknown-option contract.
  EXPECT_FALSE(parseArgs(P, {"--grouped"}));
  EXPECT_FALSE(Grouped);
  EXPECT_TRUE(parseArgs(P, {"--plain"}));
  EXPECT_TRUE(Plain);

  // Absent from names, help, and did-you-mean.
  EXPECT_EQ(P.optionNames(), (std::vector<std::string>{"--plain"}));
  EXPECT_EQ(P.renderHelp().find("--grouped"), std::string::npos);
  EXPECT_EQ(P.suggestionFor("--groupedx"), "");
}

TEST(OptionGroupTest, UnexcludedParserStillSuggestsGroupedFlags) {
  driver::OptionParser P("tool");
  bool Grouped = false, Plain = false;
  registerGrouped(P, &Grouped, &Plain);
  EXPECT_EQ(P.suggestionFor("--groupedx"), "--grouped");
}

} // namespace
