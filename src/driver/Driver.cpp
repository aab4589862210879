//===--- Driver.cpp - Shared tool driver plumbing ---------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <cstdio>
#include <fstream>
#include <iostream>

using namespace mix::driver;

void DriverContext::registerOptions(OptionParser &P) {
  P.value(
      "--trace",
      [this](const std::string &V) {
        if (V.empty())
          return false;
        TraceFile = V;
        return true;
      },
      "FILE", "write a JSON event trace of the run to FILE");
  P.value(
      "--profile",
      [this](const std::string &V) {
        if (V.empty())
          return false;
        ProfileFile = V;
        // Speedscope rendering needs phase spans, and phase spans need
        // per-request telemetry turned on.
        Svc.enableRequestTelemetry();
        return true;
      },
      "FILE",
      "write a speedscope-compatible JSON profile of the run's phase\n"
      "spans to FILE (open at https://www.speedscope.app)");
  P.value(
      "--metrics",
      [this](const std::string &V) {
        if (V.empty())
          return false;
        MetricsFile = V;
        return true;
      },
      "FILE", "write the metrics registry as JSON to FILE");
  P.beginGroup("cli-output");
  P.value(
      "--format",
      [this](const std::string &V) {
        if (V == "text")
          Format = OutputFormat::Text;
        else if (V == "json")
          Format = OutputFormat::Json;
        else if (V == "sarif")
          Format = OutputFormat::Sarif;
        else
          return false;
        return true;
      },
      "text|json|sarif",
      "diagnostic output format: text to stderr (default), one JSON\n"
      "document to stdout, or a SARIF 2.1.0 log (with witness paths and\n"
      "qualifier flow chains as code flows) to stdout");
  P.flag("--explain", &Explain,
         "follow each diagnostic with its evidence: the symbolic witness\n"
         "path (with a concrete counterexample) or the qualifier flow\n"
         "chain, plus the MIX block it came from");
  P.flag(
      "--stats",
      [this]() {
        Stats = true;
        // The --stats phase-breakdown table reads the response's
        // per-phase attribution, which only exists with telemetry on.
        Svc.enableRequestTelemetry();
      },
      "print analysis statistics after the run");
  P.endGroup();
  P.beginGroup("cache-dir");
  P.value(
      "--cache-dir",
      [this](const std::string &V) {
        if (V.empty())
          return false;
        CacheDir = V;
        return true;
      },
      "DIR",
      "persist MIXY's block summaries under DIR and replay them on later\n"
      "runs (output is the same as without it)");
  P.endGroup();
  P.value(
      "--solver",
      [this](const std::string &V) {
        std::string Err;
        if (!smt::parseSolverBackend(V, Solver, Err)) {
          // The parser's generic "bad --solver value" line follows; this
          // one names the choices.
          std::cerr << Err << "\n";
          return false;
        }
        return true;
      },
      "BACKEND",
      "solver backend to decide path conditions with (default: smtlite;\n"
      "every backend produces the same verdicts, so this changes latency\n"
      "and diagnostics' \"decided by\" attribution, never findings)");
}

void DriverContext::applyCommonRequest(service::AnalysisRequest &Req) const {
  switch (Format) {
  case OutputFormat::Text:
    Req.OutputFormat = service::Format::Text;
    break;
  case OutputFormat::Json:
    Req.OutputFormat = service::Format::Json;
    break;
  case OutputFormat::Sarif:
    Req.OutputFormat = service::Format::Sarif;
    break;
  }
  Req.Explain = Explain;
  Req.Trace = !TraceFile.empty() || !ProfileFile.empty();
  Req.CacheDir = CacheDir;
  Req.Solver = Solver;
  Req.InputName = InputName;
}

void DriverContext::emitPayload(const std::string &Payload) {
  // Machine formats own stdout (exactly one document); text diagnostics
  // keep their historical home on stderr.
  (jsonOutput() ? std::cout : std::cerr) << Payload;
}

bool DriverContext::writeArtifacts(const std::string &Tool) {
  bool Ok = true;
  {
    // A failed save only costs the next run its warm start; the analysis
    // already finished, so warn without touching the exit code.
    std::string Error;
    if (!Svc.save(&Error))
      std::cerr << Tool << ": warning: cache not saved: " << Error << "\n";
  }
  if (!TraceFile.empty())
    Ok = writeFile(Tool, TraceFile, Svc.traceSink().renderJSON()) && Ok;
  if (!ProfileFile.empty())
    Ok = writeFile(Tool, ProfileFile,
                   Svc.traceSink().renderSpeedscope(Tool)) && Ok;
  if (!MetricsFile.empty())
    Ok = writeFile(Tool, MetricsFile, Svc.metrics().renderJSON()) && Ok;
  return Ok;
}

mix::prov::ProvenanceSink *DriverContext::provenanceSink() {
  if (!Explain && Format != OutputFormat::Sarif)
    return nullptr;
  return Svc.provenanceSink();
}

std::string
mix::driver::renderPhaseBreakdown(const service::AnalysisResponse &Resp) {
  if (Resp.RequestId.empty())
    return std::string(); // telemetry off: no attribution to show
  std::string Out = "phase breakdown (inclusive, total " +
                    std::to_string(Resp.TotalUs) + " us):\n";
  for (unsigned I = 0; I != obs::NumPhases; ++I) {
    double Pct = Resp.TotalUs
                     ? 100.0 * (double)Resp.PhaseUs[I] / (double)Resp.TotalUs
                     : 0.0;
    char Line[96];
    std::snprintf(Line, sizeof(Line), "  %-10s : %10llu us (%5.1f%%)\n",
                  obs::phaseName((obs::Phase)I),
                  (unsigned long long)Resp.PhaseUs[I], Pct);
    Out += Line;
  }
  return Out;
}

bool mix::driver::writeFile(const std::string &Tool, const std::string &Path,
                            const std::string &Content) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << Tool << ": cannot write '" << Path << "'\n";
    return false;
  }
  Out << Content;
  return Out.good();
}
