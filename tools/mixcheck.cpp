//===--- mixcheck.cpp - Command-line driver for the core MIX analysis ------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Checks a core-language program (with `{t ... t}` / `{s ... s}` blocks)
// using the mixed analysis. A thin client of the AnalysisService: the
// flags build an AnalysisRequest, the service runs it, and this file only
// routes the response pieces to the historical streams in the historical
// order. See --help for options.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/InputLoader.h"
#include "service/AnalysisService.h"

#include <iostream>
#include <string>

using namespace mix;

namespace {

// The options section is generated from the parser registrations
// (OptionParser::renderHelp), so --help cannot drift from the flags the
// tool actually accepts; a golden test enforces the coverage.
void printUsage(const driver::OptionParser &Parser) {
  std::cout <<
      R"(usage: mixcheck [options] <file | ->

Checks a MIX core-language program. Reads from stdin when the file is '-'.

options:
)" << Parser.renderHelp()
            << R"(
exit status: 0 when the program checks, 1 when it is rejected, 2 on
usage or parse errors.
)";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Help = false;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::MixCheck;

  driver::OptionParser Parser("mixcheck");
  driver::DriverContext Driver;
  Parser.value(
      "--mode",
      [&](const std::string &V) {
        if (V == "typed")
          Req.Symbolic = false;
        else if (V == "symbolic")
          Req.Symbolic = true;
        else
          return false;
        return true;
      },
      "typed|symbolic",
      "treat the outermost scope as a typed (default) or symbolic block");
  Parser.value(
      "--strategy",
      [&](const std::string &V) {
        if (V == "fork")
          Req.Strategy = SymExecOptions::Strategy::Fork;
        else if (V == "defer")
          Req.Strategy = SymExecOptions::Strategy::Defer;
        else
          return false;
        return true;
      },
      "fork|defer", "conditional strategy (Section 3.1); default fork");
  Parser.value(
      "--havoc",
      [&](const std::string &V) {
        if (V == "full")
          Req.Havoc = SymExecOptions::HavocPolicy::FullMemory;
        else if (V == "effects")
          Req.Havoc = SymExecOptions::HavocPolicy::WriteEffects;
        else
          return false;
        return true;
      },
      "full|effects",
      "SETypBlock memory havoc policy (Section 3.2); default full");
  Parser.flag("--precise-deref", &Req.PreciseDeref,
              "use the refined SEDeref rule (Section 3.1)");
  Parser.flag("--assume-complete", [&] { Req.AssumeComplete = true; },
              "skip the exhaustive() check (unsound mode)");
  Parser.value(
      "--explore",
      [&](const std::string &V) {
        if (V == "concolic")
          Req.Explore = MixOptions::Exploration::Concolic;
        else if (V == "all")
          Req.Explore = MixOptions::Exploration::AllPaths;
        else
          return false;
        return true;
      },
      "concolic",
      "enumerate paths DART-style (one per concrete run, flips solved\n"
      "via model extraction)");
  Parser.flag("--auto-place", &Req.AutoPlace,
              "insert symbolic blocks automatically on failure");
  Parser.separateValue(
      "--var",
      [&](const std::string &Spec) {
        size_t Colon = Spec.find(':');
        if (Colon == std::string::npos)
          return false;
        Req.Vars.emplace_back(Spec.substr(0, Colon), Spec.substr(Colon + 1));
        return true;
      },
      "name:type",
      "add a free variable to Gamma (type: int, bool, 'int ref', ...);\n"
      "may be repeated");
  Parser.flag("--print-program", &Req.PrintProgram,
              "echo the (possibly auto-annotated) program");
  Driver.registerOptions(Parser);
  Parser.flag("--help", &Help, "this text");

  if (!Parser.parse(Argc, Argv))
    return driver::ExitUsage;
  if (Help) {
    printUsage(Parser);
    return driver::ExitClean;
  }
  if (Parser.positionals().size() > 1) {
    std::cerr << "mixcheck: extra argument '" << Parser.positionals()[1]
              << "'\n";
    return driver::ExitUsage;
  }
  if (Parser.positionals().empty()) {
    printUsage(Parser);
    return driver::ExitUsage;
  }

  std::string Source;
  if (!driver::loadInput("mixcheck", Parser.positionals()[0], Source)) {
    // The driver is live from here on: artifacts the user asked for
    // (--trace, --metrics) are flushed on every exit path, including the
    // exit-code-2 ones.
    Driver.writeArtifacts("mixcheck");
    return driver::ExitUsage;
  }
  if (Parser.positionals()[0] != "-")
    Driver.setInputName(Parser.positionals()[0]);

  // The request carries the resolved source plus every cross-cutting flag;
  // run() attaches observability (metrics always; trace under --trace,
  // provenance when the output renders evidence) and the persist session
  // (--cache-dir) on the service side.
  Req.Source = std::move(Source);
  Req.HasSource = true;
  Driver.applyCommonRequest(Req);

  service::AnalysisResponse Resp = Driver.service().run(Req);

  std::ostream &Info = Driver.jsonOutput() ? std::cerr : std::cout;

  // Historical stream order: the usage error (bad --var type), the
  // auto-placement note, the stats block, the echoed program, then the
  // diagnostics payload.
  if (!Resp.ErrorText.empty())
    std::cerr << "mixcheck: " << Resp.ErrorText << "\n";
  if (!Resp.AutoPlaceNote.empty())
    Info << Resp.AutoPlaceNote;

  if (Driver.statsRequested() && !Req.AutoPlace &&
      Resp.Exit != driver::ExitUsage) {
    // Rendered from the metrics registry — the same numbers --metrics
    // exports (and, serially, the same the pre-registry tool printed).
    const obs::MetricsRegistry &Reg = Driver.metrics();
    Info << "symbolic blocks checked : "
         << Reg.counterValue("mix.sym_blocks_checked") << "\n"
         << "typed blocks executed   : "
         << Reg.counterValue("mix.typed_blocks_executed") << "\n"
         << "paths explored          : "
         << Reg.counterValue("mix.paths_explored") << "\n"
         << "infeasible discarded    : "
         << Reg.counterValue("mix.paths_infeasible") << "\n"
         << "solver queries          : " << Reg.counterValue("solver.queries")
         << "\n"
         // The shared engine layer's view of the same run: blocks it
         // scheduled and cache hits it served across both domains.
         << "engine blocks scheduled : " << Reg.counterValue("engine.mix.blocks")
         << "\n"
         << "engine cache hits       : "
         << Reg.counterValue("engine.cache.mix.hits") << "\n"
         // The executor's own counters: paths run, branches decided
         // without the solver, and symbolic terms built.
         << "exec paths run          : " << Reg.counterValue("exec.paths")
         << "\n"
         << "exec concrete branches  : "
         << Reg.counterValue("exec.branches.concrete") << "\n"
         << "exec terms built        : "
         << Reg.counterValue("exec.terms.built") << "\n"
         << driver::renderPhaseBreakdown(Resp);
  }

  if (!Resp.PrintedProgram.empty())
    Info << Resp.PrintedProgram;

  Driver.emitPayload(Resp.Payload);
  if (Resp.Exit == driver::ExitUsage) {
    Driver.writeArtifacts("mixcheck");
    return driver::ExitUsage;
  }
  if (!Driver.writeArtifacts("mixcheck"))
    return driver::ExitUsage;
  if (!Driver.jsonOutput())
    std::cout << (Resp.Accepted ? "ok: " + Resp.ResultType : "rejected")
              << "\n";
  return Resp.Exit;
}
