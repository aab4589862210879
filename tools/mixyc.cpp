//===--- mixyc.cpp - Command-line driver for MIXY ---------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Runs null/nonnull checking on a mini-C file: pure type qualifier
// inference (--baseline) or the full MIXY analysis with MIX(typed) /
// MIX(symbolic) block switching. A thin client of the AnalysisService:
// the flags build an AnalysisRequest, the service runs it, and this file
// only routes the response pieces to the historical streams. See --help.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/InputLoader.h"
#include "service/AnalysisService.h"

#include <iostream>
#include <string>

using mix::obs::MetricsRegistry;
namespace driver = mix::driver;
namespace service = mix::service;

namespace {

// The options section is generated from the parser registrations
// (OptionParser::renderHelp), so --help cannot drift from the flags the
// tool actually accepts; a golden test enforces the coverage.
void printUsage(const driver::OptionParser &Parser) {
  std::cout <<
      R"(usage: mixyc [options] <file | - | @caseN | @vsftpd>

Null-pointer checking for mini-C. '@case1'..'@case4' and '@vsftpd' load
the built-in vsftpd-derived corpus (Section 4.5 of the paper); append
':baseline' (e.g. @case1:baseline) for the un-annotated variant.

options:
)" << Parser.renderHelp()
            << R"(
exit status: 0 with no warnings, 1 with warnings, 2 on usage/parse errors.
)";
}

/// The built-in corpus behind '@' specs, resolved through the service so
/// the CLI and the daemon serve the exact same bytes per spec.
bool resolveCorpus(const std::string &Spec, std::string &SourceOut) {
  service::AnalysisRequest R;
  R.Corpus = Spec;
  std::string Error;
  return service::AnalysisService::resolveInput(R, SourceOut, Error);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Help = false;
  service::AnalysisRequest Req;
  Req.ToolKind = service::Tool::Mixy;

  driver::OptionParser Parser("mixyc");
  driver::DriverContext Driver;
  Parser.flag("--baseline", &Req.Baseline,
              "pure type qualifier inference (ignore MIX blocks)");
  Parser.value(
      "--entry",
      [&](const std::string &V) {
        if (V.empty())
          return false;
        Req.Entry = V;
        return true;
      },
      "NAME", "entry function (default: main)");
  Parser.value(
      "--start",
      [&](const std::string &V) {
        if (V == "typed")
          Req.StartSymbolic = false;
        else if (V == "symbolic")
          Req.StartSymbolic = true;
        else
          return false;
        return true;
      },
      "typed|symbolic", "initial analysis mode (default: typed)");
  Parser.flag("--no-cache", &Req.NoCache,
              "disable block-result caching (Section 4.3)");
  Parser.flag("--no-alias-restore", &Req.NoAliasRestore,
              "disable aliasing restoration (Section 4.2)");
  Parser.flag("--warn-derefs", &Req.WarnDerefs,
              "treat every dereference as a nonnull requirement");
  Driver.registerOptions(Parser);
  Parser.flag("--incremental", &Req.Incremental,
              "with --cache-dir: reuse per-block summaries across runs,\n"
              "re-analyzing only functions whose code or dependencies "
              "changed");
  Parser.flag("--help", &Help, "this text");

  if (!Parser.parse(Argc, Argv))
    return driver::ExitUsage;
  if (Help) {
    printUsage(Parser);
    return driver::ExitClean;
  }
  if (Req.Incremental && !Driver.cacheDirRequested()) {
    std::cerr << "mixyc: --incremental requires --cache-dir\n";
    return driver::ExitUsage;
  }
  if (Parser.positionals().size() > 1) {
    std::cerr << "mixyc: extra argument '" << Parser.positionals()[1] << "'\n";
    return driver::ExitUsage;
  }
  if (Parser.positionals().empty()) {
    printUsage(Parser);
    return driver::ExitUsage;
  }

  std::string Source;
  if (!driver::loadInput("mixyc", Parser.positionals()[0], Source,
                         resolveCorpus)) {
    // The driver is live from here on: artifacts the user asked for
    // (--trace, --metrics) are flushed on every exit path, including the
    // exit-code-2 ones.
    Driver.writeArtifacts("mixyc");
    return driver::ExitUsage;
  }
  if (Parser.positionals()[0] != "-")
    Driver.setInputName(Parser.positionals()[0]);

  // The request carries the resolved source plus every cross-cutting flag;
  // run() attaches observability (metrics always; trace under --trace,
  // provenance when the output renders evidence) and the persist session
  // (--cache-dir, honoring --incremental) on the service side.
  Req.Source = std::move(Source);
  Req.HasSource = true;
  Driver.applyCommonRequest(Req);

  service::AnalysisResponse Resp = Driver.service().run(Req);

  std::ostream &Info = Driver.jsonOutput() ? std::cerr : std::cout;
  const MetricsRegistry &Reg = Driver.metrics();

  if (Driver.statsRequested() && Resp.Exit != driver::ExitUsage) {
    // Rendered from the metrics registry — the same numbers --metrics
    // exports (the analyses publish their stats there at the end of each
    // run).
    if (Req.Baseline) {
      Info << "qualifier variables : " << Reg.counterValue("qual.variables")
           << "\n"
           << "flow edges          : " << Reg.counterValue("qual.flow_edges")
           << "\n";
    } else {
      Info << "typed->symbolic switches : "
           << Reg.counterValue("mixy.switch.typed_to_sym") << "\n"
           << "symbolic->typed switches : "
           << Reg.counterValue("mixy.switch.sym_to_typed") << "\n"
           << "symbolic block runs      : "
           << Reg.counterValue("mixy.sym_block_runs") << " (+"
           << Reg.counterValue("mixy.sym_cache_hits") << " cached)\n"
           << "typed block runs         : "
           << Reg.counterValue("mixy.typed_block_runs") << " (+"
           << Reg.counterValue("mixy.typed_cache_hits") << " cached)\n"
           << "fixpoint iterations      : "
           << Reg.counterValue("mixy.fixpoint_rounds") << "\n"
           << "recursions detected      : "
           << Reg.counterValue("mixy.recursions") << "\n"
           // The shared engine layer's view of the same run: blocks it
           // scheduled, cache hits it served, and how the fixpoint driver
           // got there (site re-evaluations and rounds).
           << "engine blocks scheduled  : "
           << Reg.counterValue("engine.mixy.blocks") << "\n"
           << "engine cache hits        : "
           << Reg.counterValue("engine.cache.mixy.hits") << "\n"
           << "fixpoint re-runs         : "
           << Reg.counterValue("engine.worklist.reruns") << "\n"
           << "fixpoint rounds          : "
           << Reg.counterValue("engine.fixpoint.rounds") << "\n";
    }
    Info << driver::renderPhaseBreakdown(Resp);
  }

  Driver.emitPayload(Resp.Payload);
  if (Resp.Exit == driver::ExitUsage) {
    Driver.writeArtifacts("mixyc");
    return driver::ExitUsage;
  }
  if (!Driver.writeArtifacts("mixyc"))
    return driver::ExitUsage;
  if (!Driver.jsonOutput())
    std::cout << Resp.Warnings << " warning(s)\n";
  return Resp.Exit;
}
