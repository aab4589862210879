//===--- bench_scaling.cpp - E5: cost per added symbolic block ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Experiment E5 (Section 4.6): "our small examples take less than a
// second to run without symbolic blocks, but from 5 to 25 seconds to run
// with one symbolic block, and about 60 seconds with two". The expected
// *shape* is that pure typed analysis is orders of magnitude cheaper than
// runs with symbolic blocks, and each added block multiplies cost —
// absolute numbers differ from the authors' 2010 testbed.
//
// The workload is the vsftpd-mini corpus plus filler modules; the
// argument selects how many filler entry points carry MIX(symbolic).
// A second axis grows the program instead: typed filler modules only, so
// MIXY's typed-side bookkeeping (name lookup, region and edge building)
// must stay linear in the number of functions.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"

#include <benchmark/benchmark.h>

#include <algorithm>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

constexpr unsigned FillerModules = 24;

/// Pure typed analysis over the scaled corpus (0 symbolic blocks).
void BM_Scaling_PureTyped(benchmark::State &State) {
  std::string Source =
      corpus::vsftpdScaled(/*Annotated=*/false, FillerModules, 0);
  for (auto _ : State) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    QualInference Inf(*P, Ctx, Diags);
    Inf.analyzeAll();
    Inf.solve();
    benchmark::DoNotOptimize(Inf.violationCount());
  }
  State.counters["symbolic_blocks"] = 0;
}

/// MIXY with k symbolic filler blocks (plus the corpus's own).
void BM_Scaling_SymbolicBlocks(benchmark::State &State) {
  unsigned Blocks = (unsigned)State.range(0);
  std::string Source =
      corpus::vsftpdScaled(/*Annotated=*/true, FillerModules, Blocks);
  unsigned BlockRuns = 0;
  for (auto _ : State) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    MixyAnalysis Analysis(*P, Ctx, Diags);
    // Enter through the filler-extended main so every block is reached.
    benchmark::DoNotOptimize(
        Analysis.run(MixyAnalysis::StartMode::Typed, "filler_main"));
    BlockRuns = Analysis.stats().SymbolicBlockRuns;
  }
  State.counters["symbolic_blocks"] = Blocks;
  State.counters["block_runs"] = BlockRuns;
}

/// Program-size axis: the corpus plus N typed filler modules (three
/// functions each), no filler blocks. Every iteration parses afresh and
/// runs MIXY from filler_main; "funcs" counts the defined functions.
void BM_Scaling_ProgramSize(benchmark::State &State) {
  unsigned Modules = (unsigned)State.range(0);
  std::string Source = corpus::vsftpdScaled(/*Annotated=*/true, Modules, 0);
  size_t Funcs = 0;
  for (auto _ : State) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    MixyAnalysis Analysis(*P, Ctx, Diags);
    benchmark::DoNotOptimize(
        Analysis.run(MixyAnalysis::StartMode::Typed, "filler_main"));
    Funcs = std::count_if(P->funcs().begin(), P->funcs().end(),
                          [](const CFuncDecl *F) { return F->isDefined(); });
  }
  State.counters["funcs"] = (double)Funcs;
}

} // namespace

BENCHMARK(BM_Scaling_PureTyped)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scaling_SymbolicBlocks)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scaling_ProgramSize)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

MIX_BENCH_MAIN(scaling)
