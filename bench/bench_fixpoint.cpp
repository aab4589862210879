//===--- bench_fixpoint.cpp - E6: the typed/symbolic fixpoint ---------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Experiment E6 (Section 4.1): optimistic qualifier translation forces a
// fixpoint — "after we analyze the left symbolic block, we will discover
// a new constraint on x, and hence when we iterate and reanalyze the
// right symbolic block, we will discover the error". The workload chains
// N symbolic blocks where block i taints the pointer block i+1 frees, in
// the order that maximizes re-analysis.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

/// N pointer globals; use-block i frees x_i, null-block i nulls x_i. The
/// use blocks are called first, so every taint arrives "late" and must be
/// propagated by fixpoint iteration.
std::string fixpointChain(unsigned N) {
  std::string Out = "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n";
  for (unsigned I = 0; I != N; ++I)
    Out += "int *x" + std::to_string(I) + ";\n";
  for (unsigned I = 0; I != N; ++I) {
    std::string Idx = std::to_string(I);
    Out += "void use_block" + Idx + "(void) MIX(symbolic) {\n"
           "  sysutil_free((void*)x" + Idx + ");\n}\n";
    Out += "void null_block" + Idx + "(void) MIX(symbolic) {\n"
           "  x" + Idx + " = NULL;\n}\n";
  }
  Out += "int main(void) {\n";
  for (unsigned I = 0; I != N; ++I)
    Out += "  use_block" + std::to_string(I) + "();\n";
  for (unsigned I = 0; I != N; ++I)
    Out += "  null_block" + std::to_string(I) + "();\n";
  Out += "  return 0;\n}\n";
  return Out;
}

/// Runs \p Source through MIXY and reports its warnings and block-run
/// counters.
void runFixpoint(benchmark::State &State, const std::string &Source) {
  unsigned Warnings = 0, Iterations = 0, Reruns = 0;
  for (auto _ : State) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    MixyAnalysis Analysis(*P, Ctx, Diags);
    Warnings = Analysis.run(MixyAnalysis::StartMode::Typed);
    Iterations = Analysis.stats().FixpointIterations;
    Reruns = Analysis.stats().SymbolicBlockRuns;
  }
  State.counters["warnings"] = Warnings;
  State.counters["fixpoint_iters"] = Iterations;
  State.counters["block_runs"] = Reruns;
}

/// The E6 chain: every use-block's error must be found despite the late
/// constraints.
void BM_Fixpoint(benchmark::State &State) {
  runFixpoint(State, fixpointChain((unsigned)State.range(0)));
}

/// The deep call chain (corpus::deepCallChain) at the fixed round cap.
/// The taint needs depth + 1 rounds to cross the chain, so from depth 16
/// up the run stops at the cap and reports the MIX303 budget warning.
void BM_DeepChainSchedule(benchmark::State &State) {
  runFixpoint(State, corpus::deepCallChain((unsigned)State.range(0)));
}

} // namespace

BENCHMARK(BM_Fixpoint)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DeepChainSchedule)
    ->ArgName("depth")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

MIX_BENCH_MAIN(fixpoint)
