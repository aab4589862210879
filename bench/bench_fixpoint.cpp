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

/// A depth-D def-use chain: step_i copies x_{i-1} into x_i, and main
/// calls the steps deepest-first, so the taint planted by source() must
/// travel the whole chain before sink()'s error becomes visible. The
/// dependency-aware worklist re-runs only the link whose input actually
/// changed.
std::string deepCallChain(unsigned Depth) {
  std::string Out = "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n";
  for (unsigned I = 0; I <= Depth; ++I)
    Out += "int *x" + std::to_string(I) + ";\n";
  for (unsigned I = 1; I <= Depth; ++I) {
    std::string Idx = std::to_string(I);
    Out += "void step" + Idx + "(void) MIX(symbolic) {\n"
           "  x" + Idx + " = x" + std::to_string(I - 1) + ";\n}\n";
  }
  Out += "void sink(void) MIX(symbolic) {\n"
         "  sysutil_free((void*)x" + std::to_string(Depth) + ");\n}\n"
         "void source(void) MIX(symbolic) {\n"
         "  x0 = NULL;\n}\n"
         "int main(void) {\n  sink();\n";
  for (unsigned I = Depth; I >= 1; --I)
    Out += "  step" + std::to_string(I) + "();\n";
  Out += "  source();\n  return 0;\n}\n";
  return Out;
}

/// Runs \p Source through the parallel (worklist) fixpoint and reports
/// its block-run counters.
void runSchedule(benchmark::State &State, const std::string &Source,
                 unsigned MaxRounds = 0) {
  unsigned Warnings = 0, Iterations = 0, Reruns = 0;
  for (auto _ : State) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    MixyOptions Opts;
    Opts.Jobs = 4;
    if (MaxRounds)
      Opts.MaxFixpointIterations = MaxRounds;
    MixyAnalysis Analysis(*P, Ctx, Diags, Opts);
    Warnings = Analysis.run(MixyAnalysis::StartMode::Typed);
    Iterations = Analysis.stats().FixpointIterations;
    Reruns = Analysis.stats().SymbolicBlockRuns;
  }
  State.counters["warnings"] = Warnings;
  State.counters["fixpoint_iters"] = Iterations;
  State.counters["block_runs"] = Reruns;
}

/// The parallel fixpoint on the original E6 chain: late taints, but no
/// cross-block dependencies.
void BM_FixpointSchedule(benchmark::State &State) {
  runSchedule(State, fixpointChain((unsigned)State.range(0)));
}

/// The parallel fixpoint on the deep call chain. The taint may need
/// ~depth rounds to cross the chain, so the rounds budget scales with
/// depth — with the default cap a truncated fixpoint would report zero
/// warnings, which would make the timing meaningless.
void BM_DeepChainSchedule(benchmark::State &State) {
  unsigned Depth = (unsigned)State.range(0);
  runSchedule(State, deepCallChain(Depth), 2 * Depth + 8);
}

void BM_Fixpoint(benchmark::State &State) {
  unsigned N = (unsigned)State.range(0);
  std::string Source = fixpointChain(N);
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
  // Every use-block's error must be found despite the late constraints.
  State.counters["warnings"] = Warnings;
  State.counters["fixpoint_iters"] = Iterations;
  State.counters["block_runs"] = Reruns;
}

} // namespace

BENCHMARK(BM_Fixpoint)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_FixpointSchedule)
    ->ArgName("n")
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DeepChainSchedule)
    ->ArgName("depth")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

MIX_BENCH_MAIN(fixpoint)
