//===--- bench_ir.cpp - AST walker vs. compiled concolic engine -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Measures the --exec=ir engine against the AST walker on two ProgramGen
// corpora:
//
//  - concrete_heavy: programs with no symbolic inputs at all. Every
//    branch guard is concrete, so the compiled engine runs on native
//    shadows — no arena traffic, no forks, every branch solver-skipped
//    (exec.branches.concrete). This is the workload the subsystem exists
//    for; the acceptance bar is >=5x symbolic-block throughput.
//
//  - deep_branch: programs over symbolic ints/bools that fork heavily.
//    Here both engines do the same arena and path work, so the compiled
//    engine's edge shrinks to dispatch overhead; the corpus guards
//    against the IR engine regressing the symbolic-heavy case.
//
// Each iteration of the core corpora runs the whole corpus through one
// long-lived engine, so warm iterations exercise the lowering cache
// exactly like a KeepWarm daemon session (ir.lower.hits counts them).
// The mini-C axis instead builds a fresh solver and executor per
// iteration (see runMiniCCorpus).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "ProgramGen.h"

#include "cfront/CParser.h"
#include "concolic/CIrExecutor.h"
#include "concolic/IrExecutor.h"
#include "csym/CSymExecutor.h"
#include "observe/Metrics.h"
#include "solver/SolverFactory.h"
#include "symexec/SymExecutor.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

using namespace mix;

namespace {

struct Corpus {
  AstContext Ctx;
  std::vector<const Expr *> Programs;
  bool Symbolic;
};

/// No symbolic inputs: every leaf is a literal, every guard concrete.
/// Deep programs (depth 12) keep per-run setup from drowning out
/// per-node interpretation cost. Programs that end in a (deterministic)
/// error are filtered out so every run walks the whole expression.
Corpus &concreteHeavyCorpus() {
  static Corpus *C = [] {
    auto *Cp = new Corpus();
    Cp->Symbolic = false;
    std::mt19937 Rng(42);
    testgen::ProgramGenerator Gen(Cp->Ctx, Rng, /*AllowBlocks=*/false,
                                  /*AllowRefs=*/false, /*AllowCalls=*/false);
    testgen::ProgramGenerator::Scope Empty;

    SymArena Arena(Cp->Ctx.types());
    DiagnosticEngine Diags;
    SymExecutor Probe(Arena, Diags);
    while (Cp->Programs.size() < 16) {
      const Expr *E = Gen.genInt(Empty, 12);
      SymExecResult R = Probe.run(E, SymEnv());
      if (R.Paths.size() == 1 && !R.Paths[0].IsError)
        Cp->Programs.push_back(E);
    }
    return Cp;
  }();
  return *C;
}

/// Symbolic ints and bools in scope: branches fork, paths multiply.
Corpus &deepBranchCorpus() {
  static Corpus *C = [] {
    auto *Cp = new Corpus();
    Cp->Symbolic = true;
    std::mt19937 Rng(7);
    testgen::ProgramGenerator Gen(Cp->Ctx, Rng, /*AllowBlocks=*/false);
    testgen::ProgramGenerator::Scope S;
    S.IntVars = {"x", "y"};
    S.BoolVars = {"b"};
    for (int I = 0; I != 24; ++I)
      Cp->Programs.push_back(Gen.genInt(S, 5));
    return Cp;
  }();
  return *C;
}

void runCorpus(benchmark::State &State, Corpus &C,
               SymExecOptions::Engine Mode) {
  obs::MetricsRegistry Reg;
  SymExecOptions Opts;
  Opts.ExecMode = Mode;
  Opts.Metrics = &Reg;
  SymArena Arena(C.Ctx.types());
  DiagnosticEngine Diags;
  std::unique_ptr<ExecEngine> Exec = concolic::makeExecEngine(Arena, Diags, Opts);

  SymEnv Env;
  if (C.Symbolic) {
    Env["x"] = Arena.freshVar(C.Ctx.types().intType(), false, "x");
    Env["y"] = Arena.freshVar(C.Ctx.types().intType(), false, "y");
    Env["b"] = Arena.freshVar(C.Ctx.types().boolType(), false, "b");
  }

  size_t Paths = 0;
  for (auto _ : State) {
    for (const Expr *E : C.Programs) {
      SymExecResult R = Exec->run(E, Env);
      Paths += R.Paths.size();
      benchmark::DoNotOptimize(R.Paths.data());
    }
  }

  State.SetItemsProcessed((int64_t)(State.iterations() * C.Programs.size()));
  State.counters["paths"] = (double)Paths;
  State.counters["solver_skips"] =
      (double)Reg.counterValue("exec.branches.concrete");
  State.counters["terms_built"] =
      (double)Reg.counterValue("exec.terms.built");
  State.counters["terms_gcd"] = (double)Reg.counterValue("exec.terms.gcd");
  State.counters["lower_hits"] = (double)Reg.counterValue("ir.lower.hits");
}

//===----------------------------------------------------------------------===//
// Mini-C axis: the same engines under CSymExecutor's memory model
//===----------------------------------------------------------------------===//

/// Concrete-heavy mini-C: one path, no symbolic guards — long runs of
/// stores through pointers, struct fields, and locals. Measures pure
/// per-statement dispatch of the lowered bytecode against the recursive
/// AST walk over identical solver/store traffic.
const char *MiniCConcreteSrc = R"(struct box { int a; int b; };
int main(int argc) {
  int x = 1;
  int y = 2;
  int z = 3;
  int *p;
  int *q;
  p = &x;
  q = &y;
  struct box s;
  struct box *h;
  h = &s;
  s.a = x + y;
  s.b = s.a + z;
  *p = s.b + 4;
  *q = *p + x;
  h->a = *q - y;
  h->b = h->a + h->a;
  x = h->b + z;
  y = x - z;
  z = x + y;
  s.a = z - s.b;
  s.b = s.a + x;
  *p = s.a + s.b;
  *q = *p - z;
  h->a = *p + *q;
  h->b = h->a - y;
  x = h->a + h->b;
  y = x + z;
  z = y - x;
  return x + y + z;
}
)";

/// Pointer/branch-heavy mini-C: symbolic argument drives forks, a
/// may-be-null pointer threads through a loop and an inlined call.
/// Both engines do the same path and solver work, so this axis guards
/// against the lowered interpreter regressing the fork-heavy case.
const char *MiniCBranchySrc = R"(int pick(int a, int *w) {
  if (a > 0) { return *w; }
  return 0;
}
int main(int argc) {
  int x = argc;
  int y = 0;
  int *p;
  int *q;
  p = &x;
  if (x > 0) { q = p; } else { q = NULL; }
  while (x > 0) {
    x = x - 1;
    y = y + pick(x, q);
  }
  if (q == NULL) { y = y - 1; } else { y = *q; }
  return y;
}
)";

/// Each iteration is one fresh unit of work: its own term arena, solver,
/// executor and body engine, so no solver or lowering state carries over
/// and the time per iteration does not depend on how many iterations
/// google-benchmark picks. Only parsing happens once, outside the loop.
/// The counters are per iteration.
void runMiniCCorpus(benchmark::State &State, const char *Src,
                    SymExecOptions::Engine Mode) {
  obs::MetricsRegistry Reg;
  c::CAstContext Ctx;
  DiagnosticEngine ParseDiags;
  const c::CProgram *P = c::parseC(Src, Ctx, ParseDiags);
  const c::CFuncDecl *F = P->findFunc("main");
  smt::SmtOptions SO;
  SO.Metrics = &Reg;

  size_t Paths = 0;
  for (auto _ : State) {
    DiagnosticEngine Diags;
    smt::TermArena Terms;
    std::unique_ptr<smt::ISolver> Solver =
        smt::createBackend("smtlite", Terms, SO);
    c::CSymExecutor Exec(*P, Ctx, Diags, Terms, *Solver);
    std::unique_ptr<c::CBodyEngine> Engine =
        concolic::makeCBodyEngine(Exec, Mode, &Reg, nullptr);
    if (Engine)
      Exec.setBodyEngine(Engine.get());
    c::CSymResult R = Exec.runFunction(F);
    Paths += R.Paths.size();
    benchmark::DoNotOptimize(&R);
  }

  auto PerIter = [](double V) {
    return benchmark::Counter(V, benchmark::Counter::kAvgIterations);
  };
  State.SetItemsProcessed((int64_t)State.iterations());
  State.counters["paths"] = PerIter((double)Paths);
  State.counters["solver_queries"] =
      PerIter((double)Reg.counterValue("solver.queries"));
  State.counters["lower_misses"] =
      PerIter((double)Reg.counterValue("ir.lower.misses"));
  State.counters["fallbacks"] =
      PerIter((double)Reg.counterValue("exec.fallback.ast"));
}

void BM_MiniCConcrete_Ast(benchmark::State &State) {
  runMiniCCorpus(State, MiniCConcreteSrc, SymExecOptions::Engine::Ast);
}
void BM_MiniCConcrete_Ir(benchmark::State &State) {
  runMiniCCorpus(State, MiniCConcreteSrc, SymExecOptions::Engine::Ir);
}
void BM_MiniCBranchy_Ast(benchmark::State &State) {
  runMiniCCorpus(State, MiniCBranchySrc, SymExecOptions::Engine::Ast);
}
void BM_MiniCBranchy_Ir(benchmark::State &State) {
  runMiniCCorpus(State, MiniCBranchySrc, SymExecOptions::Engine::Ir);
}

void BM_ConcreteHeavy_Ast(benchmark::State &State) {
  runCorpus(State, concreteHeavyCorpus(), SymExecOptions::Engine::Ast);
}
void BM_ConcreteHeavy_Ir(benchmark::State &State) {
  runCorpus(State, concreteHeavyCorpus(), SymExecOptions::Engine::Ir);
}
void BM_DeepBranch_Ast(benchmark::State &State) {
  runCorpus(State, deepBranchCorpus(), SymExecOptions::Engine::Ast);
}
void BM_DeepBranch_Ir(benchmark::State &State) {
  runCorpus(State, deepBranchCorpus(), SymExecOptions::Engine::Ir);
}

} // namespace

BENCHMARK(BM_ConcreteHeavy_Ast)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConcreteHeavy_Ir)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeepBranch_Ast)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeepBranch_Ir)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniCConcrete_Ast)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniCConcrete_Ir)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniCBranchy_Ast)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniCBranchy_Ir)->Unit(benchmark::kMicrosecond);

MIX_BENCH_MAIN(ir)
