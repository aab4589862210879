//===--- bench_solver.cpp - E10: solver cost on analysis obligations -------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Experiment E10: the SMT-lite substrate's cost on the two query shapes
// the analyses generate — path-condition feasibility (conjunctions of
// comparisons) and exhaustive() tautologies (disjunctions of path
// conditions), plus the raw CDCL core on random 3-SAT.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "solver/Sat.h"
#include "solver/SmtSolver.h"
#include "solver/SolverFactory.h"
#include "solver/TermEval.h"

#include <benchmark/benchmark.h>

#include <functional>
#include <random>

using namespace mix::smt;

namespace {

/// Path-condition feasibility: x0 < x1 < ... < xN with interval bounds.
void BM_Solver_PathCondition(benchmark::State &State) {
  unsigned N = (unsigned)State.range(0);
  for (auto _ : State) {
    TermArena A;
    SmtSolver S(A);
    std::vector<const Term *> Xs;
    for (unsigned I = 0; I <= N; ++I)
      Xs.push_back(A.freshIntVar());
    const Term *Path = A.trueTerm();
    for (unsigned I = 0; I != N; ++I)
      Path = A.andTerm(Path, A.lt(Xs[I], Xs[I + 1]));
    Path = A.andTerm(Path, A.le(A.intConst(0), Xs[0]));
    Path = A.andTerm(Path, A.le(Xs[N], A.intConst((long long)N)));
    benchmark::DoNotOptimize(S.checkSat(Path));
  }
}

/// Exhaustiveness obligations: the disjunction of the 2^K fork guards of
/// a K-deep conditional ladder must be a tautology.
void BM_Solver_Exhaustive(benchmark::State &State) {
  unsigned K = (unsigned)State.range(0);
  for (auto _ : State) {
    TermArena A;
    SmtSolver S(A);
    std::vector<const Term *> Bs;
    for (unsigned I = 0; I != K; ++I)
      Bs.push_back(A.freshBoolVar());
    std::vector<const Term *> Guards;
    for (unsigned Mask = 0; Mask != (1u << K); ++Mask) {
      const Term *G = A.trueTerm();
      for (unsigned I = 0; I != K; ++I)
        G = A.andTerm(G, (Mask >> I) & 1 ? Bs[I] : A.notTerm(Bs[I]));
      Guards.push_back(G);
    }
    benchmark::DoNotOptimize(S.isDefinitelyValid(A.orList(Guards)));
  }
}

/// The CDCL core on random 3-SAT at the hard density (~4.3).
void BM_Solver_Random3Sat(benchmark::State &State) {
  unsigned Vars = (unsigned)State.range(0);
  std::mt19937 Rng(12345);
  for (auto _ : State) {
    SatSolver S;
    for (unsigned I = 0; I != Vars; ++I)
      S.newVar();
    unsigned Clauses = (unsigned)(Vars * 4.3);
    for (unsigned I = 0; I != Clauses; ++I) {
      std::vector<Lit> C;
      for (int K = 0; K != 3; ++K)
        C.push_back(Lit(Rng() % Vars, Rng() % 2 == 0));
      S.addClause(C);
    }
    benchmark::DoNotOptimize(S.solve());
  }
}

/// Integer reasoning: gcd/tightening obligations FM must refute.
void BM_Solver_IntegerTightening(benchmark::State &State) {
  unsigned N = (unsigned)State.range(0);
  for (auto _ : State) {
    TermArena A;
    SmtSolver S(A);
    // sum of N vars even and odd at once: unsat through gcd reasoning.
    std::vector<const Term *> Xs;
    for (unsigned I = 0; I != N; ++I)
      Xs.push_back(A.freshIntVar());
    const Term *Sum = A.intConst(0);
    for (const Term *X : Xs)
      Sum = A.add(Sum, A.mulConst(2, X));
    const Term *F = A.eqInt(Sum, A.intConst(1));
    benchmark::DoNotOptimize(S.checkSat(F));
  }
}

/// The deep-branch exploration pattern path executors generate: DFS over
/// a K-deep branch ladder with a then/else feasibility probe at every
/// node. range(1) selects from-scratch conjunctions (0) or the witness
/// rule (1): each path keeps a model of its condition, a probe that model
/// satisfies needs no query, and a queried probe's model becomes the
/// witness of the path it opens. That is CSymExecutor's rule, whose
/// query count the executor tests pin; here it is measured in time.
void BM_Solver_DeepBranchProbes(benchmark::State &State) {
  unsigned K = (unsigned)State.range(0);
  bool UseWitness = State.range(1) != 0;
  uint64_t Queries = 0;
  for (auto _ : State) {
    TermArena A;
    SmtSolver S(A);
    std::vector<const Term *> Xs;
    for (unsigned I = 0; I != K; ++I)
      Xs.push_back(A.freshIntVar());
    // DFS: probe both polarities of x_d > 0 at depth d, descend into the
    // feasible ones. Witness is a complete model of Path, or null.
    std::function<void(unsigned, const Term *, const SmtModel *)> Walk =
        [&](unsigned Depth, const Term *Path, const SmtModel *Witness) {
          if (Depth == K)
            return;
          const Term *Cond = A.lt(A.intConst(0), Xs[Depth]);
          for (const Term *Delta : {Cond, A.notTerm(Cond)}) {
            const Term *Whole = A.andTerm(Path, Delta);
            if (Witness && evalBool(Delta, *Witness)) {
              Walk(Depth + 1, Whole, Witness);
              continue;
            }
            SmtModel M;
            SolveResult R = S.checkSat(Whole, UseWitness ? &M : nullptr);
            if (R == SolveResult::Unsat)
              continue;
            bool Keep = UseWitness && R == SolveResult::Sat && M.Complete;
            Walk(Depth + 1, Whole, Keep ? &M : nullptr);
          }
        };
    SmtModel Empty; // satisfies `true`
    Walk(0, A.trueTerm(), UseWitness ? &Empty : nullptr);
    Queries = S.queries();
  }
  State.counters["backend_queries"] = (double)Queries;
}

/// Every registered backend on the path-condition chain, so a backend
/// whose latency regresses shows up in the archived JSON next to its
/// peers. range(0) indexes registeredBackends() (sorted, stable).
void BM_Solver_BackendPathCondition(benchmark::State &State) {
  std::vector<std::string> Backends = registeredBackends();
  const std::string &Name = Backends[(size_t)State.range(0)];
  State.SetLabel(Name);
  unsigned N = 16;
  for (auto _ : State) {
    TermArena A;
    std::unique_ptr<ISolver> S = createBackend(Name, A, SmtOptions());
    std::vector<const Term *> Xs;
    for (unsigned I = 0; I <= N; ++I)
      Xs.push_back(A.freshIntVar());
    const Term *Path = A.trueTerm();
    for (unsigned I = 0; I != N; ++I)
      Path = A.andTerm(Path, A.lt(Xs[I], Xs[I + 1]));
    Path = A.andTerm(Path, A.le(A.intConst(0), Xs[0]));
    Path = A.andTerm(Path, A.le(Xs[N], A.intConst((long long)N)));
    benchmark::DoNotOptimize(S->checkSat(Path));
  }
}

} // namespace

BENCHMARK(BM_Solver_PathCondition)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_Exhaustive)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_Random3Sat)
    ->Arg(20)
    ->Arg(40)
    ->Arg(60)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_IntegerTightening)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_DeepBranchProbes)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_BackendPathCondition)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

MIX_BENCH_MAIN(solver)
