//===--- CSymAllocTest.cpp - Heap allocations of executor and solver ------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Counts heap allocations with a replacement global operator new that
// forwards to malloc, so this file is a test binary of its own (and stays
// usable under ASan, which intercepts malloc). The counts are exact and
// deterministic: they gate the flat path state of DESIGN.md "Flat path
// state", where a fork copies two arrays and straight-line code allocates
// nothing per statement, and the solver's "Sorted sparse rows" (§14),
// where a branch probe's decision works in a few flat buffers and finding
// an existing term allocates nothing.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "csym/CSymExecutor.h"
#include "solver/SmtSolver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<size_t> Allocations{0};

void *allocate(size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *allocateAligned(size_t Size, std::align_val_t Align) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  size_t A = std::max(static_cast<size_t>(Align), sizeof(void *));
  void *P = nullptr;
  if (posix_memalign(&P, A, Size ? Size : 1) != 0)
    throw std::bad_alloc();
  return P;
}

/// The heap allocations \p Body makes.
template <typename F> size_t allocationsOf(F &&Body) {
  Allocations = 0;
  Counting = true;
  Body();
  Counting = false;
  return Allocations;
}

} // namespace

void *operator new(size_t Size) { return allocate(Size); }
void *operator new[](size_t Size) { return allocate(Size); }
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocate(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocate(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(size_t Size, std::align_val_t Align) {
  return allocateAligned(Size, Align);
}
void *operator new[](size_t Size, std::align_val_t Align) {
  return allocateAligned(Size, Align);
}
void *operator new(size_t Size, std::align_val_t Align,
                   const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(Size, Align);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](size_t Size, std::align_val_t Align,
                     const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(Size, Align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

/// A parsed program and an executor over it.
struct Harness {
  explicit Harness(std::string_view Source)
      : Program(parseC(Source, Ctx, Diags)) {
    EXPECT_NE(Program, nullptr) << Diags.str();
    Exec = std::make_unique<CSymExecutor>(*Program, Ctx, Diags, Terms,
                                          Solver);
  }

  CAstContext Ctx;
  DiagnosticEngine Diags;
  mix::smt::TermArena Terms;
  mix::smt::SmtSolver Solver{Terms};
  const CProgram *Program;
  std::unique_ptr<CSymExecutor> Exec;
};

/// The allocations of one runFunction of "f" in \p Source.
size_t allocationsOfRun(const std::string &Source) {
  Harness H(Source);
  const CFuncDecl *F = H.Program->findFunc("f");
  CSymResult R;
  size_t N = allocationsOf([&] { R = H.Exec->runFunction(F); });
  EXPECT_EQ(R.Paths.size(), 1u);
  EXPECT_EQ(R.WarningCount, 0u) << H.Diags.str();
  return N;
}

/// \p Copies copies of \p Stmt between a prologue and `return b;`.
std::string straightLine(const std::string &Prologue, const std::string &Stmt,
                         unsigned Copies) {
  std::string Out = "int f(int a) {\n" + Prologue;
  for (unsigned I = 0; I != Copies; ++I)
    Out += "  " + Stmt + "\n";
  return Out + "  return b;\n}\n";
}

} // namespace

TEST(CSymAllocTest, ForkMakesAtMostFourAllocations) {
  // 8 locals and 10 cells, 2 of them two-case (may-be-null) pointers.
  Harness H("int f(void) { return 0; }");
  mix::smt::TermArena &T = H.Terms;
  CSymState State;
  State.Path = T.trueTerm();
  State.Witness = std::make_shared<const mix::smt::SmtModel>();
  const CType *IntPtr = H.Ctx.pointerType(H.Ctx.intType());
  for (unsigned I = 0; I != 8; ++I)
    State.Locals.push_back(H.Exec->newObject(H.Ctx.intType(), "l"));
  for (unsigned I = 0; I != 8; ++I)
    State.Store.set({State.Locals[I]},
                    CSymValue::scalar(T.freshIntVar("v")));
  for (unsigned I = 0; I != 2; ++I) {
    LocId Loc = H.Exec->newObject(IntPtr, "p");
    CSymValue P = H.Exec->seededPointer(IntPtr, NullSeed::MayBeNull, "p");
    ASSERT_EQ(P.cases().size(), 2u);
    State.Store.set({Loc}, P);
  }
  ASSERT_EQ(State.Store.size(), 10u);

  CSymState Copy;
  size_t N = allocationsOf([&] { Copy = State.fork(); });
  // The store's array and the locals' array; values are handles into the
  // executor's arenas, and the witness is shared.
  EXPECT_LE(N, 4u);
  EXPECT_EQ(Copy.Locals, State.Locals);
  EXPECT_EQ(Copy.Store.size(), 10u);
  EXPECT_EQ(Copy.Witness, State.Witness);
  for (LocId Loc : State.Locals)
    EXPECT_EQ(Copy.Store.get({Loc})->scalarTerm(),
              State.Store.get({Loc})->scalarTerm());
}

TEST(CSymAllocTest, StraightLineCodeAllocatesTheSameAtAnyLength) {
  // A statement that neither forks nor kills its path allocates nothing:
  // no successor list, no name, no cell key. 10 and 40 copies of a
  // statement cost the same.
  size_t Short = allocationsOfRun(straightLine("  int b;\n", "b = a;", 10));
  size_t Long = allocationsOfRun(straightLine("  int b;\n", "b = a;", 40));
  EXPECT_EQ(Short, Long);

  // Through a definite pointer: address-of once, then stores and loads
  // through it (their null checks fold to constants).
  std::string Prologue = "  int b;\n  int *q;\n  q = &b;\n";
  Short = allocationsOfRun(straightLine(Prologue, "*q = a; b = *q;", 10));
  Long = allocationsOfRun(straightLine(Prologue, "*q = a; b = *q;", 40));
  EXPECT_EQ(Short, Long);
}

namespace {

using mix::smt::SmtModel;
using mix::smt::SmtSolver;
using mix::smt::SolveResult;
using mix::smt::Term;
using mix::smt::TermArena;

/// The path conditions of a five-`if` cascade (`5 < x0`, then
/// `x0 < x1`, ..., `x3 < x4`), each condition in either polarity: the 62
/// prefixes of depth 1 to 5, built the way the mini-C executor extends a
/// path (`andTerm(path, cond)` or `andTerm(path, notTerm(cond))`).
std::vector<const Term *> cascadePrefixes(TermArena &A) {
  std::vector<const Term *> Xs;
  for (unsigned I = 0; I != 5; ++I)
    Xs.push_back(A.freshIntVar("x" + std::to_string(I)));
  std::vector<const Term *> Conds = {A.lt(A.intConst(5), Xs[0])};
  for (unsigned I = 1; I != 5; ++I)
    Conds.push_back(A.lt(Xs[I - 1], Xs[I]));
  std::vector<const Term *> Out, Level = {A.trueTerm()};
  for (const Term *Cond : Conds) {
    std::vector<const Term *> Next;
    for (const Term *Path : Level) {
      Next.push_back(A.andTerm(Path, Cond));
      Next.push_back(A.andTerm(Path, A.notTerm(Cond)));
    }
    Out.insert(Out.end(), Next.begin(), Next.end());
    Level = std::move(Next);
  }
  return Out;
}

} // namespace

TEST(SolverAllocTest, CascadeDecisionAllocatesLittle) {
  // One decision of a symbolic branch probe: the literals, the
  // constraint rows and the check's few flat buffers, plus one map node
  // per variable of the model handed back.
  TermArena A;
  std::vector<const Term *> Prefixes = cascadePrefixes(A);
  ASSERT_EQ(Prefixes.size(), 62u);
  size_t Total = 0, Deepest = 0;
  for (size_t I = 0; I != Prefixes.size(); ++I) {
    const Term *Path = Prefixes[I];
    SmtSolver S(A);
    SmtModel M;
    SolveResult R = SolveResult::Unknown;
    size_t N = allocationsOf([&] { R = S.checkSat(Path, &M); });
    EXPECT_EQ(R, SolveResult::Sat) << Path->str();
    EXPECT_TRUE(M.Complete) << Path->str();
    EXPECT_LE(N, 20u) << Path->str();
    Total += N;
    if (I >= 30) // the 32 prefixes of depth 5
      Deepest += N;
  }
  RecordProperty("allocations_per_decision",
                 std::to_string((double)Total / Prefixes.size()));
  RecordProperty("allocations_per_depth5_decision",
                 std::to_string((double)Deepest / 32));
}

TEST(SolverAllocTest, ExistingTermsAllocateNothing) {
  // Hash-consing looks a term up by (kind, value, operands) before it
  // builds anything, so asking for 1,000 terms that already exist
  // allocates nothing and returns the same pointers.
  TermArena A;
  std::vector<const Term *> Xs;
  for (unsigned I = 0; I != 335; ++I)
    Xs.push_back(A.freshIntVar());
  auto Build = [&](std::vector<const Term *> &Out) {
    const Term *Path = A.trueTerm();
    for (unsigned I = 0; I + 1 != Xs.size(); ++I) {
      const Term *Lt = A.lt(Xs[I], Xs[I + 1]);
      const Term *Not = A.notTerm(Lt);
      Path = A.andTerm(Path, Not);
      Out.push_back(Lt);
      Out.push_back(Not);
      Out.push_back(Path);
    }
  };
  std::vector<const Term *> First, Again;
  Build(First);
  ASSERT_GE(First.size(), 1000u);
  Again.reserve(First.size());
  size_t N = allocationsOf([&] { Build(Again); });
  EXPECT_EQ(N, 0u);
  EXPECT_EQ(Again, First);
}
