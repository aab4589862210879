//===--- CSymAllocTest.cpp - Heap allocations of the mini-C executor ------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Counts heap allocations with a replacement global operator new that
// forwards to malloc, so this file is a test binary of its own (and stays
// usable under ASan, which intercepts malloc). The counts are exact and
// deterministic: they gate the flat path state of DESIGN.md "Flat path
// state", where a fork copies two arrays and straight-line code allocates
// nothing per statement.
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
