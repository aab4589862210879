//===--- CSymTest.cpp - Tests for the mini-C symbolic executor ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "csym/CSymExecutor.h"
#include "solver/SmtSolver.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <type_traits>

using namespace mix::c;
using mix::DiagnosticEngine;

// A path's state moves along every flow that does not split the path;
// fork() is its only copy, so an accidental copy does not compile.
static_assert(!std::is_copy_constructible_v<CSymState>);
static_assert(!std::is_copy_assignable_v<CSymState>);

namespace {

class CSymTest : public ::testing::Test {
protected:
  /// Parses the program and symbolically executes \p Entry; returns the
  /// number of warnings raised by that run.
  unsigned runAndCountWarnings(std::string_view Source,
                               const std::string &Entry,
                               CSymOptions Opts = CSymOptions()) {
    Diags.clear();
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return ~0u;
    Exec = std::make_unique<CSymExecutor>(*P, Ctx, Diags, Terms, Solver,
                                          Opts);
    Last = Exec->runFunction(P->findFunc(Entry));
    return Last.WarningCount;
  }

  CAstContext Ctx;
  DiagnosticEngine Diags;
  mix::smt::TermArena Terms;
  mix::smt::SmtSolver Solver{Terms};
  std::unique_ptr<CSymExecutor> Exec;
  CSymResult Last;
};

} // namespace

TEST_F(CSymTest, StraightLineNoWarnings) {
  EXPECT_EQ(runAndCountWarnings("int f(int a, int b) { return a + b; }",
                                "f"),
            0u);
  EXPECT_EQ(Last.Paths.size(), 1u);
  EXPECT_TRUE(Last.Paths[0].Returned);
}

TEST_F(CSymTest, DereferenceOfMaybeNullParamWarns) {
  EXPECT_EQ(runAndCountWarnings("int f(int *p) { return *p; }", "f"), 1u);
}

TEST_F(CSymTest, NonnullParamDereferenceIsClean) {
  EXPECT_EQ(runAndCountWarnings("int f(int * nonnull p) { return *p; }",
                                "f"),
            0u);
}

TEST_F(CSymTest, NullCheckEliminatesWarning) {
  // Path sensitivity: the check refines the pointer's null guard.
  EXPECT_EQ(runAndCountWarnings(
                "int f(int *p) { if (p != NULL) return *p; return 0; }",
                "f"),
            0u);
}

TEST_F(CSymTest, InvertedNullCheckStillWarns) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(int *p) { if (p == NULL) return *p; return 0; }",
                "f"),
            1u);
}

TEST_F(CSymTest, DefiniteNullDereference) {
  EXPECT_EQ(runAndCountWarnings("int f(void) { int *p = NULL; return *p; }",
                                "f"),
            1u);
  // The path dies at the definite null dereference.
  EXPECT_TRUE(Last.Paths.empty());
}

TEST_F(CSymTest, MallocResultIsNonnull) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(void) { int *p = (int*) malloc(sizeof(int)); "
                "*p = 3; return *p; }",
                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
}

TEST_F(CSymTest, StoresAndLoadsRoundTrip) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(void) { int x; x = 41; x = x + 1; return x; }", "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  ASSERT_TRUE(Last.Paths[0].Ret.isScalar());
  const auto *T = Last.Paths[0].Ret.scalarTerm();
  ASSERT_EQ(T->kind(), mix::smt::TermKind::IntConst);
  EXPECT_EQ(T->value(), 42);
}

TEST_F(CSymTest, BranchesFork) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(int c) { if (c > 0) return 1; else return 2; }",
                "f"),
            0u);
  EXPECT_EQ(Last.Paths.size(), 2u);
}

TEST_F(CSymTest, InfeasibleBranchPruned) {
  EXPECT_EQ(runAndCountWarnings("int f(void) { int x; x = 1;\n"
                                "  if (x == 1) return 10; return 20; }",
                                "f"),
            0u);
  EXPECT_EQ(Last.Paths.size(), 1u);
  ASSERT_TRUE(Last.Paths[0].Ret.isScalar());
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 10);
}

TEST_F(CSymTest, CorrelatedBranchesStayConsistent) {
  // The dead combination (c && !c) must not produce a third path.
  EXPECT_EQ(runAndCountWarnings(
                "int f(int c) {\n"
                "  int r; r = 0;\n"
                "  if (c > 0) r = 1;\n"
                "  if (c > 0) { if (r == 0) return 99; }\n"
                "  return r;\n"
                "}",
                "f"),
            0u);
  for (const auto &P : Last.Paths) {
    if (!P.Ret.isScalar())
      continue;
    if (P.Ret.scalarTerm()->kind() == mix::smt::TermKind::IntConst) {
      EXPECT_NE(P.Ret.scalarTerm()->value(), 99);
    }
  }
}

TEST_F(CSymTest, WhileLoopsUnrollConcretely) {
  EXPECT_EQ(runAndCountWarnings("int f(void) {\n"
                                "  int n; int acc; n = 3; acc = 0;\n"
                                "  while (n > 0) { acc = acc + n; "
                                "n = n - 1; }\n"
                                "  return acc;\n"
                                "}",
                                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  ASSERT_TRUE(Last.Paths[0].Ret.isScalar());
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 6);
  EXPECT_FALSE(Last.Incomplete);
}

TEST_F(CSymTest, SymbolicLoopHitsBoundAndFlagsIncomplete) {
  CSymOptions Opts;
  Opts.LoopBound = 4;
  EXPECT_EQ(runAndCountWarnings("int f(int n) {\n"
                                "  while (n > 0) { n = n - 1; }\n"
                                "  return n;\n"
                                "}",
                                "f", Opts),
            0u);
  EXPECT_TRUE(Last.Incomplete);
  EXPECT_GE(Last.Paths.size(), 4u);
}

TEST_F(CSymTest, CallsInlineAndReturnValues) {
  EXPECT_EQ(runAndCountWarnings("int inc(int x) { return x + 1; }\n"
                                "int f(void) { return inc(inc(40)); }",
                                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 42);
}

TEST_F(CSymTest, NonnullAnnotatedExternArgumentChecked) {
  // The sysutil_free pattern: an extern with a nonnull parameter.
  EXPECT_EQ(runAndCountWarnings(
                "void free_ptr(void * nonnull p);\n"
                "void f(int *q) { free_ptr((void*)q); }",
                "f"),
            1u);
  EXPECT_EQ(runAndCountWarnings(
                "void free_ptr(void * nonnull p);\n"
                "void g(int *q) { if (q != NULL) free_ptr((void*)q); }",
                "g"),
            0u);
}

TEST_F(CSymTest, PaperCase1SockaddrClear) {
  // Section 4.5, Case 1: symbolic execution sees that *p_sock is non-null
  // at the sysutil_free call and null only afterwards.
  EXPECT_EQ(runAndCountWarnings(
                "struct sockaddr { int family; };\n"
                "void sysutil_free(void * nonnull p_ptr);\n"
                "void sockaddr_clear(struct sockaddr ** nonnull p_sock) {\n"
                "  if (*p_sock != NULL) {\n"
                "    sysutil_free((void*)*p_sock);\n"
                "    *p_sock = NULL;\n"
                "  }\n"
                "}",
                "sockaddr_clear"),
            0u);
}

TEST_F(CSymTest, StructFieldsThroughPointers) {
  EXPECT_EQ(runAndCountWarnings(
                "struct foo { int bar; int baz; };\n"
                "int f(void) {\n"
                "  struct foo *x = (struct foo*) malloc(sizeof(struct foo));\n"
                "  x->bar = 1;\n"
                "  x->baz = 2;\n"
                "  return x->bar + x->baz;\n"
                "}",
                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 3);
}

TEST_F(CSymTest, WritesThroughPointerParameters) {
  // Writing through a double pointer updates the lazily-created pointee.
  EXPECT_EQ(runAndCountWarnings(
                "void clear(int **pp) {\n"
                "  if (pp != NULL) { *pp = NULL; }\n"
                "}",
                "clear"),
            0u);
  // Two paths (pp null / non-null); on the non-null path the pointee cell
  // must now hold a definite null.
  ASSERT_EQ(Last.Paths.size(), 2u);
  bool FoundNullWrite = false;
  for (const auto &P : Last.Paths) {
    auto Cell = CSymExecutor::finalCell(P, Last.ParamPointeeLocs[0]);
    if (!Cell || !Cell->isPtr())
      continue;
    if (!Exec->mayBeNull(P.Path, *Cell))
      continue;
    FoundNullWrite = true;
  }
  EXPECT_TRUE(FoundNullWrite);
}

TEST_F(CSymTest, BranchAndLoopDeclarationsEndWithTheirBodies) {
  // Every body declares another x in the outer x's slot. Leaving an `if`
  // branch or a `while` body gives the slot its outer object back, as the
  // binder's scopes end there; a plain block shares its parent's scope,
  // so its x stays. Every path returns 1 + 5.
  EXPECT_EQ(runAndCountWarnings("int f(int c) {\n"
                                "  int x;\n"
                                "  int y;\n"
                                "  x = 1;\n"
                                "  if (c > 0) { int x; x = 2; }\n"
                                "  else { int x; x = 3; }\n"
                                "  while (c > 5) { int x; x = 4; c = c - 1; }\n"
                                "  y = x;\n"
                                "  { int x; x = 5; }\n"
                                "  return y + x;\n"
                                "}",
                                "f"),
            0u);
  ASSERT_FALSE(Last.Paths.empty());
  for (const auto &P : Last.Paths) {
    ASSERT_TRUE(P.Returned);
    ASSERT_TRUE(P.Ret.isScalar());
    EXPECT_EQ(P.Ret.scalarTerm()->kind(), mix::smt::TermKind::IntConst);
    EXPECT_EQ(P.Ret.scalarTerm()->value(), 6);
  }
}

TEST_F(CSymTest, UnknownFunctionPointerWarns) {
  // Section 4.5, Case 4: calls through symbolic function pointers.
  EXPECT_EQ(runAndCountWarnings("void (*s_exit_func)(void);\n"
                                "void f(void) {\n"
                                "  if (s_exit_func) { (*s_exit_func)(); }\n"
                                "}",
                                "f"),
            1u);
}

TEST_F(CSymTest, KnownFunctionPointerCallExecutes) {
  EXPECT_EQ(runAndCountWarnings("int v;\n"
                                "void set(void) { v = 7; }\n"
                                "void (*fp)(void);\n"
                                "void f(void) { fp = set; (*fp)(); }",
                                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  auto Cell = CSymExecutor::finalCell(
      Last.Paths[0], Exec->globalLoc(Exec->program().findGlobal("v")));
  ASSERT_TRUE(Cell.has_value());
  ASSERT_TRUE(Cell->isScalar());
  EXPECT_EQ(Cell->scalarTerm()->value(), 7);
}

TEST_F(CSymTest, MorrisConditionalWrite) {
  // A write through a two-case pointer conditionally updates both
  // possible targets (Morris's general axiom of assignment).
  EXPECT_EQ(runAndCountWarnings(
                "int a; int b;\n"
                "int f(int c) {\n"
                "  int *p;\n"
                "  if (c > 0) p = &a; else p = &b;\n"
                "  *p = 5;\n"
                "  return a;\n"
                "}",
                "f"),
            0u);
  // Forked at the if: each path does a strong update to one global.
  ASSERT_EQ(Last.Paths.size(), 2u);
}

namespace {

/// A hook that models every MIX(typed) call as "returns fresh nonnull".
class CountingHook : public TypedCallHook {
public:
  explicit CountingHook(CSymExecutor &Exec) : Exec(Exec) {}
  bool callTypedFunction(CSymState &State, const CCall *,
                         const CFuncDecl *Callee,
                         const std::vector<CSymValue> &,
                         CSymValue &RetOut) override {
    ++Calls;
    LastCallee = Callee;
    Exec.havocStore(State);
    if (Callee->returnType()->isPointer())
      RetOut = Exec.seededPointer(Callee->returnType(), NullSeed::Nonnull,
                                  "typed-result");
    else
      RetOut = CSymValue::scalar(Exec.terms().freshIntVar("typed-result"));
    return true;
  }
  CSymExecutor &Exec;
  unsigned Calls = 0;
  const CFuncDecl *LastCallee = nullptr;
};

} // namespace

TEST_F(CSymTest, TypedCallHookIntercepts) {
  Diags.clear();
  const CProgram *P = parseC("int helper(void) MIX(typed) { return 3; }\n"
                             "int f(void) { int g; g = 5; helper(); "
                             "return g; }",
                             Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  CSymExecutor Exec2(*P, Ctx, Diags, Terms, Solver);
  CountingHook Hook(Exec2);
  Exec2.setTypedCallHook(&Hook);
  CSymResult R = Exec2.runFunction(P->findFunc("f"));
  EXPECT_EQ(Hook.Calls, 1u);
  EXPECT_EQ(Hook.LastCallee, P->findFunc("helper"));
  ASSERT_EQ(R.Paths.size(), 1u);
  // The hook havocked memory: g is no longer the constant 5 but a lazily
  // reinitialized symbolic value.
  ASSERT_TRUE(R.Paths[0].Ret.isScalar());
  EXPECT_NE(R.Paths[0].Ret.scalarTerm()->kind(),
            mix::smt::TermKind::IntConst);
}

TEST_F(CSymTest, WithoutHookTypedFunctionsAreInlined) {
  EXPECT_EQ(runAndCountWarnings("int helper(void) MIX(typed) { return 3; }\n"
                                "int f(void) { return helper(); }",
                                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 3);
}

TEST_F(CSymTest, StatisticsAccumulate) {
  runAndCountWarnings("int f(int c) { if (c) return 1; return 0; }", "f");
  EXPECT_GT(Exec->stats().PathsExplored, 0u);

  // The symbolic filler's five-if cascade: each if splits every path that
  // reaches it, so 1 + 2 + 4 + 8 + 16 = 31 forks give 32 paths, and each
  // fork's two sides count as explored paths (2 + 4 + ... + 32 = 62).
  runAndCountWarnings(
      "int f(int a, int b, int c, int d, int e) {\n"
      "  int acc;\n  acc = 0;\n"
      "  if (a > 0) { acc = acc + 1; } else { acc = acc - 1; }\n"
      "  if (b > a) { acc = acc + 2; } else { acc = acc - 2; }\n"
      "  if (c > b) { acc = acc + 3; } else { acc = acc - 3; }\n"
      "  if (d > c) { acc = acc + 4; } else { acc = acc - 4; }\n"
      "  if (e > d) { acc = acc + 5; } else { acc = acc - 5; }\n"
      "  return acc;\n"
      "}",
      "f");
  EXPECT_EQ(Last.Paths.size(), 32u);
  EXPECT_EQ(Exec->stats().Forks, 31u);
  EXPECT_EQ(Exec->stats().PathsExplored, 62u);
  EXPECT_EQ(Exec->stats().ForksPruned, 0u);

  // Straight-line code never forks: reads and writes through a pointer
  // and an inlined call all move the one state along.
  EXPECT_EQ(runAndCountWarnings("int inc(int v) { return v + 1; }\n"
                                "int f(int * nonnull p) {\n"
                                "  int x;\n  x = *p;\n  *p = x + 1;\n"
                                "  x = inc(x);\n  return x + *p;\n"
                                "}",
                                "f"),
            0u);
  EXPECT_EQ(Last.Paths.size(), 1u);
  EXPECT_EQ(Exec->stats().CallsInlined, 1u);
  EXPECT_EQ(Exec->stats().Forks, 0u);
}

// === deeper memory-model coverage ============================================

TEST_F(CSymTest, NestedStructFieldPaths) {
  // Value structs inside structs use dotted field paths.
  EXPECT_EQ(runAndCountWarnings(
                "struct inner { int v; };\n"
                "struct outer { struct inner in; int w; };\n"
                "int f(void) {\n"
                "  struct outer o;\n"
                "  o.in.v = 5;\n"
                "  o.w = 2;\n"
                "  return o.in.v + o.w;\n"
                "}",
                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  ASSERT_TRUE(Last.Paths[0].Ret.isScalar());
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 7);
}

TEST_F(CSymTest, PointerFieldsInitializeLazilyByAnnotation) {
  // A nonnull-annotated struct field dereferences cleanly; an
  // unannotated one warns.
  EXPECT_EQ(runAndCountWarnings(
                "struct node { int * nonnull ok; int *risky; };\n"
                "int f(struct node * nonnull n) { return *(n->ok); }",
                "f"),
            0u);
  EXPECT_EQ(runAndCountWarnings(
                "struct node { int * nonnull ok; int *risky; };\n"
                "int g(struct node * nonnull n) { return *(n->risky); }",
                "g"),
            1u);
}

TEST_F(CSymTest, RecursionIsBoundedByCallDepth) {
  CSymOptions Opts;
  Opts.MaxCallDepth = 5;
  EXPECT_EQ(runAndCountWarnings(
                "int count(int n) {\n"
                "  if (n <= 0) return 0;\n"
                "  return 1 + count(n - 1);\n"
                "}",
                "count", Opts),
            0u);
  // Symbolic n exceeds the depth budget on the recursive spine.
  EXPECT_TRUE(Last.Incomplete);
}

TEST_F(CSymTest, GlobalSeedsOverrideDeclarations) {
  Diags.clear();
  const CProgram *P = parseC("int *g;\n"
                             "int f(void) { return *g; }",
                             Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  CSymExecutor Exec2(*P, Ctx, Diags, Terms, Solver);
  // Seeded nonnull: the dereference is clean.
  std::map<std::string, NullSeed> Seeds;
  Seeds["g"] = NullSeed::Nonnull;
  CSymResult R = Exec2.runFunction(P->findFunc("f"), {}, Seeds);
  EXPECT_EQ(R.WarningCount, 0u);
  // Seeded maybe-null: it warns.
  CSymExecutor Exec3(*P, Ctx, Diags, Terms, Solver);
  Seeds["g"] = NullSeed::MayBeNull;
  CSymResult R2 = Exec3.runFunction(P->findFunc("f"), {}, Seeds);
  EXPECT_EQ(R2.WarningCount, 1u);
}

TEST_F(CSymTest, StringLiteralsAreNonNull) {
  EXPECT_EQ(runAndCountWarnings(
                "void free_ptr(void * nonnull p);\n"
                "void f(void) { free_ptr((void*)\"text\"); }",
                "f"),
            0u);
}

TEST_F(CSymTest, WhileOverPointerChainTerminatesAtBound) {
  CSymOptions Opts;
  Opts.LoopBound = 3;
  EXPECT_EQ(runAndCountWarnings(
                "struct node { struct node *next; int v; };\n"
                "int sum(struct node *n) {\n"
                "  int acc;\n  acc = 0;\n"
                "  while (n != NULL) { acc = acc + n->v; n = n->next; }\n"
                "  return acc;\n"
                "}",
                "sum", Opts),
            0u);
  EXPECT_GE(Last.Paths.size(), 3u); // exit after 0, 1, 2 hops...
}

TEST_F(CSymTest, LogicalOperatorsBuildConjunctions) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(int a, int b) {\n"
                "  if (a > 0 && b > 0) return 1;\n"
                "  if (a > 0 || b > 0) return 2;\n"
                "  return 3;\n"
                "}",
                "f"),
            0u);
  // Feasible combinations: (a>0 && b>0), (exactly one positive), (none).
  EXPECT_EQ(Last.Paths.size(), 3u);
}

TEST_F(CSymTest, AddressOfLocalGivesDefinitePointer) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(void) {\n"
                "  int x;\n  x = 5;\n"
                "  int *p = &x;\n"
                "  *p = *p + 1;\n"
                "  return x;\n"
                "}",
                "f"),
            0u);
  ASSERT_EQ(Last.Paths.size(), 1u);
  EXPECT_EQ(Last.Paths[0].Ret.scalarTerm()->value(), 6);
}

TEST_F(CSymTest, NegationAndNotOperators) {
  EXPECT_EQ(runAndCountWarnings(
                "int f(int a) {\n"
                "  if (!(a > 0)) return -1;\n"
                "  return 1;\n"
                "}",
                "f"),
            0u);
  EXPECT_EQ(Last.Paths.size(), 2u);
}

TEST_F(CSymTest, NonLValueAssignmentTargetWarnsAndKillsThePath) {
  // Sema rejects this program; the executor, run on the parsed AST
  // directly, must still refuse the store loudly: one warning, and no
  // path survives the statement.
  EXPECT_EQ(runAndCountWarnings("int bad(int a) {\n"
                                "  a + 1 = 2;\n"
                                "  return a;\n"
                                "}",
                                "bad"),
            1u);
  EXPECT_TRUE(Last.Paths.empty());
  EXPECT_NE(Diags.str().find("expression is not an lvalue"),
            std::string::npos)
      << Diags.str();
}

TEST_F(CSymTest, MayBeNullAnswersConstantGuardsWithoutTheSolver) {
  runAndCountWarnings("int f(void) { return 0; }", "f");
  const CType *IntPtr = Ctx.pointerType(Ctx.intType());

  // A definite pointer's null guard is the constant false, so the
  // question needs no backend decision.
  uint64_t Before = Solver.queries();
  LocId Obj = Exec->newObject(Ctx.intType(), "obj");
  EXPECT_FALSE(Exec->mayBeNull(Terms.trueTerm(),
                               Exec->pointerTo(PtrTarget::object(Obj))));
  EXPECT_EQ(Solver.queries(), Before);

  // A pointer seeded as may-be-null still may be null.
  CSymValue Maybe = Exec->seededPointer(IntPtr, NullSeed::MayBeNull, "p");
  EXPECT_TRUE(Exec->mayBeNull(Terms.trueTerm(), Maybe));
  EXPECT_EQ(Solver.queries(), Before + 1);
}

namespace {

/// A deep branch ladder ending in a maybe-null dereference. Every `if`
/// forks over a fresh parameter, so each fork node's two probes share
/// the whole path prefix.
constexpr const char *DeepBranchProgram =
    "int f(int *p, int a, int b, int c, int d, int e) {\n"
    "  int s = 0;\n"
    "  if (a > 0) { s = s + 1; } else { s = s - 1; }\n"
    "  if (b > 0) { s = s + 2; } else { s = s - 2; }\n"
    "  if (c > 0) { s = s + 4; } else { s = s - 4; }\n"
    "  if (d > 0) { s = s + 8; } else { s = s - 8; }\n"
    "  if (e > 0) { s = s + 16; } else { s = s - 16; }\n"
    "  if (s > 30) { return *p; }\n"
    "  return s;\n"
    "}";

} // namespace

TEST_F(CSymTest, WitnessRuleMakesOneQueryPerForkNode) {
  // Each path's witness model satisfies one side of every fork, so only
  // the other side reaches the backend: one query for each of the
  // ladder's 1 + 2 + 4 + 8 + 16 = 31 fork nodes, plus one for the
  // dereference's nonnull side on the all-positive path (its witness
  // leaves p null). The concrete `s > 30` test needs no query: one side
  // folds to false and the other is the path itself, which the witness
  // satisfies. A from-scratch query per probe makes 96.
  EXPECT_EQ(runAndCountWarnings(DeepBranchProgram, "f"), 1u);
  EXPECT_EQ(Solver.queries(), 32u);
  EXPECT_EQ(Last.Paths.size(), 32u);
  EXPECT_EQ(Diags.str(), "8:24: warning: possible null dereference\n");
}

namespace {

/// A random ladder of 4-6 `if`s over int parameters a..d, comparing a
/// parameter with a small constant or with another parameter. Branch i
/// adds 2^i on its then-side only, so each path returns the mask of the
/// then-sides it took. The conditions repeat variables often enough
/// that many masks are contradictory.
struct Ladder {
  struct Cond {
    unsigned Lhs;
    int Rhs; ///< a parameter index, or -1 - K for the constant K
    char Op; ///< '<', '>', '=' (==), '!' (!=), 'l' (<=) or 'g' (>=)
  };
  std::vector<Cond> Conds;

  static Ladder random(std::mt19937 &Rng) {
    Ladder L;
    unsigned Depth = 4 + Rng() % 3;
    for (unsigned I = 0; I != Depth; ++I) {
      Cond C;
      C.Lhs = Rng() % 4;
      C.Rhs = Rng() % 2 ? (int)(Rng() % 4) : -1 - (int)(Rng() % 5);
      C.Op = "<>=!lg"[Rng() % 6];
      L.Conds.push_back(C);
    }
    return L;
  }

  std::string source() const {
    static const char *Names[] = {"a", "b", "c", "d"};
    static const std::map<char, const char *> Ops = {
        {'<', "<"}, {'>', ">"}, {'=', "=="}, {'!', "!="}, {'l', "<="},
        {'g', ">="}};
    std::string Out = "int f(int a, int b, int c, int d) {\n  int s = 0;\n";
    for (size_t I = 0; I != Conds.size(); ++I) {
      const Cond &C = Conds[I];
      std::string Rhs = C.Rhs >= 0 ? Names[C.Rhs] : std::to_string(-1 - C.Rhs);
      Out += "  if (" + std::string(Names[C.Lhs]) + " " + Ops.at(C.Op) + " " +
             Rhs + ") { s = s + " + std::to_string(1u << I) + "; }\n";
    }
    return Out + "  return s;\n}\n";
  }

  /// Condition \p I over the variables \p Vars, built from scratch.
  const mix::smt::Term *cond(mix::smt::TermArena &A,
                             const std::vector<const mix::smt::Term *> &Vars,
                             size_t I) const {
    const Cond &C = Conds[I];
    const mix::smt::Term *L = Vars[C.Lhs];
    const mix::smt::Term *R =
        C.Rhs >= 0 ? Vars[C.Rhs] : A.intConst(-1 - C.Rhs);
    switch (C.Op) {
    case '<':
      return A.lt(L, R);
    case '>':
      return A.lt(R, L);
    case '=':
      return A.eqInt(L, R);
    case '!':
      return A.notTerm(A.eqInt(L, R));
    case 'l':
      return A.le(L, R);
    default:
      return A.le(R, L);
    }
  }
};

} // namespace

TEST(CSymWitnessTest, SurvivingPathsAreExactlyTheSatisfiableBranchCombinations) {
  // The witness rule may skip a backend query only when a model proves
  // the branch side satisfiable, so the paths the executor keeps must be
  // exactly the branch combinations a fresh solver finds satisfiable
  // from scratch: no feasible combination lost, no infeasible one kept.
  const unsigned BaseSeed = 0xc5e1f00d;
  unsigned Pruned = 0, Kept = 0;
  for (unsigned Seed = 0; Seed != 200; ++Seed) {
    std::mt19937 Rng(BaseSeed + Seed);
    Ladder L = Ladder::random(Rng);
    SCOPED_TRACE("ladder " + std::to_string(Seed) + ":\n" + L.source());

    CAstContext Ctx;
    DiagnosticEngine Diags;
    mix::smt::TermArena Terms;
    mix::smt::SmtSolver Solver{Terms};
    const CProgram *P = parseC(L.source(), Ctx, Diags);
    ASSERT_NE(P, nullptr) << Diags.str();
    CSymExecutor Exec(*P, Ctx, Diags, Terms, Solver);
    CSymResult R = Exec.runFunction(P->findFunc("f"));
    ASSERT_FALSE(R.Incomplete);
    std::set<long long> Taken;
    for (const CSymResult::PathOut &Out : R.Paths) {
      ASSERT_TRUE(Out.Returned);
      const mix::smt::Term *Ret = Out.Ret.scalarTerm();
      ASSERT_EQ(Ret->kind(), mix::smt::TermKind::IntConst);
      EXPECT_TRUE(Taken.insert(Ret->value()).second)
          << "two paths took branch mask " << Ret->value();
    }

    std::set<long long> Satisfiable;
    size_t Depth = L.Conds.size();
    for (long long Mask = 0; Mask != (1LL << Depth); ++Mask) {
      mix::smt::TermArena A;
      mix::smt::SmtSolver Fresh{A};
      std::vector<const mix::smt::Term *> Vars;
      for (int V = 0; V != 4; ++V)
        Vars.push_back(A.freshIntVar());
      const mix::smt::Term *Whole = A.trueTerm();
      for (size_t I = 0; I != Depth; ++I) {
        const mix::smt::Term *C = L.cond(A, Vars, I);
        Whole = A.andTerm(Whole, (Mask >> I) & 1 ? C : A.notTerm(C));
      }
      if (Fresh.checkSat(Whole) != mix::smt::SolveResult::Unsat)
        Satisfiable.insert(Mask);
    }
    EXPECT_EQ(Taken, Satisfiable);
    Kept += (unsigned)Satisfiable.size();
    Pruned += (unsigned)((1u << Depth) - Satisfiable.size());
  }
  // The generator must exercise both verdicts heavily.
  EXPECT_GT(Pruned, 1000u);
  EXPECT_GT(Kept, 1000u);
}
