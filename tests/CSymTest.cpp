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

using namespace mix::c;
using mix::DiagnosticEngine;

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
    auto Cell = CSymExecutor::finalCell(P, Last.ParamPointeeLocs[0], "");
    if (!Cell || !Cell->isPtr())
      continue;
    if (!Exec->mayBeNull(P.Path, *Cell))
      continue;
    FoundNullWrite = true;
  }
  EXPECT_TRUE(FoundNullWrite);
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
  auto Cell = CSymExecutor::finalCell(Last.Paths[0], Exec->globalLoc("v"),
                                      "");
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
  bool callTypedFunction(CSymExecutor &Exec, CSymState &State,
                         const CCall *, const CFuncDecl *Callee,
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
  CountingHook Hook;
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

namespace {

/// A deep branch ladder ending in a maybe-null dereference: the shape
/// the incremental assertion stack is built for. Every `if` forks, and
/// each fork's feasibility probes share a long path prefix with its
/// siblings.
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

/// Runs DeepBranchProgram with the given incremental-solver setting on a
/// fresh arena/solver and reports the backend query count plus the
/// rendered diagnostics.
void runDeepBranch(bool Incremental, uint64_t &Queries, std::string &Diag,
                   unsigned &Warnings) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  mix::smt::TermArena Terms;
  mix::smt::SmtSolver Solver{Terms};
  const CProgram *P = parseC(DeepBranchProgram, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  CSymOptions Opts;
  Opts.IncrementalSolver = Incremental;
  CSymExecutor Exec(*P, Ctx, Diags, Terms, Solver, Opts);
  CSymResult R = Exec.runFunction(P->findFunc("f"));
  Queries = Solver.queries();
  Diag = Diags.str();
  Warnings = R.WarningCount;
}

} // namespace

TEST(CSymIncrementalTest, FewerQueriesAndIdenticalDiagnostics) {
  uint64_t ScratchQueries = 0, IncQueries = 0;
  std::string ScratchDiag, IncDiag;
  unsigned ScratchWarnings = 0, IncWarnings = 0;
  runDeepBranch(false, ScratchQueries, ScratchDiag, ScratchWarnings);
  runDeepBranch(true, IncQueries, IncDiag, IncWarnings);

  // The warning (the *p on the all-positive path) and its rendering must
  // be byte-identical: incremental solving is a query-batching strategy,
  // never a verdict change.
  EXPECT_EQ(ScratchWarnings, 1u);
  EXPECT_EQ(IncWarnings, ScratchWarnings);
  EXPECT_EQ(IncDiag, ScratchDiag);

  // The point of the assertion stack: prefix sharing, model reuse, and
  // the unsat-prefix cut must cut the number of queries that actually
  // reach the backend on a deep branch ladder.
  EXPECT_GT(ScratchQueries, 0u);
  EXPECT_LT(IncQueries, ScratchQueries)
      << "incremental mode issued as many backend queries as from-scratch";
}
