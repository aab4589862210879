//===--- QualTest.cpp - Tests for null/nonnull qualifier inference --------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "qual/QualInference.h"

#include <gtest/gtest.h>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

class QualTest : public ::testing::Test {
protected:
  /// Parses, runs whole-program inference, returns the warning count.
  unsigned warningsFor(std::string_view Source,
                       QualOptions Opts = QualOptions()) {
    Diags.clear();
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return ~0u;
    Inference = std::make_unique<QualInference>(*P, Ctx, Diags, Opts);
    Inference->analyzeAll();
    Inference->solve();
    return Inference->reportWarnings();
  }

  CAstContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<QualInference> Inference;
};

} // namespace

TEST_F(QualTest, CleanProgramHasNoWarnings) {
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "int x;\n"
                        "void f(void) { free_ptr(&x); }"),
            0u);
}

TEST_F(QualTest, PaperIntroExample) {
  // Section 4's running example: NULL flows through id into free.
  unsigned W = warningsFor(
      "void free_ptr(int * nonnull x);\n"
      "int *id(int *p) { return p; }\n"
      "void f(void) {\n"
      "  int *x = NULL;\n"
      "  int *y = id(x);\n"
      "  free_ptr(y);\n"
      "}");
  EXPECT_EQ(W, 1u);
  // The witness path goes through id's parameter and return.
  std::string Rendered = Diags.str();
  EXPECT_NE(Rendered.find("NULL"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("free_ptr"), std::string::npos) << Rendered;
}

TEST_F(QualTest, DirectNullToNonnull) {
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "void f(void) { free_ptr(NULL); }"),
            1u);
}

TEST_F(QualTest, NullAnnotationIsASource) {
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "int * null risky;\n"
                        "void f(void) { free_ptr(risky); }"),
            1u);
}

TEST_F(QualTest, MallocIsNonnull) {
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "void f(void) {\n"
                        "  int *p = (int*) malloc(sizeof(int));\n"
                        "  free_ptr(p);\n"
                        "}"),
            0u);
}

TEST_F(QualTest, FlowInsensitivityFalsePositive) {
  // Assignment order is ignored: the NULL write after the call still
  // taints the argument. This is the Case 1 shape and is *expected* to
  // warn — MIXY exists to remove it.
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "int g;\n"
                        "void f(void) {\n"
                        "  int *p = &g;\n"
                        "  free_ptr(p);\n"
                        "  p = NULL;\n"
                        "}"),
            1u);
}

TEST_F(QualTest, PathInsensitivityFalsePositive) {
  // The null check does not matter to the flow-insensitive system.
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "int *get(void);\n"
                        "void f(void) {\n"
                        "  int *p = NULL;\n"
                        "  if (p != NULL) free_ptr(p);\n"
                        "}"),
            1u);
}

TEST_F(QualTest, ContextInsensitivityConflatesCallers) {
  // Case 2's shape: the inference generates equality constraints (the
  // paper's "beta = gamma" style), so one caller's NULL argument taints
  // every other caller's argument to the same monomorphic parameter.
  unsigned W = warningsFor(
      "void free_ptr(int * nonnull p);\n"
      "void helper(int *q) { }\n"
      "int g;\n"
      "void caller1(void) { helper(NULL); }\n"
      "void caller2(void) {\n"
      "  int *ok = &g;\n"
      "  helper(ok);\n"
      "  free_ptr(ok);\n"
      "}");
  EXPECT_EQ(W, 1u);
  // The same conflation through a returned parameter, as in the paper's
  // str_next_dirent case:
  unsigned W2 = warningsFor(
      "void free_ptr(int * nonnull p);\n"
      "int *id(int *q) { return q; }\n"
      "int g;\n"
      "void caller1(void) { int *a = id(NULL); }\n"
      "void caller2(void) {\n"
      "  int *ok = id(&g);\n"
      "  free_ptr(ok);\n"
      "}");
  EXPECT_EQ(W2, 1u);
}

TEST_F(QualTest, StructFieldsCarryQualifiers) {
  EXPECT_EQ(warningsFor("struct box { int *ptr; };\n"
                        "void free_ptr(int * nonnull p);\n"
                        "struct box g;\n"
                        "void f(void) {\n"
                        "  g.ptr = NULL;\n"
                        "  free_ptr(g.ptr);\n"
                        "}"),
            1u);
}

TEST_F(QualTest, FieldQualifiersAreSharedAcrossInstances) {
  // Field-based (monomorphic) analysis: tainting b1.ptr taints b2.ptr.
  EXPECT_EQ(warningsFor("struct box { int *ptr; };\n"
                        "void free_ptr(int * nonnull p);\n"
                        "struct box b1; struct box b2;\n"
                        "void f(void) {\n"
                        "  b1.ptr = NULL;\n"
                        "  free_ptr(b2.ptr);\n"
                        "}"),
            1u);
}

TEST_F(QualTest, DoublePointerAssignmentTaintsPointee) {
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "void f(int **pp) {\n"
                        "  *pp = NULL;\n"
                        "  free_ptr(*pp);\n"
                        "}"),
            1u);
}

TEST_F(QualTest, ReturnFlows) {
  EXPECT_EQ(warningsFor("void free_ptr(int * nonnull p);\n"
                        "int *maybe(void) { return NULL; }\n"
                        "void f(void) { free_ptr(maybe()); }"),
            1u);
}

TEST_F(QualTest, WarnAllDereferencesOption) {
  QualOptions Opts;
  Opts.WarnAllDereferences = true;
  EXPECT_EQ(warningsFor("int f(void) {\n"
                        "  int *p = NULL;\n"
                        "  return *p;\n"
                        "}",
                        Opts),
            1u);
  // Default mode does not flag bare dereferences.
  EXPECT_EQ(warningsFor("int f(void) {\n"
                        "  int *p = NULL;\n"
                        "  return *p;\n"
                        "}"),
            0u);
}

TEST_F(QualTest, MayBeNullQuery) {
  Diags.clear();
  const CProgram *P = parseC("int *a; int *b; int g;\n"
                             "void f(void) { a = NULL; b = &g; }",
                             Ctx, Diags);
  ASSERT_NE(P, nullptr);
  QualInference Inf(*P, Ctx, Diags);
  Inf.analyzeAll();
  Inf.solve();
  ASSERT_FALSE(Inf.qualsOfGlobal(P->findGlobal("a")).empty());
  EXPECT_TRUE(Inf.mayBeNull(Inf.qualsOfGlobal(P->findGlobal("a"))[0]));
  EXPECT_FALSE(Inf.mayBeNull(Inf.qualsOfGlobal(P->findGlobal("b"))[0]));
}

TEST_F(QualTest, SeedNullInjectsTaint) {
  // MIXY's symbolic-to-typed translation path (Section 4.1).
  Diags.clear();
  const CProgram *P = parseC("void free_ptr(int * nonnull p);\n"
                             "int *x;\n"
                             "void f(void) { free_ptr(x); }",
                             Ctx, Diags);
  ASSERT_NE(P, nullptr);
  QualInference Inf(*P, Ctx, Diags);
  Inf.analyzeAll();
  Inf.solve();
  EXPECT_EQ(Inf.violationCount(), 0u);
  Inf.seedNull(Inf.qualsOfGlobal(P->findGlobal("x"))[0], "symbolic result",
               mix::SourceLoc());
  Inf.solve();
  EXPECT_EQ(Inf.violationCount(), 1u);
}

TEST_F(QualTest, AliasClassUnification) {
  // MIXY's alias restoration (Section 4.2): unifying p and q lets taint
  // flow between them.
  Diags.clear();
  const CProgram *P = parseC("void free_ptr(int * nonnull p);\n"
                             "int *p; int *q;\n"
                             "void f(void) { p = NULL; free_ptr(q); }",
                             Ctx, Diags);
  ASSERT_NE(P, nullptr);
  QualInference Inf(*P, Ctx, Diags);
  Inf.analyzeAll();
  Inf.solve();
  EXPECT_EQ(Inf.violationCount(), 0u);
  CVarRef Class[] = {{nullptr, P->findGlobal("p")->slot()},
                     {nullptr, P->findGlobal("q")->slot()}};
  Inf.unifyAliasClass(Class);
  Inf.solve();
  EXPECT_EQ(Inf.violationCount(), 1u);
}
