//===--- PointsToTest.cpp - Tests for the points-to analysis --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "ptranal/PointsTo.h"

#include <gtest/gtest.h>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

class PointsToTest : public ::testing::Test {
protected:
  const CProgram *analyze(std::string_view Source) {
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return nullptr;
    Analysis = std::make_unique<PointsToAnalysis>(*P, Ctx, Diags);
    Analysis->run();
    return P;
  }

  CAstContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<PointsToAnalysis> Analysis;
};

} // namespace

TEST_F(PointsToTest, AddressOfUnifiesTarget) {
  const CProgram *P = analyze("int x; int *p;\n"
                              "void f(void) { p = &x; }");
  ASSERT_NE(P, nullptr);
  auto PCell = Analysis->cellOfVar(nullptr, "p");
  auto XCell = Analysis->cellOfVar(nullptr, "x");
  EXPECT_EQ(Analysis->pointsTo(PCell), Analysis->find(XCell));
}

TEST_F(PointsToTest, AssignmentUnifiesPointers) {
  const CProgram *P = analyze("int x; int *p; int *q;\n"
                              "void f(void) { p = &x; q = p; }");
  ASSERT_NE(P, nullptr);
  auto PCell = Analysis->cellOfVar(nullptr, "p");
  auto QCell = Analysis->cellOfVar(nullptr, "q");
  // Steensgaard unifies the two pointers' targets.
  EXPECT_EQ(Analysis->pointsTo(PCell), Analysis->pointsTo(QCell));
  EXPECT_TRUE(Analysis->mayAlias(Analysis->pointsTo(PCell),
                                 Analysis->cellOfVar(nullptr, "x")));
}

TEST_F(PointsToTest, UnrelatedPointersStaySeparate) {
  const CProgram *P = analyze("int x; int y; int *p; int *q;\n"
                              "void f(void) { p = &x; q = &y; }");
  ASSERT_NE(P, nullptr);
  auto PT = Analysis->pointsTo(Analysis->cellOfVar(nullptr, "p"));
  auto QT = Analysis->pointsTo(Analysis->cellOfVar(nullptr, "q"));
  EXPECT_NE(PT, QT);
  EXPECT_FALSE(Analysis->mayAlias(PT, QT));
}

TEST_F(PointsToTest, SteensgaardConflatesAfterJoin) {
  // The classic imprecision: p = &x; p = &y unifies x and y.
  const CProgram *P = analyze("int x; int y; int *p;\n"
                              "void f(void) { p = &x; p = &y; }");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Analysis->mayAlias(Analysis->cellOfVar(nullptr, "x"),
                                 Analysis->cellOfVar(nullptr, "y")));
}

TEST_F(PointsToTest, MallocSitesAreDistinct) {
  const CProgram *P = analyze(
      "struct foo { int a; };\n"
      "void f(void) {\n"
      "  struct foo *p = (struct foo*) malloc(sizeof(struct foo));\n"
      "  struct foo *q = (struct foo*) malloc(sizeof(struct foo));\n"
      "}");
  ASSERT_NE(P, nullptr);
  const CFuncDecl *F = P->findFunc("f");
  auto PT = Analysis->pointsTo(Analysis->cellOfVar(F, "p"));
  auto QT = Analysis->pointsTo(Analysis->cellOfVar(F, "q"));
  ASSERT_NE(PT, PointsToAnalysis::NoCell);
  ASSERT_NE(QT, PointsToAnalysis::NoCell);
  EXPECT_NE(PT, QT);
}

TEST_F(PointsToTest, CallBindsArgumentsToParameters) {
  const CProgram *P = analyze("int x;\n"
                              "int *id(int *a) { return a; }\n"
                              "void f(void) { int *r = id(&x); }");
  ASSERT_NE(P, nullptr);
  const CFuncDecl *F = P->findFunc("f");
  auto RT = Analysis->pointsTo(Analysis->cellOfVar(F, "r"));
  EXPECT_EQ(RT, Analysis->find(Analysis->cellOfVar(nullptr, "x")));
}

TEST_F(PointsToTest, ContextInsensitivityConflatesCallSites) {
  // The imprecision the paper highlights in Section 4.6: a
  // context-insensitive analysis conflates distinct calls through the
  // same function.
  const CProgram *P = analyze("int x; int y;\n"
                              "int *id(int *a) { return a; }\n"
                              "void f(void) { int *r = id(&x); "
                              "int *s = id(&y); }");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Analysis->mayAlias(Analysis->cellOfVar(nullptr, "x"),
                                 Analysis->cellOfVar(nullptr, "y")));
}

TEST_F(PointsToTest, DerefAssignment) {
  const CProgram *P = analyze("int x; int *p; int **pp;\n"
                              "void f(void) { pp = &p; *pp = &x; }");
  ASSERT_NE(P, nullptr);
  // *pp and p share a cell, so p now points to x.
  EXPECT_EQ(Analysis->pointsTo(Analysis->cellOfVar(nullptr, "p")),
            Analysis->find(Analysis->cellOfVar(nullptr, "x")));
}

TEST_F(PointsToTest, StructFieldsAreFieldInsensitive) {
  const CProgram *P = analyze(
      "struct s { int *a; int *b; };\n"
      "int x; struct s g;\n"
      "void f(void) { g.a = &x; }");
  ASSERT_NE(P, nullptr);
  // Field-insensitive: the struct is one cell; both fields alias.
  auto GCell = Analysis->cellOfVar(nullptr, "g");
  EXPECT_EQ(Analysis->pointsTo(GCell),
            Analysis->find(Analysis->cellOfVar(nullptr, "x")));
}

TEST_F(PointsToTest, FunctionPointerCall) {
  const CProgram *P = analyze(
      "int x;\n"
      "void target(int *p) { }\n"
      "void (*fp)(int *);\n"
      "void f(void) { fp = target; (*fp)(&x); }");
  ASSERT_NE(P, nullptr);
  // The indirect call binds &x to target's parameter.
  const CFuncDecl *Target = P->findFunc("target");
  auto ParamTarget = Analysis->pointsTo(Analysis->cellOfVar(Target, "p"));
  EXPECT_EQ(ParamTarget, Analysis->find(Analysis->cellOfVar(nullptr, "x")));
}

TEST_F(PointsToTest, VariablesInClassReporting) {
  const CProgram *P = analyze("int x; int y; int *p; int *q;\n"
                              "void f(void) { p = &x; p = &y; q = p; }");
  ASSERT_NE(P, nullptr);
  // p and q remain distinct storage, but their shared target class holds
  // both possible pointees.
  EXPECT_NE(Analysis->find(Analysis->cellOfVar(nullptr, "p")),
            Analysis->find(Analysis->cellOfVar(nullptr, "q")));
  auto Members = Analysis->variablesInClass(
      Analysis->pointsTo(Analysis->cellOfVar(nullptr, "q")));
  bool SawX = false, SawY = false;
  for (const auto &[Func, Name] : Members) {
    if (Name == "x")
      SawX = true;
    if (Name == "y")
      SawY = true;
  }
  EXPECT_TRUE(SawX);
  EXPECT_TRUE(SawY);
}

TEST_F(PointsToTest, DescribeIsReadable) {
  const CProgram *P = analyze("int x; int *p; int *q;\n"
                              "void f(void) { p = &x; q = malloc(4); }");
  ASSERT_NE(P, nullptr);
  std::string D = Analysis->describe(Analysis->cellOfVar(nullptr, "x"));
  EXPECT_EQ(D, "{global::x}");
  // A class without named variables (here the heap cell q points to)
  // gets a short fixed name, whatever chain of pointers reaches it.
  auto Heap = Analysis->pointsTo(Analysis->cellOfVar(nullptr, "q"));
  EXPECT_EQ(Analysis->describe(Heap),
            "{<cell " + std::to_string(Heap) + ">}");
}
