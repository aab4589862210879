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
    P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return nullptr;
    Analysis = std::make_unique<PointsToAnalysis>(*P, Ctx, Diags);
    Analysis->run();
    return P;
  }

  /// The storage cell of global \p Name.
  PointsToAnalysis::CellId global(const std::string &Name) {
    return Analysis->cellOfGlobal(P->findGlobal(Name));
  }
  /// The storage cell of local \p Name of function \p Func.
  PointsToAnalysis::CellId local(const std::string &Func,
                                 const std::string &Name) {
    const CFuncDecl *F = P->findFunc(Func);
    for (unsigned S = 0; S != F->numSlots(); ++S)
      if (F->slotName(S) == Name)
        return Analysis->cellOfLocal(F, S);
    ADD_FAILURE() << Func << " has no local " << Name;
    return PointsToAnalysis::NoCell;
  }
  /// The variables of \p Cell's class, as describe() names them.
  std::vector<std::string> members(PointsToAnalysis::CellId Cell) {
    std::vector<std::string> Out;
    for (CVarRef V : Analysis->variablesInClass(Cell))
      Out.push_back(V.Func ? V.Func->name() + "::" + V.Func->slotName(V.Slot)
                           : "global::" + *P->globalSlots()[V.Slot].Name);
    return Out;
  }

  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = nullptr;
  std::unique_ptr<PointsToAnalysis> Analysis;
};

} // namespace

TEST_F(PointsToTest, AddressOfUnifiesTarget) {
  const CProgram *P = analyze("int x; int *p;\n"
                              "void f(void) { p = &x; }");
  ASSERT_NE(P, nullptr);
  auto PCell = global("p");
  auto XCell = global("x");
  EXPECT_EQ(Analysis->pointsTo(PCell), Analysis->find(XCell));
}

TEST_F(PointsToTest, AssignmentUnifiesPointers) {
  const CProgram *P = analyze("int x; int *p; int *q;\n"
                              "void f(void) { p = &x; q = p; }");
  ASSERT_NE(P, nullptr);
  auto PCell = global("p");
  auto QCell = global("q");
  // Steensgaard unifies the two pointers' targets.
  EXPECT_EQ(Analysis->pointsTo(PCell), Analysis->pointsTo(QCell));
  EXPECT_TRUE(Analysis->mayAlias(Analysis->pointsTo(PCell),
                                 global("x")));
}

TEST_F(PointsToTest, UnrelatedPointersStaySeparate) {
  const CProgram *P = analyze("int x; int y; int *p; int *q;\n"
                              "void f(void) { p = &x; q = &y; }");
  ASSERT_NE(P, nullptr);
  auto PT = Analysis->pointsTo(global("p"));
  auto QT = Analysis->pointsTo(global("q"));
  EXPECT_NE(PT, QT);
  EXPECT_FALSE(Analysis->mayAlias(PT, QT));
}

TEST_F(PointsToTest, SteensgaardConflatesAfterJoin) {
  // The classic imprecision: p = &x; p = &y unifies x and y.
  const CProgram *P = analyze("int x; int y; int *p;\n"
                              "void f(void) { p = &x; p = &y; }");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Analysis->mayAlias(global("x"),
                                 global("y")));
}

TEST_F(PointsToTest, MallocSitesAreDistinct) {
  const CProgram *P = analyze(
      "struct foo { int a; };\n"
      "void f(void) {\n"
      "  struct foo *p = (struct foo*) malloc(sizeof(struct foo));\n"
      "  struct foo *q = (struct foo*) malloc(sizeof(struct foo));\n"
      "}");
  ASSERT_NE(P, nullptr);
  auto PT = Analysis->pointsTo(local("f", "p"));
  auto QT = Analysis->pointsTo(local("f", "q"));
  ASSERT_NE(PT, PointsToAnalysis::NoCell);
  ASSERT_NE(QT, PointsToAnalysis::NoCell);
  EXPECT_NE(PT, QT);
}

TEST_F(PointsToTest, CallBindsArgumentsToParameters) {
  const CProgram *P = analyze("int x;\n"
                              "int *id(int *a) { return a; }\n"
                              "void f(void) { int *r = id(&x); }");
  ASSERT_NE(P, nullptr);
  auto RT = Analysis->pointsTo(local("f", "r"));
  EXPECT_EQ(RT, Analysis->find(global("x")));
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
  EXPECT_TRUE(Analysis->mayAlias(global("x"),
                                 global("y")));
}

TEST_F(PointsToTest, DerefAssignment) {
  const CProgram *P = analyze("int x; int *p; int **pp;\n"
                              "void f(void) { pp = &p; *pp = &x; }");
  ASSERT_NE(P, nullptr);
  // *pp and p share a cell, so p now points to x.
  EXPECT_EQ(Analysis->pointsTo(global("p")),
            Analysis->find(global("x")));
}

TEST_F(PointsToTest, StructFieldsAreFieldInsensitive) {
  const CProgram *P = analyze(
      "struct s { int *a; int *b; };\n"
      "int x; struct s g;\n"
      "void f(void) { g.a = &x; }");
  ASSERT_NE(P, nullptr);
  // Field-insensitive: the struct is one cell; both fields alias.
  auto GCell = global("g");
  EXPECT_EQ(Analysis->pointsTo(GCell),
            Analysis->find(global("x")));
}

TEST_F(PointsToTest, FunctionPointerCall) {
  const CProgram *P = analyze(
      "int x;\n"
      "void target(int *p) { }\n"
      "void (*fp)(int *);\n"
      "void f(void) { fp = target; (*fp)(&x); }");
  ASSERT_NE(P, nullptr);
  // The indirect call binds &x to target's parameter.
  auto ParamTarget = Analysis->pointsTo(local("target", "p"));
  EXPECT_EQ(ParamTarget, Analysis->find(global("x")));
}

TEST_F(PointsToTest, VariablesInClassReporting) {
  const CProgram *P = analyze("int x; int y; int *p; int *q;\n"
                              "void f(void) { p = &x; p = &y; q = p; }");
  ASSERT_NE(P, nullptr);
  // p and q remain distinct storage, but their shared target class holds
  // both possible pointees.
  EXPECT_NE(Analysis->find(global("p")),
            Analysis->find(global("q")));
  EXPECT_EQ(members(Analysis->pointsTo(global("q"))),
            (std::vector<std::string>{"global::x", "global::y"}));
}

TEST_F(PointsToTest, VariablesInClassIsInDeclarationOrder) {
  // Global-level names first, by name; then each function's locals,
  // functions in declaration order and names in byte order.
  const CProgram *P = analyze("int zeta; int alpha; int *p;\n"
                              "void second(void) { int y; int b; p = &y; "
                              "p = &b; }\n"
                              "void first(void) { int x; p = &x; }\n"
                              "void init(void) { p = &zeta; p = &alpha; }");
  ASSERT_NE(P, nullptr);
  auto Target = Analysis->pointsTo(global("p"));
  std::vector<std::string> Expected{"global::alpha", "global::zeta",
                                    "second::b", "second::y", "first::x"};
  EXPECT_EQ(members(Target), Expected);
  EXPECT_EQ(Analysis->describe(Target),
            "{global::alpha, global::zeta, second::b, second::y, first::x}");
}

TEST_F(PointsToTest, IndirectCallReturnsEveryTargetsValue) {
  // fp may hold f or g, so r may point wherever either returns.
  const CProgram *P = analyze("int ga; int gb; int *a; int *b; int *r;\n"
                              "int *f(void) { return a; }\n"
                              "int *g(void) { return b; }\n"
                              "int *(*fp)(void);\n"
                              "void main(void) { a = &ga; b = &gb; fp = f; "
                              "fp = g; r = fp(); }");
  ASSERT_NE(P, nullptr);
  auto Target = Analysis->pointsTo(global("r"));
  EXPECT_EQ(Target, Analysis->find(global("ga")));
  EXPECT_EQ(Target, Analysis->find(global("gb")));
  EXPECT_EQ(members(Target),
            (std::vector<std::string>{"global::ga", "global::gb"}));
}

TEST_F(PointsToTest, ProgramWithoutFunctionsHasNoCells) {
  // Nothing makes a cell here; the count must read zero, not wrap.
  const CProgram *P = analyze("int x; int *p;");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(Analysis->numCells(), 0u);
  EXPECT_EQ(global("p"), PointsToAnalysis::NoCell);
  EXPECT_TRUE(Analysis->variablesInClass(PointsToAnalysis::NoCell).empty());
  EXPECT_EQ(Analysis->describe(PointsToAnalysis::NoCell), "{}");
}

TEST_F(PointsToTest, DescribeIsReadable) {
  const CProgram *P = analyze("int x; int *p; int *q;\n"
                              "void f(void) { p = &x; q = malloc(4); }");
  ASSERT_NE(P, nullptr);
  std::string D = Analysis->describe(global("x"));
  EXPECT_EQ(D, "{global::x}");
  // A class without named variables (here the heap cell q points to)
  // gets a short fixed name, whatever chain of pointers reaches it.
  auto Heap = Analysis->pointsTo(global("q"));
  EXPECT_EQ(Analysis->describe(Heap),
            "{<cell " + std::to_string(Heap) + ">}");
}
