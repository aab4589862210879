//===--- CSymValueTest.cpp - Tests for the mini-C value algebra ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "csym/CSymExecutor.h"
#include "solver/SmtSolver.h"

#include <gtest/gtest.h>

#include <random>
#include <type_traits>

using namespace mix::c;
using mix::DiagnosticEngine;
using mix::smt::Term;
using mix::smt::TermArena;
using mix::smt::TermKind;

// Values and cases are handles (DESIGN.md "Flat path state"): copying a
// value, a store cell or a case list never allocates.
static_assert(std::is_trivially_copyable_v<PtrTarget>);
static_assert(std::is_trivially_copyable_v<PtrCase>);
static_assert(std::is_trivially_copyable_v<CSymValue>);
static_assert(sizeof(CSymValue) == 16);

namespace {

/// Field paths and pointer case lists belong to an executor, so the
/// values under test are made through one (over an empty program).
class CSymValueTest : public ::testing::Test {
protected:
  CSymValueTest()
      : Program(parseC("", Ctx, Diags)), Exec(*Program, Ctx, Diags, A, Solver),
        P(Exec.ptrCases()), Fields(Exec.fieldPaths()) {}

  CAstContext Ctx;
  DiagnosticEngine Diags;
  TermArena A;
  mix::smt::SmtSolver Solver{A};
  const CProgram *Program;
  CSymExecutor Exec;
  PtrCaseArena &P;
  FieldPaths &Fields;
};

} // namespace

TEST_F(CSymValueTest, ScalarBasics) {
  CSymValue V = CSymValue::scalar(A.intConst(42));
  EXPECT_TRUE(V.isScalar());
  EXPECT_EQ(V.scalarTerm()->value(), 42);
}

TEST_F(CSymValueTest, NullPointerGuards) {
  CSymValue Null = CSymValue::nullPointer(P, A);
  EXPECT_EQ(Null.nullGuard(A), A.trueTerm());
  EXPECT_EQ(Null.nonNullGuard(A), A.falseTerm());

  CSymValue Obj = Exec.pointerTo(PtrTarget::object(7));
  EXPECT_EQ(Obj.nullGuard(A), A.falseTerm());
  EXPECT_EQ(Obj.nonNullGuard(A), A.trueTerm());
}

TEST_F(CSymValueTest, MaybeNullGuardsPartition) {
  const Term *Alpha = A.freshBoolVar("a");
  CSymValue V = CSymValue::pointer(P, {{Alpha, PtrTarget::object(3)},
                                       {A.notTerm(Alpha), PtrTarget::null()}});
  EXPECT_EQ(V.nullGuard(A), A.notTerm(Alpha));
  EXPECT_EQ(V.nonNullGuard(A), Alpha);
}

TEST_F(CSymValueTest, IteOnScalars) {
  const Term *C = A.freshBoolVar("c");
  CSymValue V = CSymValue::ite(A, P, C, CSymValue::scalar(A.intConst(1)),
                               CSymValue::scalar(A.intConst(2)));
  ASSERT_TRUE(V.isScalar());
  EXPECT_EQ(V.scalarTerm()->kind(), TermKind::IteInt);
}

TEST_F(CSymValueTest, IteWithConstantConditionPicksBranch) {
  CSymValue Then = CSymValue::scalar(A.intConst(1));
  CSymValue Else = CSymValue::scalar(A.intConst(2));
  CSymValue V = CSymValue::ite(A, P, A.trueTerm(), Then, Else);
  EXPECT_EQ(V.scalarTerm()->value(), 1);
  V = CSymValue::ite(A, P, A.falseTerm(), Then, Else);
  EXPECT_EQ(V.scalarTerm()->value(), 2);
}

TEST_F(CSymValueTest, IteOnPointersMergesGuardedCases) {
  const Term *C = A.freshBoolVar("c");
  CSymValue Ptr1 = Exec.pointerTo(PtrTarget::object(1));
  CSymValue Ptr2 = Exec.pointerTo(PtrTarget::object(2));
  CSymValue V = CSymValue::ite(A, P, C, Ptr1, Ptr2);
  ASSERT_TRUE(V.isPtr());
  ASSERT_EQ(V.cases().size(), 2u);
  EXPECT_EQ(V.cases()[0].Guard, C);
  EXPECT_EQ(V.cases()[0].Target.Loc, 1u);
  EXPECT_EQ(V.cases()[1].Guard, A.notTerm(C));
  EXPECT_EQ(V.cases()[1].Target.Loc, 2u);
  // The operands' lists are immutable: merging made a new one.
  EXPECT_EQ(Ptr1.cases().size(), 1u);
  EXPECT_EQ(Ptr1.cases()[0].Guard, A.trueTerm());
}

TEST_F(CSymValueTest, IteCoalescesIdenticalTargets) {
  // ite(c, p, p) where both sides may be null: the cases fuse by target
  // with disjoined guards rather than duplicating.
  const Term *C = A.freshBoolVar("c");
  const Term *G = A.freshBoolVar("g");
  CSymValue Ptr = CSymValue::pointer(
      P, {{G, PtrTarget::object(5)}, {A.notTerm(G), PtrTarget::null()}});
  CSymValue V = CSymValue::ite(A, P, C, Ptr, Ptr);
  ASSERT_TRUE(V.isPtr());
  EXPECT_EQ(V.cases().size(), 2u);
  // The room the fused cases did not use went back to the arena.
  CSymValue Next = Exec.pointerTo(PtrTarget::object(6));
  EXPECT_EQ(Next.cases().data(), V.cases().data() + 2);
}

TEST_F(CSymValueTest, FieldsDistinguishTargets) {
  FieldId Bar = Fields.child(WholeObject, "bar");
  FieldId Baz = Fields.child(WholeObject, "baz");
  PtrTarget A1 = PtrTarget::object(3, Bar);
  PtrTarget A2 = PtrTarget::object(3, Baz);
  PtrTarget A3 = PtrTarget::object(3, Fields.child(WholeObject, "bar"));
  EXPECT_FALSE(A1 == A2);
  EXPECT_TRUE(A1 == A3);
  EXPECT_FALSE(A1 == PtrTarget::object(3));
}

TEST_F(CSymValueTest, FieldPathsInternEachPathOnce) {
  FieldId A1 = Fields.child(WholeObject, "a");
  FieldId AB = Fields.child(A1, "b");
  EXPECT_NE(A1, WholeObject);
  EXPECT_EQ(Fields.child(WholeObject, "a"), A1);
  EXPECT_EQ(Fields.child(A1, "b"), AB);
  EXPECT_EQ(Fields.parent(AB), A1);
  EXPECT_EQ(Fields.lastName(AB), "b");
  EXPECT_EQ(Fields.spelling(AB), "a.b");
  EXPECT_EQ(Fields.spelling(WholeObject), "");
  // "b" alone is another path than "a.b".
  FieldId B = Fields.child(WholeObject, "b");
  EXPECT_NE(B, AB);
  EXPECT_EQ(Fields.spelling(B), "b");
  // Names longer than a short-string buffer, added before many others,
  // still find their paths.
  std::string Long = "a_field_name_longer_than_sixteen_bytes";
  FieldId L = Fields.child(AB, Long);
  for (int I = 0; I != 100; ++I)
    Fields.child(WholeObject, "f" + std::to_string(I));
  EXPECT_EQ(Fields.child(AB, std::string(Long)), L);
  EXPECT_EQ(Fields.spelling(L), "a.b." + Long);
}

TEST_F(CSymValueTest, StoreRoundTrips) {
  CStore S;
  CellKey K{4, Fields.child(WholeObject, "field")};
  EXPECT_FALSE(S.has(K));
  EXPECT_EQ(S.get(K), nullptr);
  S.set(K, CSymValue::scalar(A.intConst(9)));
  ASSERT_TRUE(S.has(K));
  EXPECT_EQ(S.get(K)->scalarTerm()->value(), 9);
  // The whole object is another cell.
  EXPECT_FALSE(S.has({4}));
  S.clear();
  EXPECT_FALSE(S.has(K));
}

TEST_F(CSymValueTest, StoreFindsEveryCellWhateverTheInsertionOrder) {
  // The store is one array sorted by cell key; inserting out of order
  // and overwriting must keep every cell findable.
  std::mt19937 Rng(7);
  std::vector<CellKey> Keys;
  for (LocId Loc = 1; Loc != 9; ++Loc)
    for (FieldId F = 0; F != 4; ++F)
      Keys.push_back({Loc, F});
  std::shuffle(Keys.begin(), Keys.end(), Rng);
  CStore S;
  for (size_t I = 0; I != Keys.size(); ++I)
    S.set(Keys[I], CSymValue::scalar(A.intConst((long long)I)));
  S.set(Keys[5], CSymValue::scalar(A.intConst(-1)));
  EXPECT_EQ(S.size(), Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    const CSymValue *V = S.get(Keys[I]);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(V->scalarTerm()->value(), I == 5 ? -1 : (long long)I);
  }
  EXPECT_FALSE(S.has({9}));
  EXPECT_FALSE(S.has({1, 4}));
}

TEST_F(CSymValueTest, Rendering) {
  CSymValue Null = CSymValue::nullPointer(P, A);
  EXPECT_NE(Null.str(Fields).find("null"), std::string::npos);
  CSymValue Obj =
      Exec.pointerTo(PtrTarget::object(3, Fields.child(WholeObject, "f")));
  EXPECT_NE(Obj.str(Fields).find("obj3.f"), std::string::npos);
}
