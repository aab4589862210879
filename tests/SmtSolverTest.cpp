//===--- SmtSolverTest.cpp - Tests for the DPLL(T) facade -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/SmtSolver.h"

#include <gtest/gtest.h>

#include <random>

using namespace mix::smt;

namespace {

class SmtTest : public ::testing::Test {
protected:
  TermArena A;
  SmtSolver S{A};
};

} // namespace

TEST_F(SmtTest, Constants) {
  EXPECT_EQ(S.checkSat(A.trueTerm()), SolveResult::Sat);
  EXPECT_EQ(S.checkSat(A.falseTerm()), SolveResult::Unsat);
}

TEST_F(SmtTest, PureBoolean) {
  const Term *P = A.freshBoolVar("p");
  const Term *Q = A.freshBoolVar("q");
  EXPECT_EQ(S.checkSat(A.andTerm(P, Q)), SolveResult::Sat);
  EXPECT_EQ(S.checkSat(A.andTerm(P, A.notTerm(P))), SolveResult::Unsat);
  EXPECT_EQ(S.checkSat(A.orTerm(P, A.notTerm(P))), SolveResult::Sat);
  EXPECT_TRUE(S.isDefinitelyValid(A.orTerm(P, A.notTerm(P))));
  EXPECT_FALSE(S.isDefinitelyValid(P));
}

TEST_F(SmtTest, IntegerComparisons) {
  const Term *X = A.freshIntVar("x");
  // x < 0 and x > 0: unsat.
  const Term *F =
      A.andTerm(A.lt(X, A.intConst(0)), A.lt(A.intConst(0), X));
  EXPECT_EQ(S.checkSat(F), SolveResult::Unsat);
  // x < 1 and x > -1 forces x = 0: sat, and x != 0 on top is unsat.
  const Term *G =
      A.andTerm(A.lt(X, A.intConst(1)), A.lt(A.intConst(-1), X));
  EXPECT_EQ(S.checkSat(G), SolveResult::Sat);
  const Term *H = A.andTerm(G, A.notTerm(A.eqInt(X, A.intConst(0))));
  EXPECT_EQ(S.checkSat(H), SolveResult::Unsat);
}

TEST_F(SmtTest, ArithmeticStructure) {
  const Term *X = A.freshIntVar("x");
  const Term *Y = A.freshIntVar("y");
  // x + y = 4 and x - y = 2 has the solution x = 3, y = 1.
  const Term *F = A.andTerm(A.eqInt(A.add(X, Y), A.intConst(4)),
                            A.eqInt(A.sub(X, Y), A.intConst(2)));
  EXPECT_EQ(S.checkSat(F), SolveResult::Sat);
  // ... and adding x = 0 contradicts.
  EXPECT_EQ(S.checkSat(A.andTerm(F, A.eqInt(X, A.intConst(0)))),
            SolveResult::Unsat);
  // x + y = 3 and x - y = 0 has no integer solution (x = y = 1.5).
  const Term *G = A.andTerm(A.eqInt(A.add(X, Y), A.intConst(3)),
                            A.eqInt(A.sub(X, Y), A.intConst(0)));
  EXPECT_EQ(S.checkSat(G), SolveResult::Unsat);
}

TEST_F(SmtTest, MixedBooleanTheoryInterplay) {
  const Term *X = A.freshIntVar("x");
  const Term *P = A.freshBoolVar("p");
  // (p -> x > 5) and (!p -> x < -5) and -5 <= x <= 5 forces a conflict in
  // both boolean polarities... except the bounds allow x = 5 and x = -5?
  // Using strict bounds -5 < x < 5 makes it genuinely unsat.
  const Term *F = A.andList({
      A.implies(P, A.lt(A.intConst(5), X)),
      A.implies(A.notTerm(P), A.lt(X, A.intConst(-5))),
      A.lt(A.intConst(-5), X),
      A.lt(X, A.intConst(5)),
  });
  EXPECT_EQ(S.checkSat(F), SolveResult::Unsat);
  // Relaxing one bound opens a model via p = true.
  const Term *G = A.andList({
      A.implies(P, A.lt(A.intConst(5), X)),
      A.implies(A.notTerm(P), A.lt(X, A.intConst(-5))),
      A.lt(A.intConst(-5), X),
  });
  EXPECT_EQ(S.checkSat(G), SolveResult::Sat);
}

TEST_F(SmtTest, IteIntLowering) {
  const Term *C = A.freshBoolVar("c");
  const Term *X = A.freshIntVar("x");
  // y = ite(c, 1, 2); y = 3 is unsat; y = 2 forces !c.
  const Term *Ite = A.iteInt(C, A.intConst(1), A.intConst(2));
  EXPECT_EQ(S.checkSat(A.eqInt(Ite, A.intConst(3))), SolveResult::Unsat);
  EXPECT_EQ(S.checkSat(A.eqInt(Ite, A.intConst(2))), SolveResult::Sat);
  EXPECT_EQ(
      S.checkSat(A.andTerm(A.eqInt(Ite, A.intConst(2)), C)),
      SolveResult::Unsat);
  // Nested ite with a variable branch.
  const Term *Nested = A.iteInt(C, X, A.iteInt(C, A.intConst(0), X));
  EXPECT_EQ(S.checkSat(A.eqInt(Nested, X)), SolveResult::Sat);
}

TEST_F(SmtTest, ExhaustivenessPattern) {
  // This is the shape of the mix rule's exhaustive() check:
  // guards g, !g from SEIf-True/False must cover all valuations.
  const Term *X = A.freshIntVar("x");
  const Term *G1 = A.lt(A.intConst(0), X);
  const Term *G2 = A.notTerm(A.lt(A.intConst(0), X));
  EXPECT_TRUE(S.isDefinitelyValid(A.orTerm(G1, G2)));

  // Three-way split on sign: also exhaustive.
  const Term *Pos = A.lt(A.intConst(0), X);
  const Term *Zero = A.eqInt(X, A.intConst(0));
  const Term *Neg = A.lt(X, A.intConst(0));
  EXPECT_TRUE(S.isDefinitelyValid(A.orList({Pos, Zero, Neg})));

  // Dropping a case is detected as non-exhaustive.
  EXPECT_FALSE(S.isDefinitelyValid(A.orList({Pos, Neg})));
}

TEST_F(SmtTest, PathConditionFeasibility) {
  // Typical symbolic-executor query: is the path condition satisfiable?
  const Term *X = A.freshIntVar("x");
  const Term *Path =
      A.andList({A.lt(A.intConst(0), X), A.lt(X, A.intConst(10)),
                 A.eqInt(A.add(X, X), A.intConst(8))});
  EXPECT_TRUE(S.isPossiblySat(Path));
  const Term *Infeasible =
      A.andList({A.lt(A.intConst(0), X), A.lt(X, A.intConst(4)),
                 A.eqInt(A.add(X, X), A.intConst(9))});
  EXPECT_TRUE(S.isDefinitelyUnsat(Infeasible));
}

TEST_F(SmtTest, BoolEquality) {
  const Term *P = A.freshBoolVar("p");
  const Term *Q = A.freshBoolVar("q");
  const Term *F = A.andList({A.eqBool(P, Q), P, A.notTerm(Q)});
  EXPECT_EQ(S.checkSat(F), SolveResult::Unsat);
  EXPECT_TRUE(S.isDefinitelyValid(A.eqBool(P, P)));
}

TEST_F(SmtTest, StatisticsAdvance) {
  // A conjunction of literals (here, one literal) has one propositional
  // model, so it is decided by one theory check and no SAT search.
  const Term *X = A.freshIntVar("x");
  const Term *Y = A.freshIntVar("y");
  SmtSolver::Stats Before = S.stats();
  EXPECT_EQ(S.checkSat(A.lt(X, A.intConst(0))), SolveResult::Sat);
  EXPECT_EQ(S.stats().Queries, Before.Queries + 1);
  EXPECT_EQ(S.stats().SatCalls, Before.SatCalls);
  EXPECT_EQ(S.stats().TheoryChecks, Before.TheoryChecks + 1);

  // A disjunction takes the DPLL(T) loop.
  Before = S.stats();
  EXPECT_EQ(S.checkSat(A.orTerm(A.lt(X, A.intConst(0)), A.lt(Y, X))),
            SolveResult::Sat);
  EXPECT_EQ(S.stats().Queries, Before.Queries + 1);
  EXPECT_GT(S.stats().SatCalls, Before.SatCalls);
}

TEST(SmtWorkCountersTest, RepeatExactlyAcrossIdenticalRuns) {
  // The solver.sat.* and solver.theory.checks counters measure work, so
  // two identical query sequences on fresh solvers must book identical
  // values. The first query needs theory conflicts and SAT conflicts to
  // refute, so every counter moves.
  auto Run = [] {
    mix::obs::MetricsRegistry Reg;
    SmtOptions Opts;
    Opts.Metrics = &Reg;
    TermArena A;
    SmtSolver S(A, Opts);
    const Term *X = A.freshIntVar("x");
    const Term *Y = A.freshIntVar("y");
    const Term *P = A.freshBoolVar("p");
    EXPECT_EQ(S.checkSat(A.andList({A.orTerm(P, A.lt(X, Y)),
                                    A.orTerm(A.notTerm(P), A.lt(Y, X)),
                                    A.eqInt(X, Y), P})),
              SolveResult::Unsat);
    EXPECT_EQ(S.checkSat(A.lt(X, A.iteInt(P, Y, A.intConst(3)))),
              SolveResult::Sat);
    std::vector<uint64_t> Out;
    for (const char *Name : {"solver.sat.vars", "solver.sat.clauses",
                             "solver.sat.conflicts", "solver.sat.decisions",
                             "solver.theory.checks"})
      Out.push_back(Reg.counterValue(Name));
    return Out;
  };
  std::vector<uint64_t> First = Run();
  EXPECT_EQ(First, Run());
  for (uint64_t V : First)
    EXPECT_GT(V, 0u);
}

namespace {

/// Brute-force evaluation of a term under small-domain assignments.
long long evalInt(const Term *T, const std::vector<long long> &IntVals,
                  const std::vector<bool> &BoolVals);

bool evalBool(const Term *T, const std::vector<long long> &IntVals,
              const std::vector<bool> &BoolVals) {
  switch (T->kind()) {
  case TermKind::BoolConst:
    return T->value() != 0;
  case TermKind::BoolVar:
    return BoolVals[T->varId()];
  case TermKind::EqInt:
    return evalInt(T->operand(0), IntVals, BoolVals) ==
           evalInt(T->operand(1), IntVals, BoolVals);
  case TermKind::Lt:
    return evalInt(T->operand(0), IntVals, BoolVals) <
           evalInt(T->operand(1), IntVals, BoolVals);
  case TermKind::Le:
    return evalInt(T->operand(0), IntVals, BoolVals) <=
           evalInt(T->operand(1), IntVals, BoolVals);
  case TermKind::EqBool:
    return evalBool(T->operand(0), IntVals, BoolVals) ==
           evalBool(T->operand(1), IntVals, BoolVals);
  case TermKind::Not:
    return !evalBool(T->operand(0), IntVals, BoolVals);
  case TermKind::And:
    return evalBool(T->operand(0), IntVals, BoolVals) &&
           evalBool(T->operand(1), IntVals, BoolVals);
  case TermKind::Or:
    return evalBool(T->operand(0), IntVals, BoolVals) ||
           evalBool(T->operand(1), IntVals, BoolVals);
  case TermKind::IteBool:
    return evalBool(T->operand(0), IntVals, BoolVals)
               ? evalBool(T->operand(1), IntVals, BoolVals)
               : evalBool(T->operand(2), IntVals, BoolVals);
  default:
    ADD_FAILURE() << "unexpected bool term kind";
    return false;
  }
}

long long evalInt(const Term *T, const std::vector<long long> &IntVals,
                  const std::vector<bool> &BoolVals) {
  switch (T->kind()) {
  case TermKind::IntConst:
    return T->value();
  case TermKind::IntVar:
    return IntVals[T->varId()];
  case TermKind::Add:
    return evalInt(T->operand(0), IntVals, BoolVals) +
           evalInt(T->operand(1), IntVals, BoolVals);
  case TermKind::Sub:
    return evalInt(T->operand(0), IntVals, BoolVals) -
           evalInt(T->operand(1), IntVals, BoolVals);
  case TermKind::Neg:
    return -evalInt(T->operand(0), IntVals, BoolVals);
  case TermKind::MulConst:
    return T->value() * evalInt(T->operand(0), IntVals, BoolVals);
  case TermKind::IteInt:
    return evalBool(T->operand(0), IntVals, BoolVals)
               ? evalInt(T->operand(1), IntVals, BoolVals)
               : evalInt(T->operand(2), IntVals, BoolVals);
  default:
    ADD_FAILURE() << "unexpected int term kind";
    return 0;
  }
}

/// Generates a random term of the given sort over the declared variables.
const Term *randomTerm(TermArena &A, std::mt19937 &Rng, bool WantBool,
                       const std::vector<const Term *> &IntVars,
                       const std::vector<const Term *> &BoolVars,
                       unsigned Depth) {
  if (WantBool) {
    if (Depth == 0) {
      if (Rng() % 2)
        return BoolVars[Rng() % BoolVars.size()];
      return A.boolConst(Rng() % 2 == 0);
    }
    switch (Rng() % 7) {
    case 0:
      return A.notTerm(
          randomTerm(A, Rng, true, IntVars, BoolVars, Depth - 1));
    case 1:
      return A.andTerm(randomTerm(A, Rng, true, IntVars, BoolVars, Depth - 1),
                       randomTerm(A, Rng, true, IntVars, BoolVars, Depth - 1));
    case 2:
      return A.orTerm(randomTerm(A, Rng, true, IntVars, BoolVars, Depth - 1),
                      randomTerm(A, Rng, true, IntVars, BoolVars, Depth - 1));
    case 3:
      return A.eqInt(randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1),
                     randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1));
    case 4:
      return A.lt(randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1),
                  randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1));
    case 5:
      return A.le(randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1),
                  randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1));
    default:
      return BoolVars[Rng() % BoolVars.size()];
    }
  }
  if (Depth == 0) {
    if (Rng() % 2)
      return IntVars[Rng() % IntVars.size()];
    return A.intConst((long long)(Rng() % 7) - 3);
  }
  switch (Rng() % 4) {
  case 0:
    return A.add(randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1),
                 randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1));
  case 1:
    return A.sub(randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1),
                 randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1));
  case 2:
    return A.iteInt(randomTerm(A, Rng, true, IntVars, BoolVars, Depth - 1),
                    randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1),
                    randomTerm(A, Rng, false, IntVars, BoolVars, Depth - 1));
  default:
    return IntVars[Rng() % IntVars.size()];
  }
}

} // namespace

/// Property: checkSat never contradicts brute-force evaluation over a small
/// variable box. (Because FM is conservative, a brute-force witness implies
/// the solver must not answer Unsat; and a solver Unsat implies no witness.)
class SmtRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmtRandomTest, AgreesWithSmallModelSearch) {
  std::mt19937 Rng(GetParam());
  TermArena A;
  SmtSolver S(A);
  for (int Round = 0; Round != 25; ++Round) {
    std::vector<const Term *> IntVars = {A.freshIntVar(), A.freshIntVar()};
    std::vector<const Term *> BoolVars = {A.freshBoolVar()};
    const Term *F = randomTerm(A, Rng, true, IntVars, BoolVars, 3);

    // Brute force: int vars over [-4, 4], bool var over {0,1}.
    bool Witness = false;
    for (long long X = -4; X <= 4 && !Witness; ++X)
      for (long long Y = -4; Y <= 4 && !Witness; ++Y)
        for (int B = 0; B != 2 && !Witness; ++B) {
          // Variable ids are allocated per round; only the two most recent
          // int vars and one bool var occur in F.
          std::vector<long long> IntVals(A.numIntVars(), 0);
          std::vector<bool> BoolVals(A.numBoolVars(), false);
          IntVals[IntVars[0]->varId()] = X;
          IntVals[IntVars[1]->varId()] = Y;
          BoolVals[BoolVars[0]->varId()] = B != 0;
          if (evalBool(F, IntVals, BoolVals))
            Witness = true;
        }

    SolveResult R = S.checkSat(F);
    if (Witness) {
      EXPECT_NE(R, SolveResult::Unsat)
          << "refuted a satisfiable formula: " << F->str() << " (seed "
          << GetParam() << " round " << Round << ")";
    }
    if (R == SolveResult::Unsat) {
      EXPECT_FALSE(Witness);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtRandomTest,
                         ::testing::Values(3u, 9u, 27u, 81u, 243u));

// === model extraction =========================================================

TEST_F(SmtTest, ModelForPureBoolean) {
  const Term *P = A.freshBoolVar("p");
  const Term *Q = A.freshBoolVar("q");
  SmtModel M;
  ASSERT_EQ(S.checkSat(A.andTerm(P, A.notTerm(Q)), &M), SolveResult::Sat);
  EXPECT_TRUE(M.boolValue(P->varId()));
  EXPECT_FALSE(M.boolValue(Q->varId()));
  EXPECT_TRUE(M.Complete);
}

TEST_F(SmtTest, ModelForLinearArithmetic) {
  const Term *X = A.freshIntVar("x");
  const Term *Y = A.freshIntVar("y");
  const Term *F = A.andList({
      A.eqInt(A.add(X, Y), A.intConst(10)),
      A.lt(A.intConst(6), X),
      A.lt(X, A.intConst(9)),
  });
  SmtModel M;
  ASSERT_EQ(S.checkSat(F, &M), SolveResult::Sat);
  ASSERT_TRUE(M.Complete);
  long long XV = M.intValue(X->varId());
  long long YV = M.intValue(Y->varId());
  EXPECT_EQ(XV + YV, 10);
  EXPECT_GT(XV, 6);
  EXPECT_LT(XV, 9);
}

TEST_F(SmtTest, ModelThroughIteLowering) {
  const Term *C = A.freshBoolVar("c");
  const Term *V = A.iteInt(C, A.intConst(1), A.intConst(2));
  SmtModel M;
  ASSERT_EQ(S.checkSat(A.eqInt(V, A.intConst(2)), &M), SolveResult::Sat);
  EXPECT_FALSE(M.boolValue(C->varId()));
}

TEST_F(SmtTest, ModelSatisfiesMixedConstraints) {
  const Term *X = A.freshIntVar("x");
  const Term *P = A.freshBoolVar("p");
  const Term *F = A.andTerm(A.implies(P, A.lt(A.intConst(3), X)),
                            A.implies(A.notTerm(P), A.lt(X, A.intConst(-3))));
  SmtModel M;
  ASSERT_EQ(S.checkSat(F, &M), SolveResult::Sat);
  ASSERT_TRUE(M.Complete);
  long long XV = M.intValue(X->varId());
  if (M.boolValue(P->varId()))
    EXPECT_GT(XV, 3);
  else
    EXPECT_LT(XV, -3);
}

/// Randomized: every extracted model must actually satisfy the formula
/// (cross-checked with the brute-force evaluator above).
class SmtModelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmtModelTest, ExtractedModelsSatisfyTheFormula) {
  std::mt19937 Rng(GetParam());
  TermArena A;
  SmtSolver S(A);
  unsigned Checked = 0;
  for (int Round = 0; Round != 30; ++Round) {
    std::vector<const Term *> IntVars = {A.freshIntVar(), A.freshIntVar()};
    std::vector<const Term *> BoolVars = {A.freshBoolVar()};
    const Term *F = randomTerm(A, Rng, true, IntVars, BoolVars, 3);
    SmtModel M;
    if (S.checkSat(F, &M) != SolveResult::Sat || !M.Complete)
      continue;
    std::vector<long long> IntVals(A.numIntVars(), 0);
    std::vector<bool> BoolVals(A.numBoolVars(), false);
    for (const auto &[V, Val] : M.Ints)
      if (V < IntVals.size())
        IntVals[V] = Val;
    for (const auto &[V, Val] : M.Bools)
      if (V < BoolVals.size())
        BoolVals[V] = Val;
    EXPECT_TRUE(evalBool(F, IntVals, BoolVals))
        << "model does not satisfy " << F->str();
    ++Checked;
  }
  EXPECT_GT(Checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtModelTest,
                         ::testing::Values(2u, 4u, 8u, 16u));
