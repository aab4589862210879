//===--- SolverDiffTest.cpp - Differential testing of solver backends -----===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Property-based differential harness over the solver registry: random
// Term formulas are decided by every registered backend and cross-checked
// against a brute-force small-domain enumerator oracle. The oracle is
// one-directional — a satisfying assignment it finds proves Sat over the
// unbounded integers, but an exhausted small domain proves nothing — so
// the failure rules are:
//
//   - backend Unsat + oracle found a model       -> hard fail
//   - backend Sat with a Complete model that does
//     not evaluate the formula to true           -> hard fail
//   - two backends answering Sat vs Unsat        -> hard fail
//   - backend Sat + oracle exhausted             -> fine (witness may
//     need values outside the enumerated domain)
//   - Unknown (a resource-cap artifact) vs
//     anything                                   -> fine
//
// The generator is seeded deterministically and every failure message
// carries the base seed and formula index, so any disagreement replays.
//
//===----------------------------------------------------------------------===//

#include "solver/SmtSolver.h"
#include "solver/SolverFactory.h"
#include "solver/TermEval.h"

#include <gtest/gtest.h>

#include <random>

using namespace mix::smt;

namespace {

/// The variables every generated formula draws from: 2 integers and 2
/// booleans — few enough that the oracle's full enumeration over
/// Domain^2 x Bool^2 stays cheap, plenty for operator coverage.
struct DiffVars {
  std::vector<const Term *> Ints;
  std::vector<const Term *> Bools;
  explicit DiffVars(TermArena &A) {
    for (int I = 0; I != 2; ++I)
      Ints.push_back(A.freshIntVar("x" + std::to_string(I)));
    for (int I = 0; I != 2; ++I)
      Bools.push_back(A.freshBoolVar("p" + std::to_string(I)));
  }
};

/// Random integer-sorted term, depth-bounded.
const Term *genInt(TermArena &A, const DiffVars &V, std::mt19937 &Rng,
                   unsigned Depth) {
  if (Depth == 0 || Rng() % 3 == 0) {
    if (Rng() % 2)
      return V.Ints[Rng() % V.Ints.size()];
    return A.intConst((long long)(Rng() % 7) - 3);
  }
  switch (Rng() % 5) {
  case 0:
    return A.add(genInt(A, V, Rng, Depth - 1), genInt(A, V, Rng, Depth - 1));
  case 1:
    return A.sub(genInt(A, V, Rng, Depth - 1), genInt(A, V, Rng, Depth - 1));
  case 2:
    return A.neg(genInt(A, V, Rng, Depth - 1));
  case 3:
    return A.mulConst((long long)(Rng() % 5) - 2,
                      genInt(A, V, Rng, Depth - 1));
  default:
    return A.iteInt(Rng() % 2 ? V.Bools[Rng() % V.Bools.size()]
                              : A.lt(V.Ints[0], V.Ints[1]),
                    genInt(A, V, Rng, Depth - 1),
                    genInt(A, V, Rng, Depth - 1));
  }
}

/// Random boolean-sorted term, depth-bounded: the full Term surface the
/// analyses generate (comparisons over linear arithmetic, connectives,
/// ite in both sorts).
const Term *genBool(TermArena &A, const DiffVars &V, std::mt19937 &Rng,
                    unsigned Depth) {
  if (Depth == 0 || Rng() % 4 == 0) {
    switch (Rng() % 3) {
    case 0:
      return V.Bools[Rng() % V.Bools.size()];
    case 1:
      return A.boolConst(Rng() % 2 != 0);
    default:
      return A.lt(genInt(A, V, Rng, 1), genInt(A, V, Rng, 1));
    }
  }
  switch (Rng() % 8) {
  case 0:
    return A.andTerm(genBool(A, V, Rng, Depth - 1),
                     genBool(A, V, Rng, Depth - 1));
  case 1:
    return A.orTerm(genBool(A, V, Rng, Depth - 1),
                    genBool(A, V, Rng, Depth - 1));
  case 2:
    return A.notTerm(genBool(A, V, Rng, Depth - 1));
  case 3:
    return A.implies(genBool(A, V, Rng, Depth - 1),
                     genBool(A, V, Rng, Depth - 1));
  case 4:
    return A.eqBool(genBool(A, V, Rng, Depth - 1),
                    genBool(A, V, Rng, Depth - 1));
  case 5:
    return A.iteBool(genBool(A, V, Rng, Depth - 1),
                     genBool(A, V, Rng, Depth - 1),
                     genBool(A, V, Rng, Depth - 1));
  case 6:
    return A.eqInt(genInt(A, V, Rng, 2), genInt(A, V, Rng, 2));
  default:
    return A.le(genInt(A, V, Rng, 2), genInt(A, V, Rng, 2));
  }
}

/// Brute-force oracle: enumerates every assignment of the DiffVars over
/// a small integer domain. Returns true (with \p Witness filled) when
/// some assignment satisfies \p F.
bool oracleFindsModel(const Term *F, const DiffVars &V, SmtModel &Witness) {
  static const long long Domain[] = {-2, -1, 0, 1, 2};
  for (long long X0 : Domain)
    for (long long X1 : Domain)
      for (int B0 = 0; B0 != 2; ++B0)
        for (int B1 = 0; B1 != 2; ++B1) {
          SmtModel M;
          M.Ints[V.Ints[0]->varId()] = X0;
          M.Ints[V.Ints[1]->varId()] = X1;
          M.Bools[V.Bools[0]->varId()] = B0 != 0;
          M.Bools[V.Bools[1]->varId()] = B1 != 0;
          if (evalBool(F, M)) {
            Witness = M;
            return true;
          }
        }
  return false;
}

} // namespace

TEST(SolverDiffTest, BackendsAgreeWithOracleOn5kFormulas) {
  const unsigned BaseSeed = 0xd1ff5eed;
  const unsigned NumFormulas = 5000;

  TermArena A;
  DiffVars V(A);

  // Every registered backend; they must be indistinguishable verdict-wise.
  struct Lane {
    std::string Label;
    std::unique_ptr<ISolver> S;
  };
  std::vector<Lane> Lanes;
  for (const std::string &Name : registeredBackends()) {
    Lanes.push_back({Name, createBackend(Name, A, SmtOptions())});
    ASSERT_NE(Lanes.back().S, nullptr) << Name;
  }

  unsigned OracleSat = 0, OracleExhausted = 0;
  for (unsigned I = 0; I != NumFormulas; ++I) {
    std::mt19937 Rng(BaseSeed + I);
    const Term *F = genBool(A, V, Rng, 3);
    std::string Ctx = "formula " + std::to_string(I) + " (base seed " +
                      std::to_string(BaseSeed) + ")";

    SmtModel OracleModel;
    bool OracleSatisfiable = oracleFindsModel(F, V, OracleModel);
    (OracleSatisfiable ? OracleSat : OracleExhausted)++;

    SolveResult FirstDefinitive = SolveResult::Unknown;
    std::string FirstLane;
    for (Lane &L : Lanes) {
      SmtModel M;
      SolveResult R = L.S->checkSat(F, &M);
      if (R == SolveResult::Unknown)
        continue; // resource-cap artifact; nothing to compare
      if (R == SolveResult::Unsat) {
        ASSERT_FALSE(OracleSatisfiable)
            << Ctx << ": " << L.Label
            << " says Unsat but the oracle holds a concrete model";
      } else if (M.Complete) {
        ASSERT_TRUE(evalBool(F, M))
            << Ctx << ": " << L.Label
            << " returned a model that does not satisfy the formula";
      }
      if (FirstDefinitive == SolveResult::Unknown) {
        FirstDefinitive = R;
        FirstLane = L.Label;
      } else {
        ASSERT_EQ(R, FirstDefinitive)
            << Ctx << ": " << L.Label << " says " << solveResultName(R)
            << " but " << FirstLane << " says "
            << solveResultName(FirstDefinitive);
      }
    }
  }
  // The generator should exercise both outcomes heavily; a collapse to
  // one side means the formula distribution regressed, not the solvers.
  EXPECT_GT(OracleSat, NumFormulas / 10);
  EXPECT_GT(OracleExhausted, NumFormulas / 100);
}

namespace {

/// A random conjunction of literals in path-condition shape: literals
/// folded left onto `true`, one per branch. Literals are drawn from a
/// small pool of ITE-free atoms (comparisons of the integers with each
/// other and with constants, the booleans), so atoms repeat, and are
/// negated at random, so contradictory pairs of bool and int literals
/// are common.
const Term *genLiteralConjunction(TermArena &A, const DiffVars &V,
                                  std::mt19937 &Rng) {
  auto IntOf = [&]() -> const Term * {
    switch (Rng() % 3) {
    case 0:
      return V.Ints[Rng() % V.Ints.size()];
    case 1:
      return A.intConst((long long)(Rng() % 7) - 3);
    default:
      return A.add(V.Ints[Rng() % V.Ints.size()],
                   A.intConst((long long)(Rng() % 5) - 2));
    }
  };
  std::vector<const Term *> Pool;
  for (unsigned I = 0; I != 4; ++I) {
    switch (Rng() % 4) {
    case 0:
      Pool.push_back(A.lt(IntOf(), IntOf()));
      break;
    case 1:
      Pool.push_back(A.le(IntOf(), IntOf()));
      break;
    case 2:
      Pool.push_back(A.eqInt(IntOf(), IntOf()));
      break;
    default:
      Pool.push_back(V.Bools[Rng() % V.Bools.size()]);
      break;
    }
  }
  const Term *Path = A.trueTerm();
  for (unsigned I = 0, N = 1 + Rng() % 6; I != N; ++I) {
    const Term *Atom = Pool[Rng() % Pool.size()];
    Path = A.andTerm(Path, Rng() % 2 ? Atom : A.notTerm(Atom));
  }
  return Path;
}

} // namespace

TEST(SolverDiffTest, LiteralConjunctionsAgreeAcrossBackendsAndOracle) {
  // Path conditions are conjunctions of literals, which smtlite decides
  // with one direct theory check instead of its DPLL(T) loop. The
  // family below cross-checks that check against the dnf backend and
  // the brute-force oracle under the same rules as the random-formula
  // family, and validates every complete model.
  const unsigned BaseSeed = 0xc0de11a5;
  const unsigned NumFormulas = 3000;

  TermArena A;
  DiffVars V(A);
  std::vector<std::unique_ptr<ISolver>> Lanes;
  for (const std::string &Name : registeredBackends()) {
    Lanes.push_back(createBackend(Name, A, SmtOptions()));
    ASSERT_NE(Lanes.back(), nullptr) << Name;
  }
  SmtSolver Direct(A);

  unsigned Sat = 0, Unsat = 0;
  for (unsigned I = 0; I != NumFormulas; ++I) {
    std::mt19937 Rng(BaseSeed + I);
    const Term *F = genLiteralConjunction(A, V, Rng);
    std::string Ctx = "conjunction " + std::to_string(I) + " (base seed " +
                      std::to_string(BaseSeed) + "): " + F->str();

    SmtModel OracleModel;
    bool OracleSatisfiable = oracleFindsModel(F, V, OracleModel);

    SolveResult First = SolveResult::Unknown;
    for (std::unique_ptr<ISolver> &S : Lanes) {
      SmtModel M;
      SolveResult R = S->checkSat(F, &M);
      ASSERT_NE(R, SolveResult::Unknown) << Ctx << ": " << S->name();
      if (R == SolveResult::Unsat)
        ASSERT_FALSE(OracleSatisfiable)
            << Ctx << ": " << S->name()
            << " says Unsat but the oracle holds a concrete model";
      else if (M.Complete)
        ASSERT_TRUE(evalBool(F, M))
            << Ctx << ": " << S->name()
            << " returned a model that does not satisfy the formula";
      if (First == SolveResult::Unknown)
        First = R;
      ASSERT_EQ(R, First) << Ctx << ": " << S->name() << " disagrees";
    }
    (First == SolveResult::Sat ? Sat : Unsat)++;

    // The family must reach the direct check: no SAT search.
    uint64_t SatCallsBefore = Direct.stats().SatCalls;
    EXPECT_EQ(Direct.checkSat(F), First) << Ctx;
    ASSERT_EQ(Direct.stats().SatCalls, SatCallsBefore) << Ctx;
  }
  EXPECT_GT(Sat, NumFormulas / 5);
  EXPECT_GT(Unsat, NumFormulas / 5);
}
