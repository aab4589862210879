//===--- ParallelDeterminismTest.cpp - jobs=1 vs jobs=8 agreement ---------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Parallelism must not change what the MIX checker says. Its --jobs
// classifies a symbolic block's paths on worker threads; these
// properties pin that down two ways: (1) on random MIX programs, the
// Jobs=8 checker produces the same verdict and the same diagnostic
// multiset as the serial checker; (2) Theorem 1 survives — programs the
// parallel checker accepts never error under the concrete semantics.
// (MIXY has no workers; MixyTest.RepeatedRunsDoTheSameWork pins its
// run-to-run determinism.)
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "concrete/Interp.h"
#include "lang/AstPrinter.h"
#include "mix/MixChecker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

using namespace mix;

namespace {

/// All diagnostics of \p Diags rendered and sorted — the multiset two
/// runs must agree on (order across sibling paths is an implementation
/// detail; the *set* of complaints is the contract).
std::vector<std::string> sortedDiagnostics(const DiagnosticEngine &Diags) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : Diags.diagnostics())
    Out.push_back(D.str());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Diagnostics in emission order — what run-to-run determinism pins.
std::vector<std::string> orderedDiagnostics(const DiagnosticEngine &Diags) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : Diags.diagnostics())
    Out.push_back(D.str());
  return Out;
}

std::string verdictOf(const Type *T) { return T ? T->str() : "<rejected>"; }

} // namespace

/// Property: for random programs, MixChecker with Jobs=8 agrees with the
/// serial checker on the verdict and on the diagnostic multiset.
class MixParallelAgreementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MixParallelAgreementTest, ParallelMatchesSerialOnRandomPrograms) {
  std::mt19937 Rng(GetParam());
  unsigned Accepted = 0, Rejected = 0;
  for (int Round = 0; Round != 50; ++Round) {
    AstContext Ctx;
    testgen::ProgramGenerator Gen(Ctx, Rng, /*AllowBlocks=*/true);
    testgen::ProgramGenerator::Scope Scope;
    Scope.IntVars = {"x", "y"};
    Scope.BoolVars = {"b"};
    Scope.RefVars = {"p"};
    const Expr *Program =
        Rng() % 2 ? Gen.genInt(Scope, 4) : Gen.genBool(Scope, 4);

    TypeEnv Gamma;
    Gamma["x"] = Ctx.types().intType();
    Gamma["y"] = Ctx.types().intType();
    Gamma["b"] = Ctx.types().boolType();
    Gamma["p"] = Ctx.types().refType(Ctx.types().intType());

    DiagnosticEngine SerialDiags;
    MixOptions SerialOpts;
    SerialOpts.Jobs = 1;
    MixChecker Serial(Ctx.types(), SerialDiags, SerialOpts);
    const Type *SerialT = Serial.checkTyped(Program, Gamma);

    DiagnosticEngine ParDiags;
    MixOptions ParOpts;
    ParOpts.Jobs = 8;
    MixChecker Parallel(Ctx.types(), ParDiags, ParOpts);
    const Type *ParT = Parallel.checkTyped(Program, Gamma);

    ASSERT_EQ(verdictOf(SerialT), verdictOf(ParT))
        << "verdict diverged on: " << printExpr(Program);
    ASSERT_EQ(sortedDiagnostics(SerialDiags), sortedDiagnostics(ParDiags))
        << "diagnostics diverged on: " << printExpr(Program);
    SerialT ? ++Accepted : ++Rejected;
  }
  // The generator skews well-typed, so only the acceptance side must be
  // non-vacuous here; RejectedProgramsAgree covers the rejection side
  // deterministically.
  EXPECT_GT(Accepted, 5u);
  (void)Rejected;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixParallelAgreementTest,
                         ::testing::Values(1301u, 1402u, 1503u, 1604u));

/// The rejection side, deterministically: ill-typed and feasibly-crashing
/// programs draw identical verdicts and identical diagnostics (including
/// the concrete witness, which the parallel path re-derives on the shared
/// solver) at Jobs=1 and Jobs=8.
TEST(MixParallelAgreementTest, RejectedProgramsAgree) {
  AstContext Ctx;
  TypeEnv Gamma;
  Gamma["x"] = Ctx.types().intType();

  // {s if x < 0 then 1 + true else 2 s} — the error path is feasible
  // exactly when x < 0, so rejection needs the solver and the diagnostic
  // carries a witness model.
  const Expr *Guard = Ctx.make<BinaryExpr>(
      SourceLoc(), BinaryOp::Lt, Ctx.make<VarExpr>(SourceLoc(), "x"),
      Ctx.make<IntLitExpr>(SourceLoc(), 0));
  const Expr *Bad = Ctx.make<BinaryExpr>(
      SourceLoc(), BinaryOp::Add, Ctx.make<IntLitExpr>(SourceLoc(), 1),
      Ctx.make<BoolLitExpr>(SourceLoc(), true));
  const Expr *Programs[] = {
      Ctx.make<BlockExpr>(
          SourceLoc(), BlockKind::Symbolic,
          Ctx.make<IfExpr>(SourceLoc(), Guard, Bad,
                           Ctx.make<IntLitExpr>(SourceLoc(), 2))),
      Ctx.make<BlockExpr>(SourceLoc(), BlockKind::Symbolic, Bad),
      Bad,
  };

  for (const Expr *Program : Programs) {
    DiagnosticEngine SerialDiags;
    MixOptions SerialOpts;
    SerialOpts.Jobs = 1;
    MixChecker Serial(Ctx.types(), SerialDiags, SerialOpts);
    const Type *SerialT = Serial.checkTyped(Program, Gamma);

    DiagnosticEngine ParDiags;
    MixOptions ParOpts;
    ParOpts.Jobs = 8;
    MixChecker Parallel(Ctx.types(), ParDiags, ParOpts);
    const Type *ParT = Parallel.checkTyped(Program, Gamma);

    EXPECT_EQ(SerialT, nullptr) << printExpr(Program);
    EXPECT_EQ(ParT, nullptr) << printExpr(Program);
    EXPECT_FALSE(SerialDiags.empty());
    // Byte-identical including order: rejection reports happen at the
    // join in path order regardless of which worker classified the path.
    EXPECT_EQ(orderedDiagnostics(SerialDiags), orderedDiagnostics(ParDiags))
        << printExpr(Program);
  }
}

/// Theorem 1 through the parallel path: programs the Jobs=8 checker
/// accepts never evaluate to the error token.
TEST(MixParallelSoundnessTest, ParallelAcceptedProgramsNeverGoWrong) {
  std::mt19937 Rng(77001u);
  unsigned Accepted = 0;
  for (int Round = 0; Round != 120; ++Round) {
    AstContext Ctx;
    DiagnosticEngine Diags;
    testgen::ProgramGenerator Gen(Ctx, Rng, /*AllowBlocks=*/true);
    testgen::ProgramGenerator::Scope Scope;
    Scope.IntVars = {"x", "y"};
    Scope.BoolVars = {"b"};
    Scope.RefVars = {"p"};
    const Expr *Program =
        Rng() % 2 ? Gen.genInt(Scope, 4) : Gen.genBool(Scope, 4);

    TypeEnv Gamma;
    Gamma["x"] = Ctx.types().intType();
    Gamma["y"] = Ctx.types().intType();
    Gamma["b"] = Ctx.types().boolType();
    Gamma["p"] = Ctx.types().refType(Ctx.types().intType());

    MixOptions Opts;
    Opts.Jobs = 8;
    MixChecker Mix(Ctx.types(), Diags, Opts);
    const Type *T = Mix.checkTyped(Program, Gamma);
    if (!T)
      continue;
    ++Accepted;

    for (int Trial = 0; Trial != 6; ++Trial) {
      ConcMemory Mem;
      ConcEnv Env = testgen::makeConcreteEnv(Rng, Mem);
      EvalResult R = evaluate(Program, Env, Mem);
      ASSERT_FALSE(R.IsError)
          << "parallel MIX accepted a crashing program: " << R.ErrorMessage
          << "\nprogram: " << printExpr(Program);
      if (T->isInt()) {
        EXPECT_TRUE(R.Value.isInt()) << printExpr(Program);
      } else if (T->isBool()) {
        EXPECT_TRUE(R.Value.isBool()) << printExpr(Program);
      }
    }
  }
  EXPECT_GT(Accepted, 20u) << "generator produced too few accepted programs";
}
