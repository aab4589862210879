//===--- ProgramGen.h - Random program generator for property tests --------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Used by SoundnessTest (Theorem 1 property testing): a type-directed
// random generator of core-language expressions over a fixed Gamma, with
// typed/symbolic analysis blocks sprinkled in, plus a conforming concrete
// environment builder for the standard scope.
//
//===----------------------------------------------------------------------===//

#ifndef MIX_TESTS_PROGRAMGEN_H
#define MIX_TESTS_PROGRAMGEN_H

#include "concrete/Interp.h"
#include "lang/Ast.h"

#include <random>
#include <string>
#include <vector>

namespace mix::testgen {

/// Type-directed random program generator. Produces mostly well-typed
/// expressions over a fixed Gamma, with analysis blocks sprinkled in.
class ProgramGenerator {
public:
  ProgramGenerator(AstContext &Ctx, std::mt19937 &Rng, bool AllowBlocks)
      : Ctx(Ctx), Rng(Rng), AllowBlocks(AllowBlocks) {}

  /// Variables available to the generated program.
  struct Scope {
    std::vector<std::string> IntVars;
    std::vector<std::string> BoolVars;
    std::vector<std::string> RefVars; // int ref
  };

  const Expr *genInt(const Scope &S, unsigned Depth) {
    return maybeBlock(genIntRaw(S, Depth));
  }

  const Expr *genBool(const Scope &S, unsigned Depth) {
    return maybeBlock(genBoolRaw(S, Depth));
  }

  bool usedTypedBlock() const { return UsedTypedBlock; }

private:
  const Expr *maybeBlock(const Expr *E) {
    if (!AllowBlocks || Rng() % 5 != 0)
      return E;
    if (Rng() % 2) {
      return Ctx.make<BlockExpr>(SourceLoc(), BlockKind::Symbolic, E);
    }
    UsedTypedBlock = true;
    return Ctx.make<BlockExpr>(SourceLoc(), BlockKind::Typed, E);
  }

  const Expr *genIntRaw(const Scope &S, unsigned Depth) {
    if (Depth == 0) {
      if (!S.IntVars.empty() && Rng() % 2)
        return Ctx.make<VarExpr>(SourceLoc(),
                                 S.IntVars[Rng() % S.IntVars.size()]);
      return Ctx.make<IntLitExpr>(SourceLoc(), (long long)(Rng() % 9) - 4);
    }
    // Occasionally build and immediately apply a function literal; the
    // literal itself may get wrapped in an analysis block by maybeBlock,
    // exercising closure escape across boundaries.
    if (Rng() % 8 == 0) {
      std::string Param = freshName();
      Scope Inner = S;
      Inner.IntVars.push_back(Param);
      const Expr *Fn = maybeBlock(Ctx.make<FunExpr>(
          SourceLoc(), Param, Ctx.types().intType(), Ctx.types().intType(),
          genInt(Inner, Depth - 1)));
      return Ctx.make<AppExpr>(SourceLoc(), Fn, genInt(S, Depth - 1));
    }
    switch (Rng() % 8) {
    case 0:
    case 1:
      return Ctx.make<BinaryExpr>(SourceLoc(),
                                  Rng() % 2 ? BinaryOp::Add : BinaryOp::Sub,
                                  genInt(S, Depth - 1), genInt(S, Depth - 1));
    case 2:
      return Ctx.make<IfExpr>(SourceLoc(), genBool(S, Depth - 1),
                              genInt(S, Depth - 1), genInt(S, Depth - 1));
    case 3: {
      // let x = <int> in <int with x in scope>
      std::string Name = freshName();
      Scope Inner = S;
      Inner.IntVars.push_back(Name);
      return Ctx.make<LetExpr>(SourceLoc(), Name, nullptr,
                               genInt(S, Depth - 1), genInt(Inner, Depth - 1));
    }
    case 4: {
      // let r = ref <int> in <int with r in scope>
      std::string Name = freshName();
      Scope Inner = S;
      Inner.RefVars.push_back(Name);
      const Expr *Init =
          Ctx.make<RefExpr>(SourceLoc(), genInt(S, Depth - 1));
      return Ctx.make<LetExpr>(SourceLoc(), Name, nullptr, Init,
                               genInt(Inner, Depth - 1));
    }
    case 5:
      if (!S.RefVars.empty())
        return Ctx.make<DerefExpr>(
            SourceLoc(), Ctx.make<VarExpr>(SourceLoc(),
                                           S.RefVars[Rng() % S.RefVars.size()]));
      return genIntRaw(S, Depth - 1);
    case 6:
      if (!S.RefVars.empty()) {
        const Expr *Target = Ctx.make<VarExpr>(
            SourceLoc(), S.RefVars[Rng() % S.RefVars.size()]);
        return Ctx.make<AssignExpr>(SourceLoc(), Target,
                                    genInt(S, Depth - 1));
      }
      return genIntRaw(S, Depth - 1);
    default:
      return Ctx.make<SeqExpr>(SourceLoc(), genBool(S, Depth - 1),
                               genInt(S, Depth - 1));
    }
  }

  const Expr *genBoolRaw(const Scope &S, unsigned Depth) {
    if (Depth == 0) {
      if (!S.BoolVars.empty() && Rng() % 2)
        return Ctx.make<VarExpr>(SourceLoc(),
                                 S.BoolVars[Rng() % S.BoolVars.size()]);
      return Ctx.make<BoolLitExpr>(SourceLoc(), Rng() % 2 == 0);
    }
    switch (Rng() % 6) {
    case 0:
      return Ctx.make<BinaryExpr>(
          SourceLoc(),
          Rng() % 3 == 0   ? BinaryOp::Eq
          : Rng() % 2 == 0 ? BinaryOp::Lt
                           : BinaryOp::Le,
          genInt(S, Depth - 1), genInt(S, Depth - 1));
    case 1:
      return Ctx.make<BinaryExpr>(SourceLoc(),
                                  Rng() % 2 ? BinaryOp::And : BinaryOp::Or,
                                  genBool(S, Depth - 1),
                                  genBool(S, Depth - 1));
    case 2:
      return Ctx.make<NotExpr>(SourceLoc(), genBool(S, Depth - 1));
    case 3:
      return Ctx.make<IfExpr>(SourceLoc(), genBool(S, Depth - 1),
                              genBool(S, Depth - 1), genBool(S, Depth - 1));
    default:
      return genBoolRaw(S, 0);
    }
  }

  std::string freshName() { return "v" + std::to_string(Counter++); }

  AstContext &Ctx;
  std::mt19937 &Rng;
  bool AllowBlocks;
  bool UsedTypedBlock = false;
  unsigned Counter = 0;
};

/// Builds a conforming concrete environment for the standard Gamma used
/// by the generator ({x, y : int; b : bool; p : int ref}).
inline ConcEnv makeConcreteEnv(std::mt19937 &Rng, ConcMemory &Mem) {
  ConcEnv Env;
  Env["x"] = ConcValue::intValue((long long)(Rng() % 21) - 10);
  Env["y"] = ConcValue::intValue((long long)(Rng() % 21) - 10);
  Env["b"] = ConcValue::boolValue(Rng() % 2 == 0);
  size_t Loc = Mem.allocate(ConcValue::intValue((long long)(Rng() % 7) - 3));
  Env["p"] = ConcValue::locValue(Loc);
  return Env;
}

} // namespace mix::testgen

#endif // MIX_TESTS_PROGRAMGEN_H
