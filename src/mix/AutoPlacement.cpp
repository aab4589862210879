//===--- AutoPlacement.cpp - Automatic symbolic-block insertion ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mix/AutoPlacement.h"

using namespace mix;

namespace {

/// Collects the chain of nodes whose subtree contains a node located at
/// \p Loc, innermost first. Returns true when found.
bool ancestorChain(const Expr *E, SourceLoc Loc,
                   std::vector<const Expr *> &Chain) {
  auto Descend = [&](const Expr *Sub) {
    return Sub && ancestorChain(Sub, Loc, Chain);
  };

  bool Found = false;
  switch (E->kind()) {
  case ExprKind::Var:
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
    break;
  case ExprKind::Binary:
    Found = Descend(cast<BinaryExpr>(E)->lhs()) ||
            Descend(cast<BinaryExpr>(E)->rhs());
    break;
  case ExprKind::Not:
    Found = Descend(cast<NotExpr>(E)->sub());
    break;
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    Found = Descend(I->cond()) || Descend(I->thenExpr()) ||
            Descend(I->elseExpr());
    break;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    Found = Descend(L->init()) || Descend(L->body());
    break;
  }
  case ExprKind::Ref:
    Found = Descend(cast<RefExpr>(E)->sub());
    break;
  case ExprKind::Deref:
    Found = Descend(cast<DerefExpr>(E)->sub());
    break;
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    Found = Descend(A->target()) || Descend(A->value());
    break;
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    Found = Descend(S->first()) || Descend(S->second());
    break;
  }
  case ExprKind::Block:
    Found = Descend(cast<BlockExpr>(E)->body());
    break;
  case ExprKind::Fun:
    Found = Descend(cast<FunExpr>(E)->body());
    break;
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    Found = Descend(A->fn()) || Descend(A->arg());
    break;
  }
  }

  if (Found || E->loc() == Loc) {
    Chain.push_back(E);
    return true;
  }
  return false;
}

/// Clones \p E, wrapping the (pointer-identical) node \p Target in a
/// symbolic block.
const Expr *cloneWrapping(AstContext &Ctx, const Expr *E,
                          const Expr *Target) {
  auto Wrap = [&](const Expr *Cloned) -> const Expr * {
    if (E != Target)
      return Cloned;
    return Ctx.make<BlockExpr>(E->loc(), BlockKind::Symbolic, Cloned);
  };
  auto Recurse = [&](const Expr *Sub) {
    return cloneWrapping(Ctx, Sub, Target);
  };

  switch (E->kind()) {
  case ExprKind::Var:
    return Wrap(Ctx.make<VarExpr>(E->loc(), cast<VarExpr>(E)->name()));
  case ExprKind::IntLit:
    return Wrap(Ctx.make<IntLitExpr>(E->loc(),
                                     cast<IntLitExpr>(E)->value()));
  case ExprKind::BoolLit:
    return Wrap(Ctx.make<BoolLitExpr>(E->loc(),
                                      cast<BoolLitExpr>(E)->value()));
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return Wrap(Ctx.make<BinaryExpr>(E->loc(), B->op(), Recurse(B->lhs()),
                                     Recurse(B->rhs())));
  }
  case ExprKind::Not:
    return Wrap(
        Ctx.make<NotExpr>(E->loc(), Recurse(cast<NotExpr>(E)->sub())));
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    return Wrap(Ctx.make<IfExpr>(E->loc(), Recurse(I->cond()),
                                 Recurse(I->thenExpr()),
                                 Recurse(I->elseExpr())));
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    return Wrap(Ctx.make<LetExpr>(E->loc(), L->name(), L->declaredType(),
                                  Recurse(L->init()), Recurse(L->body())));
  }
  case ExprKind::Ref:
    return Wrap(
        Ctx.make<RefExpr>(E->loc(), Recurse(cast<RefExpr>(E)->sub())));
  case ExprKind::Deref:
    return Wrap(
        Ctx.make<DerefExpr>(E->loc(), Recurse(cast<DerefExpr>(E)->sub())));
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    return Wrap(Ctx.make<AssignExpr>(E->loc(), Recurse(A->target()),
                                     Recurse(A->value())));
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    return Wrap(Ctx.make<SeqExpr>(E->loc(), Recurse(S->first()),
                                  Recurse(S->second())));
  }
  case ExprKind::Block: {
    const auto *B = cast<BlockExpr>(E);
    return Wrap(Ctx.make<BlockExpr>(E->loc(), B->blockKind(),
                                    Recurse(B->body())));
  }
  case ExprKind::Fun: {
    const auto *F = cast<FunExpr>(E);
    return Wrap(Ctx.make<FunExpr>(E->loc(), F->param(), F->paramType(),
                                  F->resultType(), Recurse(F->body())));
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    return Wrap(Ctx.make<AppExpr>(E->loc(), Recurse(A->fn()),
                                  Recurse(A->arg())));
  }
  }
  return E;
}

/// One silent check; returns the type (null on failure) and the first
/// error location through \p ErrLocOut.
const Type *checkSilently(AstContext &Ctx, const Expr *Program,
                          const TypeEnv &Gamma, const MixOptions &Opts,
                          SourceLoc &ErrLocOut) {
  DiagnosticEngine Local;
  MixChecker Mix(Ctx.types(), Local, Opts);
  const Type *T = Mix.checkTyped(Program, Gamma);
  if (!T) {
    for (const Diagnostic &D : Local.diagnostics())
      if (D.Kind == DiagKind::Error && D.Loc.isValid()) {
        ErrLocOut = D.Loc;
        break;
      }
  }
  return T;
}

} // namespace

AutoPlacementResult
mix::autoPlaceSymbolicBlocks(AstContext &Ctx, const Expr *Program,
                             const TypeEnv &Gamma, DiagnosticEngine &Diags,
                             AutoPlacementOptions Opts) {
  AutoPlacementResult Result;
  Result.Program = Program;

  const Expr *Current = Program;
  SourceLoc LastErrLoc;

  for (unsigned Iter = 0; Iter != Opts.MaxRefinements; ++Iter) {
    SourceLoc ErrLoc;
    const Type *T = checkSilently(Ctx, Current, Gamma, Opts.Mix, ErrLoc);
    if (T) {
      // Re-run loudly so callers see any warnings of the final program.
      MixChecker Final(Ctx.types(), Diags, Opts.Mix);
      Result.ResultType = Final.checkTyped(Current, Gamma);
      Result.Program = Current;
      Result.Refinements = Iter;
      return Result;
    }
    if (!ErrLoc.isValid())
      break; // cannot localize the failure

    std::vector<const Expr *> Chain;
    if (!ancestorChain(Current, ErrLoc, Chain))
      break;

    // Try candidates innermost-first and commit the first wrap that
    // helps — either the whole program now checks, or the failure moved
    // elsewhere (a multi-error program: the next iteration attacks the
    // next error). Preferring the innermost helpful wrap keeps symbolic
    // regions small, the cheap end of the paper's trade-off.
    const Expr *Progress = nullptr;
    for (const Expr *Candidate : Chain) {
      if (const auto *B = dyn_cast<BlockExpr>(Candidate))
        if (B->blockKind() == BlockKind::Symbolic)
          continue; // wrapping a symbolic block again cannot help
      const Expr *Wrapped = cloneWrapping(Ctx, Current, Candidate);
      SourceLoc NewErrLoc;
      const Type *WT = checkSilently(Ctx, Wrapped, Gamma, Opts.Mix, NewErrLoc);
      if (WT || (NewErrLoc.isValid() && !(NewErrLoc == ErrLoc))) {
        Progress = Wrapped;
        break;
      }
    }

    if (!Progress || (LastErrLoc.isValid() && LastErrLoc == ErrLoc &&
                      Progress == Current))
      break;
    LastErrLoc = ErrLoc;
    Current = Progress;
    ++Result.BlocksInserted;
    Result.Refinements = Iter + 1;
  }

  // Gave up: report the last failure loudly.
  MixChecker Final(Ctx.types(), Diags, Opts.Mix);
  Result.ResultType = Final.checkTyped(Current, Gamma);
  Result.Program = Current;
  return Result;
}
