//===--- CSema.h - Name resolution and expression typing -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight semantic analysis for mini-C: computes the static type of
/// expressions from the names parseC's binder resolved (see CBind.h).
/// The qualifier inference, the pointer analysis, and the C symbolic
/// executor share it.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CSEMA_H
#define MIX_CFRONT_CSEMA_H

#include "cfront/CAst.h"
#include "support/Diagnostics.h"

namespace mix::c {

/// Expression typing over a program.
class CSema {
public:
  CSema(const CProgram &Program, CAstContext &Ctx, DiagnosticEngine &Diags)
      : Program(Program), Ctx(Ctx), Diags(Diags) {}

  /// The static type of \p E; null (with a diagnostic) if the expression
  /// is ill-formed. A local has the type of the declaration visible where
  /// it is used, a function name its function type.
  const CType *typeOf(const CExpr *E);

  /// True for expressions that denote storage (can be assigned / have
  /// their address taken).
  static bool isLValue(const CExpr *E);

  /// Resolves the callee of \p Call to a named function when it is a
  /// direct call (possibly through an explicit `(*f)` of a known name);
  /// returns null for calls through function-pointer values. Goes by the
  /// name, as findFunc does: a local or global that shadows a function
  /// still calls the function.
  const CFuncDecl *directCallee(const CCall *Call) const;

  /// True for a call of `malloc` when the program declares no function of
  /// that name: the builtin allocator.
  static bool callsBuiltinMalloc(const CCall *Call);

  const CProgram &program() const { return Program; }
  CAstContext &context() { return Ctx; }

private:
  const CType *fail(SourceLoc Loc, const std::string &Message) {
    Diags.error(Loc, Message, DiagID::TypeError);
    return nullptr;
  }

  const CProgram &Program;
  CAstContext &Ctx;
  DiagnosticEngine &Diags;
};

} // namespace mix::c

#endif // MIX_CFRONT_CSEMA_H
