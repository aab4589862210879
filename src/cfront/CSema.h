//===--- CSema.h - Name resolution and expression typing -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight semantic analysis for mini-C: resolves names against a
/// scope (locals, parameters, globals, functions) and computes the static
/// type of expressions. All downstream analyses — qualifier inference,
/// the pointer analysis, and the C symbolic executor — share this.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CSEMA_H
#define MIX_CFRONT_CSEMA_H

#include "cfront/CAst.h"
#include "support/Diagnostics.h"

#include <map>

namespace mix::c {

/// A lexical scope within a function body.
struct CScope {
  const CFuncDecl *Func = nullptr;
  std::map<std::string, const CType *> Locals;

  /// Builds the scope of a function entry: parameters only.
  static CScope forFunction(const CFuncDecl *F) {
    CScope S;
    S.Func = F;
    for (const auto &P : F->params())
      S.Locals[P.Name] = P.Ty;
    return S;
  }
};

/// Expression typing over a program.
class CSema {
public:
  CSema(const CProgram &Program, CAstContext &Ctx, DiagnosticEngine &Diags)
      : Program(Program), Ctx(Ctx), Diags(Diags) {}

  /// The type of name \p Name in \p Scope, or null. Resolution order:
  /// locals/params, globals, functions (as function-typed).
  const CType *typeOfName(const std::string &Name, const CScope &Scope);

  /// The static type of \p E in \p Scope; null (with a diagnostic) if the
  /// expression is ill-formed.
  const CType *typeOf(const CExpr *E, const CScope &Scope);

  /// True for expressions that denote storage (can be assigned / have
  /// their address taken).
  static bool isLValue(const CExpr *E);

  /// Resolves the callee of \p Call to a named function when it is a
  /// direct call (possibly through an explicit `(*f)` of a known name);
  /// returns null for calls through function-pointer values.
  const CFuncDecl *directCallee(const CCall *Call) const;

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
