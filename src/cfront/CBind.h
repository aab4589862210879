//===--- CBind.h - Resolve every name once ----------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binding pass that ends parseC. It numbers the functions and the
/// global-level names, gives each function one local slot per distinct
/// parameter or local name (parameters first), and records in every
/// identifier what it denotes, so the analyses never look a name up
/// again. The scope rules are those of DESIGN.md "Names are resolved
/// once":
///  - a visible local wins, then the first global of the name, then the
///    function CProgram::findFunc picks, else the name is unresolved;
///  - a declaration is visible from its own initializer on;
///  - the bodies of `if` and `while` get a copy of the scope, so their
///    declarations vanish after them, while a plain `{}` block shares its
///    parent's scope;
///  - one name declared twice in a function keeps one slot.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CBIND_H
#define MIX_CFRONT_CBIND_H

#include "cfront/CAst.h"

#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mix::c {

class CBinder {
public:
  /// Binds every name of \p Program; parseC calls it once, last.
  static void bind(CProgram &Program);

private:
  static constexpr unsigned NoSlot = ~0u;

  /// What one name means at the current point of the walk.
  struct NameInfo {
    const CGlobalDecl *Global = nullptr; ///< CProgram::findGlobal(name)
    const CFuncDecl *Func = nullptr;     ///< CProgram::findFunc(name)
    unsigned GlobalSlot = NoSlot;
    unsigned LocalSlot = NoSlot;    ///< In the function being bound.
    const CType *LocalTy = nullptr; ///< The visible local's type, or null.
  };

  explicit CBinder(CProgram &Program) : Program(Program) {}

  void run();
  NameInfo &info(const std::string &Name);
  unsigned newGlobalSlot(const std::string &Name, const CGlobalDecl *G);
  /// The slot of a local \p Name declared by \p Decl (null for a
  /// parameter), made on its first declaration.
  unsigned localSlot(NameInfo &Info, const std::string &Name,
                     const CDeclStmt *Decl);
  void bindFunction(CFuncDecl &F);
  void bindStmt(const CStmt *S);
  /// Binds an `if` or `while` body, then undoes its declarations.
  void bindScoped(const CStmt *S);
  void bindExpr(const CExpr *E);
  void bindIdent(CIdent &Id);

  CProgram &Program;
  std::unordered_map<std::string_view, NameInfo> Names;
  /// The function being bound: its slots in slot order, and the
  /// visible-type changes its open `if`/`while` bodies must undo.
  std::vector<std::pair<NameInfo *, CFuncDecl::LocalSlot>> Slotted;
  std::vector<std::pair<NameInfo *, const CType *>> Undo;
};

} // namespace mix::c

#endif // MIX_CFRONT_CBIND_H
