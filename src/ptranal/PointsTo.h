//===--- PointsTo.h - Steensgaard may-points-to analysis --------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A unification-based (Steensgaard-style) flow- and context-insensitive
/// may-points-to analysis over mini-C — the stand-in for "CIL's built-in
/// pointer analysis" that MIXY uses as a pre-pass (Section 4.2).
///
/// Abstraction: one cell per variable, per malloc site, and per function;
/// struct objects are a single cell (field-insensitive); each cell has at
/// most one points-to target, with unification merging targets. This
/// deliberately reproduces the imprecision the paper complains about in
/// Section 4.6 (large points-to sets conflate call sites), which the
/// scaling benchmarks exercise.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_PTRANAL_POINTSTO_H
#define MIX_PTRANAL_POINTSTO_H

#include "cfront/CSema.h"

#include <map>
#include <string>
#include <vector>

namespace mix::c {

/// Whole-program may-points-to facts.
class PointsToAnalysis {
public:
  /// Cell handles; 0 is the invalid cell.
  using CellId = unsigned;
  static constexpr CellId NoCell = 0;

  PointsToAnalysis(const CProgram &Program, CAstContext &Ctx,
                   DiagnosticEngine &Diags)
      : Program(Program), Sema(Program, Ctx, Diags) {}

  /// Generates and solves constraints for the whole program.
  void run();

  /// The storage cell of variable \p Name (pass the enclosing function for
  /// locals/params, null for globals).
  CellId cellOfVar(const CFuncDecl *Func, const std::string &Name);

  /// The storage cell an lvalue expression denotes.
  CellId cellOfLValue(const CExpr *E, const CScope &Scope);

  /// The abstract cell describing the *value* of a pointer expression:
  /// its points-to target is what the pointer may reference.
  CellId valueCell(const CExpr *E, const CScope &Scope);

  /// The (representative of the) points-to target of \p Cell, or NoCell.
  CellId pointsTo(CellId Cell);

  /// Representative lookup; two cells may alias iff their representatives
  /// are equal.
  CellId find(CellId Cell);
  bool mayAlias(CellId A, CellId B) { return find(A) == find(B); }

  /// Human-readable description of a cell's equivalence class: its named
  /// variables, e.g. "{main::p, global::q}", or "{<cell 7>}" for a class
  /// that holds none (heap, strings, pointees). For diagnostics and tests.
  std::string describe(CellId Cell);

  /// All named variables whose storage landed in \p Cell's class. MIXY
  /// uses this to restore aliasing relationships when transitioning from
  /// symbolic to typed blocks (Section 4.2).
  std::vector<std::pair<const CFuncDecl *, std::string>>
  variablesInClass(CellId Cell);

  /// Number of cells allocated (an imprecision metric for benches).
  unsigned numCells() const { return (unsigned)Parents.size() - 1; }

private:
  CellId freshCell();
  void unify(CellId A, CellId B);
  /// The assignment rule: merges the points-to targets of two value
  /// cells (creating them if absent), leaving the cells distinct.
  void unifyValues(CellId A, CellId B);
  /// Ensures \p Cell has a points-to target, creating a fresh one if
  /// needed.
  CellId targetOf(CellId Cell);

  void analyzeFunction(const CFuncDecl *F);
  void analyzeStmt(const CStmt *S, CScope &Scope);
  /// Constraint-generating evaluation; returns the value cell of \p E.
  CellId eval(const CExpr *E, const CScope &Scope);
  void handleCall(const CCall *Call, const CScope &Scope, CellId &RetOut);

  /// Per-function signature cells, used for both direct and
  /// function-pointer calls.
  struct FuncSig {
    std::vector<CellId> Params;
    CellId Ret = NoCell;
  };
  FuncSig &signatureOf(const CFuncDecl *F);

  const CProgram &Program;
  CSema Sema;

  // Union-find state. Index 0 is unused (NoCell).
  std::vector<CellId> Parents;
  std::vector<CellId> Targets; // pts: representative -> target cell

  std::map<std::pair<const CFuncDecl *, std::string>, CellId> VarCells;
  std::map<const CExpr *, CellId> MallocCells;
  std::map<const CFuncDecl *, CellId> FuncCells;
  std::map<const CFuncDecl *, FuncSig> FuncSigs;
  CellId StringCell = NoCell;
};

} // namespace mix::c

#endif // MIX_PTRANAL_POINTSTO_H
