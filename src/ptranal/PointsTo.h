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
#include <span>
#include <string>
#include <vector>

namespace mix::c {

/// Whole-program may-points-to facts. Variables are addressed by the
/// slots parseC's binder gave them (see CBind.h): the tables are vectors
/// over the global slots, the local slots and the function indices.
class PointsToAnalysis {
public:
  /// Cell handles; 0 is the invalid cell.
  using CellId = unsigned;
  static constexpr CellId NoCell = 0;

  PointsToAnalysis(const CProgram &Program, CAstContext &Ctx,
                   DiagnosticEngine &Diags);

  /// Generates and solves constraints for the whole program, then indexes
  /// the variables of every class. Later lookups create no cells.
  void run();

  /// The storage cell of global \p G, or NoCell if the program never
  /// gave it one.
  CellId cellOfGlobal(const CGlobalDecl *G) {
    return find(GlobalCells[G->slot()]);
  }
  /// The storage cell of local slot \p Slot of \p Func, or NoCell.
  CellId cellOfLocal(const CFuncDecl *Func, unsigned Slot) {
    return find(LocalCells[Func->firstSlot() + Slot]);
  }

  /// The (representative of the) points-to target of \p Cell, or NoCell.
  CellId pointsTo(CellId Cell);

  /// Representative lookup; two cells may alias iff their representatives
  /// are equal.
  CellId find(CellId Cell);
  bool mayAlias(CellId A, CellId B) { return find(A) == find(B); }

  /// Human-readable description of a cell's equivalence class: its named
  /// variables, e.g. "{global::q, main::p}", or "{<cell 7>}" for a class
  /// that holds none (heap, strings, pointees). For diagnostics and tests.
  std::string describe(CellId Cell);

  /// All named variables whose storage landed in \p Cell's class, after
  /// run(): global-level names first, by name, then each function's
  /// locals, functions in declaration order and names in byte order. The
  /// span views the index run() builds. MIXY uses this to restore
  /// aliasing relationships when transitioning from symbolic to typed
  /// blocks (Section 4.2).
  std::span<const CVarRef> variablesInClass(CellId Cell);

  /// Number of cells allocated (an imprecision metric for benches).
  unsigned numCells() const { return (unsigned)Parents.size() - 1; }
  /// Number of unions of two distinct classes.
  unsigned numUnions() const { return Unions; }

private:
  CellId freshCell();
  void unify(CellId A, CellId B);
  /// The assignment rule: merges the points-to targets of two value
  /// cells (creating them if absent), leaving the cells distinct.
  void unifyValues(CellId A, CellId B);
  /// Ensures \p Cell has a points-to target, creating a fresh one if
  /// needed.
  CellId targetOf(CellId Cell);

  /// The storage cell of a global slot or a local slot, created on first
  /// use.
  CellId globalCell(unsigned Slot);
  CellId localCell(const CFuncDecl *Func, unsigned Slot);
  /// The return cell of \p F, creating its parameter and return cells
  /// on first use. Used for both direct and function-pointer calls.
  CellId signatureOf(const CFuncDecl *F);
  /// Binds argument values to the parameters of \p F.
  void bindArgs(const CFuncDecl *F, const std::vector<CellId> &ArgCells);

  void analyzeFunction(const CFuncDecl *F);
  void analyzeStmt(const CStmt *S, const CFuncDecl *Func);
  /// Constraint-generating evaluation inside \p Func (null for a global
  /// initializer); returns the value cell of \p E.
  CellId eval(const CExpr *E, const CFuncDecl *Func);
  /// The storage cell an lvalue expression denotes.
  CellId cellOfLValue(const CExpr *E, const CFuncDecl *Func);
  CellId handleCall(const CCall *Call, const CFuncDecl *Func);
  /// Builds the class index variablesInClass() reads.
  void indexClasses();

  const CProgram &Program;
  CSema Sema;

  // Union-find state. Index 0 is unused (NoCell).
  std::vector<CellId> Parents;
  std::vector<CellId> Targets; // pts: representative -> target cell
  unsigned Unions = 0;

  std::vector<CellId> GlobalCells; // by global slot
  std::vector<CellId> LocalCells;  // by CFuncDecl::firstSlot() + slot
  std::vector<CellId> FuncCells;   // by CFuncDecl::index(): the function
  std::vector<CellId> RetCells;    // by CFuncDecl::index(): its result
  std::map<const CExpr *, CellId> MallocCells;
  CellId StringCell = NoCell;

  /// The class index: the members of class C are
  /// ClassMembers[ClassStart[C] .. ClassStart[C + 1]).
  std::vector<unsigned> ClassStart;
  std::vector<CVarRef> ClassMembers;
};

} // namespace mix::c

#endif // MIX_PTRANAL_POINTSTO_H
