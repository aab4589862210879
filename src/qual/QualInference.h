//===--- QualInference.h - null/nonnull qualifier inference -----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monomorphic, flow-insensitive null/nonnull type qualifier inference
/// for mini-C — the paper's CilQual. Every pointer position (variable,
/// struct field, parameter, return) gets one qualifier variable per
/// pointer level; assignments, calls, and returns generate flow
/// constraints; NULL literals and `null` annotations are null sources;
/// `nonnull` annotations are bounds. A warning is a flow from a source to
/// a bound, with a witness path.
///
/// The deliberate imprecision matches the paper:
///  - flow-insensitive: assignment order is ignored (Case 1),
///  - path-insensitive: null checks are ignored (Cases 1-3),
///  - context-insensitive: one qualifier per function parameter conflates
///    call sites (Case 2).
///
/// MIXY hooks in through QualSymHook: when the inference reaches a call
/// to a MIX(symbolic) function, the hook analyzes it symbolically and
/// seeds constraints from the result (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_QUAL_QUALINFERENCE_H
#define MIX_QUAL_QUALINFERENCE_H

#include "ptranal/PointsTo.h"
#include "qual/QualGraph.h"

#include <map>
#include <span>
#include <string>
#include <vector>

namespace mix::c {

/// Qualifier variables of an expression, one per pointer level of its
/// type (outermost first). Scalars have an empty vector.
using QualVec = std::vector<QualGraph::Node>;

/// MIXY's entry point into typed regions: called when inference reaches a
/// call to a MIX(symbolic) function.
class QualSymHook {
public:
  virtual ~QualSymHook() = default;

  /// Analyzes the call to \p Callee symbolically and adds the resulting
  /// constraints to the inference that called. \p ArgQuals are the
  /// qualifier variables of the actual arguments; \p RetQuals receives
  /// the result qualifiers. Returns false to fall back to ordinary
  /// monomorphic binding.
  virtual bool handleSymbolicCall(const CCall *Call, const CFuncDecl *Callee,
                                  const std::vector<QualVec> &ArgQuals,
                                  QualVec &RetQuals) = 0;
};

/// Options for the inference.
struct QualOptions {
  /// Treat every pointer dereference as a nonnull requirement (the
  /// "annotate all dereferences" mode the paper chose not to start with).
  bool WarnAllDereferences = false;

  /// When attached, every reported warning carries a qualifier flow
  /// chain (shortest $null-source-to-sink path with per-edge provenance).
  /// Null — the default — skips recording entirely.
  prov::ProvenanceSink *Prov = nullptr;
};

/// The inference engine. Constraint generation is incremental: MIXY calls
/// analyzeFunction for each function in a typed region and solve()
/// whenever it needs qualifier answers. Variables are addressed by the
/// slots parseC's binder gave them (see CBind.h), so every table is a
/// vector sized once, and the references the accessors return stay valid.
class QualInference {
public:
  QualInference(const CProgram &Program, CAstContext &Ctx,
                DiagnosticEngine &Diags, QualOptions Opts = QualOptions());

  void setSymHook(QualSymHook *Hook) { this->Hook = Hook; }

  /// Generates constraints for all globals and every defined function —
  /// "pure type qualifier inference" over the program.
  void analyzeAll();

  /// Generates constraints for one function body (idempotent).
  void analyzeFunction(const CFuncDecl *F);

  /// Generates constraints for global initializers (idempotent).
  void analyzeGlobals();

  /// Recomputes reachability.
  void solve() { Graph.solve(); }

  /// After solve(): reports one warning (plus a witness-path note) per
  /// violated nonnull bound. Returns the number of warnings.
  unsigned reportWarnings();

  /// After solve(): the number of violated nonnull bounds.
  unsigned violationCount() const { return (unsigned)Graph.violations().size(); }

  // --- qualifier variables (for MIXY's translations, Section 4.1) -------

  /// Qualifier variables of a variable: a local slot or a global slot.
  /// A global slot that holds no global (a function's name, an unresolved
  /// identifier) has none.
  const QualVec &qualsOfVar(CVarRef Var);
  const QualVec &qualsOfGlobal(const CGlobalDecl *G) {
    return qualsOfVar({nullptr, G->slot()});
  }
  /// Qualifier variables of field \p Field of \p Struct.
  const QualVec &qualsOfField(const CStructDecl *Struct,
                              const std::string &Field);
  const QualVec &qualsOfReturn(const CFuncDecl *F);
  const QualVec &qualsOfParam(const CFuncDecl *F, unsigned Index);

  /// Qualifier variables of an arbitrary expression in the body of
  /// \p Func, or in a global initializer when \p Func is null (generates
  /// any constraints the expression implies).
  QualVec qualsOfExpr(const CExpr *E, const CFuncDecl *Func);

  /// After solve(): may a null value reach this qualifier variable?
  bool mayBeNull(QualGraph::Node N) const { return Graph.mayBeNull(N); }

  /// Seeds a null source into \p N (used when translating a possibly-null
  /// symbolic value back to types). \p Reason labels the source node;
  /// \p Kind tags the induced edge for flow-chain explanations (MIXY's
  /// block-boundary translations pass MixBoundary).
  void seedNull(QualGraph::Node N, const std::string &Reason, SourceLoc Loc,
                prov::FlowEdgeKind Kind = prov::FlowEdgeKind::Seed);

  /// Adds a plain flow edge (used by alias restoration, Section 4.2).
  void addFlow(QualGraph::Node From, QualGraph::Node To) {
    Graph.addFlow(From, To);
  }

  /// Makes the top-level qualifiers of all pointer variables that the
  /// points-to analysis places in one equivalence class flow into each
  /// other (Section 4.2, symbolic-to-typed transition). \p Loc is the
  /// program point that triggered the restoration (tags the alias edges).
  void unifyAliasClass(std::span<const CVarRef> Vars,
                       SourceLoc Loc = SourceLoc());

  QualGraph &graph() { return Graph; }
  CSema &sema() { return Sema; }

private:
  /// Number of pointer levels along the spine of \p Ty.
  static unsigned qualDepth(const CType *Ty);

  /// Builds the qualifier variables for a declared type, applying its
  /// source annotations.
  QualVec makeQualsForType(const CType *Ty, const std::string &Description,
                           SourceLoc Loc);

  /// Top-level flow plus deeper-level invariance, padding with fresh
  /// nodes where depths differ.
  void flowInto(const QualVec &From, const QualVec &To);

  void analyzeStmt(const CStmt *S, const CFuncDecl *Func);
  QualVec analyzeCall(const CCall *Call, const CFuncDecl *Func);

  /// One table entry, made on first use and kept for the analysis.
  struct Memo {
    QualVec Quals;
    bool Made = false;
  };
  /// What inference keeps per function.
  struct FuncTables {
    Memo Return;
    std::vector<Memo> Params; ///< Sized to the parameter count on first use.
    bool Analyzed = false;
  };

  const CProgram &Program;
  CSema Sema;
  DiagnosticEngine &Diags;
  QualOptions Opts;
  QualGraph Graph;
  QualSymHook *Hook = nullptr;

  std::vector<Memo> GlobalVars;      // by global slot
  std::vector<Memo> LocalVars;       // by CFuncDecl::firstSlot() + slot
  std::vector<FuncTables> FuncInfo;  // by CFuncDecl::index()
  std::map<std::pair<const CStructDecl *, std::string>, QualVec> FieldQuals;
  bool GlobalsAnalyzed = false;
};

} // namespace mix::c

#endif // MIX_QUAL_QUALINFERENCE_H
