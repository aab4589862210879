//===--- CSymExecutor.h - Symbolic executor for mini-C ----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C symbolic executor of Section 4 (the Otter substitute). It
/// executes one function at a time on fully symbolic inputs:
///
///  - memory is lazily initialized "in an incremental manner so that we
///    can sidestep the issue of initializing an arbitrarily recursive
///    data structure; MIXY only initializes as much as is required";
///  - pointers from the calling context start as (alpha ? loc : 0) when
///    their qualifiers allow null, or as a definite fresh location when
///    nonnull (Section 4.1, "From Types to Symbolic Values");
///  - conditionals fork, with solver-pruned infeasible branches;
///  - loops unroll up to a bound (paths beyond it are marked incomplete);
///  - dereferences and calls to nonnull-annotated parameters raise
///    null-dereference warnings when the solver finds the null case
///    feasible under the path condition;
///  - calls to MIX(typed) functions are delegated to a TypedCallHook (the
///    MIXY driver), reproducing the function-granularity block switching
///    of Section 4.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CSYM_CSYMEXECUTOR_H
#define MIX_CSYM_CSYMEXECUTOR_H

#include "cfront/CSema.h"
#include "csym/CSymValue.h"
#include "provenance/Provenance.h"
#include "solver/PathSolver.h"
#include "support/Diagnostics.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace mix::c {

class CSymExecutor;

/// One execution path's mutable state. Locals live here (not in a shared
/// frame) because declarations inside branches allocate per path.
///
/// A path owns its state, and every flow that does not split the path
/// moves it along. The type is move-only: fork() is the one way to copy a
/// state, and the executor calls it only where a branch splits the path
/// (an `if`'s then-branch, a loop's exit path, an indirect call's
/// targets), so the compiler rejects any other copy.
struct CSymState {
  CSymState() = default;
  CSymState(CSymState &&) = default;
  CSymState &operator=(CSymState &&) = default;

  /// A copy of this state for the other side of a branch.
  CSymState fork() const { return CSymState(*this); }

  const smt::Term *Path = nullptr;
  /// The same condition as \ref Path, kept as a chain of branch deltas so
  /// the executor's PathSolver can sync its assertion stack by diffing
  /// against a sibling path instead of re-solving from scratch. Invariant:
  /// PC.folded(Terms) == Path whenever Path was only ever extended through
  /// the executor's own branch sites (PathSolver falls back to a direct
  /// query if a hook breaks this).
  smt::PathCondition PC;
  CStore Store;
  std::map<std::string, LocId> Locals;
  bool Returned = false;
  CSymValue RetValue;
  /// With provenance recording on (CSymOptions::Prov): the branch
  /// decisions that produced this path, in execution order. Always empty
  /// when recording is off, so forks stay cheap.
  std::vector<prov::WitnessStep> Trail;

private:
  CSymState(const CSymState &) = default;
  CSymState &operator=(const CSymState &) = delete;
};

/// MIXY's hook for calls to MIX(typed) functions met during symbolic
/// execution (the SETypBlock direction at function granularity).
class TypedCallHook {
public:
  virtual ~TypedCallHook() = default;

  /// Models the call with the type system. May inspect \p Args (e.g. to
  /// seed null constraints), must set \p RetOut, and may modify
  /// \p State (typically havocking the store). Returns false to fall back
  /// to the executor's conservative extern modelling.
  virtual bool callTypedFunction(CSymExecutor &Exec, CSymState &State,
                                 const CCall *Call, const CFuncDecl *Callee,
                                 const std::vector<CSymValue> &Args,
                                 CSymValue &RetOut) = 0;
};

/// Tuning knobs.
struct CSymOptions {
  unsigned LoopBound = 8;
  unsigned MaxCallDepth = 24;
  unsigned MaxPaths = 4096;
  /// Seed pointer parameters as possibly-null unless told otherwise.
  bool ParamsMayBeNull = true;
  /// Check nonnull annotations on the parameters of called functions.
  bool CheckNonnullArguments = true;
  /// Warn on dereferences whose null case is feasible.
  bool CheckDereferences = true;
  /// Route feasibility checks through an incremental AssertionStack that
  /// pushes/pops branch deltas between sibling paths (the tentpole's
  /// per-path stacks). Off = every check is a from-scratch checkSat; the
  /// verdicts and diagnostics are identical either way.
  bool IncrementalSolver = true;

  /// Provenance recording (see src/provenance/). When attached, states
  /// carry branch trails and every warning emitted with a state in hand
  /// gets a witness path (trail, feasible null path condition, and a
  /// solver model for it). Null — the default — records nothing.
  prov::ProvenanceSink *Prov = nullptr;
};

/// Result of symbolically executing one function.
struct CSymResult {
  struct PathOut {
    const smt::Term *Path = nullptr;
    bool Returned = false;
    CSymValue Ret;
    CStore Store;
  };
  std::vector<PathOut> Paths;
  /// Loop bound / path budget / call depth tripped: the enumeration is
  /// not exhaustive.
  bool Incomplete = false;
  /// Warnings found on feasible paths (also reported to the diagnostic
  /// engine, deduplicated).
  unsigned WarningCount = 0;

  /// The memory object each pointer parameter was seeded to reference
  /// (NoLoc for non-pointer parameters).
  std::vector<LocId> ParamPointeeLocs;
  /// The solver term each scalar parameter was seeded with (null for
  /// pointer parameters). Differential tests use these to evaluate path
  /// conditions under concrete inputs.
  std::vector<const smt::Term *> ParamTerms;
};

/// How a pointer coming from the typed world may behave (Section 4.1).
enum class NullSeed {
  MayBeNull, ///< qualifier solved to null (or optimistic fallback failed)
  Nonnull,   ///< qualifier solved to nonnull (or optimistic assumption)
};

/// The executor. One instance per analysis run; warnings deduplicate
/// across runFunction calls.
class CSymExecutor {
public:
  CSymExecutor(const CProgram &Program, CAstContext &Ctx,
               DiagnosticEngine &Diags, smt::TermArena &Terms,
               smt::ISolver &Solver, CSymOptions Opts = CSymOptions());

  void setTypedCallHook(TypedCallHook *Hook) { this->Hook = Hook; }

  /// Executes \p F with symbolic arguments. \p ParamSeeds gives the
  /// nullability of pointer parameters and \p GlobalSeeds that of
  /// pointer-typed globals (both from the typed calling context,
  /// Section 4.1); missing entries default to declared annotations and
  /// the ParamsMayBeNull option.
  CSymResult
  runFunction(const CFuncDecl *F, const std::vector<NullSeed> &ParamSeeds = {},
              const std::map<std::string, NullSeed> &GlobalSeeds = {});

  // --- queries used by MIXY's symbolic-to-typed translation -------------

  /// The storage object of global \p Name (created on demand; stable
  /// across paths and runs).
  LocId globalLoc(const std::string &Name);

  /// Is `value == null` feasible under \p Path? ("we ask whether
  /// g and (s = 0) is satisfiable", Section 4.1.)
  bool mayBeNull(const smt::Term *Path, const CSymValue &Value);

  /// Reads a cell from a result path's final store *without* lazily
  /// initializing (returns nullopt when never touched).
  static std::optional<CSymValue> finalCell(const CSymResult::PathOut &P,
                                            LocId Loc,
                                            const std::string &Field);

  /// Declared type of a cell (object type or struct field type).
  const CType *cellType(LocId Loc, const std::string &Field) const;

  /// Allocates a fresh object of type \p Ty (exposed for the hook).
  LocId newObject(const CType *Ty, std::string Name);

  /// Havocs the entire store of \p State: every cell re-initializes
  /// lazily on next access (MIXY "has to consider the entire memory when
  /// switching", Section 4.6).
  void havocStore(CSymState &State) { State.Store.clear(); }

  /// Builds the lazily-initialized value for a pointer cell seeded as \p
  /// Seed: nonnull -> fresh object; may-be-null -> (alpha ? obj : null).
  CSymValue seededPointer(const CType *PtrTy, NullSeed Seed,
                          const std::string &Name);

  smt::TermArena &terms() { return Terms; }
  smt::ISolver &solver() { return Solver; }
  DiagnosticEngine &diags() { return Diags; }
  const CProgram &program() const { return Program; }

  /// Seeds the cross-run warning dedup set without reporting anything.
  /// Returns true when the warning was not yet recorded. MIXY uses this
  /// when replaying persisted block diagnostics, so a replayed warning
  /// and a freshly executed one deduplicate against each other exactly
  /// as two fresh runs would.
  bool tryMarkWarningEmitted(SourceLoc Loc, const std::string &Message) {
    return EmittedWarnings.insert(Loc.str() + "|" + Message).second;
  }

  /// Cumulative statistics.
  struct Stats {
    unsigned PathsExplored = 0;
    /// States copied at a branch that splits the path (see fork()).
    unsigned Forks = 0;
    unsigned ForksPruned = 0;
    unsigned NullChecks = 0;
    unsigned CallsInlined = 0;
  };
  const Stats &stats() const { return Statistics; }

private:
  struct Frame {
    const CFuncDecl *Func = nullptr;
    unsigned Depth = 0;
  };

  /// A state paired with the value an expression produced on that path.
  struct Flow {
    CSymState State;
    CSymValue Value;
  };

  /// A guarded storage designator (the result of lvalue resolution).
  struct LVal {
    const smt::Term *Guard;
    LocId Loc;
    std::string Field;
  };

  /// A state paired with the cells an lvalue resolved to on that path.
  struct LResolved {
    CSymState State;
    std::vector<LVal> Cells;
  };

  /// Dispatches a call with evaluated arguments to a known callee: typed
  /// hook, nonnull-argument checks, extern modelling, or inlining.
  void dispatchCall(const CCall *Call, const CFuncDecl *Callee,
                    const std::vector<CSymValue> &Args, CSymState State,
                    const Frame &Frame, std::vector<Flow> &Out);
  /// Conservative model of a call that cannot be inlined (\p Callee is
  /// null for an unknown function pointer).
  Flow externCall(const CFuncDecl *Callee, CSymState State);

  /// Applies \p Op to already-evaluated operand values.
  CSymValue evalBinaryValues(CBinaryOp Op, const CSymValue &L,
                             const CSymValue &R);
  /// The guard under which two pointer(ish) values are equal.
  const smt::Term *pointerEqGuard(const CSymValue &L, const CSymValue &R);

  /// Reads a cell, lazily initializing it.
  CSymValue readCell(CSymState &State, LocId Loc, const std::string &Field);
  /// Writes through guarded cells (Morris's general axiom of assignment).
  void writeCells(CSymState &State, const std::vector<LVal> &Cells,
                  const CSymValue &Value);

  /// Builds the lazy initial value for a cell of type \p Ty.
  CSymValue lazyInit(const CType *Ty, const std::string &Name);

  /// Coerces a value to a boolean term (C truthiness).
  const smt::Term *truthTerm(const CSymValue &V);
  /// Coerces a value to an int-sorted scalar term.
  const smt::Term *intTerm(const CSymValue &V);

  /// Is the state's path condition satisfiable? Uses the incremental
  /// stack when enabled (state chains share prefixes with siblings).
  bool feasible(const CSymState &State);
  /// Is Path ∧ Extra satisfiable? \p Extra is a probe (a null guard, a
  /// branch condition being tested) asserted in a temporary frame, so the
  /// synced path prefix is reused across probes on the same state.
  bool feasibleWith(const CSymState &State, const smt::Term *Extra);
  /// Copies \p State for the other side of a branch, counting the fork.
  CSymState fork(const CSymState &State) {
    ++Statistics.Forks;
    return State.fork();
  }
  /// Conjoins \p Cond onto both representations of the state's path
  /// condition, keeping the Path/PC invariant.
  void extendPath(CSymState &State, const smt::Term *Cond) {
    State.Path = Terms.andTerm(State.Path, Cond);
    State.PC = State.PC.extend(Terms, Cond);
  }

  /// Reports a (deduplicated) warning. When \p State is given and
  /// provenance recording is on, the warning carries a witness path built
  /// from the state's branch trail and \p WitnessCond — the feasible
  /// condition that triggered the warning (defaults to the state's path
  /// condition) — with a satisfying model extracted from the solver.
  void warn(SourceLoc Loc, const std::string &Message,
            const CSymState *State = nullptr,
            const smt::Term *WitnessCond = nullptr);

  // Statement execution: transforms one path into many.
  std::vector<CSymState> execStmt(const CStmt *S, CSymState State,
                                  const Frame &Frame);
  std::vector<CSymState> execWhile(const CWhileStmt *W, CSymState State,
                                   const Frame &Frame);

  // Expression evaluation (calls can fork).
  std::vector<Flow> evalExpr(const CExpr *E, CSymState State,
                             const Frame &Frame);
  std::vector<Flow> evalCall(const CCall *Call, CSymState State,
                             const Frame &Frame);
  std::vector<Flow> inlineCall(const CFuncDecl *F,
                               const std::vector<CSymValue> &Args,
                               CSymState State, unsigned Depth);

  /// Resolves an lvalue to guarded cells, warning about feasible null
  /// dereferences along the way and refining the path condition
  /// (continuing execution assumes the dereference did not trap).
  std::vector<LResolved> resolveLValue(const CExpr *E, CSymState State,
                                       const Frame &Frame);

  const CProgram &Program;
  CAstContext &Ctx;
  CSema Sema;
  DiagnosticEngine &Diags;
  smt::TermArena &Terms;
  smt::ISolver &Solver;
  smt::PathSolver PathChecker;
  CSymOptions Opts;
  TypedCallHook *Hook = nullptr;

  struct ObjInfo {
    const CType *Ty;
    std::string Name;
  };
  std::vector<ObjInfo> Objects; // index 0 unused (NoLoc)
  std::map<std::string, LocId> GlobalLocs;

  std::set<std::string> EmittedWarnings;
  unsigned WarningsThisRun = 0;
  bool IncompleteThisRun = false;
  unsigned PathsThisRun = 0;
  Stats Statistics;
};

} // namespace mix::c

#endif // MIX_CSYM_CSYMEXECUTOR_H
