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
///  - conditionals fork, with solver-pruned infeasible branches; each
///    path carries a witness model of its path condition, so a fork asks
///    the solver only about the side that model does not satisfy;
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
#include "solver/ISolver.h"
#include "support/Diagnostics.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace mix::c {

/// A solver model, shared by the paths that fork from the state holding
/// it.
using SharedModel = std::shared_ptr<const smt::SmtModel>;

/// One execution path's mutable state (DESIGN.md "Flat path state").
///
/// Locals are one vector of object ids with a frame per active call: the
/// binder's local slots of the function being executed, from the frame's
/// base on (CSymExecutor::Frame). A path owns its state, and every flow
/// that does not split the path moves it along. The type is move-only:
/// fork() is the one way to copy a state, and the executor calls it only
/// where a branch splits the path (an `if`'s then-branch, a loop's exit
/// path, an indirect call's targets), so the compiler rejects any other
/// copy. A fork copies two flat arrays (the store and the locals); values
/// are handles and the witness is shared.
struct CSymState {
  CSymState() = default;
  CSymState(CSymState &&) = default;
  CSymState &operator=(CSymState &&) = default;

  /// A copy of this state for the other side of a branch.
  CSymState fork() const { return CSymState(*this); }

  const smt::Term *Path = nullptr;
  /// A complete model of \ref Path, or null when none is known (a probe
  /// answered Unknown, or its model was incomplete). Invariant: when
  /// non-null, the witness satisfies Path. Forks share it.
  SharedModel Witness;
  CStore Store;
  std::vector<LocId> Locals;
  bool Returned = false;
  CSymValue RetValue;
  /// With provenance recording on (CSymOptions::Prov): the branch
  /// decisions that produced this path, in execution order. Always empty
  /// when recording is off, so forks stay cheap.
  std::vector<prov::WitnessStep> Trail;

private:
  CSymState(const CSymState &O)
      : Path(O.Path), Witness(O.Witness), Store(O.Store), Returned(O.Returned),
        RetValue(O.RetValue), Trail(O.Trail) {
    Locals.reserve(O.Locals.capacity());
    Locals.assign(O.Locals.begin(), O.Locals.end());
  }
  CSymState &operator=(const CSymState &) = delete;
};

/// A list with room for one element inline, so a flow that neither forks
/// nor kills its path hands on its one successor without touching the
/// heap. Order is insertion order.
template <typename T> class SmallList {
public:
  SmallList() = default;
  explicit SmallList(T &&X) { One.emplace(std::move(X)); }
  /// A moved-from list is empty.
  SmallList(SmallList &&O) noexcept
      : One(std::move(O.One)), Many(std::move(O.Many)) {
    O.clear();
  }
  SmallList &operator=(SmallList &&O) noexcept {
    One = std::move(O.One);
    Many = std::move(O.Many);
    O.clear();
    return *this;
  }

  void push_back(T &&X) {
    if (!One && Many.empty()) {
      One.emplace(std::move(X));
      return;
    }
    if (One) {
      Many.reserve(2);
      Many.push_back(std::move(*One));
      One.reset();
    }
    Many.push_back(std::move(X));
  }
  /// Empties the list; a spilled list keeps its heap room.
  void clear() {
    One.reset();
    Many.clear();
  }
  bool empty() const { return !One && Many.empty(); }
  size_t size() const { return One ? 1 : Many.size(); }
  T *begin() { return One ? &*One : Many.data(); }
  T *end() { return One ? &*One + 1 : Many.data() + Many.size(); }
  const T *begin() const { return One ? &*One : Many.data(); }
  const T *end() const { return One ? &*One + 1 : Many.data() + Many.size(); }
  T &operator[](size_t I) { return begin()[I]; }

private:
  /// Engaged only while the list holds exactly one element.
  std::optional<T> One;
  std::vector<T> Many;
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
  virtual bool callTypedFunction(CSymState &State, const CCall *Call,
                                 const CFuncDecl *Callee,
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

  /// The storage object of global \p G, shared by every declaration of
  /// its name (created on demand; stable across paths and runs).
  LocId globalLoc(const CGlobalDecl *G);

  /// Is `value == null` feasible under \p Path? ("we ask whether
  /// g and (s = 0) is satisfiable", Section 4.1.)
  bool mayBeNull(const smt::Term *Path, const CSymValue &Value);

  /// Reads a cell from a result path's final store *without* lazily
  /// initializing (returns nullopt when never touched).
  static std::optional<CSymValue>
  finalCell(const CSymResult::PathOut &P, LocId Loc,
            FieldId Field = WholeObject);

  /// Declared type of a cell (object type or struct field type).
  const CType *cellType(LocId Loc, FieldId Field) const;

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

  /// The field paths of this executor's cells and pointer targets.
  FieldPaths &fieldPaths() { return Fields; }
  /// The storage of this executor's pointer values.
  PtrCaseArena &ptrCases() { return Cases; }
  /// A definite single-target pointer, in this executor's storage.
  CSymValue pointerTo(PtrTarget Target) {
    return CSymValue::pointerTo(Cases, Terms, Target);
  }

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
  /// An active call: the function whose body runs, its inlining depth,
  /// and where its local slots start in CSymState::Locals.
  struct Frame {
    const CFuncDecl *Func = nullptr;
    unsigned Depth = 0;
    unsigned Base = 0;
  };

  /// A state paired with the value an expression produced on that path.
  struct Flow {
    CSymState State;
    CSymValue Value;
  };

  /// A guarded storage designator (the result of lvalue resolution).
  struct LVal {
    const smt::Term *Guard;
    CellKey Cell;
  };

  /// A state paired with the cells an lvalue resolved to on that path.
  struct LResolved {
    CSymState State;
    SmallList<LVal> Cells;
  };

  using Paths = SmallList<CSymState>;
  using Flows = SmallList<Flow>;
  using LResolveds = SmallList<LResolved>;

  /// Dispatches a call with evaluated arguments to a known callee: typed
  /// hook, nonnull-argument checks, extern modelling, or inlining.
  void dispatchCall(const CCall *Call, const CFuncDecl *Callee,
                    const std::vector<CSymValue> &Args, CSymState State,
                    const Frame &Frame, Flows &Out);
  /// Conservative model of a call that cannot be inlined (\p Callee is
  /// null for an unknown function pointer).
  Flow externCall(const CFuncDecl *Callee, CSymState State);

  /// Applies \p Op to already-evaluated operand values.
  CSymValue evalBinaryValues(CBinaryOp Op, const CSymValue &L,
                             const CSymValue &R);
  /// The guard under which two pointer(ish) values are equal.
  const smt::Term *pointerEqGuard(const CSymValue &L, const CSymValue &R);

  /// The object an identifier denotes on this path: a local of the frame,
  /// or a global; NoLoc for a function or an unresolved name.
  LocId varLoc(const CIdent *Id, const CSymState &State, const Frame &Frame);
  /// A fresh object for local slot \p Slot of \p F, named on demand.
  LocId newLocal(const CFuncDecl *F, unsigned Slot, const CType *Ty);
  /// The debug name of an object, which names its cells' fresh values.
  std::string objectName(LocId Loc) const;

  /// Reads a cell, lazily initializing it.
  CSymValue readCell(CSymState &State, CellKey Cell);
  /// Writes through guarded cells (Morris's general axiom of assignment).
  void writeCells(CSymState &State, const SmallList<LVal> &Cells,
                  const CSymValue &Value);

  /// Builds the lazy initial value for a cell of type \p Ty.
  CSymValue lazyInit(const CType *Ty, const std::string &Name);

  /// Coerces a value to a boolean term (C truthiness).
  const smt::Term *truthTerm(const CSymValue &V);
  /// Coerces a value to an int-sorted scalar term.
  const smt::Term *intTerm(const CSymValue &V);

  /// Is Path ∧ Extra satisfiable (or not known to be unsatisfiable)?
  /// \p Extra is a probe: a null guard, or a branch condition being
  /// tested. The witness rule: when the state's witness satisfies Extra
  /// the answer is yes with no backend call; otherwise one backend
  /// decision of Path ∧ Extra. \p WitnessOut, when given, receives a
  /// model of Path ∧ Extra for the extended path (null when none is
  /// known).
  bool feasibleWith(const CSymState &State, const smt::Term *Extra,
                    SharedModel *WitnessOut = nullptr);
  /// Copies \p State for the other side of a branch, counting the fork.
  CSymState fork(const CSymState &State) {
    ++Statistics.Forks;
    return State.fork();
  }
  /// Conjoins \p Cond onto the state's path condition. \p Witness is
  /// the model feasibleWith() gave for that extension.
  void extendPath(CSymState &State, const smt::Term *Cond,
                  SharedModel Witness) {
    State.Path = Terms.andTerm(State.Path, Cond);
    State.Witness = std::move(Witness);
  }
  /// Conjoins \p Cond onto the state's path condition when that is
  /// feasible; returns false, leaving the state as it was, when Path ∧
  /// Cond is unsatisfiable.
  bool assume(CSymState &State, const smt::Term *Cond) {
    SharedModel Witness;
    if (!feasibleWith(State, Cond, &Witness))
      return false;
    extendPath(State, Cond, std::move(Witness));
    return true;
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
  Paths execStmt(const CStmt *S, CSymState State, const Frame &Frame);
  Paths execWhile(const CWhileStmt *W, CSymState State, const Frame &Frame);
  /// Runs an `if` branch or a `while` body and appends its paths to \p
  /// Out. The body's declarations end with it, as the binder's scopes do:
  /// every path leaving it gets back the frame's locals it entered with.
  void execScoped(const CStmt *Body, CSymState State, const Frame &Frame,
                  Paths &Out);

  // Expression evaluation (calls can fork).
  Flows evalExpr(const CExpr *E, CSymState State, const Frame &Frame);
  Flows evalCall(const CCall *Call, CSymState State, const Frame &Frame);
  Flows inlineCall(const CFuncDecl *F, const std::vector<CSymValue> &Args,
                   CSymState State, unsigned Depth);

  /// Resolves an lvalue to guarded cells, warning about feasible null
  /// dereferences along the way and refining the path condition
  /// (continuing execution assumes the dereference did not trap).
  LResolveds resolveLValue(const CExpr *E, CSymState State,
                           const Frame &Frame);
  /// The null check of a dereference of \p Ptr, then the assumption that
  /// it survived; false when the path dies there (definitely null).
  bool derefSurvives(SourceLoc Loc, CSymState &State, const CSymValue &Ptr);

  const CProgram &Program;
  CAstContext &Ctx;
  CSema Sema;
  DiagnosticEngine &Diags;
  smt::TermArena &Terms;
  smt::ISolver &Solver;
  CSymOptions Opts;
  TypedCallHook *Hook = nullptr;

  /// An object's type and name. A local's or parameter's name is built
  /// only when asked for: "Func::slot name".
  struct ObjInfo {
    const CType *Ty;
    const CFuncDecl *Func = nullptr;
    unsigned Slot = 0;
    std::string Name; ///< When Func is null.
  };
  std::vector<ObjInfo> Objects; // index 0 unused (NoLoc)
  /// The object of each global slot, NoLoc until first use.
  std::vector<LocId> GlobalLocs;
  FieldPaths Fields;
  PtrCaseArena Cases;
  const smt::Term *True;
  CSymValue NullPtr;
  /// The locals that enclosing execScoped() calls restore, as a stack.
  std::vector<LocId> SavedLocals;

  std::set<std::string> EmittedWarnings;
  unsigned WarningsThisRun = 0;
  bool IncompleteThisRun = false;
  unsigned PathsThisRun = 0;
  Stats Statistics;
  /// Probes answered by a path's witness ("solver.inc.model_reuse") and
  /// by a backend decision ("solver.inc.queries"); detached unless the
  /// solver's options carry a metrics registry.
  obs::Counter CWitnessAnswers, CBackendProbes;
};

} // namespace mix::c

#endif // MIX_CSYM_CSYMEXECUTOR_H
