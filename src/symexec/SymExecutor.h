//===--- SymExecutor.h - Symbolic executor for the core language -*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic executor of Figures 2 and 3, proving judgments
///
///   Sigma |- <S ; e> || <S' ; s>       with  S = <g ; m>
///
/// Like the paper's formulation it is a very precise dynamic type checker:
/// operations applied to wrongly-typed symbolic values halt that path with
/// a type error. Conditionals either *fork* (SEIf-True / SEIf-False, the
/// DART/KLEE style) or *defer* to the solver with conditional values
/// (SEIf-Defer) — both strategies from Section 3.1 are implemented and
/// selectable, since the paper discusses the trade-off explicitly.
///
/// The SETypBlock mix rule enters through TypedBlockOracle: executing a
/// typed block checks |- m ok, asks the oracle (the type checker, wired up
/// by mix/MixChecker) for the block's type tau, yields a fresh alpha:tau,
/// and havocs memory to a fresh mu'.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SYMEXEC_SYMEXECUTOR_H
#define MIX_SYMEXEC_SYMEXECUTOR_H

#include "lang/Ast.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "provenance/Provenance.h"
#include "support/Diagnostics.h"
#include "sym/SymArena.h"
#include "sym/SymToSmt.h"
#include "solver/ISolver.h"

#include <optional>
#include <string>
#include <vector>

namespace mix {

/// A symbolic execution state S = <g ; m>: path condition and memory.
struct SymState {
  const SymExpr *Path = nullptr; ///< g — the path condition (bool-typed).
  const MemNode *Mem = nullptr;  ///< m — the symbolic memory.
  /// In concolic mode: the signed branch guards taken, in order (the
  /// decision list DART negates to reach new paths). Empty otherwise.
  std::vector<const SymExpr *> Decisions;
  /// With provenance recording on (SymExecOptions::Prov): the branch
  /// decisions that led to this state, in execution order — the witness
  /// path attached to path-sensitive diagnostics. Always empty when
  /// recording is off, so state copies stay cheap.
  std::vector<prov::WitnessStep> Trail;
};

/// A concrete valuation guiding a concolic run (the DART/CUTE style of
/// Section 3.1): values for symbolic variables (by id) and for deferred
/// memory reads (by their hash-consed select expression).
struct ConcolicSeed {
  std::map<unsigned, long long> IntVars;
  std::map<unsigned, bool> BoolVars;
  std::map<const SymExpr *, long long> IntSelects;
  std::map<const SymExpr *, bool> BoolSelects;
};

/// One outcome of executing an expression: either a value in a final
/// state, or a type error discovered along a path.
struct PathResult {
  SymState State;
  /// The resulting symbolic expression; null when IsError.
  const SymExpr *Value = nullptr;
  bool IsError = false;
  SourceLoc ErrorLoc;
  std::string ErrorMessage;

  static PathResult success(SymState S, const SymExpr *V) {
    PathResult R;
    R.State = S;
    R.Value = V;
    return R;
  }
  static PathResult failure(SymState S, SourceLoc Loc, std::string Message) {
    PathResult R;
    R.State = S;
    R.IsError = true;
    R.ErrorLoc = Loc;
    R.ErrorMessage = std::move(Message);
    return R;
  }
};

/// The hook by which the executor "executes" a typed block — the
/// SETypBlock rule of Figure 4. The MIX driver implements this with the
/// type checker; see mix/MixChecker.h.
class TypedBlockOracle {
public:
  virtual ~TypedBlockOracle() = default;

  /// Returns the type of `{t e t}` given the symbolic environment (from
  /// which the typing environment Gamma with |- Sigma : Gamma is derived)
  /// and the state at entry, or null after reporting diagnostics.
  ///
  /// The memory is passed so the oracle can verify values that *escape*
  /// into the typed world: in particular, closure values reachable from
  /// Sigma or memory carry arrow-type annotations that the typed code
  /// will trust, so their bodies must actually type check (see
  /// MixChecker::verifyEscapingClosures). The path condition lets
  /// refinement-style type systems (e.g. sign qualifiers, Section 2's
  /// "Local Refinements of Data") derive sharper qualifiers for the
  /// block's inputs.
  virtual const Type *typeOfTypedBlock(const BlockExpr *Block,
                                       const SymEnv &Env,
                                       const SymState &State) = 0;

  /// Called after typeOfTypedBlock succeeds, with the fresh variable
  /// \p ResultVar the block evaluates to. A refinement-typed oracle may
  /// return a guard to conjoin to the path condition (e.g. alpha > 0
  /// when the block's result type was `pos int`); return null for no
  /// refinement.
  virtual const SymExpr *refineTypedBlockResult(const BlockExpr *Block,
                                                const SymExpr *ResultVar,
                                                SymArena &Arena) {
    (void)Block;
    (void)ResultVar;
    (void)Arena;
    return nullptr;
  }
};

/// Tuning knobs for the executor.
struct SymExecOptions {
  /// How conditionals are handled (Section 3.1, Deferral vs Execution).
  enum class Strategy {
    Fork,  ///< SEIf-True / SEIf-False: explore both branches separately.
    Defer, ///< SEIf-Defer: merge with conditional values g ? s1 : s2.
    Concolic, ///< One path per run, chosen by a concrete valuation (the
              ///< DART/CUTE style); drive with mix/ConcolicDriver.
  };
  Strategy Strat = Strategy::Fork;

  /// Upper bound on simultaneously live paths; exceeding it aborts the
  /// execution with a resource error (which MIX treats as a rejection).
  unsigned MaxPaths = 65536;

  /// Upper bound on executor steps (AST-node visits across all paths).
  unsigned MaxSteps = 1u << 22;

  /// What SETypBlock does to memory (Section 3.2). FullMemory is the
  /// paper's rule: a completely fresh mu'. WriteEffects is the refinement
  /// the paper sketches ("find the effect of e and limit applying this
  /// 'havoc' operation only to locations that could have been changed"):
  /// when the block's write effect resolves to a set of variables, only
  /// their cells are replaced with fresh values; unknown effects fall
  /// back to the full havoc.
  enum class HavocPolicy { FullMemory, WriteEffects };
  HavocPolicy Havoc = HavocPolicy::FullMemory;

  /// SEDeref normally demands |- m ok for the whole memory. The paper
  /// notes the rule "may be made more precise by only requiring
  /// consistency up to a set of writes U and querying a solver to show
  /// that u1 : tau ref [is] disequal to all the address expressions in
  /// U"; with PreciseDeref the executor does exactly that (allocation
  /// addresses are distinct by construction; other pairs ask the solver).
  bool PreciseDeref = false;

  /// Observability sinks (see src/observe/). With a registry attached the
  /// executor maintains "sym.forks", "sym.defers", and "sym.havocs"
  /// counters; with a trace sink it emits matching "sym.fork" /
  /// "sym.defer" / "sym.havoc" instant events. Null disables each at one
  /// branch per site.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceSink *Trace = nullptr;

  /// Provenance recording (see src/provenance/). When attached, every
  /// state carries its branch trail (SymState::Trail) so diagnostics can
  /// print witness paths. Null — the default — records nothing.
  prov::ProvenanceSink *Prov = nullptr;
};

/// Result of a full execution: every path outcome, in exploration order.
struct SymExecResult {
  std::vector<PathResult> Paths;
  /// Set when MaxPaths/MaxSteps tripped; the result is then incomplete
  /// and must not be used to justify exhaustiveness.
  bool ResourceLimitHit = false;
};

/// The symbolic executor.
class SymExecutor {
public:
  SymExecutor(SymArena &Arena, DiagnosticEngine &Diags,
              SymExecOptions Opts = SymExecOptions())
      : Arena(Arena), Diags(Diags), Opts(Opts) {
    if (Opts.Metrics) {
      CForks = Opts.Metrics->counter("sym.forks");
      CDefers = Opts.Metrics->counter("sym.defers");
      CHavocs = Opts.Metrics->counter("sym.havocs");
      CExecPaths = Opts.Metrics->counter("exec.paths");
      CBranchesConc = Opts.Metrics->counter("exec.branches.concrete");
      CTermsBuilt = Opts.Metrics->counter("exec.terms.built");
    }
  }

  /// Installs the mix hook for typed blocks (may be null, in which case
  /// typed blocks are errors — that is "symbolic execution alone").
  void setTypedBlockOracle(TypedBlockOracle *Oracle) { TypedOracle = Oracle; }

  /// Attaches a solver for PreciseDeref's disequality checks (optional).
  void setSolver(smt::ISolver *Solver, SymToSmt *Translator) {
    this->Solver = Solver;
    this->Translator = Translator;
  }

  /// Installs the concrete valuation for Strategy::Concolic (not owned;
  /// must outlive the run).
  void setConcolicSeed(const ConcolicSeed *Seed) { this->Seed = Seed; }
  const ConcolicSeed *concolicSeed() const { return Seed; }

  /// Executes \p E under \p Env from \p Init, exploring all paths.
  SymExecResult run(const Expr *E, const SymEnv &Env, SymState Init);

  /// Executes from the canonical initial state of the TSymBlock rule:
  /// path condition `true` and a fresh arbitrary memory mu.
  SymExecResult run(const Expr *E, const SymEnv &Env);

private:
  std::vector<PathResult> exec(const Expr *E, const SymEnv &Env, SymState S);
  std::vector<PathResult> execBinary(const BinaryExpr *B, const SymEnv &Env,
                                     SymState S);
  std::vector<PathResult> execIf(const IfExpr *I, const SymEnv &Env,
                                 SymState S);
  std::vector<PathResult> execIfDefer(const IfExpr *I, const SymEnv &Env,
                                      SymState S);
  std::vector<PathResult> execIfConcolic(const IfExpr *I, const SymEnv &Env,
                                         SymState S, const SymExpr *Guard);

  /// Evaluates a guard under the concolic seed (defaults: 0 / false).
  bool concreteTruth(const SymExpr *Guard) const;
  long long concreteInt(const SymExpr *E) const;
  std::vector<PathResult> execApp(const AppExpr *A, const SymEnv &Env,
                                  SymState S);
  std::vector<PathResult> execTypedBlock(const BlockExpr *B,
                                         const SymEnv &Env, SymState S);

  /// Applies the configured havoc policy to \p Mem for typed block \p B.
  const MemNode *havocForTypedBlock(const BlockExpr *B, const SymEnv &Env,
                                    const MemNode *Mem);

  /// Applies \p Next to every successful outcome in \p Outcomes,
  /// propagating errors unchanged.
  template <typename Fn>
  std::vector<PathResult> andThen(std::vector<PathResult> Outcomes, Fn Next);

  /// SEDeref's memory premise: |- m ok, or — with PreciseDeref — ok up to
  /// inconsistent writes whose addresses are provably distinct from
  /// \p Addr under the path condition.
  bool derefMemoryOk(const SymState &S, const SymExpr *Addr);

  SymArena &Arena;
  DiagnosticEngine &Diags;
  SymExecOptions Opts;
  TypedBlockOracle *TypedOracle = nullptr;
  smt::ISolver *Solver = nullptr;
  SymToSmt *Translator = nullptr;
  const ConcolicSeed *Seed = nullptr;

  unsigned Steps = 0;
  unsigned LivePaths = 1;
  bool HitLimit = false;

  /// run() nesting depth (oracle re-entry); per-run arena accounting for
  /// the exec.terms.built counter only happens at depth 0.
  unsigned Depth = 0;
  size_t RunBaseExprs = 0;

  // Registry handles (null/free when no registry is attached).
  obs::Counter CForks, CDefers, CHavocs;
  obs::Counter CExecPaths, CBranchesConc, CTermsBuilt;
};

} // namespace mix

#endif // MIX_SYMEXEC_SYMEXECUTOR_H
