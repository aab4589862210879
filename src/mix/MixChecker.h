//===--- MixChecker.h - The MIX analysis driver -----------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MixChecker wires the off-the-shelf type checker and symbolic executor
/// together with the two mix rules of Figure 4:
///
///   TSymBlock   — to *type check* `{s e s}`, build Sigma mapping each
///                 x in Gamma to a fresh alpha_x : Gamma(x), run the
///                 symbolic executor from <true ; mu> over all paths,
///                 require every feasible path to succeed with the same
///                 type tau and a consistent memory, and require
///                 exhaustive(g1, ..., gn) — the disjunction of the path
///                 conditions must be a tautology.
///
///   SETypBlock  — to *symbolically execute* `{t e t}`, derive Gamma with
///                 |- Sigma : Gamma, check |- m ok, type check e, and
///                 continue with a fresh alpha : tau and havocked memory.
///
/// This is the paper's core claim made executable: both analyses run
/// unmodified; only these boundary rules exchange information.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_MIX_MIXCHECKER_H
#define MIX_MIX_MIXCHECKER_H

#include "engine/MixEngine.h"
#include "solver/SolverFactory.h"
#include "symexec/SymExecutor.h"
#include "types/TypeChecker.h"

#include <memory>

namespace mix {

/// Configuration of the mixed analysis.
struct MixOptions {
  SymExecOptions Exec;

  /// Section 3.2: exhaustive() can be required (sound) or weakened to a
  /// "good enough check" (the unsound-but-useful mode of typical symbolic
  /// executors).
  enum class Exhaustiveness {
    Require,        ///< Reject unless path conditions form a tautology.
    AssumeComplete, ///< Trust the executor's path enumeration.
  };
  Exhaustiveness Exhaustive = Exhaustiveness::Require;

  /// Require |- m ok on every exit state of a symbolic block (the
  /// "all paths leave memory in a consistent state" premise).
  bool CheckFinalMemory = true;

  /// How symbolic blocks enumerate paths. AllPaths is the formal rule;
  /// Concolic is the DART/CUTE loop of Section 3.1 (one path per
  /// concrete run, flips solved via model extraction) — still sound,
  /// because exhaustive() rejects when the run budget truncated the
  /// enumeration.
  enum class Exploration { AllPaths, Concolic };
  Exploration Explore = Exploration::AllPaths;
  unsigned MaxConcolicRuns = 512;

  smt::SmtOptions Smt;

  /// Which solver backend answers feasibility/exhaustiveness queries.
  smt::SolverSpec Solver;

  /// Observability sinks (see src/observe/). The checker copies these
  /// into Smt and Exec, so solver latency histograms and executor
  /// fork/defer/havoc events land in the same registry/trace; it also
  /// maintains live "mix.*" counters mirroring MixStats and wraps each
  /// block boundary in a "mix.block.sym" / "mix.block.typed" span. Null
  /// (the default) disables everything at one branch per site.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceSink *Trace = nullptr;

  /// Per-request telemetry context (see src/observe/Phase.h). Copied into
  /// Smt like the sinks above; block boundaries and solver
  /// queries attribute their wall time to the request's phase breakdown.
  /// Null — the default — costs one branch per site.
  obs::RequestTelemetry *Telemetry = nullptr;

  /// Provenance recording (see src/provenance/). When attached — the
  /// checker copies it into Exec — every feasible-path error carries a
  /// witness path: the branch trail, the path condition, and the solver
  /// model already extracted for the witness note. Null records nothing.
  prov::ProvenanceSink *Prov = nullptr;
};

/// Statistics describing one analysis run.
struct MixStats {
  unsigned SymBlocksChecked = 0;
  unsigned TypedBlocksExecuted = 0;
  unsigned PathsExplored = 0;
  unsigned InfeasiblePathsDiscarded = 0;
  unsigned ExhaustivenessChecks = 0;
};

/// The mixed analysis: a provably sound combination of type checking and
/// symbolic execution (Theorem 1 of the paper).
class MixChecker : public SymBlockOracle, public TypedBlockOracle {
public:
  MixChecker(TypeContext &Types, DiagnosticEngine &Diags,
             MixOptions Opts = MixOptions());

  /// Analyzes \p E with the outermost scope treated as a typed block.
  /// Returns the program type, or null after reporting diagnostics.
  const Type *checkTyped(const Expr *E, const TypeEnv &Gamma = TypeEnv());

  /// Analyzes \p E with the outermost scope treated as a symbolic block.
  const Type *checkSymbolic(const Expr *E, const TypeEnv &Gamma = TypeEnv());

  // --- Mix rules (the oracles installed into both analyses) -------------

  /// TSymBlock (Figure 4).
  const Type *typeOfSymbolicBlock(const BlockExpr *Block,
                                  const TypeEnv &Gamma) override;

  /// SETypBlock (Figure 4): derives Gamma from Sigma (|- Sigma : Gamma)
  /// and type checks the block body. Closure values reachable from Sigma
  /// or memory are verified first (see verifyEscapingClosures).
  const Type *typeOfTypedBlock(const BlockExpr *Block, const SymEnv &Env,
                               const SymState &State) override;

  const MixStats &stats() const { return Statistics; }
  smt::ISolver &solver() { return *Solver; }
  SymArena &symbols() { return Syms; }

  /// Section 4.3 block-cache statistics (shared engine layer). The
  /// symbolic cache memoizes TSymBlock results per (block, Gamma); the
  /// typed cache memoizes SETypBlock results and escaped-closure
  /// verification verdicts.
  engine::BlockCacheStats symCacheStats() const { return Eng.symCacheStats(); }
  engine::BlockCacheStats typedCacheStats() const {
    return Eng.typedCacheStats();
  }

private:
  /// Engine instantiation for the formal MIX domain. A block's calling
  /// context (Section 4.3) is its AST node plus a rendered Gamma
  /// signature; both block sides summarize to the result type (null =
  /// the analysis failed and diagnostics were reported).
  struct EngineDomain {
    using Key = engine::NodeContextKey;
    using SymOutcome = const Type *;
    using TypedOutcome = const Type *;
    static constexpr const char *Name = "mix";
  };
  using Engine = engine::MixEngine<EngineDomain>;

  /// The engine configuration implied by \p O (metrics).
  static Engine::Config engineConfig(const MixOptions &O);

  /// Renders Gamma as a stable cache-key signature ("x:int;y:bool;").
  static std::string gammaSig(const TypeEnv &Gamma);

  /// Shared body of TSymBlock and checkSymbolic: run the executor over
  /// all paths of \p Body from Gamma-derived inputs and validate the
  /// premises of the rule. \p Loc anchors diagnostics.
  const Type *checkSymbolicCore(const Expr *Body, const TypeEnv &Gamma,
                                SourceLoc Loc);

  /// Closure values carry arrow-type annotations that the executor only
  /// validates when it *applies* them; when a closure escapes across a
  /// block boundary (as a block result, through Sigma, or stored in
  /// memory) the receiving analysis trusts the annotation, so the body
  /// must be type checked here. Returns false (with diagnostics) when
  /// some escaping closure's body does not check. Results are memoized.
  bool verifyEscapingClosures(const SymExpr *Value, const MemNode *Mem,
                              SourceLoc Loc);
  bool verifyClosure(const SymExpr *Closure, SourceLoc Loc);

  /// The model's values for the block's named scalar inputs, in name
  /// order — the concrete counterexample attached to feasible-path error
  /// reports.
  std::vector<prov::ModelBinding> witnessBindings(const SymEnv &Env,
                                                  const smt::SmtModel &Model);

  /// Renders witnessBindings as "x = -3, b = true".
  std::string describeWitness(const SymEnv &Env, const smt::SmtModel &Model);

  /// Reports the SymExecError for failed path \p P (with its witness
  /// note) and, when provenance is on, attaches the witness-path payload.
  void reportPathError(const PathResult &P, SourceLoc BlockLoc,
                       const SymEnv &Env, const smt::SmtModel &Model);

  /// The executor configuration implied by \p Opts (adjusts the strategy
  /// for concolic exploration).
  static SymExecOptions executorOptionsFor(const MixOptions &Opts);

  TypeContext &Types;
  DiagnosticEngine &Diags;
  MixOptions Opts;

  SymArena Syms;
  smt::TermArena Terms;
  std::unique_ptr<smt::ISolver> Solver;
  SymToSmt Translator;
  TypeChecker Checker;
  SymExecutor Executor;
  MixStats Statistics;

  // Registry handles mirroring MixStats live (null/free without a
  // registry).
  obs::Counter CSymBlocks, CTypedBlocks, CPaths, CInfeasible, CExhaustive;

  // The shared engine layer: block caches plus the Section 4.4 block
  // stack.
  Engine Eng;
};

} // namespace mix

#endif // MIX_MIX_MIXCHECKER_H
