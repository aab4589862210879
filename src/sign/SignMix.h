//===--- SignMix.h - Mix rules for the sign-qualifier system ----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mix rules instantiated for the sign-qualifier type system — the
/// full "Local Refinements of Data" example of Section 2, mechanized:
///
///   {t let x : unknown int = ... in
///   {s if x > 0 then {t (* x : pos int *) ... t}
///      else if x = 0 then {t (* x : zero int *) ... t}
///      else {t (* x : neg int *) ... t} s} t}
///
/// "At the conditional branches, the symbolic executor will fork and
/// explore the three possibilities ... On entering the typed block in
/// each branch, since the value of x is constrained in the symbolic
/// execution, the type system will start with the appropriate type for
/// x, either pos, zero, or neg int."
///
/// Concretely, the sign-flavoured boundary rules are:
///
///   TSymBlock-sign  — build Sigma from Gamma as usual, but start the
///                     executor with the path condition encoding Gamma's
///                     sign qualifiers (alpha_x > 0 for pos int, ...);
///                     on exit, each path's result sign is recovered by
///                     solver validity queries and joined.
///
///   SETypBlock-sign — derive Gamma by asking the solver, per int-typed
///                     symbol, whether the path condition forces a sign;
///                     after checking, the block result's sign refines
///                     the path condition of the continuing execution.
///
/// The executor, solver, and translation machinery are the same
/// off-the-shelf components MixChecker uses — the point of the exercise
/// is that only this boundary file is new.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SIGN_SIGNMIX_H
#define MIX_SIGN_SIGNMIX_H

#include "mix/MixChecker.h"
#include "solver/SmtSolver.h"
#include "sign/SignChecker.h"

namespace mix {

/// The mixed sign analysis.
class SignMixChecker : public SignSymBlockOracle, public TypedBlockOracle {
public:
  SignMixChecker(TypeContext &PlainTypes, DiagnosticEngine &Diags,
                 MixOptions Opts = MixOptions());

  /// Analyzes \p E with the outermost scope treated as a (sign-)typed
  /// block. Returns the sign-qualified type, or null with diagnostics.
  const SType *checkTyped(const Expr *E, const SignEnv &Gamma = SignEnv());

  /// Analyzes \p E with the outermost scope symbolic.
  const SType *checkSymbolic(const Expr *E,
                             const SignEnv &Gamma = SignEnv());

  // --- TSymBlock-sign ------------------------------------------------------
  const SType *stypeOfSymbolicBlock(const BlockExpr *Block,
                                    const SignEnv &Gamma) override;

  // --- SETypBlock-sign -------------------------------------------------------
  const Type *typeOfTypedBlock(const BlockExpr *Block, const SymEnv &Env,
                               const SymState &State) override;
  const SymExpr *refineTypedBlockResult(const BlockExpr *Block,
                                        const SymExpr *ResultVar,
                                        SymArena &Arena) override;

  const MixStats &stats() const { return Statistics; }
  SignTypeContext &signTypes() { return STypes; }
  smt::SmtSolver &solver() { return Solver; }

  /// Section 4.3 block-cache statistics (shared engine layer).
  engine::BlockCacheStats symCacheStats() const { return Eng.symCacheStats(); }
  engine::BlockCacheStats typedCacheStats() const {
    return Eng.typedCacheStats();
  }

private:
  /// Engine instantiation for the sign domain: blocks are keyed by AST
  /// node plus a rendered SignEnv signature, and both block sides
  /// summarize to the sign-qualified result type (null = failed with
  /// diagnostics).
  struct EngineDomain {
    using Key = engine::NodeContextKey;
    using SymOutcome = const SType *;
    using TypedOutcome = const SType *;
    static constexpr const char *Name = "sign";
  };
  using Engine = engine::MixEngine<EngineDomain>;

  /// The engine configuration implied by \p O.
  static Engine::Config engineConfig(const MixOptions &O);

  /// Renders Gamma as a stable cache-key signature ("x:pos int;...").
  static std::string signSig(const SignEnv &Gamma);

  /// Sign-checks one escaped closure's body (memoized in the engine's
  /// typed cache, failures included).
  bool verifyClosure(const SymExpr *Closure, SourceLoc Loc);

  const SType *checkSymbolicCore(const Expr *Body, const SignEnv &Gamma,
                                 SourceLoc Loc);

  /// The strongest sign the path condition forces on \p Value:
  /// valid(path -> value > 0) gives pos, and so on; Unknown otherwise.
  SignQual signUnderPath(const SymExpr *Path, const SymExpr *Value);

  /// The guard expressing "Value has sign Q" (null for Unknown).
  const SymExpr *signGuard(const SymExpr *Value, SignQual Q);

  /// Sign-checks the bodies of closures escaping a block boundary.
  bool verifyEscapingClosures(const SymExpr *Value, const MemNode *Mem,
                              SourceLoc Loc);

  TypeContext &PlainTypes;
  DiagnosticEngine &Diags;
  MixOptions Opts;

  SignTypeContext STypes;
  SymArena Syms;
  smt::TermArena Terms;
  smt::SmtSolver Solver;
  SymToSmt Translator;
  SignChecker Checker;
  SymExecutor Executor;
  MixStats Statistics;

  /// The sign result of the most recent typed-block check, consumed by
  /// refineTypedBlockResult. Updated on engine cache hits too, so a
  /// replayed typed block still refines the continuing execution.
  std::map<const BlockExpr *, const SType *> TypedBlockResults;

  // The shared engine layer: block caches plus the Section 4.4 block
  // stack.
  Engine Eng;

  /// Guards asserted by refineTypedBlockResult during the current
  /// symbolic run. They are *justified assumptions* (the sign checker
  /// proved them for every concrete execution of the typed block), so
  /// the exhaustiveness obligation may take them as axioms:
  /// InitPath /\ Axioms => g_1 \/ ... \/ g_n.
  std::vector<const SymExpr *> RefinementAxioms;

  /// Checks that the final memory respects the sign qualifiers of
  /// Gamma-provided reference cells (the sign analogue of |- m ok):
  /// every write that may land in such a cell must store a value of the
  /// required sign under the path condition.
  bool checkSignedMemory(
      const std::map<const SymExpr *, SignQual> &SignedRefs,
      const MemNode *Mem, const SymExpr *Path, SourceLoc Loc);
};

} // namespace mix

#endif // MIX_SIGN_SIGNMIX_H
