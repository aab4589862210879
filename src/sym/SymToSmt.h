//===--- SymToSmt.h - Symbolic-expression to solver translation -*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates symbolic expressions (guards, path conditions) into solver
/// terms so the SMT facade can decide feasibility and the mix rule's
/// exhaustive() tautology.
///
/// The abstraction is the standard one: integer and boolean structure is
/// translated exactly; reference-typed values become integer-sorted
/// variables (addresses); deferred memory reads m[s] become opaque
/// variables, one per distinct read (hash-consing makes "distinct" precise
/// and syntactic). Opaque abstraction only ever *adds* models, which is
/// the conservative direction for both of the solver's jobs here.
///
/// A translator instance memoizes across calls, so the same alpha maps to
/// the same solver variable in every query of an analysis run.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SYM_SYMTOSMT_H
#define MIX_SYM_SYMTOSMT_H

#include "solver/Term.h"
#include "sym/SymArena.h"

#include <unordered_map>

namespace mix {

/// Stateful translator from SymExpr to smt::Term.
class SymToSmt {
public:
  SymToSmt(SymArena &Syms, smt::TermArena &Terms)
      : Syms(Syms), Terms(Terms) {}

  /// Translates \p E; the resulting term's sort is Bool for boolean-typed
  /// expressions and Int for everything else (ints, refs, functions).
  const smt::Term *translate(const SymExpr *E);

  /// The term arena translations are built in.
  smt::TermArena &terms() { return Terms; }

  /// Every translation performed so far. The concolic driver inverts
  /// this map to turn solver models back into valuations over symbolic
  /// variables and deferred reads.
  const std::unordered_map<const SymExpr *, const smt::Term *> &
  translations() const {
    return Cache;
  }

private:
  const smt::Term *translateUncached(const SymExpr *E);
  const smt::Term *varTerm(const SymExpr *E);
  const smt::Term *opaqueTerm(const SymExpr *E);

  SymArena &Syms;
  smt::TermArena &Terms;
  std::unordered_map<const SymExpr *, const smt::Term *> Cache;
};

} // namespace mix

#endif // MIX_SYM_SYMTOSMT_H
