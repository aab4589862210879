//===--- Term.h - Solver term language --------------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The term language of the SMT-lite solver used throughout the project.
/// The paper's prototype used STP; this is our from-scratch stand-in. The
/// fragment is what symbolic execution needs: linear integer arithmetic,
/// booleans, and if-then-else terms (for the SEIf-Defer rule and the
/// null-pointer modelling of Section 4.1).
///
/// Terms are hash-consed in a TermArena: structurally equal terms are
/// pointer-equal, so clients can use pointer identity for the syntactic
/// equivalence tests the paper's Overwrite-Ok rule needs.
///
/// A term keeps its at most three operands inline and lives in one of the
/// arena's chunks, whose addresses never move. The arena's intern table
/// is open-addressed over term pointers and is probed with (kind, value,
/// operands) before anything is built, so finding a term that already
/// exists allocates nothing (DESIGN.md §14).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_TERM_H
#define MIX_SOLVER_TERM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace mix::smt {

/// Term sorts. The solver is two-sorted.
enum class Sort { Bool, Int };

/// Term constructors.
enum class TermKind {
  // Integer-sorted terms.
  IntConst, ///< Integer literal.
  IntVar,   ///< Free integer variable (also used for opaque terms).
  Add,      ///< Binary addition.
  Sub,      ///< Binary subtraction.
  Neg,      ///< Unary negation.
  MulConst, ///< Multiplication by a constant (Value * operand 0).
  IteInt,   ///< if-then-else over integers: Ops = {cond, then, else}.

  // Boolean-sorted terms.
  BoolConst, ///< true / false.
  BoolVar,   ///< Free boolean variable.
  EqInt,     ///< Integer equality.
  Lt,        ///< Integer strict less-than.
  Le,        ///< Integer less-or-equal.
  EqBool,    ///< Boolean equivalence.
  Not,
  And,
  Or,
  Implies,
  IteBool, ///< if-then-else over booleans: Ops = {cond, then, else}.
};

/// A hash-consed, immutable term. Build via TermArena; compare with ==.
class Term {
public:
  TermKind kind() const { return Kind; }
  Sort sort() const { return TermSort; }

  /// Literal value for IntConst, multiplier for MulConst, 0/1 for BoolConst.
  long long value() const { return Value; }

  /// Variable id for IntVar / BoolVar.
  unsigned varId() const {
    assert((Kind == TermKind::IntVar || Kind == TermKind::BoolVar) &&
           "varId() on non-variable term");
    return static_cast<unsigned>(Value);
  }

  unsigned numOperands() const { return NumOps; }
  const Term *operand(unsigned I) const {
    assert(I < NumOps && "operand index out of range");
    return Ops[I];
  }

  bool isBool() const { return TermSort == Sort::Bool; }
  bool isInt() const { return TermSort == Sort::Int; }

  /// Renders the term in SMT-LIB-flavoured prefix syntax (for debugging
  /// and tests).
  std::string str() const;

private:
  friend class TermArena;

  /// The most operands a term has (if-then-else).
  static constexpr unsigned MaxOperands = 3;

  Term(TermKind Kind, Sort TermSort, long long Value,
       std::initializer_list<const Term *> Operands)
      : Kind(Kind), TermSort(TermSort),
        NumOps(static_cast<unsigned>(Operands.size())), Value(Value) {
    assert(Operands.size() <= MaxOperands && "too many operands");
    unsigned I = 0;
    for (const Term *Op : Operands)
      Ops[I++] = Op;
  }

  TermKind Kind;
  Sort TermSort;
  unsigned NumOps;
  long long Value;
  const Term *Ops[MaxOperands] = {};
};

/// Renders \p T like Term::str() but with variable indices renumbered in
/// first-occurrence order (left-to-right), so the string depends only on the
/// term's structure — not on how many fresh variables the owning arena had
/// already allocated. Use this wherever a rendered term becomes externally
/// observable output that must be byte-identical across thread schedules
/// (e.g. witness-path path conditions in machine-readable reports).
std::string normalizedStr(const Term *T);

/// Owns and hash-conses terms. Also allocates fresh variable ids.
///
/// The arena applies lightweight local simplifications on construction
/// (constant folding, double negation, neutral elements); these keep terms
/// produced by long symbolic executions compact without a separate
/// simplifier pass.
class TermArena {
public:
  TermArena() = default;
  TermArena(const TermArena &) = delete;
  TermArena &operator=(const TermArena &) = delete;

  // --- Variables ---------------------------------------------------------

  /// Allocates a fresh integer variable with an optional debug name.
  const Term *freshIntVar(std::string Name = "");
  /// Allocates a fresh boolean variable with an optional debug name.
  const Term *freshBoolVar(std::string Name = "");
  /// The already-allocated integer variable with id \p VarId.
  const Term *intVar(unsigned VarId);
  /// The already-allocated boolean variable with id \p VarId.
  const Term *boolVar(unsigned VarId);
  /// Returns the debug name of variable \p VarId of sort \p S (may be "").
  const std::string &varName(Sort S, unsigned VarId) const;
  unsigned numIntVars() const { return (unsigned)IntVarNames.size(); }
  unsigned numBoolVars() const { return (unsigned)BoolVarNames.size(); }

  // --- Integer terms -----------------------------------------------------

  const Term *intConst(long long Value);
  const Term *add(const Term *L, const Term *R);
  const Term *sub(const Term *L, const Term *R);
  const Term *neg(const Term *T);
  const Term *mulConst(long long K, const Term *T);
  const Term *iteInt(const Term *Cond, const Term *Then, const Term *Else);

  // --- Boolean terms -----------------------------------------------------

  const Term *boolConst(bool Value);
  const Term *trueTerm() { return boolConst(true); }
  const Term *falseTerm() { return boolConst(false); }
  const Term *eqInt(const Term *L, const Term *R);
  const Term *lt(const Term *L, const Term *R);
  const Term *le(const Term *L, const Term *R);
  const Term *eqBool(const Term *L, const Term *R);
  const Term *notTerm(const Term *T);
  const Term *andTerm(const Term *L, const Term *R);
  const Term *orTerm(const Term *L, const Term *R);
  const Term *implies(const Term *L, const Term *R);
  const Term *iteBool(const Term *Cond, const Term *Then, const Term *Else);

  /// Generic if-then-else dispatching on the sort of the branches.
  const Term *ite(const Term *Cond, const Term *Then, const Term *Else);

  /// Conjunction of a list (true when empty).
  const Term *andList(const std::vector<const Term *> &Ts);
  /// Disjunction of a list (false when empty).
  const Term *orList(const std::vector<const Term *> &Ts);

private:
  /// The term (kind, value, operands), found or else built.
  const Term *make(TermKind Kind, Sort S, long long Value,
                   std::initializer_list<const Term *> Ops);
  /// Storage for one more term, from the current chunk or a new one.
  void *allocateTerm();
  /// Doubles the intern table and re-inserts every term.
  void growTable();

  /// Chunks of raw term storage; each is twice the size of the one before
  /// (from FirstChunkTerms up to MaxChunkTerms terms), and none moves.
  static constexpr size_t FirstChunkTerms = 32;
  static constexpr size_t MaxChunkTerms = 4096;
  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  size_t ChunkUsed = 0;
  size_t ChunkCapacity = 0;

  /// Open-addressed intern table: a power-of-two array of term pointers
  /// (null is empty), probed linearly, at most half full.
  static constexpr size_t FirstTableSize = 64;
  std::vector<const Term *> Table;
  size_t NumTerms = 0;

  std::vector<std::string> IntVarNames;
  std::vector<std::string> BoolVarNames;
};

} // namespace mix::smt

#endif // MIX_SOLVER_TERM_H
