//===--- SymArena.h - Builder/owner of symbolic expressions -----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SymArena owns and hash-conses symbolic expressions and memories, and
/// allocates the fresh symbolic variables (alpha) and base memories (mu)
/// the mix rules need. Constructors enforce the typing discipline of
/// Figure 1 (e.g. `u1:int + u2:bool` cannot be built) and fold constants,
/// matching the SEPlus-Conc style of partial evaluation mentioned in the
/// paper.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SYM_SYMARENA_H
#define MIX_SYM_SYMARENA_H

#include "sym/SymExpr.h"

#include "support/Hash.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mix {

class FunExpr;

/// A symbolic environment Sigma: local variables to symbolic values.
using SymEnv = std::map<std::string, const SymExpr *>;

/// Builds, interns, and owns SymExpr / MemNode instances.
class SymArena {
public:
  explicit SymArena(TypeContext &Types) : Types(Types) {}
  SymArena(const SymArena &) = delete;
  SymArena &operator=(const SymArena &) = delete;

  TypeContext &types() { return Types; }

  // --- Symbolic variables (alpha) ----------------------------------------

  /// Allocates a fresh symbolic variable of type \p Ty. \p IsAllocAddr
  /// marks addresses created by SERef, which the paper's memory model
  /// guarantees distinct from all other allocations.
  const SymExpr *freshVar(const Type *Ty, bool IsAllocAddr = false,
                          std::string Name = "");

  /// True when \p E is a symbolic variable created as an allocation
  /// address (the `->a` log entries). Two distinct allocation addresses
  /// never alias.
  bool isAllocAddress(const SymExpr *E) const;

  /// Debug name for variable \p VarId (may be empty).
  const std::string &varName(unsigned VarId) const;
  /// Declared type of variable \p VarId.
  const Type *varType(unsigned VarId) const;
  unsigned numVars() const { return (unsigned)VarInfos.size(); }

  // --- Constants ----------------------------------------------------------

  const SymExpr *intConst(long long Value);
  const SymExpr *boolConst(bool Value);
  const SymExpr *trueGuard() { return boolConst(true); }
  const SymExpr *falseGuard() { return boolConst(false); }

  // --- Operators (typed; constructors assert sort discipline) ------------

  const SymExpr *add(const SymExpr *L, const SymExpr *R);
  const SymExpr *sub(const SymExpr *L, const SymExpr *R);
  const SymExpr *eq(const SymExpr *L, const SymExpr *R);
  const SymExpr *lt(const SymExpr *L, const SymExpr *R);
  const SymExpr *le(const SymExpr *L, const SymExpr *R);
  const SymExpr *notG(const SymExpr *G);
  const SymExpr *andG(const SymExpr *L, const SymExpr *R);
  const SymExpr *orG(const SymExpr *L, const SymExpr *R);
  const SymExpr *ite(const SymExpr *G, const SymExpr *Then,
                     const SymExpr *Else);

  /// A deferred memory read m[addr : tau ref] : tau, with the McCarthy
  /// select-over-update simplification: reads that definitely hit the
  /// newest matching log entry return the stored value, and entries whose
  /// address is a *different allocation* than \p Addr are skipped (the
  /// paper's distinction between arbitrary writes and allocations).
  const SymExpr *select(const MemNode *Mem, const SymExpr *Addr);

  // --- Memories ------------------------------------------------------------

  /// Allocates a fresh arbitrary memory mu.
  const MemNode *freshBaseMemory();
  /// m,(addr -> value): logs a write (any value type; the paper allows
  /// ill-typed writes here, checked later by the `m ok` judgment).
  const MemNode *update(const MemNode *Prev, const SymExpr *Addr,
                        const SymExpr *Value);
  /// m,(addr ->a value): logs an allocation (addr must be a fresh
  /// allocation address variable).
  const MemNode *alloc(const MemNode *Prev, const SymExpr *Addr,
                       const SymExpr *Value);
  /// g ? m1 : m2 (SEIf-Defer extension).
  const MemNode *iteMem(const SymExpr *G, const MemNode *Then,
                        const MemNode *Else);

  // --- Closures -------------------------------------------------------------

  /// Creates a closure value of function type \p Ty capturing \p Env.
  /// Closures are not hash-consed: each call yields a distinct value.
  const SymExpr *closure(const Type *Ty, const FunExpr *Fun, SymEnv Env);

  /// Collects every closure reachable from \p Value (through operands and
  /// captured environments) into \p Out. Used by the mix rules to find
  /// function values escaping a block boundary.
  void collectClosures(const SymExpr *Value,
                       std::vector<const SymExpr *> &Out) const;
  /// Collects every closure stored in \p Mem's log into \p Out.
  void collectClosuresInMemory(const MemNode *Mem,
                               std::vector<const SymExpr *> &Out) const;
  /// The function body of closure \p E.
  const FunExpr *closureFun(const SymExpr *E) const;
  /// The captured environment of closure \p E.
  const SymEnv &closureEnv(const SymExpr *E) const;

  /// Number of owned expressions (arena growth accounting for the
  /// exec.terms.built metric).
  size_t numExprs() const { return OwnedExprs.size(); }

private:
  const SymExpr *make(SymKind Kind, const Type *Ty, long long Value,
                      std::vector<const SymExpr *> Ops, const MemNode *Mem);
  const MemNode *makeMem(MemKind Kind, unsigned Id, const MemNode *Prev,
                         const SymExpr *Addr, const SymExpr *Val,
                         const MemNode *Else);

  struct VarInfo {
    const Type *Ty;
    bool IsAllocAddr;
    std::string Name;
  };

  struct ExprKey {
    SymKind Kind;
    const Type *Ty;
    long long Value;
    std::vector<const SymExpr *> Ops;
    const MemNode *Mem;
    bool operator==(const ExprKey &O) const {
      return Kind == O.Kind && Ty == O.Ty && Value == O.Value &&
             Ops == O.Ops && Mem == O.Mem;
    }
  };
  struct ExprKeyHash {
    size_t operator()(const ExprKey &K) const {
      size_t H = hashCombine((size_t)K.Kind, std::hash<const void *>()(K.Ty));
      H = hashCombine(H, (size_t)K.Value);
      for (const SymExpr *Op : K.Ops)
        H = hashCombine(H, std::hash<const void *>()(Op));
      return hashCombine(H, std::hash<const void *>()(K.Mem));
    }
  };

  struct MemKey {
    MemKind Kind;
    unsigned Id;
    const MemNode *Prev;
    const SymExpr *Addr;
    const SymExpr *Val;
    const MemNode *Else;
    bool operator==(const MemKey &O) const {
      return Kind == O.Kind && Id == O.Id && Prev == O.Prev &&
             Addr == O.Addr && Val == O.Val && Else == O.Else;
    }
  };
  struct MemKeyHash {
    size_t operator()(const MemKey &K) const {
      size_t H = hashCombine((size_t)K.Kind, K.Id);
      H = hashCombine(H, std::hash<const void *>()(K.Prev));
      H = hashCombine(H, std::hash<const void *>()(K.Addr));
      H = hashCombine(H, std::hash<const void *>()(K.Val));
      return hashCombine(H, std::hash<const void *>()(K.Else));
    }
  };

  TypeContext &Types;
  std::vector<std::unique_ptr<SymExpr>> OwnedExprs;
  std::vector<std::unique_ptr<MemNode>> OwnedMems;
  std::unordered_map<ExprKey, const SymExpr *, ExprKeyHash> InternedExprs;
  std::unordered_map<MemKey, const MemNode *, MemKeyHash> InternedMems;
  std::vector<VarInfo> VarInfos;
  std::vector<std::pair<const FunExpr *, SymEnv>> Closures;
  unsigned NumBaseMemories = 0;
};

} // namespace mix

#endif // MIX_SYM_SYMARENA_H
