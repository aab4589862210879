//===--- QueryHash.cpp - Canonical solver-query hashing ---------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/QueryHash.h"

#include "support/Hash.h"

#include <unordered_map>
#include <vector>

using namespace mix::smt;

uint64_t mix::smt::canonicalQueryHash(const Term *Formula) {
  // Hash-consing makes structurally equal subterms pointer-equal, so the
  // term is a DAG whose shape is determined by structure alone; walking
  // it with a visited set is both linear and canonical.
  //
  // Pass 1: renumber variables by first occurrence in left-to-right
  // preorder. Raw ids are allocation-ordered, so they must never reach
  // the digest.
  std::unordered_map<const Term *, uint32_t> VarNorm;
  {
    std::unordered_map<const Term *, bool> Seen;
    std::vector<const Term *> Work{Formula};
    while (!Work.empty()) {
      const Term *T = Work.back();
      Work.pop_back();
      if (!Seen.emplace(T, true).second)
        continue;
      if (T->kind() == TermKind::IntVar || T->kind() == TermKind::BoolVar)
        VarNorm.emplace(T, (uint32_t)VarNorm.size());
      for (unsigned I = T->numOperands(); I != 0; --I)
        Work.push_back(T->operand(I - 1));
    }
  }

  // Pass 2: bottom-up digest with memoization over the DAG.
  std::unordered_map<const Term *, uint64_t> Memo;
  std::vector<std::pair<const Term *, bool>> Stack{{Formula, false}};
  while (!Stack.empty()) {
    auto [T, Expanded] = Stack.back();
    Stack.pop_back();
    if (Memo.count(T))
      continue;
    if (!Expanded) {
      Stack.push_back({T, true});
      for (unsigned I = 0; I != T->numOperands(); ++I)
        Stack.push_back({T->operand(I), false});
      continue;
    }
    StableHasher H;
    H.u8((uint8_t)T->kind());
    switch (T->kind()) {
    case TermKind::IntVar:
    case TermKind::BoolVar:
      H.u32(VarNorm.at(T));
      break;
    case TermKind::IntConst:
    case TermKind::MulConst:
    case TermKind::BoolConst:
      H.i64(T->value());
      break;
    default:
      break;
    }
    H.u32(T->numOperands());
    for (unsigned I = 0; I != T->numOperands(); ++I)
      H.u64(Memo.at(T->operand(I)));
    Memo.emplace(T, H.digest());
  }
  return Memo.at(Formula);
}
