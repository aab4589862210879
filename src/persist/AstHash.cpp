//===--- AstHash.cpp - Stable content hashes over mini-C ASTs ---------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "persist/AstHash.h"

#include "cfront/CPrinter.h"
#include "support/Hash.h"
#include "support/Scc.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

using namespace mix::persist;
using namespace mix::c;

uint64_t mix::persist::functionContentHash(const CFuncDecl &F) {
  StableHasher H;
  H.str(F.name());
  H.u8((uint8_t)F.mixAnnot());
  H.str(printDecl(F.returnType(), ""));
  H.u32((uint32_t)F.params().size());
  for (const CFuncDecl::Param &P : F.params()) {
    H.str(P.Name);
    H.str(printDecl(P.Ty, ""));
  }
  H.boolean(F.isDefined());
  if (F.isDefined())
    H.str(printStmt(F.body()));
  return H.digest();
}

uint64_t mix::persist::environmentHash(const CProgram &P) {
  StableHasher H;
  H.u32((uint32_t)P.structs().size());
  for (const CStructDecl *S : P.structs()) {
    H.str(S->name());
    H.u32((uint32_t)S->fields().size());
    for (const CStructDecl::Field &F : S->fields()) {
      H.str(F.Name);
      H.str(printDecl(F.Ty, ""));
    }
  }
  H.u32((uint32_t)P.globals().size());
  for (const CGlobalDecl *G : P.globals()) {
    H.str(G->name());
    H.str(printDecl(G->type(), ""));
    H.boolean(G->init() != nullptr);
    if (G->init())
      H.str(printExpr(G->init()));
  }
  // Extern signatures are part of every block's environment; defined
  // bodies are covered per-function by the closure hashes.
  for (const CFuncDecl *F : P.funcs())
    if (!F->isDefined())
      H.u64(functionContentHash(*F));
  return H.digest();
}

std::map<const CFuncDecl *, uint64_t> mix::persist::closureHashes(
    const std::map<const CFuncDecl *, uint64_t> &Content,
    const std::map<const CFuncDecl *, std::vector<const CFuncDecl *>> &Deps,
    uint64_t EnvHash) {
  // Number the nodes: Content's functions first, by ascending content
  // hash, so the set bits of a cone enumerate its hashes already sorted;
  // then every other node the edges mention (externs, a hub node).
  std::vector<std::pair<uint64_t, const CFuncDecl *>> ByHash;
  for (const auto &[F, Hash] : Content)
    ByHash.emplace_back(Hash, F);
  std::sort(ByHash.begin(), ByHash.end());
  std::unordered_map<const CFuncDecl *, size_t> Id;
  for (const auto &[Hash, F] : ByHash)
    Id.emplace(F, Id.size());
  const size_t NumContent = Id.size();
  auto IdOf = [&](const CFuncDecl *F) {
    return Id.emplace(F, Id.size()).first->second;
  };
  std::vector<std::vector<size_t>> Adj(NumContent);
  for (const auto &[F, Succs] : Deps) {
    size_t V = IdOf(F);
    if (V >= Adj.size())
      Adj.resize(V + 1);
    for (const CFuncDecl *G : Succs)
      Adj[V].push_back(IdOf(G));
  }
  Adj.resize(Id.size());

  // Reachability is constant on an SCC, and Tarjan emits every SCC after
  // all of its successors: one pass folds each SCC's successor cones into
  // its own bitset, and each cone is hashed once for all its members.
  std::vector<std::vector<size_t>> Sccs = tarjanSccs(Adj.size(), Adj);
  std::vector<size_t> SccOf(Adj.size());
  for (size_t S = 0; S != Sccs.size(); ++S)
    for (size_t V : Sccs[S])
      SccOf[V] = S;
  const size_t Words = (NumContent + 63) / 64;
  std::vector<uint64_t> Reach(Sccs.size() * Words, 0);
  std::vector<size_t> MergedInto(Sccs.size(), (size_t)-1);
  std::map<const CFuncDecl *, uint64_t> Out;
  for (size_t S = 0; S != Sccs.size(); ++S) {
    uint64_t *Bits = Reach.data() + S * Words;
    bool HasContent = false;
    for (size_t V : Sccs[S]) {
      if (V < NumContent) {
        Bits[V / 64] |= uint64_t(1) << (V % 64);
        HasContent = true;
      }
      for (size_t W : Adj[V]) {
        size_t T = SccOf[W];
        if (T == S || MergedInto[T] == S)
          continue;
        MergedInto[T] = S;
        const uint64_t *From = Reach.data() + T * Words;
        for (size_t I = 0; I != Words; ++I)
          Bits[I] |= From[I];
      }
    }
    if (!HasContent)
      continue;
    uint32_t ConeSize = 0;
    for (size_t I = 0; I != Words; ++I)
      ConeSize += (uint32_t)std::popcount(Bits[I]);
    StableHasher H;
    H.u64(EnvHash);
    H.u32(ConeSize);
    for (size_t I = 0; I != Words; ++I)
      for (uint64_t W = Bits[I]; W; W &= W - 1)
        H.u64(ByHash[I * 64 + (size_t)std::countr_zero(W)].first);
    uint64_t Digest = H.digest();
    for (size_t V : Sccs[S])
      if (V < NumContent)
        Out[ByHash[V].second] = Digest;
  }
  return Out;
}
