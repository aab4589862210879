//===--- Scc.h - Strongly connected components ------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one SCC routine, shared by the engine's worklist
/// fixpoint (condensing the site-dependency graph) and the persistent
/// cache's closure hashes (condensing the function-dependency graph).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SUPPORT_SCC_H
#define MIX_SUPPORT_SCC_H

#include <cstddef>
#include <vector>

namespace mix {

/// Iterative Tarjan SCC over the adjacency list \p Adj of nodes 0..N-1.
/// Emits SCCs in reverse topological order (every SCC before its
/// predecessors), members sorted ascending. Deterministic: a pure
/// function of the adjacency list. No recursion, so graph depth is not
/// bounded by the stack.
std::vector<std::vector<size_t>>
tarjanSccs(size_t N, const std::vector<std::vector<size_t>> &Adj);

} // namespace mix

#endif // MIX_SUPPORT_SCC_H
