//===--- AstHash.h - Stable content hashes over mini-C ASTs -----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The key-derivation half of the persistent cache: stable 64-bit
/// content hashes over mini-C declarations, built from the CPrinter
/// rendering (which round-trips through the parser, so it captures
/// exactly the syntax the analyses consume — and nothing
/// address-dependent).
///
///  - functionContentHash: one function's identity (name, MIX annotation,
///    signature, body). Editing a function changes its hash; editing an
///    unrelated function does not.
///  - environmentHash: the shared declarations every block can see
///    (struct layouts, globals with initializers, and extern function
///    signatures).
///  - closureHashes: each function's *dependency-closure* hash — the
///    digest of the sorted content hashes of everything reachable over
///    the dependency edges (call graph plus qualifier-alias neighbors),
///    folded with the environment hash. Persistent block keys embed the
///    closure hash, so invalidation is by construction: any edit in a
///    block's dependency cone changes the key and the stale entry simply
///    never matches again.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_PERSIST_ASTHASH_H
#define MIX_PERSIST_ASTHASH_H

#include "cfront/CAst.h"

#include <cstdint>
#include <map>
#include <vector>

namespace mix::persist {

/// Stable digest of one function definition (its name, annotation,
/// rendered signature, and rendered body).
uint64_t functionContentHash(const c::CFuncDecl &F);

/// Stable digest of the program-wide declarations outside any function:
/// struct layouts, global variables (with initializers), and the
/// signatures of undefined (extern) functions.
uint64_t environmentHash(const c::CProgram &P);

/// Dependency-closure hashes: for every function F in \p Content, the
/// digest of the sorted content hashes of all functions reachable from F
/// over \p Deps (reflexively), combined with \p EnvHash. Cycles are fine
/// (reachability, not recursion). Nodes outside \p Content (externs, or
/// a hub node that stands for "every defined function") are traversed
/// but contribute no hash. Computed over the SCC condensation of \p Deps
/// with one reachability bitset per SCC, so the cost is linear in the
/// edges plus one cone hash per SCC, not one graph walk per function.
std::map<const c::CFuncDecl *, uint64_t> closureHashes(
    const std::map<const c::CFuncDecl *, uint64_t> &Content,
    const std::map<const c::CFuncDecl *, std::vector<const c::CFuncDecl *>>
        &Deps,
    uint64_t EnvHash);

} // namespace mix::persist

#endif // MIX_PERSIST_ASTHASH_H
