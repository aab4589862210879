//===--- AstHash.h - Stable content hashes over mini-C ASTs -----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The key-derivation half of the persistent cache: stable 64-bit
/// content hashes over mini-C declarations, built from each
/// declaration's source text and start position (CSourceSpan). The
/// positions matter: a block summary holds diagnostics, and those carry
/// positions, so a summary is a function of its key only if moving a
/// declaration changes the key.
///
///  - functionContentHash: one function's identity (its text, which holds
///    its name, annotation, signature and body, and where it starts).
///    Editing or moving a function changes its hash; an edit elsewhere
///    that leaves its text and start in place does not.
///  - environmentHash: the shared declarations every block can see
///    (struct definitions, globals with initializers, and extern function
///    declarations), text and position alike.
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

/// Stable digest of one function declaration: its source text and the
/// line and column it starts at.
uint64_t functionContentHash(const c::CFuncDecl &F);

/// Stable digest of the program-wide declarations outside any function:
/// struct definitions, global variables (with initializers), and the
/// declarations of undefined (extern) functions, each by its text and
/// start position.
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
