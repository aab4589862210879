//===--- VsftpdMini.h - The vsftpd-derived evaluation corpus ----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation corpus: mini-C programs reproducing the call and alias
/// structure of the four vsftpd-2.0.7 case studies of Section 4.5
/// (sockaddr_clear, str_next_dirent, dns_resolve/main, and
/// sysutil_exit_BLOCK), plus a scalable filler generator that gives the
/// qualifier inference a realistically sized constraint graph for the
/// timing experiments (E5), and a deep def-use chain for the fixpoint
/// (E6).
///
/// Each case has two variants: `Annotated = false` is the baseline —
/// pure type qualifier inference with its false positive; `Annotated =
/// true` adds the paper's MIX(symbolic) / MIX(typed) annotations that
/// eliminate it.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_MIXY_VSFTPDMINI_H
#define MIX_MIXY_VSFTPDMINI_H

#include <string>

namespace mix::c::corpus {

/// Case study \p CaseNo in 1..4 (Section 4.5); \p Annotated selects the
/// MIXY-annotated variant.
std::string vsftpdCase(unsigned CaseNo, bool Annotated);

/// All four case studies merged into one translation unit with a shared
/// main.
std::string vsftpdFull(bool Annotated);

/// Appends \p Modules filler modules (each with helper chains that feed
/// the constraint graph) and returns corpus + filler. \p SymbolicBlocks
/// of the filler entry points are annotated MIX(symbolic) to scale the
/// number of block switches (experiment E5).
std::string vsftpdScaled(bool Annotated, unsigned Modules,
                         unsigned SymbolicBlocks);

/// A depth-\p Depth def-use chain of symbolic blocks: step_i copies
/// x_{i-1} into x_i, source() sets x0 to null, and sink() passes x_Depth
/// to a nonnull parameter. main calls sink, then the steps deepest first,
/// then source, so the fixpoint moves the null one link per round and
/// needs Depth + 1 rounds that change something. The one true finding is
/// the null reaching sink().
std::string deepCallChain(unsigned Depth);

} // namespace mix::c::corpus

#endif // MIX_MIXY_VSFTPDMINI_H
