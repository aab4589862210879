//===--- CParser.h - Parser for the mini-C front end ------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-C. Supported top-level forms:
///
///   struct S { fields };
///   <type> <declarator> ( params ) [MIX(typed|symbolic)] { body }   // def
///   <type> <declarator> ( params ) [MIX(typed|symbolic)] ;          // extern
///   <type> <declarator> [= init] ;                                  // global
///
/// Declarators are C-like but simplified: `* [null|nonnull]`-chains
/// followed by a name, plus the function-pointer form `(*name)(params)`.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CPARSER_H
#define MIX_CFRONT_CPARSER_H

#include "cfront/CAst.h"
#include "cfront/CLexer.h"

namespace mix::c {

/// Parses a mini-C translation unit and binds its names (see CBind.h).
/// Returns null (with diagnostics) on failure. Each top-level declaration
/// records its span (CSourceSpan), which views \p Source.
const CProgram *parseC(std::string_view Source, CAstContext &Ctx,
                       DiagnosticEngine &Diags);

} // namespace mix::c

#endif // MIX_CFRONT_CPARSER_H
