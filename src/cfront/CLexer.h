//===--- CLexer.h - Lexer for the mini-C front end --------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens and lexer for mini-C. `null`, `nonnull`, `MIX`, `NULL`, `typed`
/// and `symbolic` are contextual keywords matching the paper's surface
/// syntax for qualifier and analysis annotations.
///
/// Tokens own nothing: each one views its spelling in the source buffer,
/// so lexing allocates only the token vector, and a token copies as four
/// words (DESIGN.md "The front end allocates per parse").
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CLEXER_H
#define MIX_CFRONT_CLEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mix::c {

enum class CTokKind : uint8_t {
  Eof,
  Error,
  Ident,
  IntLit,
  StrLit,

  // Keywords.
  KwVoid,
  KwInt,
  KwChar,
  KwStruct,
  KwIf,
  KwElse,
  KwWhile,
  KwReturn,
  KwSizeof,
  KwNullMacro, ///< NULL
  KwNullQual,  ///< null
  KwNonnull,   ///< nonnull
  KwMix,       ///< MIX

  // Punctuation.
  LBrace,
  RBrace,
  LParen,
  RParen,
  Semi,
  Comma,
  Star,
  Amp,
  Bang,
  Minus,
  Plus,
  EqEq,
  BangEq,
  Less,
  Greater,
  LessEq,
  GreaterEq,
  AmpAmp,
  PipePipe,
  Assign,
  Dot,
  Arrow,
};

const char *cTokKindName(CTokKind Kind);

/// One token. \c Text views the source buffer lexC read, which must
/// outlive the token.
struct CTok {
  CTokKind Kind = CTokKind::Eof;
  SourceLoc Loc;
  /// The spelling of a name, keyword, integer literal or punctuator, or
  /// a string literal's contents as written (without the quotes): a
  /// backslash escapes the character after it, and the parser drops it.
  /// Empty for Eof and Error.
  std::string_view Text;

  bool is(CTokKind K) const { return Kind == K; }
  /// An integer literal's value; lexC has checked that it fits.
  long long intValue() const;
};
static_assert(std::is_trivially_copyable_v<CTok>);

/// Lexes a whole buffer up front (the parser wants cheap lookahead), so
/// every lexical diagnostic precedes the parser's. The last token is Eof,
/// or Error after the first lexical error.
std::vector<CTok> lexC(std::string_view Source, DiagnosticEngine &Diags);

} // namespace mix::c

#endif // MIX_CFRONT_CLEXER_H
