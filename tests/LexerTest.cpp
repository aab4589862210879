//===--- LexerTest.cpp - Tests for the core-language lexer ----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <gtest/gtest.h>

using namespace mix;

namespace {

std::vector<TokenKind> lexAll(std::string_view Source) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  std::vector<TokenKind> Kinds;
  for (;;) {
    Token T = Lex.next();
    Kinds.push_back(T.Kind);
    if (T.is(TokenKind::Eof) || T.is(TokenKind::Error))
      break;
  }
  return Kinds;
}

} // namespace

TEST(LexerTest, EmptyInput) {
  auto Kinds = lexAll("");
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], TokenKind::Eof);
}

TEST(LexerTest, Keywords) {
  auto Kinds = lexAll("let in if then else ref fun not and or true false");
  std::vector<TokenKind> Expected = {
      TokenKind::KwLet,  TokenKind::KwIn,   TokenKind::KwIf,
      TokenKind::KwThen, TokenKind::KwElse, TokenKind::KwRef,
      TokenKind::KwFun,  TokenKind::KwNot,  TokenKind::KwAnd,
      TokenKind::KwOr,   TokenKind::KwTrue, TokenKind::KwFalse,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, IdentifiersVersusKeywords) {
  DiagnosticEngine Diags;
  Lexer Lex("letx reff x' _y", Diags);
  Token T = Lex.next();
  EXPECT_EQ(T.Kind, TokenKind::Ident);
  EXPECT_EQ(T.Text, "letx");
  T = Lex.next();
  EXPECT_EQ(T.Text, "reff");
  T = Lex.next();
  EXPECT_EQ(T.Text, "x'");
  T = Lex.next();
  EXPECT_EQ(T.Text, "_y");
}

TEST(LexerTest, IntegerLiteral) {
  DiagnosticEngine Diags;
  Lexer Lex("12345", Diags);
  Token T = Lex.next();
  EXPECT_EQ(T.Kind, TokenKind::IntLit);
  EXPECT_EQ(T.IntValue, 12345);
}

TEST(LexerTest, IntegerLiteralAtLimit) {
  DiagnosticEngine Diags;
  Lexer Lex("9223372036854775807", Diags);
  Token T = Lex.next();
  EXPECT_EQ(T.Kind, TokenKind::IntLit);
  EXPECT_EQ(T.IntValue, 9223372036854775807LL);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, IntegerLiteralOutOfRangeReported) {
  for (const char *Src : {"9223372036854775808", "99999999999999999999"}) {
    SCOPED_TRACE(Src);
    DiagnosticEngine Diags;
    Lexer Lex(Src, Diags);
    Token T = Lex.next();
    EXPECT_EQ(T.Kind, TokenKind::Error);
    EXPECT_TRUE(Diags.hasErrors());
    // The whole literal is consumed: no digits are left for a second
    // token.
    EXPECT_EQ(Lex.next().Kind, TokenKind::Eof);
  }
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto Kinds = lexAll("+ - = < <= ( ) ! := : ; ->");
  std::vector<TokenKind> Expected = {
      TokenKind::Plus,       TokenKind::Minus, TokenKind::Equal,
      TokenKind::Less,       TokenKind::LessEqual, TokenKind::LParen,
      TokenKind::RParen,     TokenKind::Bang,  TokenKind::ColonEqual,
      TokenKind::Colon,      TokenKind::Semi,  TokenKind::Arrow,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, BlockDelimiters) {
  auto Kinds = lexAll("{t 1 t} {s 2 s}");
  std::vector<TokenKind> Expected = {
      TokenKind::LBraceTyped,    TokenKind::IntLit, TokenKind::RBraceTyped,
      TokenKind::LBraceSymbolic, TokenKind::IntLit, TokenKind::RBraceSymbolic,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, BlockMarkerNotConfusedWithIdentifier) {
  // `{token` must lex as '{'-error (no bare '{' in the language) rather
  // than '{t' followed by "oken" — the marker letter must be standalone.
  DiagnosticEngine Diags;
  Lexer Lex("{token", Diags);
  Token T = Lex.next();
  EXPECT_EQ(T.Kind, TokenKind::Error);
}

TEST(LexerTest, NestedComments) {
  auto Kinds = lexAll("1 (* outer (* inner *) still out *) 2");
  std::vector<TokenKind> Expected = {TokenKind::IntLit, TokenKind::IntLit,
                                     TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, UnterminatedCommentReported) {
  DiagnosticEngine Diags;
  Lexer Lex("(* never closed", Diags);
  Token T = Lex.next();
  EXPECT_EQ(T.Kind, TokenKind::Eof);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, SourceLocations) {
  DiagnosticEngine Diags;
  Lexer Lex("a\n  b", Diags);
  Token A = Lex.next();
  EXPECT_EQ(A.Loc, SourceLoc(1, 1));
  Token B = Lex.next();
  EXPECT_EQ(B.Loc, SourceLoc(2, 3));
}

TEST(LexerTest, UnexpectedCharacterReported) {
  DiagnosticEngine Diags;
  Lexer Lex("#", Diags);
  Token T = Lex.next();
  EXPECT_EQ(T.Kind, TokenKind::Error);
  EXPECT_TRUE(Diags.hasErrors());
}
