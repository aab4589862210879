//===--- Lexer.cpp - Lexer for the core MIX language ----------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <cctype>
#include <climits>
#include <unordered_map>

using namespace mix;

const char *mix::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Ident:
    return "identifier";
  case TokenKind::IntLit:
    return "integer literal";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwLet:
    return "'let'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwRef:
    return "'ref'";
  case TokenKind::KwFun:
    return "'fun'";
  case TokenKind::KwNot:
    return "'not'";
  case TokenKind::KwAnd:
    return "'and'";
  case TokenKind::KwOr:
    return "'or'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEqual:
    return "'<='";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::ColonEqual:
    return "':='";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::LBraceTyped:
    return "'{t'";
  case TokenKind::RBraceTyped:
    return "'t}'";
  case TokenKind::LBraceSymbolic:
    return "'{s'";
  case TokenKind::RBraceSymbolic:
    return "'s}'";
  }
  return "unknown token";
}

Lexer::Lexer(std::string_view Source, DiagnosticEngine &Diags)
    : Source(Source), Diags(Diags) {}

char Lexer::peek(size_t LookAhead) const {
  return Pos + LookAhead < Source.size() ? Source[Pos + LookAhead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

static bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

static bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '\'';
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    // Nested ML-style comments: (* ... (* ... *) ... *).
    if (C == '(' && peek(1) == '*') {
      SourceLoc Start = loc();
      advance();
      advance();
      unsigned Depth = 1;
      while (Depth != 0) {
        if (atEnd()) {
          Diags.error(Start, "unterminated comment", DiagID::LexError);
          return;
        }
        if (peek() == '(' && peek(1) == '*') {
          advance();
          advance();
          ++Depth;
        } else if (peek() == '*' && peek(1) == ')') {
          advance();
          advance();
          --Depth;
        } else {
          advance();
        }
      }
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc) const {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  return T;
}

Token Lexer::lexIdentOrKeyword() {
  SourceLoc Start = loc();
  std::string Text;
  while (!atEnd() && isIdentChar(peek()))
    Text += advance();

  static const std::unordered_map<std::string_view, TokenKind> Keywords = {
      {"true", TokenKind::KwTrue},   {"false", TokenKind::KwFalse},
      {"if", TokenKind::KwIf},       {"then", TokenKind::KwThen},
      {"else", TokenKind::KwElse},   {"let", TokenKind::KwLet},
      {"in", TokenKind::KwIn},       {"ref", TokenKind::KwRef},
      {"fun", TokenKind::KwFun},     {"not", TokenKind::KwNot},
      {"and", TokenKind::KwAnd},     {"or", TokenKind::KwOr},
      {"int", TokenKind::KwInt},     {"bool", TokenKind::KwBool},
  };
  auto It = Keywords.find(Text);
  if (It != Keywords.end())
    return makeToken(It->second, Start);

  Token T = makeToken(TokenKind::Ident, Start);
  T.Text = std::move(Text);
  return T;
}

Token Lexer::lexNumber() {
  SourceLoc Start = loc();
  long long Value = 0;
  bool Overflow = false;
  while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
    int Digit = advance() - '0';
    Overflow = Overflow || Value > (LLONG_MAX - Digit) / 10;
    if (!Overflow)
      Value = Value * 10 + Digit;
  }
  if (Overflow) {
    Diags.error(Start, "integer literal out of range", DiagID::LexError);
    return makeToken(TokenKind::Error, Start);
  }
  Token T = makeToken(TokenKind::IntLit, Start);
  T.IntValue = Value;
  return T;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  SourceLoc Start = loc();
  if (atEnd())
    return makeToken(TokenKind::Eof, Start);

  char C = peek();

  // Block delimiters. `{t` / `{s` open a block when the marker letter is not
  // the start of a longer identifier; `t}` / `s}` close one.
  if (C == '{' && (peek(1) == 't' || peek(1) == 's') && !isIdentChar(peek(2))) {
    advance();
    char Marker = advance();
    return makeToken(Marker == 't' ? TokenKind::LBraceTyped
                                   : TokenKind::LBraceSymbolic,
                     Start);
  }
  if ((C == 't' || C == 's') && peek(1) == '}') {
    advance();
    advance();
    return makeToken(C == 't' ? TokenKind::RBraceTyped
                              : TokenKind::RBraceSymbolic,
                     Start);
  }

  if (isIdentStart(C))
    return lexIdentOrKeyword();
  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber();

  advance();
  switch (C) {
  case '+':
    return makeToken(TokenKind::Plus, Start);
  case '-':
    if (peek() == '>') {
      advance();
      return makeToken(TokenKind::Arrow, Start);
    }
    return makeToken(TokenKind::Minus, Start);
  case '=':
    return makeToken(TokenKind::Equal, Start);
  case '<':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::LessEqual, Start);
    }
    return makeToken(TokenKind::Less, Start);
  case '(':
    return makeToken(TokenKind::LParen, Start);
  case ')':
    return makeToken(TokenKind::RParen, Start);
  case '!':
    return makeToken(TokenKind::Bang, Start);
  case ':':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::ColonEqual, Start);
    }
    return makeToken(TokenKind::Colon, Start);
  case ';':
    return makeToken(TokenKind::Semi, Start);
  default:
    break;
  }

  Diags.error(Start, std::string("unexpected character '") + C + "'",
              DiagID::LexError);
  Token T = makeToken(TokenKind::Error, Start);
  T.Text = std::string(1, C);
  return T;
}
