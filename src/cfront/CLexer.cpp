//===--- CLexer.cpp - Lexer for the mini-C front end -----------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CLexer.h"

#include <cctype>
#include <climits>
#include <unordered_map>

using namespace mix::c;
using mix::SourceLoc;

const char *mix::c::cTokKindName(CTokKind Kind) {
  switch (Kind) {
  case CTokKind::Eof:
    return "end of input";
  case CTokKind::Error:
    return "invalid token";
  case CTokKind::Ident:
    return "identifier";
  case CTokKind::IntLit:
    return "integer literal";
  case CTokKind::StrLit:
    return "string literal";
  case CTokKind::KwVoid:
    return "'void'";
  case CTokKind::KwInt:
    return "'int'";
  case CTokKind::KwChar:
    return "'char'";
  case CTokKind::KwStruct:
    return "'struct'";
  case CTokKind::KwIf:
    return "'if'";
  case CTokKind::KwElse:
    return "'else'";
  case CTokKind::KwWhile:
    return "'while'";
  case CTokKind::KwReturn:
    return "'return'";
  case CTokKind::KwSizeof:
    return "'sizeof'";
  case CTokKind::KwNullMacro:
    return "'NULL'";
  case CTokKind::KwNullQual:
    return "'null'";
  case CTokKind::KwNonnull:
    return "'nonnull'";
  case CTokKind::KwMix:
    return "'MIX'";
  case CTokKind::LBrace:
    return "'{'";
  case CTokKind::RBrace:
    return "'}'";
  case CTokKind::LParen:
    return "'('";
  case CTokKind::RParen:
    return "')'";
  case CTokKind::Semi:
    return "';'";
  case CTokKind::Comma:
    return "','";
  case CTokKind::Star:
    return "'*'";
  case CTokKind::Amp:
    return "'&'";
  case CTokKind::Bang:
    return "'!'";
  case CTokKind::Minus:
    return "'-'";
  case CTokKind::Plus:
    return "'+'";
  case CTokKind::EqEq:
    return "'=='";
  case CTokKind::BangEq:
    return "'!='";
  case CTokKind::Less:
    return "'<'";
  case CTokKind::Greater:
    return "'>'";
  case CTokKind::LessEq:
    return "'<='";
  case CTokKind::GreaterEq:
    return "'>='";
  case CTokKind::AmpAmp:
    return "'&&'";
  case CTokKind::PipePipe:
    return "'||'";
  case CTokKind::Assign:
    return "'='";
  case CTokKind::Dot:
    return "'.'";
  case CTokKind::Arrow:
    return "'->'";
  }
  return "unknown token";
}

namespace {

class LexerImpl {
public:
  LexerImpl(std::string_view Source, mix::DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  std::vector<CTok> lexAll() {
    std::vector<CTok> Toks;
    for (;;) {
      CTok T = next();
      bool Done = T.is(CTokKind::Eof) || T.is(CTokKind::Error);
      Toks.push_back(std::move(T));
      if (Done)
        break;
    }
    return Toks;
  }

private:
  char peek(size_t LookAhead = 0) const {
    return Pos + LookAhead < Source.size() ? Source[Pos + LookAhead] : '\0';
  }
  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      Column = 1;
    } else {
      ++Column;
    }
    return C;
  }
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc loc() const { return {Line, Column}; }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        SourceLoc Start = loc();
        advance();
        advance();
        while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
          advance();
        if (atEnd()) {
          Diags.error(Start, "unterminated comment", mix::DiagID::LexError);
          return;
        }
        advance();
        advance();
        continue;
      }
      return;
    }
  }

  CTok make(CTokKind Kind, SourceLoc Loc) {
    CTok T;
    T.Kind = Kind;
    T.Loc = Loc;
    return T;
  }

  CTok next() {
    skipTrivia();
    SourceLoc Start = loc();
    if (atEnd())
      return make(CTokKind::Eof, Start);

    char C = peek();
    if (std::isalpha((unsigned char)C) || C == '_')
      return lexIdent();
    if (std::isdigit((unsigned char)C))
      return lexNumber();
    if (C == '"')
      return lexString();

    advance();
    switch (C) {
    case '{':
      return make(CTokKind::LBrace, Start);
    case '}':
      return make(CTokKind::RBrace, Start);
    case '(':
      return make(CTokKind::LParen, Start);
    case ')':
      return make(CTokKind::RParen, Start);
    case ';':
      return make(CTokKind::Semi, Start);
    case ',':
      return make(CTokKind::Comma, Start);
    case '*':
      return make(CTokKind::Star, Start);
    case '.':
      return make(CTokKind::Dot, Start);
    case '+':
      return make(CTokKind::Plus, Start);
    case '-':
      if (peek() == '>') {
        advance();
        return make(CTokKind::Arrow, Start);
      }
      return make(CTokKind::Minus, Start);
    case '&':
      if (peek() == '&') {
        advance();
        return make(CTokKind::AmpAmp, Start);
      }
      return make(CTokKind::Amp, Start);
    case '|':
      if (peek() == '|') {
        advance();
        return make(CTokKind::PipePipe, Start);
      }
      break;
    case '!':
      if (peek() == '=') {
        advance();
        return make(CTokKind::BangEq, Start);
      }
      return make(CTokKind::Bang, Start);
    case '=':
      if (peek() == '=') {
        advance();
        return make(CTokKind::EqEq, Start);
      }
      return make(CTokKind::Assign, Start);
    case '<':
      if (peek() == '=') {
        advance();
        return make(CTokKind::LessEq, Start);
      }
      return make(CTokKind::Less, Start);
    case '>':
      if (peek() == '=') {
        advance();
        return make(CTokKind::GreaterEq, Start);
      }
      return make(CTokKind::Greater, Start);
    default:
      break;
    }
    Diags.error(Start, std::string("unexpected character '") + C + "'",
                mix::DiagID::LexError);
    return make(CTokKind::Error, Start);
  }

  CTok lexIdent() {
    SourceLoc Start = loc();
    std::string Text;
    while (!atEnd() &&
           (std::isalnum((unsigned char)peek()) || peek() == '_'))
      Text += advance();

    static const std::unordered_map<std::string_view, CTokKind> Keywords = {
        {"void", CTokKind::KwVoid},       {"int", CTokKind::KwInt},
        {"char", CTokKind::KwChar},       {"struct", CTokKind::KwStruct},
        {"if", CTokKind::KwIf},           {"else", CTokKind::KwElse},
        {"while", CTokKind::KwWhile},     {"return", CTokKind::KwReturn},
        {"sizeof", CTokKind::KwSizeof},   {"NULL", CTokKind::KwNullMacro},
        {"null", CTokKind::KwNullQual},   {"nonnull", CTokKind::KwNonnull},
        {"MIX", CTokKind::KwMix},
    };
    auto It = Keywords.find(Text);
    if (It != Keywords.end())
      return make(It->second, Start);
    CTok T = make(CTokKind::Ident, Start);
    T.Text = std::move(Text);
    return T;
  }

  CTok lexNumber() {
    SourceLoc Start = loc();
    long long Value = 0;
    bool Overflow = false;
    while (!atEnd() && std::isdigit((unsigned char)peek())) {
      int Digit = advance() - '0';
      Overflow = Overflow || Value > (LLONG_MAX - Digit) / 10;
      if (!Overflow)
        Value = Value * 10 + Digit;
    }
    if (Overflow) {
      Diags.error(Start, "integer literal out of range",
                  mix::DiagID::LexError);
      return make(CTokKind::Error, Start);
    }
    CTok T = make(CTokKind::IntLit, Start);
    T.IntValue = Value;
    return T;
  }

  CTok lexString() {
    SourceLoc Start = loc();
    advance(); // opening quote
    std::string Text;
    while (!atEnd() && peek() != '"') {
      char C = advance();
      if (C == '\\' && !atEnd())
        C = advance();
      Text += C;
    }
    if (atEnd()) {
      Diags.error(Start, "unterminated string literal", mix::DiagID::LexError);
      return make(CTokKind::Error, Start);
    }
    advance(); // closing quote
    CTok T = make(CTokKind::StrLit, Start);
    T.Text = std::move(Text);
    return T;
  }

  std::string_view Source;
  mix::DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
};

} // namespace

std::vector<CTok> mix::c::lexC(std::string_view Source,
                               mix::DiagnosticEngine &Diags) {
  LexerImpl L(Source, Diags);
  return L.lexAll();
}
