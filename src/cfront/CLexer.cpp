//===--- CLexer.cpp - Lexer for the mini-C front end -----------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CLexer.h"

#include <cassert>
#include <climits>
#include <cstring>

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

// ASCII classes. The <cctype> functions would answer the same, since
// nothing calls setlocale, but through a locale lookup per character.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// The keyword spelled \p S, or Ident.
CTokKind keywordKind(std::string_view S) {
  switch (S.size()) {
  case 2:
    if (S == "if")
      return CTokKind::KwIf;
    break;
  case 3:
    if (S == "int")
      return CTokKind::KwInt;
    if (S == "MIX")
      return CTokKind::KwMix;
    break;
  case 4:
    if (S == "void")
      return CTokKind::KwVoid;
    if (S == "char")
      return CTokKind::KwChar;
    if (S == "else")
      return CTokKind::KwElse;
    if (S == "NULL")
      return CTokKind::KwNullMacro;
    if (S == "null")
      return CTokKind::KwNullQual;
    break;
  case 5:
    if (S == "while")
      return CTokKind::KwWhile;
    break;
  case 6:
    if (S == "struct")
      return CTokKind::KwStruct;
    if (S == "return")
      return CTokKind::KwReturn;
    if (S == "sizeof")
      return CTokKind::KwSizeof;
    break;
  case 7:
    if (S == "nonnull")
      return CTokKind::KwNonnull;
    break;
  }
  return CTokKind::Ident;
}

class LexerImpl {
public:
  LexerImpl(std::string_view Source, mix::DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  std::vector<CTok> lexAll() {
    std::vector<CTok> Toks;
    // The generated filler spends 2.7 bytes per token and the vsftpd
    // corpus 4.2, so half a token per byte holds them in one allocation;
    // denser text only makes the vector regrow.
    Toks.reserve(Source.size() / 2 + 2);
    for (;;) {
      Toks.push_back(next());
      if (Toks.back().is(CTokKind::Eof) || Toks.back().is(CTokKind::Error))
        break;
    }
    return Toks;
  }

private:
  char peek(size_t LookAhead = 0) const {
    return Pos + LookAhead < Source.size() ? Source[Pos + LookAhead] : '\0';
  }
  bool atEnd() const { return Pos >= Source.size(); }
  /// Columns count bytes from the start of the line.
  SourceLoc loc() const { return {Line, uint32_t(Pos - LineStart + 1)}; }

  /// Steps over one character, which may be a newline.
  void advance() {
    if (Source[Pos++] == '\n') {
      ++Line;
      LineStart = Pos;
    }
  }
  /// Moves to \p NewPos, counting the newlines before it.
  void skipTo(size_t NewPos) {
    const char *Base = Source.data();
    while (const void *NL = std::memchr(Base + Pos, '\n', NewPos - Pos)) {
      Pos = size_t(static_cast<const char *>(NL) - Base) + 1;
      ++Line;
      LineStart = Pos;
    }
    Pos = NewPos;
  }

  void skipTrivia() {
    while (!atEnd()) {
      char C = Source[Pos];
      if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        size_t Newline = Source.find('\n', Pos + 2);
        Pos = Newline == std::string_view::npos ? Source.size() : Newline;
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        SourceLoc Start = loc();
        size_t Close = Source.find("*/", Pos + 2);
        if (Close == std::string_view::npos) {
          skipTo(Source.size());
          Diags.error(Start, "unterminated comment", mix::DiagID::LexError);
          return;
        }
        skipTo(Close + 2);
        continue;
      }
      return;
    }
  }

  static CTok make(CTokKind Kind, SourceLoc Loc,
                   std::string_view Text = {}) {
    return CTok{Kind, Loc, Text};
  }

  CTok next() {
    skipTrivia();
    SourceLoc Start = loc();
    if (atEnd())
      return make(CTokKind::Eof, Start);

    char C = Source[Pos];
    if (isIdentStart(C))
      return lexIdent(Start);
    if (isDigit(C))
      return lexNumber(Start);
    if (C == '"')
      return lexString(Start);

    size_t Begin = Pos;
    CTok T = lexPunctuator(C, Start);
    if (!T.is(CTokKind::Error))
      T.Text = Source.substr(Begin, Pos - Begin);
    return T;
  }

  /// The punctuator that starts with \p C, not yet viewing its spelling.
  CTok lexPunctuator(char C, SourceLoc Start) {
    ++Pos; // not a newline
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
      return twoChar('>', CTokKind::Arrow, CTokKind::Minus, Start);
    case '&':
      return twoChar('&', CTokKind::AmpAmp, CTokKind::Amp, Start);
    case '|':
      if (peek() == '|') {
        ++Pos;
        return make(CTokKind::PipePipe, Start);
      }
      break;
    case '!':
      return twoChar('=', CTokKind::BangEq, CTokKind::Bang, Start);
    case '=':
      return twoChar('=', CTokKind::EqEq, CTokKind::Assign, Start);
    case '<':
      return twoChar('=', CTokKind::LessEq, CTokKind::Less, Start);
    case '>':
      return twoChar('=', CTokKind::GreaterEq, CTokKind::Greater, Start);
    default:
      break;
    }
    Diags.error(Start, std::string("unexpected character '") + C + "'",
                mix::DiagID::LexError);
    return make(CTokKind::Error, Start);
  }

  /// \p Two when the next character is \p Second (taking it), else \p One.
  CTok twoChar(char Second, CTokKind Two, CTokKind One, SourceLoc Start) {
    if (peek() != Second)
      return make(One, Start);
    ++Pos;
    return make(Two, Start);
  }

  /// A name: scanned to its end, then viewed once.
  CTok lexIdent(SourceLoc Start) {
    size_t Begin = Pos;
    while (!atEnd() && isIdentChar(Source[Pos]))
      ++Pos;
    std::string_view Text = Source.substr(Begin, Pos - Begin);
    return make(keywordKind(Text), Start, Text);
  }

  CTok lexNumber(SourceLoc Start) {
    size_t Begin = Pos;
    long long Value = 0;
    bool Overflow = false;
    while (!atEnd() && isDigit(Source[Pos])) {
      int Digit = Source[Pos++] - '0';
      Overflow = Overflow || Value > (LLONG_MAX - Digit) / 10;
      if (!Overflow)
        Value = Value * 10 + Digit;
    }
    if (Overflow) {
      Diags.error(Start, "integer literal out of range",
                  mix::DiagID::LexError);
      return make(CTokKind::Error, Start);
    }
    return make(CTokKind::IntLit, Start, Source.substr(Begin, Pos - Begin));
  }

  /// A string literal, viewed as written; a backslash takes the next
  /// character, so `\"` does not end it.
  CTok lexString(SourceLoc Start) {
    ++Pos; // opening quote
    size_t Begin = Pos;
    while (!atEnd() && Source[Pos] != '"') {
      bool Escape = Source[Pos] == '\\';
      advance();
      if (Escape && !atEnd())
        advance();
    }
    if (atEnd()) {
      Diags.error(Start, "unterminated string literal", mix::DiagID::LexError);
      return make(CTokKind::Error, Start);
    }
    std::string_view Text = Source.substr(Begin, Pos - Begin);
    ++Pos; // closing quote
    return make(CTokKind::StrLit, Start, Text);
  }

  std::string_view Source;
  mix::DiagnosticEngine &Diags;
  size_t Pos = 0;
  size_t LineStart = 0; ///< Where the current line begins.
  uint32_t Line = 1;
};

} // namespace

long long CTok::intValue() const {
  assert(Kind == CTokKind::IntLit && "intValue() of a non-literal");
  long long Value = 0;
  for (char C : Text)
    Value = Value * 10 + (C - '0');
  return Value;
}

std::vector<CTok> mix::c::lexC(std::string_view Source,
                               mix::DiagnosticEngine &Diags) {
  LexerImpl L(Source, Diags);
  return L.lexAll();
}
