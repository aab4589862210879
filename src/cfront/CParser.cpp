//===--- CParser.cpp - Parser for the mini-C front end ---------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"

using namespace mix::c;
using mix::SourceLoc;

namespace {

/// One parsed declarator: a name and the fully-built type.
struct Declarator {
  std::string Name;
  const CType *Ty = nullptr;
};

class ParserImpl {
public:
  ParserImpl(std::string_view Source, CAstContext &Ctx,
             mix::DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {
    Toks = lexC(Source, Diags);
  }

  const CProgram *parseProgram() {
    auto *Program = Ctx.make<CProgram>();
    while (!tok().is(CTokKind::Eof)) {
      if (tok().is(CTokKind::Error))
        return nullptr;
      if (!parseTopLevel(*Program))
        return nullptr;
    }
    return Program;
  }

private:
  // --- token plumbing -----------------------------------------------------

  const CTok &tok(size_t LookAhead = 0) const {
    size_t I = Pos + LookAhead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  void consume() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  bool expect(CTokKind Kind) {
    if (tok().is(Kind)) {
      consume();
      return true;
    }
    Diags.error(tok().Loc,
                std::string("expected ") + cTokKindName(Kind) + ", found " +
                    cTokKindName(tok().Kind),
                mix::DiagID::ParseError);
    return false;
  }
  bool error(const std::string &Message) {
    Diags.error(tok().Loc, Message, mix::DiagID::ParseError);
    return false;
  }

  bool startsType() const {
    switch (tok().Kind) {
    case CTokKind::KwVoid:
    case CTokKind::KwInt:
    case CTokKind::KwChar:
    case CTokKind::KwStruct:
      return true;
    default:
      return false;
    }
  }

  // --- types and declarators ----------------------------------------------

  /// Parses a declaration specifier: void | int | char | struct S.
  const CType *parseDeclSpec(CProgram &Program) {
    switch (tok().Kind) {
    case CTokKind::KwVoid:
      consume();
      return Ctx.voidType();
    case CTokKind::KwInt:
      consume();
      return Ctx.intType();
    case CTokKind::KwChar:
      consume();
      return Ctx.charType();
    case CTokKind::KwStruct: {
      consume();
      if (!tok().is(CTokKind::Ident)) {
        error("expected struct name");
        return nullptr;
      }
      std::string Name = tok().Text;
      consume();
      const CStructDecl *S = Program.findStruct(Name);
      if (!S) {
        // Forward reference: create an empty placeholder that a later
        // definition fills in (single-pass like CIL's merger).
        auto *Fresh = Ctx.make<CStructDecl>(tok().Loc, Name);
        Program.addStruct(Fresh);
        S = Fresh;
      }
      return Ctx.structType(S);
    }
    default:
      error("expected a type");
      return nullptr;
    }
  }

  /// Parses `* [null|nonnull]`-chains on top of \p Base.
  const CType *parsePointers(const CType *Base) {
    while (tok().is(CTokKind::Star)) {
      consume();
      QualAnnot Q = QualAnnot::None;
      if (tok().is(CTokKind::KwNullQual)) {
        Q = QualAnnot::Null;
        consume();
      } else if (tok().is(CTokKind::KwNonnull)) {
        Q = QualAnnot::Nonnull;
        consume();
      }
      Base = Ctx.pointerType(Base, Q);
    }
    return Base;
  }

  /// Parses a declarator over \p Base: pointers then a name, or the
  /// function-pointer form `(* name)(params)`.
  bool parseDeclarator(CProgram &Program, const CType *Base,
                       Declarator &Out) {
    Base = parsePointers(Base);
    if (tok().is(CTokKind::LParen) && tok(1).is(CTokKind::Star)) {
      consume(); // (
      consume(); // *
      QualAnnot Q = QualAnnot::None;
      if (tok().is(CTokKind::KwNullQual)) {
        Q = QualAnnot::Null;
        consume();
      } else if (tok().is(CTokKind::KwNonnull)) {
        Q = QualAnnot::Nonnull;
        consume();
      }
      if (!tok().is(CTokKind::Ident))
        return error("expected function-pointer name");
      Out.Name = tok().Text;
      consume();
      if (!expect(CTokKind::RParen) || !expect(CTokKind::LParen))
        return false;
      std::vector<const CType *> ParamTypes;
      if (!parseParamTypes(Program, ParamTypes))
        return false;
      Out.Ty = Ctx.pointerType(Ctx.funcType(Base, std::move(ParamTypes)), Q);
      return true;
    }
    if (!tok().is(CTokKind::Ident))
      return error("expected declarator name");
    Out.Name = tok().Text;
    consume();
    Out.Ty = Base;
    return true;
  }

  /// Parses a parameter type list up to and including ')'.
  bool parseParamTypes(CProgram &Program,
                       std::vector<const CType *> &Out) {
    if (tok().is(CTokKind::KwVoid) && tok(1).is(CTokKind::RParen)) {
      consume();
      consume();
      return true;
    }
    if (tok().is(CTokKind::RParen)) {
      consume();
      return true;
    }
    for (;;) {
      const CType *Spec = parseDeclSpec(Program);
      if (!Spec)
        return false;
      const CType *Ty = parsePointers(Spec);
      if (tok().is(CTokKind::Ident))
        consume(); // parameter name in a type context is ignored
      Out.push_back(Ty);
      if (tok().is(CTokKind::Comma)) {
        consume();
        continue;
      }
      return expect(CTokKind::RParen);
    }
  }

  /// Parses a full parameter list (with names) up to and including ')'.
  bool parseParams(CProgram &Program, std::vector<CFuncDecl::Param> &Out) {
    if (tok().is(CTokKind::KwVoid) && tok(1).is(CTokKind::RParen)) {
      consume();
      consume();
      return true;
    }
    if (tok().is(CTokKind::RParen)) {
      consume();
      return true;
    }
    for (;;) {
      const CType *Spec = parseDeclSpec(Program);
      if (!Spec)
        return false;
      Declarator D;
      if (!parseDeclarator(Program, Spec, D))
        return false;
      Out.push_back({D.Name, D.Ty});
      if (tok().is(CTokKind::Comma)) {
        consume();
        continue;
      }
      return expect(CTokKind::RParen);
    }
  }

  // --- top level -------------------------------------------------------------

  bool parseTopLevel(CProgram &Program) {
    // struct definition?
    if (tok().is(CTokKind::KwStruct) && tok(1).is(CTokKind::Ident) &&
        tok(2).is(CTokKind::LBrace))
      return parseStructDef(Program);

    const CType *Spec = parseDeclSpec(Program);
    if (!Spec)
      return false;
    Declarator D;
    if (!parseDeclarator(Program, Spec, D))
      return false;

    // Function declaration or definition.
    if (tok().is(CTokKind::LParen)) {
      SourceLoc Loc = tok().Loc;
      consume();
      std::vector<CFuncDecl::Param> Params;
      if (!parseParams(Program, Params))
        return false;
      MixAnnot Annot = MixAnnot::None;
      if (tok().is(CTokKind::KwMix)) {
        consume();
        if (!expect(CTokKind::LParen))
          return false;
        if (tok().is(CTokKind::Ident) && tok().Text == "typed")
          Annot = MixAnnot::Typed;
        else if (tok().is(CTokKind::Ident) && tok().Text == "symbolic")
          Annot = MixAnnot::Symbolic;
        else
          return error("expected 'typed' or 'symbolic' in MIX(...)");
        consume();
        if (!expect(CTokKind::RParen))
          return false;
      }
      const CStmt *Body = nullptr;
      if (tok().is(CTokKind::LBrace)) {
        Body = parseBlock(Program);
        if (!Body)
          return false;
      } else if (!expect(CTokKind::Semi)) {
        return false;
      }
      Program.addFunc(Ctx.make<CFuncDecl>(
          Loc, D.Name, D.Ty, std::move(Params), Annot, Body));
      return true;
    }

    // Global variable.
    const CExpr *Init = nullptr;
    SourceLoc Loc = tok().Loc;
    if (tok().is(CTokKind::Assign)) {
      consume();
      Init = parseExpr(Program);
      if (!Init)
        return false;
    }
    if (!expect(CTokKind::Semi))
      return false;
    Program.addGlobal(Ctx.make<CGlobalDecl>(Loc, D.Name, D.Ty, Init));
    return true;
  }

  bool parseStructDef(CProgram &Program) {
    consume(); // struct
    std::string Name = tok().Text;
    SourceLoc Loc = tok().Loc;
    consume(); // name
    consume(); // {
    CStructDecl *S = nullptr;
    if (const CStructDecl *Existing = Program.findStruct(Name)) {
      // Fill in a forward declaration.
      S = const_cast<CStructDecl *>(Existing);
      if (!S->fields().empty()) {
        Diags.error(Loc, "struct '" + Name + "' redefined", mix::DiagID::ParseError);
        return false;
      }
    } else {
      S = Ctx.make<CStructDecl>(Loc, Name);
      Program.addStruct(S);
    }
    while (!tok().is(CTokKind::RBrace)) {
      const CType *Spec = parseDeclSpec(Program);
      if (!Spec)
        return false;
      Declarator D;
      if (!parseDeclarator(Program, Spec, D))
        return false;
      if (!expect(CTokKind::Semi))
        return false;
      S->addField(D.Name, D.Ty);
    }
    consume(); // }
    return expect(CTokKind::Semi);
  }

  // --- statements -----------------------------------------------------------

  const CStmt *parseBlock(CProgram &Program) {
    SourceLoc Loc = tok().Loc;
    if (!expect(CTokKind::LBrace))
      return nullptr;
    std::vector<const CStmt *> Stmts;
    while (!tok().is(CTokKind::RBrace)) {
      if (tok().is(CTokKind::Eof) || tok().is(CTokKind::Error)) {
        error("unterminated block");
        return nullptr;
      }
      const CStmt *S = parseStmt(Program);
      if (!S)
        return nullptr;
      Stmts.push_back(S);
    }
    consume(); // }
    return Ctx.make<CBlockStmt>(Loc, std::move(Stmts));
  }

  const CStmt *parseStmt(CProgram &Program) {
    SourceLoc Loc = tok().Loc;
    switch (tok().Kind) {
    case CTokKind::Semi:
      consume();
      return Ctx.make<CBlockStmt>(Loc, std::vector<const CStmt *>());
    case CTokKind::LBrace:
      return parseBlock(Program);
    case CTokKind::KwIf: {
      consume();
      if (!expect(CTokKind::LParen))
        return nullptr;
      const CExpr *Cond = parseExpr(Program);
      if (!Cond || !expect(CTokKind::RParen))
        return nullptr;
      const CStmt *Then = parseStmt(Program);
      if (!Then)
        return nullptr;
      const CStmt *Else = nullptr;
      if (tok().is(CTokKind::KwElse)) {
        consume();
        Else = parseStmt(Program);
        if (!Else)
          return nullptr;
      }
      return Ctx.make<CIfStmt>(Loc, Cond, Then, Else);
    }
    case CTokKind::KwWhile: {
      consume();
      if (!expect(CTokKind::LParen))
        return nullptr;
      const CExpr *Cond = parseExpr(Program);
      if (!Cond || !expect(CTokKind::RParen))
        return nullptr;
      const CStmt *Body = parseStmt(Program);
      if (!Body)
        return nullptr;
      return Ctx.make<CWhileStmt>(Loc, Cond, Body);
    }
    case CTokKind::KwReturn: {
      consume();
      const CExpr *Value = nullptr;
      if (!tok().is(CTokKind::Semi)) {
        Value = parseExpr(Program);
        if (!Value)
          return nullptr;
      }
      if (!expect(CTokKind::Semi))
        return nullptr;
      return Ctx.make<CReturnStmt>(Loc, Value);
    }
    default:
      break;
    }

    // Local declaration?
    if (startsType()) {
      const CType *Spec = parseDeclSpec(Program);
      if (!Spec)
        return nullptr;
      Declarator D;
      if (!parseDeclarator(Program, Spec, D))
        return nullptr;
      const CExpr *Init = nullptr;
      if (tok().is(CTokKind::Assign)) {
        consume();
        Init = parseExpr(Program);
        if (!Init)
          return nullptr;
      }
      if (!expect(CTokKind::Semi))
        return nullptr;
      return Ctx.make<CDeclStmt>(Loc, D.Name, D.Ty, Init);
    }

    // Expression statement.
    const CExpr *E = parseExpr(Program);
    if (!E || !expect(CTokKind::Semi))
      return nullptr;
    return Ctx.make<CExprStmt>(Loc, E);
  }

  // --- expressions ------------------------------------------------------------

  const CExpr *parseExpr(CProgram &Program) { return parseAssign(Program); }

  const CExpr *parseAssign(CProgram &Program) {
    const CExpr *Lhs = parseLOr(Program);
    if (!Lhs)
      return nullptr;
    if (!tok().is(CTokKind::Assign))
      return Lhs;
    SourceLoc Loc = tok().Loc;
    consume();
    const CExpr *Rhs = parseAssign(Program);
    if (!Rhs)
      return nullptr;
    return Ctx.make<CAssign>(Loc, Lhs, Rhs);
  }

  const CExpr *parseLOr(CProgram &Program) {
    const CExpr *Lhs = parseLAnd(Program);
    if (!Lhs)
      return nullptr;
    while (tok().is(CTokKind::PipePipe)) {
      SourceLoc Loc = tok().Loc;
      consume();
      const CExpr *Rhs = parseLAnd(Program);
      if (!Rhs)
        return nullptr;
      Lhs = Ctx.make<CBinary>(Loc, CBinaryOp::LOr, Lhs, Rhs);
    }
    return Lhs;
  }

  const CExpr *parseLAnd(CProgram &Program) {
    const CExpr *Lhs = parseEquality(Program);
    if (!Lhs)
      return nullptr;
    while (tok().is(CTokKind::AmpAmp)) {
      SourceLoc Loc = tok().Loc;
      consume();
      const CExpr *Rhs = parseEquality(Program);
      if (!Rhs)
        return nullptr;
      Lhs = Ctx.make<CBinary>(Loc, CBinaryOp::LAnd, Lhs, Rhs);
    }
    return Lhs;
  }

  const CExpr *parseEquality(CProgram &Program) {
    const CExpr *Lhs = parseRelational(Program);
    if (!Lhs)
      return nullptr;
    while (tok().is(CTokKind::EqEq) || tok().is(CTokKind::BangEq)) {
      CBinaryOp Op =
          tok().is(CTokKind::EqEq) ? CBinaryOp::Eq : CBinaryOp::Ne;
      SourceLoc Loc = tok().Loc;
      consume();
      const CExpr *Rhs = parseRelational(Program);
      if (!Rhs)
        return nullptr;
      Lhs = Ctx.make<CBinary>(Loc, Op, Lhs, Rhs);
    }
    return Lhs;
  }

  const CExpr *parseRelational(CProgram &Program) {
    const CExpr *Lhs = parseAdditive(Program);
    if (!Lhs)
      return nullptr;
    for (;;) {
      CBinaryOp Op;
      if (tok().is(CTokKind::Less))
        Op = CBinaryOp::Lt;
      else if (tok().is(CTokKind::Greater))
        Op = CBinaryOp::Gt;
      else if (tok().is(CTokKind::LessEq))
        Op = CBinaryOp::Le;
      else if (tok().is(CTokKind::GreaterEq))
        Op = CBinaryOp::Ge;
      else
        return Lhs;
      SourceLoc Loc = tok().Loc;
      consume();
      const CExpr *Rhs = parseAdditive(Program);
      if (!Rhs)
        return nullptr;
      Lhs = Ctx.make<CBinary>(Loc, Op, Lhs, Rhs);
    }
  }

  const CExpr *parseAdditive(CProgram &Program) {
    const CExpr *Lhs = parseUnary(Program);
    if (!Lhs)
      return nullptr;
    while (tok().is(CTokKind::Plus) || tok().is(CTokKind::Minus)) {
      CBinaryOp Op =
          tok().is(CTokKind::Plus) ? CBinaryOp::Add : CBinaryOp::Sub;
      SourceLoc Loc = tok().Loc;
      consume();
      const CExpr *Rhs = parseUnary(Program);
      if (!Rhs)
        return nullptr;
      Lhs = Ctx.make<CBinary>(Loc, Op, Lhs, Rhs);
    }
    return Lhs;
  }

  const CExpr *parseUnary(CProgram &Program) {
    SourceLoc Loc = tok().Loc;
    switch (tok().Kind) {
    case CTokKind::Star: {
      consume();
      const CExpr *Sub = parseUnary(Program);
      if (!Sub)
        return nullptr;
      return Ctx.make<CUnary>(Loc, CUnaryOp::Deref, Sub);
    }
    case CTokKind::Amp: {
      consume();
      const CExpr *Sub = parseUnary(Program);
      if (!Sub)
        return nullptr;
      return Ctx.make<CUnary>(Loc, CUnaryOp::AddrOf, Sub);
    }
    case CTokKind::Bang: {
      consume();
      const CExpr *Sub = parseUnary(Program);
      if (!Sub)
        return nullptr;
      return Ctx.make<CUnary>(Loc, CUnaryOp::Not, Sub);
    }
    case CTokKind::Minus: {
      consume();
      const CExpr *Sub = parseUnary(Program);
      if (!Sub)
        return nullptr;
      return Ctx.make<CUnary>(Loc, CUnaryOp::Neg, Sub);
    }
    case CTokKind::KwSizeof: {
      consume();
      if (!expect(CTokKind::LParen))
        return nullptr;
      const CType *Spec = parseDeclSpec(Program);
      if (!Spec)
        return nullptr;
      const CType *Ty = parsePointers(Spec);
      if (!expect(CTokKind::RParen))
        return nullptr;
      return Ctx.make<CSizeOf>(Loc, Ty);
    }
    case CTokKind::LParen:
      // Cast when the parenthesis opens a type.
      if (tok(1).is(CTokKind::KwVoid) || tok(1).is(CTokKind::KwInt) ||
          tok(1).is(CTokKind::KwChar) || tok(1).is(CTokKind::KwStruct)) {
        consume();
        const CType *Spec = parseDeclSpec(Program);
        if (!Spec)
          return nullptr;
        const CType *Ty = parsePointers(Spec);
        if (!expect(CTokKind::RParen))
          return nullptr;
        const CExpr *Sub = parseUnary(Program);
        if (!Sub)
          return nullptr;
        return Ctx.make<CCast>(Loc, Ty, Sub);
      }
      break;
    default:
      break;
    }
    return parsePostfix(Program);
  }

  const CExpr *parsePostfix(CProgram &Program) {
    const CExpr *E = parsePrimary(Program);
    if (!E)
      return nullptr;
    for (;;) {
      SourceLoc Loc = tok().Loc;
      if (tok().is(CTokKind::Dot) || tok().is(CTokKind::Arrow)) {
        bool IsArrow = tok().is(CTokKind::Arrow);
        consume();
        if (!tok().is(CTokKind::Ident)) {
          error("expected field name");
          return nullptr;
        }
        std::string Field = tok().Text;
        consume();
        E = Ctx.make<CMember>(Loc, E, std::move(Field), IsArrow);
        continue;
      }
      if (tok().is(CTokKind::LParen)) {
        consume();
        std::vector<const CExpr *> Args;
        if (!tok().is(CTokKind::RParen)) {
          for (;;) {
            const CExpr *Arg = parseExpr(Program);
            if (!Arg)
              return nullptr;
            Args.push_back(Arg);
            if (tok().is(CTokKind::Comma)) {
              consume();
              continue;
            }
            break;
          }
        }
        if (!expect(CTokKind::RParen))
          return nullptr;
        E = Ctx.make<CCall>(Loc, E, std::move(Args));
        continue;
      }
      return E;
    }
  }

  const CExpr *parsePrimary(CProgram &Program) {
    SourceLoc Loc = tok().Loc;
    switch (tok().Kind) {
    case CTokKind::IntLit: {
      long long V = tok().IntValue;
      consume();
      return Ctx.make<CIntLit>(Loc, V);
    }
    case CTokKind::StrLit: {
      std::string S = tok().Text;
      consume();
      return Ctx.make<CStrLit>(Loc, std::move(S));
    }
    case CTokKind::KwNullMacro:
      consume();
      return Ctx.make<CNullLit>(Loc);
    case CTokKind::Ident: {
      std::string Name = tok().Text;
      consume();
      return Ctx.make<CIdent>(Loc, std::move(Name));
    }
    case CTokKind::LParen: {
      consume();
      const CExpr *Inner = parseExpr(Program);
      if (!Inner || !expect(CTokKind::RParen))
        return nullptr;
      return Inner;
    }
    default:
      error(std::string("expected expression, found ") +
            cTokKindName(tok().Kind));
      return nullptr;
    }
  }

  CAstContext &Ctx;
  mix::DiagnosticEngine &Diags;
  std::vector<CTok> Toks;
  size_t Pos = 0;
};

} // namespace

const CProgram *mix::c::parseC(std::string_view Source, CAstContext &Ctx,
                               mix::DiagnosticEngine &Diags) {
  ParserImpl P(Source, Ctx, Diags);
  const CProgram *Program = P.parseProgram();
  if (Diags.hasErrors())
    return nullptr;
  return Program;
}
