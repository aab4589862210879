//===--- CPrinter.cpp - Pretty printer for mini-C ---------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CPrinter.h"

using namespace mix::c;

namespace {

std::string indentBy(unsigned Indent) {
  return std::string(Indent * 2, ' ');
}

/// The base type specifier of a (possibly derived) type.
std::string baseSpec(const CType *Ty) {
  while (Ty->isPointer())
    Ty = Ty->pointee();
  if (Ty->isFunc())
    return baseSpec(Ty->result());
  return Ty->str();
}

} // namespace

std::string mix::c::printDecl(const CType *Ty, const std::string &Name) {
  // Function-pointer declarator: R (*name)(params).
  if (Ty->isPointer() && Ty->pointee()->isFunc()) {
    const CType *Fn = Ty->pointee();
    std::string Out = Fn->result()->str() + " (*";
    if (Ty->qualifier() != QualAnnot::None)
      Out += std::string(qualAnnotName(Ty->qualifier())) + " ";
    Out += Name + ")(";
    if (Fn->params().empty()) {
      Out += "void";
    } else {
      for (size_t I = 0; I != Fn->params().size(); ++I) {
        if (I != 0)
          Out += ", ";
        Out += Fn->params()[I]->str();
      }
    }
    Out += ")";
    return Out;
  }
  // Ordinary declarator: spec * [qual] * [qual] name. CType::str()
  // already renders pointers with their qualifiers.
  return Ty->str() + " " + Name;
}

std::string mix::c::printExpr(const CExpr *E) {
  switch (E->kind()) {
  case CExprKind::IntLit:
    return std::to_string(cast<CIntLit>(E)->value());
  case CExprKind::StrLit: {
    std::string Out = "\"";
    for (char C : cast<CStrLit>(E)->value()) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out + "\"";
  }
  case CExprKind::NullLit:
    return "NULL";
  case CExprKind::Ident:
    return cast<CIdent>(E)->name();
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    return std::string("(") + cUnaryOpSpelling(U->op()) +
           printExpr(U->sub()) + ")";
  }
  case CExprKind::Binary: {
    const auto *B = cast<CBinary>(E);
    return "(" + printExpr(B->lhs()) + " " + cBinaryOpSpelling(B->op()) +
           " " + printExpr(B->rhs()) + ")";
  }
  case CExprKind::Assign: {
    const auto *A = cast<CAssign>(E);
    return "(" + printExpr(A->target()) + " = " + printExpr(A->value()) +
           ")";
  }
  case CExprKind::Call: {
    const auto *Call = cast<CCall>(E);
    std::string Out = printExpr(Call->callee()) + "(";
    for (size_t I = 0; I != Call->args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += printExpr(Call->args()[I]);
    }
    return Out + ")";
  }
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    return printExpr(M->base()) + (M->isArrow() ? "->" : ".") + M->field();
  }
  case CExprKind::Cast: {
    const auto *C = cast<CCast>(E);
    return "(" + C->target()->str() + ")" + printExpr(C->sub());
  }
  case CExprKind::SizeOf:
    return "sizeof(" + cast<CSizeOf>(E)->target()->str() + ")";
  }
  return "<invalid-expr>";
}

std::string mix::c::printStmt(const CStmt *S, unsigned Indent) {
  std::string Pad = indentBy(Indent);
  switch (S->kind()) {
  case CStmtKind::Expr:
    return Pad + printExpr(cast<CExprStmt>(S)->expr()) + ";\n";
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    std::string Out = Pad + printDecl(D->type(), D->name());
    if (D->init())
      Out += " = " + printExpr(D->init());
    return Out + ";\n";
  }
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    std::string Out = Pad + "if (" + printExpr(I->cond()) + ")\n";
    Out += printStmt(I->thenStmt(), Indent + 1);
    if (I->elseStmt()) {
      Out += Pad + "else\n";
      Out += printStmt(I->elseStmt(), Indent + 1);
    }
    return Out;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    return Pad + "while (" + printExpr(W->cond()) + ")\n" +
           printStmt(W->body(), Indent + 1);
  }
  case CStmtKind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (!R->value())
      return Pad + "return;\n";
    return Pad + "return " + printExpr(R->value()) + ";\n";
  }
  case CStmtKind::Block: {
    std::string Out = Pad + "{\n";
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      Out += printStmt(Sub, Indent + 1);
    return Out + Pad + "}\n";
  }
  }
  return Pad + "<invalid-stmt>;\n";
}

std::string mix::c::printProgram(const CProgram &Program) {
  std::string Out;
  for (const CStructDecl *S : Program.structs()) {
    if (S->fields().empty())
      continue; // forward references are re-created on demand
    Out += "struct " + S->name() + " {\n";
    for (const auto &F : S->fields())
      Out += "  " + printDecl(F.Ty, F.Name) + ";\n";
    Out += "};\n";
  }
  for (const CGlobalDecl *G : Program.globals()) {
    Out += printDecl(G->type(), G->name());
    if (G->init())
      Out += " = " + printExpr(G->init());
    Out += ";\n";
  }
  for (const CFuncDecl *F : Program.funcs()) {
    Out += F->returnType()->str() + " " + F->name() + "(";
    if (F->params().empty()) {
      Out += "void";
    } else {
      for (size_t I = 0; I != F->params().size(); ++I) {
        if (I != 0)
          Out += ", ";
        Out += printDecl(F->params()[I].Ty, F->params()[I].Name);
      }
    }
    Out += ")";
    if (F->mixAnnot() != MixAnnot::None)
      Out += std::string(" ") + mixAnnotName(F->mixAnnot());
    if (!F->isDefined()) {
      Out += ";\n";
      continue;
    }
    Out += "\n" + printStmt(F->body(), 0);
  }
  return Out;
}
