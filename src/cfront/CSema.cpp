//===--- CSema.cpp - Name resolution and expression typing ----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CSema.h"

using namespace mix::c;

bool CSema::isLValue(const CExpr *E) {
  switch (E->kind()) {
  case CExprKind::Ident:
  case CExprKind::Member:
    return true;
  case CExprKind::Unary:
    return cast<CUnary>(E)->op() == CUnaryOp::Deref;
  default:
    return false;
  }
}

const CFuncDecl *CSema::directCallee(const CCall *Call) const {
  const CExpr *Callee = Call->callee();
  // Unwrap an explicit deref: (*f)(...) of a named function.
  if (const auto *U = dyn_cast<CUnary>(Callee))
    if (U->op() == CUnaryOp::Deref)
      Callee = U->sub();
  const auto *Id = dyn_cast<CIdent>(Callee);
  if (!Id || !Id->namesFunction())
    return nullptr;
  if (Id->nameKind() == CNameKind::Function)
    return Id->func();
  // A variable shadows the function's name.
  return Program.findFunc(Id->name());
}

bool CSema::callsBuiltinMalloc(const CCall *Call) {
  const auto *Id = dyn_cast<CIdent>(Call->callee());
  return Id && !Id->namesFunction() && Id->name() == "malloc";
}

const CType *CSema::typeOf(const CExpr *E) {
  switch (E->kind()) {
  case CExprKind::IntLit:
  case CExprKind::SizeOf:
    return Ctx.intType();
  case CExprKind::StrLit:
    // String literals are non-null char pointers.
    return Ctx.pointerType(Ctx.charType(), QualAnnot::Nonnull);
  case CExprKind::NullLit:
    // NULL is usable at any pointer type; give it void * with the null
    // annotation (assignment checking treats void* as wild).
    return Ctx.pointerType(Ctx.voidType(), QualAnnot::Null);
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    switch (Id->nameKind()) {
    case CNameKind::Local:
      return Id->localType();
    case CNameKind::Global:
      return Id->global()->type();
    case CNameKind::Function: {
      std::vector<const CType *> Params;
      for (const auto &P : Id->func()->params())
        Params.push_back(P.Ty);
      return Ctx.funcType(Id->func()->returnType(), std::move(Params));
    }
    case CNameKind::Unresolved:
      break;
    }
    return fail(E->loc(), "use of undeclared identifier '" + Id->name() +
                              "'");
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    const CType *Sub = typeOf(U->sub());
    if (!Sub)
      return nullptr;
    switch (U->op()) {
    case CUnaryOp::Deref:
      if (Sub->isPointer())
        return Sub->pointee();
      if (Sub->isFunc())
        return Sub; // functions decay; *f == f
      return fail(E->loc(), "cannot dereference non-pointer type " +
                                Sub->str());
    case CUnaryOp::AddrOf:
      if (!isLValue(U->sub()))
        return fail(E->loc(), "cannot take the address of an rvalue");
      return Ctx.pointerType(Sub);
    case CUnaryOp::Not:
    case CUnaryOp::Neg:
      return Ctx.intType();
    }
    return nullptr;
  }
  case CExprKind::Binary: {
    const auto *B = cast<CBinary>(E);
    const CType *L = typeOf(B->lhs());
    const CType *R = typeOf(B->rhs());
    if (!L || !R)
      return nullptr;
    switch (B->op()) {
    case CBinaryOp::Add:
    case CBinaryOp::Sub:
      // Minimal pointer arithmetic: pointer +- int keeps the pointer type.
      if (L->isPointer() && R->isScalar())
        return L;
      if (R->isPointer() && L->isScalar() && B->op() == CBinaryOp::Add)
        return R;
      return Ctx.intType();
    default:
      return Ctx.intType(); // comparisons and logic are ints in C
    }
  }
  case CExprKind::Assign: {
    const auto *A = cast<CAssign>(E);
    if (!isLValue(A->target()))
      return fail(E->loc(), "assignment target is not an lvalue");
    const CType *T = typeOf(A->target());
    const CType *V = typeOf(A->value());
    if (!T || !V)
      return nullptr;
    return T;
  }
  case CExprKind::Call: {
    const auto *Call = cast<CCall>(E);
    // malloc is a builtin returning void *.
    if (callsBuiltinMalloc(Call)) {
      for (const CExpr *Arg : Call->args())
        if (!typeOf(Arg))
          return nullptr;
      return Ctx.pointerType(Ctx.voidType());
    }
    const CType *CalleeTy = typeOf(Call->callee());
    if (!CalleeTy)
      return nullptr;
    if (CalleeTy->isPointer() && CalleeTy->pointee()->isFunc())
      CalleeTy = CalleeTy->pointee();
    if (!CalleeTy->isFunc())
      return fail(E->loc(), "called object is not a function: " +
                                CalleeTy->str());
    for (const CExpr *Arg : Call->args())
      if (!typeOf(Arg))
        return nullptr;
    return CalleeTy->result();
  }
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    const CType *Base = typeOf(M->base());
    if (!Base)
      return nullptr;
    const CType *StructTy = Base;
    if (M->isArrow()) {
      if (!Base->isPointer())
        return fail(E->loc(), "'->' on non-pointer type " + Base->str());
      StructTy = Base->pointee();
    }
    if (!StructTy->isStruct())
      return fail(E->loc(),
                  "member access on non-struct type " + StructTy->str());
    const CStructDecl::Field *F =
        StructTy->structDecl()->findField(M->field());
    if (!F)
      return fail(E->loc(), "no field '" + M->field() + "' in struct " +
                                StructTy->structDecl()->name());
    return F->Ty;
  }
  case CExprKind::Cast: {
    const auto *C = cast<CCast>(E);
    if (!typeOf(C->sub()))
      return nullptr;
    return C->target();
  }
  }
  return fail(E->loc(), "unhandled expression form");
}
