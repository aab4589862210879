//===--- CType.cpp - Types for the mini-C front end ------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CType.h"

#include "cfront/CAst.h"

using namespace mix::c;

const char *mix::c::qualAnnotName(QualAnnot Q) {
  switch (Q) {
  case QualAnnot::None:
    return "";
  case QualAnnot::Null:
    return "null";
  case QualAnnot::Nonnull:
    return "nonnull";
  }
  return "";
}

std::string CType::str() const {
  switch (Kind) {
  case CTypeKind::Void:
    return "void";
  case CTypeKind::Int:
    return "int";
  case CTypeKind::Char:
    return "char";
  case CTypeKind::Pointer: {
    std::string Out = pointee()->str() + " *";
    if (Qual != QualAnnot::None)
      Out += std::string(" ") + qualAnnotName(Qual);
    return Out;
  }
  case CTypeKind::Struct:
    return "struct " + Struct->name();
  case CTypeKind::Func: {
    std::string Out = result()->str() + " (";
    for (size_t I = 0; I != NumParams; ++I) {
      if (I != 0)
        Out += ", ";
      Out += ParamData[I]->str();
    }
    Out += ")";
    return Out;
  }
  }
  return "<invalid>";
}

bool mix::c::typesCompatible(const CType *A, const CType *B) {
  if (A == B)
    return true;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case CTypeKind::Void:
  case CTypeKind::Int:
  case CTypeKind::Char:
    return true;
  case CTypeKind::Pointer:
    // void* is compatible with any pointer (the malloc idiom).
    if (A->pointee()->isVoid() || B->pointee()->isVoid())
      return true;
    return typesCompatible(A->pointee(), B->pointee());
  case CTypeKind::Struct:
    return A->structDecl() == B->structDecl();
  case CTypeKind::Func: {
    if (!typesCompatible(A->result(), B->result()))
      return false;
    if (A->params().size() != B->params().size())
      return false;
    for (size_t I = 0; I != A->params().size(); ++I)
      if (!typesCompatible(A->params()[I], B->params()[I]))
        return false;
    return true;
  }
  }
  return false;
}
