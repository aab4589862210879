//===--- CAst.cpp - AST for the mini-C front end ---------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CAst.h"

using namespace mix::c;

const char *mix::c::mixAnnotName(MixAnnot A) {
  switch (A) {
  case MixAnnot::None:
    return "none";
  case MixAnnot::Typed:
    return "MIX(typed)";
  case MixAnnot::Symbolic:
    return "MIX(symbolic)";
  }
  return "none";
}

const char *mix::c::cUnaryOpSpelling(CUnaryOp Op) {
  switch (Op) {
  case CUnaryOp::Deref:
    return "*";
  case CUnaryOp::AddrOf:
    return "&";
  case CUnaryOp::Not:
    return "!";
  case CUnaryOp::Neg:
    return "-";
  }
  return "?";
}

const char *mix::c::cBinaryOpSpelling(CBinaryOp Op) {
  switch (Op) {
  case CBinaryOp::Add:
    return "+";
  case CBinaryOp::Sub:
    return "-";
  case CBinaryOp::Eq:
    return "==";
  case CBinaryOp::Ne:
    return "!=";
  case CBinaryOp::Lt:
    return "<";
  case CBinaryOp::Gt:
    return ">";
  case CBinaryOp::Le:
    return "<=";
  case CBinaryOp::Ge:
    return ">=";
  case CBinaryOp::LAnd:
    return "&&";
  case CBinaryOp::LOr:
    return "||";
  }
  return "?";
}

void CProgram::addStruct(const CStructDecl *S) {
  Structs.push_back(S);
  StructByName.emplace(S->name(), S);
}

void CProgram::addGlobal(const CGlobalDecl *G) {
  Globals.push_back(G);
  GlobalByName.emplace(G->name(), G);
}

void CProgram::addFunc(const CFuncDecl *F) {
  Funcs.push_back(F);
  auto [It, Fresh] = FuncByName.emplace(F->name(), F);
  // The first definition replaces a prototype; nothing replaces a
  // definition.
  if (!Fresh && F->isDefined() && !It->second->isDefined())
    It->second = F;
}

namespace {
template <typename T>
const T *lookup(const std::unordered_map<std::string, const T *> &Index,
                const std::string &Name) {
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : It->second;
}
} // namespace

const CStructDecl *CProgram::findStruct(const std::string &Name) const {
  return lookup(StructByName, Name);
}

const CGlobalDecl *CProgram::findGlobal(const std::string &Name) const {
  return lookup(GlobalByName, Name);
}

const CFuncDecl *CProgram::findFunc(const std::string &Name) const {
  return lookup(FuncByName, Name);
}

CAstContext::~CAstContext() {
  for (Cleanup *C = Cleanups; C; C = C->Next)
    C->Destroy(C + 1);
}

void *CAstContext::allocateInNewBlock(size_t Size) {
  // A new block starts at operator new's alignment, which suits every
  // object make() accepts.
  size_t BlockSize = std::max(NextBlockSize, Size);
  NextBlockSize = std::min(NextBlockSize * 2, MaxBlockSize);
  Blocks.emplace_back(new char[BlockSize]);
  char *Out = Blocks.back().get();
  Cur = Out + Size;
  End = Out + BlockSize;
  Bytes += Size;
  return Out;
}

const CType *CAstContext::makeType(CTypeKind Kind, const CType *Inner,
                                   QualAnnot Qual, const CStructDecl *Struct,
                                   std::span<const CType *const> Params) {
  static_assert(std::is_trivially_destructible_v<CType>);
  return make<CType>(Kind, Inner, Qual, Struct, Params);
}

const CType *CAstContext::voidType() {
  if (!VoidTy)
    VoidTy = makeType(CTypeKind::Void, nullptr, QualAnnot::None, nullptr, {});
  return VoidTy;
}

const CType *CAstContext::intType() {
  if (!IntTy)
    IntTy = makeType(CTypeKind::Int, nullptr, QualAnnot::None, nullptr, {});
  return IntTy;
}

const CType *CAstContext::charType() {
  if (!CharTy)
    CharTy = makeType(CTypeKind::Char, nullptr, QualAnnot::None, nullptr, {});
  return CharTy;
}

const CType *CAstContext::pointerType(const CType *Pointee, QualAnnot Qual) {
  return makeType(CTypeKind::Pointer, Pointee, Qual, nullptr, {});
}

const CType *CAstContext::structType(const CStructDecl *Decl) {
  return makeType(CTypeKind::Struct, nullptr, QualAnnot::None, Decl, {});
}

const CType *CAstContext::funcType(const CType *Result,
                                   std::span<const CType *const> Params) {
  return makeType(CTypeKind::Func, Result, QualAnnot::None, nullptr,
                  copyArray(Params));
}
