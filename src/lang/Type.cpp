//===--- Type.cpp - Types of the core MIX language ------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "lang/Type.h"

using namespace mix;

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Ref: {
    std::string Inner = pointee()->str();
    if (pointee()->isFun())
      Inner = "(" + Inner + ")";
    return Inner + " ref";
  }
  case TypeKind::Fun: {
    std::string Lhs = param()->str();
    if (param()->isFun())
      Lhs = "(" + Lhs + ")";
    return Lhs + " -> " + result()->str();
  }
  }
  return "<invalid>";
}

TypeContext::TypeContext() {
  IntTy = make(TypeKind::Int, nullptr, nullptr);
  BoolTy = make(TypeKind::Bool, nullptr, nullptr);
}

const Type *TypeContext::make(TypeKind Kind, const Type *Arg0,
                              const Type *Arg1) {
  Owned.push_back(std::unique_ptr<Type>(new Type(Kind, Arg0, Arg1)));
  return Owned.back().get();
}

const Type *TypeContext::refType(const Type *Pointee) {
  auto Key = std::make_pair(Pointee, nullptr);
  auto It = RefTypes.find(Key);
  if (It != RefTypes.end())
    return It->second;
  const Type *T = make(TypeKind::Ref, Pointee, nullptr);
  RefTypes[Key] = T;
  return T;
}

const Type *TypeContext::funType(const Type *Param, const Type *Result) {
  auto Key = std::make_pair(Param, Result);
  auto It = FunTypes.find(Key);
  if (It != FunTypes.end())
    return It->second;
  const Type *T = make(TypeKind::Fun, Param, Result);
  FunTypes[Key] = T;
  return T;
}
