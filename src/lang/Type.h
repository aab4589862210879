//===--- Type.h - Types of the core MIX language ----------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of the core language, Figure 1 of the paper:
///
///   tau ::= int | bool | tau ref
///
/// extended with monomorphic function types `tau -> tau` so the motivating
/// examples of Section 2 (e.g. the `id` and `div` functions) can be written
/// directly. Types are interned in a TypeContext, so equality is pointer
/// equality.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_LANG_TYPE_H
#define MIX_LANG_TYPE_H

#include <cassert>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mix {

/// Discriminator for the type forms of the core language.
enum class TypeKind {
  Int,  ///< Machine-independent integers.
  Bool, ///< Booleans.
  Ref,  ///< ML-style updatable references, `tau ref`.
  Fun,  ///< Monomorphic functions, `tau -> tau` (Section 2 extension).
};

/// An interned, immutable type. Obtain instances from TypeContext; compare
/// with ==.
class Type {
public:
  TypeKind kind() const { return Kind; }

  bool isInt() const { return Kind == TypeKind::Int; }
  bool isBool() const { return Kind == TypeKind::Bool; }
  bool isRef() const { return Kind == TypeKind::Ref; }
  bool isFun() const { return Kind == TypeKind::Fun; }

  /// For `tau ref`, the referent type tau.
  const Type *pointee() const {
    assert(isRef() && "pointee() on non-ref type");
    return Arg0;
  }

  /// For `tau1 -> tau2`, the parameter type tau1.
  const Type *param() const {
    assert(isFun() && "param() on non-function type");
    return Arg0;
  }

  /// For `tau1 -> tau2`, the result type tau2.
  const Type *result() const {
    assert(isFun() && "result() on non-function type");
    return Arg1;
  }

  /// Renders the type in source syntax, e.g. "int ref" or "int -> bool".
  std::string str() const;

private:
  friend class TypeContext;
  Type(TypeKind Kind, const Type *Arg0, const Type *Arg1)
      : Kind(Kind), Arg0(Arg0), Arg1(Arg1) {}

  TypeKind Kind;
  const Type *Arg0;
  const Type *Arg1;
};

/// Owns and interns Type instances.
///
/// All types built from the same context with equal structure are the same
/// pointer, so type equality checks throughout the type checker and the
/// symbolic executor are pointer comparisons.
class TypeContext {
public:
  TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  const Type *intType() const { return IntTy; }
  const Type *boolType() const { return BoolTy; }
  const Type *refType(const Type *Pointee);
  const Type *funType(const Type *Param, const Type *Result);

private:
  const Type *make(TypeKind Kind, const Type *Arg0, const Type *Arg1);

  /// Interning mutates the maps below without a lock: each analysis
  /// request builds its own context and uses it on its own thread.
  /// Interned pointers stay stable for the context's lifetime.
  std::vector<std::unique_ptr<Type>> Owned;
  std::map<std::pair<const Type *, const Type *>, const Type *> RefTypes;
  std::map<std::pair<const Type *, const Type *>, const Type *> FunTypes;
  const Type *IntTy;
  const Type *BoolTy;
};

} // namespace mix

#endif // MIX_LANG_TYPE_H
