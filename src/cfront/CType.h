//===--- CType.h - Types for the mini-C front end ---------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type language of the mini-C front end (the CIL substitute used by
/// MIXY). It covers what the paper's case studies need: void, int, char,
/// pointers, named structs, and function types.
///
/// Pointer types carry the paper's two qualifier annotations, `null` and
/// `nonnull`, written after the `*` as in `void * nonnull p`. Because
/// annotations belong to declarations rather than to the underlying type,
/// CType trees are per-declaration (not interned); use
/// typesCompatible() for structural equality modulo qualifiers.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CTYPE_H
#define MIX_CFRONT_CTYPE_H

#include <cassert>
#include <cstdint>
#include <span>
#include <string>

namespace mix::c {

/// Source-level qualifier annotation on a pointer level.
enum class QualAnnot : uint8_t {
  None,    ///< Unannotated — inference assigns a fresh qualifier variable.
  Null,    ///< `null` — may be the null pointer.
  Nonnull, ///< `nonnull` — must not be the null pointer.
};

const char *qualAnnotName(QualAnnot Q);

class CStructDecl;

/// Kinds of mini-C types.
enum class CTypeKind : uint8_t {
  Void,
  Int,
  Char,
  Pointer,
  Struct,
  Func,
};

/// A mini-C type tree. Owned by CAstContext, which also holds a function
/// type's parameter list, so a CType owns nothing.
class CType {
public:
  CTypeKind kind() const { return Kind; }

  bool isVoid() const { return Kind == CTypeKind::Void; }
  bool isInt() const { return Kind == CTypeKind::Int; }
  bool isChar() const { return Kind == CTypeKind::Char; }
  bool isScalar() const { return isInt() || isChar(); }
  bool isPointer() const { return Kind == CTypeKind::Pointer; }
  bool isStruct() const { return Kind == CTypeKind::Struct; }
  bool isFunc() const { return Kind == CTypeKind::Func; }

  /// For Pointer: the pointee type.
  const CType *pointee() const {
    assert(isPointer() && "pointee() on non-pointer");
    return Inner;
  }
  /// For Pointer: the source qualifier annotation on this level.
  QualAnnot qualifier() const {
    assert(isPointer() && "qualifier() on non-pointer");
    return Qual;
  }

  /// For Struct: the (possibly forward-declared) struct declaration.
  const CStructDecl *structDecl() const {
    assert(isStruct() && "structDecl() on non-struct");
    return Struct;
  }

  /// For Func: result and parameter types.
  const CType *result() const {
    assert(isFunc() && "result() on non-function");
    return Inner;
  }
  std::span<const CType *const> params() const {
    assert(isFunc() && "params() on non-function");
    return {ParamData, NumParams};
  }

  /// Renders the type, e.g. "struct foo * nonnull".
  std::string str() const;

private:
  friend class CAstContext;
  CType(CTypeKind Kind, const CType *Inner, QualAnnot Qual,
        const CStructDecl *Struct, std::span<const CType *const> Params)
      : Kind(Kind), Qual(Qual), NumParams((uint32_t)Params.size()),
        Inner(Inner), Struct(Struct), ParamData(Params.data()) {}

  CTypeKind Kind;
  QualAnnot Qual;
  uint32_t NumParams;
  const CType *Inner;
  const CStructDecl *Struct;
  const CType *const *ParamData;
};

/// Structural type compatibility, ignoring qualifier annotations. This is
/// the notion of "same type" used for calling-context compatibility in
/// caching (Section 4.3) and for assignment checking.
bool typesCompatible(const CType *A, const CType *B);

} // namespace mix::c

#endif // MIX_CFRONT_CTYPE_H
