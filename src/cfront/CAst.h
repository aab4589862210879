//===--- CAst.h - AST for the mini-C front end ------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the mini-C subset MIXY analyzes: global variables,
/// struct definitions, and functions (with `MIX(typed)` / `MIX(symbolic)`
/// attributes) whose bodies use locals, `if`/`while`/`return`, assignment,
/// pointer and struct-member access, calls (including through function
/// pointers), `malloc`/`sizeof`, casts, and the `NULL` literal.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CFRONT_CAST_H
#define MIX_CFRONT_CAST_H

#include "cfront/CType.h"
#include "support/SourceLoc.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mix::c {

class CExpr;
class CStmt;

/// The paper's function-level analysis annotations (Section 4: "blocks can
/// only be introduced around whole function bodies").
enum class MixAnnot {
  None,     ///< Analyze with whichever analysis reaches the function.
  Typed,    ///< MIX(typed): analyze with qualifier inference.
  Symbolic, ///< MIX(symbolic): analyze with the symbolic executor.
};

const char *mixAnnotName(MixAnnot A);

// === Expressions ============================================================

enum class CExprKind {
  IntLit,
  StrLit,
  NullLit,
  Ident,
  Unary,
  Binary,
  Assign,
  Call,
  Member,
  Cast,
  SizeOf,
};

enum class CUnaryOp { Deref, AddrOf, Not, Neg };
enum class CBinaryOp { Add, Sub, Eq, Ne, Lt, Gt, Le, Ge, LAnd, LOr };

const char *cUnaryOpSpelling(CUnaryOp Op);
const char *cBinaryOpSpelling(CBinaryOp Op);

/// Base class of mini-C expressions.
class CExpr {
public:
  CExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  CExpr(const CExpr &) = delete;
  CExpr &operator=(const CExpr &) = delete;

protected:
  CExpr(CExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  ~CExpr() = default;

private:
  CExprKind Kind;
  SourceLoc Loc;
};

template <typename T> bool isa(const CExpr *E) { return T::classof(E); }
template <typename T> const T *cast(const CExpr *E) {
  assert(T::classof(E) && "bad cast");
  return static_cast<const T *>(E);
}
template <typename T> const T *dyn_cast(const CExpr *E) {
  return T::classof(E) ? static_cast<const T *>(E) : nullptr;
}

class CIntLit : public CExpr {
public:
  CIntLit(SourceLoc Loc, long long Value)
      : CExpr(CExprKind::IntLit, Loc), Value(Value) {}
  long long value() const { return Value; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::IntLit;
  }

private:
  long long Value;
};

/// A string literal; modeled as an opaque non-null char pointer.
class CStrLit : public CExpr {
public:
  CStrLit(SourceLoc Loc, std::string Value)
      : CExpr(CExprKind::StrLit, Loc), Value(std::move(Value)) {}
  const std::string &value() const { return Value; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::StrLit;
  }

private:
  std::string Value;
};

/// The NULL macro; carries the `null` qualifier in inference.
class CNullLit : public CExpr {
public:
  explicit CNullLit(SourceLoc Loc) : CExpr(CExprKind::NullLit, Loc) {}
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::NullLit;
  }
};

class CIdent : public CExpr {
public:
  CIdent(SourceLoc Loc, std::string Name)
      : CExpr(CExprKind::Ident, Loc), Name(std::move(Name)) {}
  const std::string &name() const { return Name; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::Ident;
  }

private:
  std::string Name;
};

class CUnary : public CExpr {
public:
  CUnary(SourceLoc Loc, CUnaryOp Op, const CExpr *Sub)
      : CExpr(CExprKind::Unary, Loc), Op(Op), Sub(Sub) {}
  CUnaryOp op() const { return Op; }
  const CExpr *sub() const { return Sub; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::Unary;
  }

private:
  CUnaryOp Op;
  const CExpr *Sub;
};

class CBinary : public CExpr {
public:
  CBinary(SourceLoc Loc, CBinaryOp Op, const CExpr *Lhs, const CExpr *Rhs)
      : CExpr(CExprKind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  CBinaryOp op() const { return Op; }
  const CExpr *lhs() const { return Lhs; }
  const CExpr *rhs() const { return Rhs; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::Binary;
  }

private:
  CBinaryOp Op;
  const CExpr *Lhs;
  const CExpr *Rhs;
};

class CAssign : public CExpr {
public:
  CAssign(SourceLoc Loc, const CExpr *Target, const CExpr *Value)
      : CExpr(CExprKind::Assign, Loc), Target(Target), Value(Value) {}
  const CExpr *target() const { return Target; }
  const CExpr *value() const { return Value; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::Assign;
  }

private:
  const CExpr *Target;
  const CExpr *Value;
};

class CCall : public CExpr {
public:
  CCall(SourceLoc Loc, const CExpr *Callee, std::vector<const CExpr *> Args)
      : CExpr(CExprKind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}
  const CExpr *callee() const { return Callee; }
  const std::vector<const CExpr *> &args() const { return Args; }
  static bool classof(const CExpr *E) { return E->kind() == CExprKind::Call; }

private:
  const CExpr *Callee;
  std::vector<const CExpr *> Args;
};

/// Member access `base.field` or `base->field`.
class CMember : public CExpr {
public:
  CMember(SourceLoc Loc, const CExpr *Base, std::string Field, bool IsArrow)
      : CExpr(CExprKind::Member, Loc), Base(Base), Field(std::move(Field)),
        Arrow(IsArrow) {}
  const CExpr *base() const { return Base; }
  const std::string &field() const { return Field; }
  bool isArrow() const { return Arrow; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::Member;
  }

private:
  const CExpr *Base;
  std::string Field;
  bool Arrow;
};

class CCast : public CExpr {
public:
  CCast(SourceLoc Loc, const CType *Target, const CExpr *Sub)
      : CExpr(CExprKind::Cast, Loc), Target(Target), Sub(Sub) {}
  const CType *target() const { return Target; }
  const CExpr *sub() const { return Sub; }
  static bool classof(const CExpr *E) { return E->kind() == CExprKind::Cast; }

private:
  const CType *Target;
  const CExpr *Sub;
};

class CSizeOf : public CExpr {
public:
  CSizeOf(SourceLoc Loc, const CType *Target)
      : CExpr(CExprKind::SizeOf, Loc), Target(Target) {}
  const CType *target() const { return Target; }
  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::SizeOf;
  }

private:
  const CType *Target;
};

// === Statements =============================================================

enum class CStmtKind { Expr, Decl, If, While, Return, Block };

class CStmt {
public:
  CStmtKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  CStmt(const CStmt &) = delete;
  CStmt &operator=(const CStmt &) = delete;

protected:
  CStmt(CStmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  ~CStmt() = default;

private:
  CStmtKind Kind;
  SourceLoc Loc;
};

template <typename T> bool isa(const CStmt *S) { return T::classof(S); }
template <typename T> const T *cast(const CStmt *S) {
  assert(T::classof(S) && "bad cast");
  return static_cast<const T *>(S);
}

class CExprStmt : public CStmt {
public:
  CExprStmt(SourceLoc Loc, const CExpr *E)
      : CStmt(CStmtKind::Expr, Loc), E(E) {}
  const CExpr *expr() const { return E; }
  static bool classof(const CStmt *S) { return S->kind() == CStmtKind::Expr; }

private:
  const CExpr *E;
};

/// A local variable declaration, e.g. `int *nonnull p = q;`.
class CDeclStmt : public CStmt {
public:
  CDeclStmt(SourceLoc Loc, std::string Name, const CType *Ty,
            const CExpr *Init)
      : CStmt(CStmtKind::Decl, Loc), Name(std::move(Name)), Ty(Ty),
        Init(Init) {}
  const std::string &name() const { return Name; }
  const CType *type() const { return Ty; }
  const CExpr *init() const { return Init; } ///< May be null.
  static bool classof(const CStmt *S) { return S->kind() == CStmtKind::Decl; }

private:
  std::string Name;
  const CType *Ty;
  const CExpr *Init;
};

class CIfStmt : public CStmt {
public:
  CIfStmt(SourceLoc Loc, const CExpr *Cond, const CStmt *Then,
          const CStmt *Else)
      : CStmt(CStmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  const CExpr *cond() const { return Cond; }
  const CStmt *thenStmt() const { return Then; }
  const CStmt *elseStmt() const { return Else; } ///< May be null.
  static bool classof(const CStmt *S) { return S->kind() == CStmtKind::If; }

private:
  const CExpr *Cond;
  const CStmt *Then;
  const CStmt *Else;
};

class CWhileStmt : public CStmt {
public:
  CWhileStmt(SourceLoc Loc, const CExpr *Cond, const CStmt *Body)
      : CStmt(CStmtKind::While, Loc), Cond(Cond), Body(Body) {}
  const CExpr *cond() const { return Cond; }
  const CStmt *body() const { return Body; }
  static bool classof(const CStmt *S) {
    return S->kind() == CStmtKind::While;
  }

private:
  const CExpr *Cond;
  const CStmt *Body;
};

class CReturnStmt : public CStmt {
public:
  CReturnStmt(SourceLoc Loc, const CExpr *Value)
      : CStmt(CStmtKind::Return, Loc), Value(Value) {}
  const CExpr *value() const { return Value; } ///< May be null.
  static bool classof(const CStmt *S) {
    return S->kind() == CStmtKind::Return;
  }

private:
  const CExpr *Value;
};

class CBlockStmt : public CStmt {
public:
  CBlockStmt(SourceLoc Loc, std::vector<const CStmt *> Stmts)
      : CStmt(CStmtKind::Block, Loc), Stmts(std::move(Stmts)) {}
  const std::vector<const CStmt *> &stmts() const { return Stmts; }
  static bool classof(const CStmt *S) {
    return S->kind() == CStmtKind::Block;
  }

private:
  std::vector<const CStmt *> Stmts;
};

// === Declarations ============================================================

/// A struct definition.
class CStructDecl {
public:
  struct Field {
    std::string Name;
    const CType *Ty;
  };

  CStructDecl(SourceLoc Loc, std::string Name)
      : Loc(Loc), Name(std::move(Name)) {}

  SourceLoc loc() const { return Loc; }
  const std::string &name() const { return Name; }
  const std::vector<Field> &fields() const { return Fields; }
  void addField(std::string FieldName, const CType *Ty) {
    Fields.push_back({std::move(FieldName), Ty});
  }
  /// Returns the field with \p FieldName, or null.
  const Field *findField(const std::string &FieldName) const {
    for (const Field &F : Fields)
      if (F.Name == FieldName)
        return &F;
    return nullptr;
  }

private:
  SourceLoc Loc;
  std::string Name;
  std::vector<Field> Fields;
};

/// A function declaration or definition.
class CFuncDecl {
public:
  struct Param {
    std::string Name;
    const CType *Ty;
  };

  CFuncDecl(SourceLoc Loc, std::string Name, const CType *Ret,
            std::vector<Param> Params, MixAnnot Annot, const CStmt *Body)
      : Loc(Loc), Name(std::move(Name)), Ret(Ret), Params(std::move(Params)),
        Annot(Annot), Body(Body) {}

  SourceLoc loc() const { return Loc; }
  const std::string &name() const { return Name; }
  const CType *returnType() const { return Ret; }
  const std::vector<Param> &params() const { return Params; }
  MixAnnot mixAnnot() const { return Annot; }
  const CStmt *body() const { return Body; } ///< Null for externs.
  bool isDefined() const { return Body != nullptr; }

private:
  SourceLoc Loc;
  std::string Name;
  const CType *Ret;
  std::vector<Param> Params;
  MixAnnot Annot;
  const CStmt *Body;
};

/// A global variable.
class CGlobalDecl {
public:
  CGlobalDecl(SourceLoc Loc, std::string Name, const CType *Ty,
              const CExpr *Init)
      : Loc(Loc), Name(std::move(Name)), Ty(Ty), Init(Init) {}
  SourceLoc loc() const { return Loc; }
  const std::string &name() const { return Name; }
  const CType *type() const { return Ty; }
  const CExpr *init() const { return Init; } ///< May be null.

private:
  SourceLoc Loc;
  std::string Name;
  const CType *Ty;
  const CExpr *Init;
};

/// A whole translation unit: the declarations in source order, plus a
/// name index over them. The lists can only grow through add*(), which
/// keeps the index in step, so every find*() is one hash lookup.
class CProgram {
public:
  const std::vector<const CStructDecl *> &structs() const { return Structs; }
  const std::vector<const CGlobalDecl *> &globals() const { return Globals; }
  const std::vector<const CFuncDecl *> &funcs() const { return Funcs; }

  void addStruct(const CStructDecl *S);
  void addGlobal(const CGlobalDecl *G);
  void addFunc(const CFuncDecl *F);

  /// The first struct, global, or function named \p Name, or null. For
  /// functions the first definition wins over prototypes (the usual C
  /// prototype-then-body pattern); without one, the first prototype.
  const CStructDecl *findStruct(const std::string &Name) const;
  const CGlobalDecl *findGlobal(const std::string &Name) const;
  const CFuncDecl *findFunc(const std::string &Name) const;

private:
  std::vector<const CStructDecl *> Structs;
  std::vector<const CGlobalDecl *> Globals;
  std::vector<const CFuncDecl *> Funcs;
  std::unordered_map<std::string, const CStructDecl *> StructByName;
  std::unordered_map<std::string, const CGlobalDecl *> GlobalByName;
  std::unordered_map<std::string, const CFuncDecl *> FuncByName;
};

/// Owns every node of a mini-C parse.
class CAstContext {
public:
  // Types.
  const CType *voidType();
  const CType *intType();
  const CType *charType();
  const CType *pointerType(const CType *Pointee,
                           QualAnnot Qual = QualAnnot::None);
  const CType *structType(const CStructDecl *Decl);
  const CType *funcType(const CType *Result,
                        std::vector<const CType *> Params);

  // Nodes.
  template <typename T, typename... Args> T *make(Args &&...As) {
    auto Node = std::make_unique<T>(std::forward<Args>(As)...);
    T *Ptr = Node.get();
    std::lock_guard<std::mutex> Lock(OwnM);
    Owned.push_back(
        OwnedPtr(Node.release(), [](void *P) { delete static_cast<T *>(P); }));
    return Ptr;
  }

private:
  const CType *makeType(CTypeKind Kind, const CType *Inner, QualAnnot Qual,
                        const CStructDecl *Struct,
                        std::vector<const CType *> Params);

  using OwnedPtr = std::unique_ptr<void, void (*)(void *)>;
  /// Concurrent block analyses share the context and allocate types on
  /// demand (e.g. for lazily initialized cells), so ownership vectors and
  /// the singleton type slots are guarded. Pointers handed out stay
  /// stable; only allocation takes the lock.
  std::mutex OwnM;
  std::mutex SingletonM;
  std::vector<OwnedPtr> Owned;
  std::vector<std::unique_ptr<const CType>> OwnedTypes;
  const CType *VoidTy = nullptr;
  const CType *IntTy = nullptr;
  const CType *CharTy = nullptr;
};

} // namespace mix::c

#endif // MIX_CFRONT_CAST_H
