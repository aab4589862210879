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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace mix::c {

class CBinder;
class CExpr;
class CFuncDecl;
class CGlobalDecl;
class CStmt;

/// A variable as the analyses key it: local slot \c Slot of \c Func, or,
/// when \c Func is null, global slot \c Slot of the program (see
/// CProgram::globalSlots()).
struct CVarRef {
  const CFuncDecl *Func = nullptr;
  unsigned Slot = 0;
};

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

/// What an identifier denotes, as parseC's binder resolved it.
enum class CNameKind : uint8_t {
  Unresolved, ///< Declared nowhere; it has a global slot of its own.
  Local,      ///< A parameter or local of the enclosing function.
  Global,     ///< A global variable.
  Function,   ///< A function, used as a callee or as a value.
};

class CIdent : public CExpr {
public:
  CIdent(SourceLoc Loc, std::string Name)
      : CExpr(CExprKind::Ident, Loc), Index(0), BindKind(0), NamesFunc(0),
        Name(std::move(Name)) {}
  const std::string &name() const { return Name; }

  /// The binding. Precedence: a visible local, then a global, then a
  /// function; DESIGN.md "Names are resolved once" has the scope rules.
  CNameKind nameKind() const { return (CNameKind)BindKind; }
  /// Local: the slot of the enclosing function.
  unsigned localSlot() const {
    assert(nameKind() == CNameKind::Local);
    return Index;
  }
  /// Local: the type of the declaration visible here.
  const CType *localType() const {
    assert(nameKind() == CNameKind::Local);
    return static_cast<const CType *>(Decl);
  }
  /// Global: the first global of this name.
  const CGlobalDecl *global() const {
    assert(nameKind() == CNameKind::Global);
    return static_cast<const CGlobalDecl *>(Decl);
  }
  /// Function: what CProgram::findFunc returns for this name.
  const CFuncDecl *func() const {
    assert(nameKind() == CNameKind::Function);
    return static_cast<const CFuncDecl *>(Decl);
  }
  /// Unresolved: the name's own global slot.
  unsigned unresolvedSlot() const {
    assert(nameKind() == CNameKind::Unresolved);
    return Index;
  }
  /// Whether some function has this name, even when a local or a global
  /// of the same name is what the identifier binds.
  bool namesFunction() const { return NamesFunc; }

  static bool classof(const CExpr *E) {
    return E->kind() == CExprKind::Ident;
  }

private:
  friend class CBinder;

  // Declared first so the bit-fields fill the base's last word.
  unsigned Index : 29;
  unsigned BindKind : 2;
  unsigned NamesFunc : 1;
  std::string Name;
  const void *Decl = nullptr; ///< localType(), global() or func()
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
  /// \p Args lives in the node's CAstContext.
  CCall(SourceLoc Loc, const CExpr *Callee,
        std::span<const CExpr *const> Args)
      : CExpr(CExprKind::Call, Loc), Callee(Callee), Args(Args) {}
  const CExpr *callee() const { return Callee; }
  std::span<const CExpr *const> args() const { return Args; }
  static bool classof(const CExpr *E) { return E->kind() == CExprKind::Call; }

private:
  const CExpr *Callee;
  std::span<const CExpr *const> Args;
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
  /// The enclosing function's slot for this name (set by the binder).
  unsigned slot() const { return Slot; }
  const CType *type() const { return Ty; }
  const CExpr *init() const { return Init; } ///< May be null.
  static bool classof(const CStmt *S) { return S->kind() == CStmtKind::Decl; }

private:
  friend class CBinder;

  unsigned Slot = 0;
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
  /// \p Stmts lives in the node's CAstContext.
  CBlockStmt(SourceLoc Loc, std::span<const CStmt *const> Stmts)
      : CStmt(CStmtKind::Block, Loc), Stmts(Stmts) {}
  std::span<const CStmt *const> stmts() const { return Stmts; }
  static bool classof(const CStmt *S) {
    return S->kind() == CStmtKind::Block;
  }

private:
  std::span<const CStmt *const> Stmts;
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
  const Field *findField(std::string_view FieldName) const {
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

/// A function declaration or definition. Every declaration, prototypes
/// included, has its own index and its own local slots: one per distinct
/// parameter or local name, parameters first.
class CFuncDecl {
public:
  struct Param {
    std::string Name;
    const CType *Ty;
    unsigned Slot = 0; ///< Its local slot (set by the binder).
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

  // --- set by the binder -------------------------------------------------

  /// Position in CProgram::funcs().
  unsigned index() const { return Index; }
  /// The global slot of the function's name.
  unsigned nameSlot() const { return NameSlot; }
  /// Local slots, numbered program-wide from firstSlot() on.
  unsigned firstSlot() const { return FirstSlot; }
  unsigned numSlots() const { return (unsigned)Slots.size(); }
  /// The name of local slot \p Slot (owned by its first declaration).
  const std::string &slotName(unsigned Slot) const {
    return *Slots[Slot].Name;
  }
  /// The first declaration of local slot \p Slot: a local's, or null
  /// when a parameter declares it.
  const CDeclStmt *slotDecl(unsigned Slot) const { return Slots[Slot].Decl; }

private:
  friend class CBinder;

  SourceLoc Loc;
  std::string Name;
  const CType *Ret;
  std::vector<Param> Params;
  MixAnnot Annot;
  const CStmt *Body;
  unsigned Index = 0;
  unsigned NameSlot = 0;
  unsigned FirstSlot = 0;
  struct LocalSlot {
    const std::string *Name;
    const CDeclStmt *Decl; ///< Null for a parameter's slot.
  };
  std::vector<LocalSlot> Slots;
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
  /// Its global slot (set by the binder); a repeated declaration of a
  /// name shares its first declaration's slot.
  unsigned slot() const { return Slot; }

private:
  friend class CBinder;

  SourceLoc Loc;
  std::string Name;
  const CType *Ty;
  const CExpr *Init;
  unsigned Slot = 0;
};

/// A whole translation unit: the declarations in source order, plus a
/// name index over them. The lists can only grow through add*(), which
/// keeps the index in step, so every find*() is one hash lookup.
class CProgram {
public:
  const std::vector<const CStructDecl *> &structs() const { return Structs; }
  const std::vector<const CGlobalDecl *> &globals() const { return Globals; }
  const std::vector<const CFuncDecl *> &funcs() const { return Funcs; }

  /// One global-level name, with the global that owns it, if any.
  struct GlobalSlot {
    const std::string *Name;
    const CGlobalDecl *Global; ///< The first global of that name, or null.
  };
  /// The global slots, set by the binder: one per distinct name at global
  /// level. Globals come first in declaration order, then the names of
  /// functions that no global shares, then identifiers that resolve to
  /// nothing, in order of first use.
  const std::vector<GlobalSlot> &globalSlots() const { return GlobalSlots; }
  /// The local slots of all functions together (see
  /// CFuncDecl::firstSlot()).
  unsigned numLocalSlots() const { return NumLocalSlots; }

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
  friend class CBinder;

  std::vector<const CStructDecl *> Structs;
  std::vector<const CGlobalDecl *> Globals;
  std::vector<const CFuncDecl *> Funcs;
  std::vector<GlobalSlot> GlobalSlots;
  unsigned NumLocalSlots = 0;
  std::unordered_map<std::string, const CStructDecl *> StructByName;
  std::unordered_map<std::string, const CGlobalDecl *> GlobalByName;
  std::unordered_map<std::string, const CFuncDecl *> FuncByName;
};

/// Owns every node and type of a mini-C parse, and the types the analyses
/// derive from them later. Nodes are bump-allocated from one arena that
/// grows in blocks and is freed whole when the context dies. Before that,
/// the nodes that own heap memory (a name, or a declaration's lists) are
/// destroyed, newest first. DESIGN.md "The front end allocates per parse"
/// has the layout and the measured cost.
class CAstContext {
public:
  CAstContext() = default;
  CAstContext(const CAstContext &) = delete;
  CAstContext &operator=(const CAstContext &) = delete;
  ~CAstContext();

  // Types.
  const CType *voidType();
  const CType *intType();
  const CType *charType();
  const CType *pointerType(const CType *Pointee,
                           QualAnnot Qual = QualAnnot::None);
  const CType *structType(const CStructDecl *Decl);
  /// Copies \p Params into the arena.
  const CType *funcType(const CType *Result,
                        std::span<const CType *const> Params);

  /// Copies \p Items into the arena: the child lists of nodes.
  template <typename T>
  std::span<const T> copyArray(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto *Out = static_cast<T *>(allocate(Items.size_bytes(), alignof(T)));
    std::copy(Items.begin(), Items.end(), Out);
    return {Out, Items.size()};
  }

  // Nodes.
  template <typename T, typename... Args> T *make(Args &&...As) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    T *Node;
    if constexpr (std::is_trivially_destructible_v<T>) {
      Node = ::new (allocate(sizeof(T), alignof(T)))
          T(std::forward<Args>(As)...);
    } else {
      // The object sits right after its cleanup record, which is linked
      // only once the constructor has returned.
      static_assert(alignof(T) <= alignof(Cleanup));
      auto *C = static_cast<Cleanup *>(
          allocate(sizeof(Cleanup) + sizeof(T), alignof(Cleanup)));
      Node = ::new (static_cast<void *>(C + 1)) T(std::forward<Args>(As)...);
      C->Next = Cleanups;
      C->Destroy = [](void *P) { static_cast<T *>(P)->~T(); };
      Cleanups = C;
    }
    ++Nodes;
    return Node;
  }

  /// Nodes made so far, declarations and types included.
  size_t numNodes() const { return Nodes; }
  /// Arena bytes handed out so far, cleanup records and alignment
  /// included (heap memory the objects own is not).
  size_t numBytes() const { return Bytes; }

private:
  struct Cleanup {
    Cleanup *Next;
    void (*Destroy)(void *Object);
  };

  void *allocate(size_t Size, size_t Align) {
    size_t Pad = -reinterpret_cast<uintptr_t>(Cur) & (Align - 1);
    if (Size + Pad > size_t(End - Cur))
      return allocateInNewBlock(Size);
    char *Out = Cur + Pad;
    Cur = Out + Size;
    Bytes += Pad + Size;
    return Out;
  }
  void *allocateInNewBlock(size_t Size);
  const CType *makeType(CTypeKind Kind, const CType *Inner, QualAnnot Qual,
                        const CStructDecl *Struct,
                        std::span<const CType *const> Params);

  /// Blocks double from a size that suits a one-function program up to
  /// a cap, so small parses stay small and large ones make few blocks.
  static constexpr size_t FirstBlockSize = 4096;
  static constexpr size_t MaxBlockSize = size_t(1) << 20;

  std::vector<std::unique_ptr<char[]>> Blocks;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextBlockSize = FirstBlockSize;
  Cleanup *Cleanups = nullptr; ///< Newest first.
  size_t Nodes = 0;
  size_t Bytes = 0;
  const CType *VoidTy = nullptr;
  const CType *IntTy = nullptr;
  const CType *CharTy = nullptr;
};

} // namespace mix::c

#endif // MIX_CFRONT_CAST_H
