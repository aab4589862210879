//===--- CSymValue.h - Symbolic values and stores for mini-C ----*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value and memory representation of the C symbolic executor (the Otter
/// substitute), following Section 4.2:
///
///  - memory is "a map from locations to separate arrays": a store maps
///    abstract locations (objects) and their fields to symbolic values;
///  - scalars are solver terms;
///  - pointers are guarded target lists — each case holds a boolean guard
///    term and a target (an object, null, a known function, or an unknown
///    function). Writes through multi-case pointers update every possible
///    target conditionally, which is exactly Morris's general axiom of
///    assignment ("aliasing between arrays is modeled using Morris's
///    general axiom of assignment");
///  - a null target case makes "may this be null?" a path-condition
///    query, mirroring the (alpha:bool) ? loc : 0 encoding of
///    Section 4.1.
///
/// Everything here is flat (DESIGN.md "Flat path state"): a field path is
/// an integer interned by its executor's FieldPaths, a pointer's case list
/// is an immutable array in its executor's PtrCaseArena, so a value is a
/// trivially copyable handle, and a store is one array sorted by an
/// integer cell key.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CSYM_CSYMVALUE_H
#define MIX_CSYM_CSYMVALUE_H

#include "cfront/CAst.h"
#include "solver/Term.h"

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mix::c {

/// An abstract memory object id. 0 is invalid.
using LocId = unsigned;
constexpr LocId NoLoc = 0;

/// A field path within an object ("f", "f.g"), interned by FieldPaths.
using FieldId = unsigned;
/// The empty path: the whole object.
constexpr FieldId WholeObject = 0;

/// The field paths one executor has met, each numbered once. A path is
/// its parent path plus one field name, so extending a path is one hash
/// lookup and never builds a string.
class FieldPaths {
public:
  FieldPaths();
  FieldPaths(const FieldPaths &) = delete;
  FieldPaths &operator=(const FieldPaths &) = delete;

  /// \p Parent extended by the field \p Name.
  FieldId child(FieldId Parent, std::string_view Name);

  /// The dotted spelling ("" for WholeObject).
  const std::string &spelling(FieldId Id) const { return Paths[Id].Dotted; }
  FieldId parent(FieldId Id) const { return Paths[Id].Parent; }
  /// The last field name of a path other than WholeObject.
  std::string_view lastName(FieldId Id) const { return Paths[Id].Name; }

private:
  struct Path {
    std::string Dotted;
    std::string_view Name; ///< The last component, a view of Dotted.
    FieldId Parent;
  };
  struct Key {
    FieldId Parent;
    std::string_view Name;
    bool operator==(const Key &O) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return std::hash<std::string_view>()(K.Name) * 31 + K.Parent;
    }
  };
  /// A deque, so the names the index views never move.
  std::deque<Path> Paths;
  std::unordered_map<Key, FieldId, KeyHash> Index;
};

/// One possible referent of a pointer.
struct PtrTarget {
  enum class Kind : uint8_t {
    Null,      ///< The null pointer.
    Object,    ///< A cell within a memory object (Loc + Field; WholeObject
               ///< designates the object itself).
    Function,  ///< A known function (Fn).
    UnknownFn, ///< A function pointer with unknown target (Section 4.5,
               ///< Case 4: calls through it cannot be executed).
  };
  Kind K = Kind::Null;
  LocId Loc = NoLoc;
  FieldId Field = WholeObject;
  const CFuncDecl *Fn = nullptr;

  static PtrTarget null() { return PtrTarget(); }
  static PtrTarget object(LocId Loc, FieldId Field = WholeObject) {
    PtrTarget T;
    T.K = Kind::Object;
    T.Loc = Loc;
    T.Field = Field;
    return T;
  }
  static PtrTarget function(const CFuncDecl *Fn) {
    PtrTarget T;
    T.K = Kind::Function;
    T.Fn = Fn;
    return T;
  }
  static PtrTarget unknownFn() {
    PtrTarget T;
    T.K = Kind::UnknownFn;
    return T;
  }

  bool operator==(const PtrTarget &O) const = default;
};

/// A guarded pointer case: when Guard holds, the pointer refers to Target.
struct PtrCase {
  const smt::Term *Guard;
  PtrTarget Target;
};

/// Owns the case lists of one executor's pointer values, as a TermArena
/// owns terms. A list never changes once made, so a CSymValue only points
/// at it; every list dies with the arena.
class PtrCaseArena {
public:
  PtrCaseArena() = default;
  PtrCaseArena(const PtrCaseArena &) = delete;
  PtrCaseArena &operator=(const PtrCaseArena &) = delete;

  /// Room for \p N cases, for the caller to fill.
  PtrCase *allocate(size_t N);
  /// Returns the last \p Unused cases of the latest allocate() call.
  void giveBack(size_t Unused) { Cur -= Unused; }
  std::span<const PtrCase> copy(std::span<const PtrCase> Cases);

private:
  static constexpr size_t FirstBlockCases = 64;
  static constexpr size_t MaxBlockCases = 4096;

  std::vector<std::unique_ptr<PtrCase[]>> Blocks;
  PtrCase *Cur = nullptr;
  PtrCase *End = nullptr;
  size_t NextBlockCases = FirstBlockCases;
};

/// A symbolic mini-C value: a scalar term or a guarded pointer. It is a
/// trivially copyable handle: a term, or a case list in a PtrCaseArena.
class CSymValue {
public:
  enum class Kind : uint8_t { Scalar, Ptr };

  CSymValue() = default;

  static CSymValue scalar(const smt::Term *T) {
    CSymValue V;
    V.K = Kind::Scalar;
    V.Term_ = T;
    return V;
  }
  /// A pointer over \p Cases, which must outlive the value (they are
  /// normally in a PtrCaseArena already).
  static CSymValue pointer(std::span<const PtrCase> Cases) {
    CSymValue V;
    V.K = Kind::Ptr;
    V.NumCases = (unsigned)Cases.size();
    V.Cases = Cases.data();
    return V;
  }
  /// A pointer over a copy of \p Cases in \p P.
  static CSymValue pointer(PtrCaseArena &P,
                           std::initializer_list<PtrCase> Cases) {
    return pointer(P.copy({Cases.begin(), Cases.size()}));
  }
  /// A definite single-target pointer.
  static CSymValue pointerTo(PtrCaseArena &P, smt::TermArena &A,
                             PtrTarget Target) {
    return pointer(P, {{A.trueTerm(), Target}});
  }
  /// The definite null pointer.
  static CSymValue nullPointer(PtrCaseArena &P, smt::TermArena &A) {
    return pointerTo(P, A, PtrTarget::null());
  }

  Kind kind() const { return K; }
  bool isScalar() const { return K == Kind::Scalar; }
  bool isPtr() const { return K == Kind::Ptr; }

  const smt::Term *scalarTerm() const {
    assert(isScalar() && "scalarTerm() on pointer value");
    return Term_;
  }
  std::span<const PtrCase> cases() const {
    assert(isPtr() && "cases() on scalar value");
    return {Cases, NumCases};
  }

  /// The disjunction of guards under which this pointer is null.
  const smt::Term *nullGuard(smt::TermArena &A) const;
  /// The disjunction of guards under which this pointer is non-null.
  const smt::Term *nonNullGuard(smt::TermArena &A) const;

  /// Merges two values under a condition: Cond ? Then : Else. Values must
  /// have the same kind; a merged case list goes into \p P.
  static CSymValue ite(smt::TermArena &A, PtrCaseArena &P,
                       const smt::Term *Cond, const CSymValue &Then,
                       const CSymValue &Else);

  /// Renders the value; \p Fields spells the field paths.
  std::string str(const FieldPaths &Fields) const;

private:
  Kind K = Kind::Scalar;
  unsigned NumCases = 0;
  union {
    const smt::Term *Term_ = nullptr;
    const PtrCase *Cases;
  };
};

/// A cell: a field path within an object.
struct CellKey {
  LocId Loc = NoLoc;
  FieldId Field = WholeObject;

  /// The store's sort key: the object, then the field path.
  uint64_t packed() const { return (uint64_t)Loc << 32 | Field; }
};

/// The mutable memory of one execution path: one array of cells sorted by
/// their packed key. Missing cells are lazily initialized on first read.
/// A copy keeps the source's capacity, so a forked path can add cells
/// without growing its array at once.
class CStore {
public:
  CStore() = default;
  CStore(CStore &&) = default;
  CStore &operator=(CStore &&) = default;
  CStore(const CStore &O) {
    Cells.reserve(O.Cells.capacity());
    Cells.assign(O.Cells.begin(), O.Cells.end());
  }
  CStore &operator=(const CStore &) = delete;

  bool has(CellKey Key) const { return get(Key) != nullptr; }
  const CSymValue *get(CellKey Key) const;
  void set(CellKey Key, CSymValue V);
  void clear() { Cells.clear(); }
  size_t size() const { return Cells.size(); }

private:
  struct Cell {
    uint64_t Key;
    CSymValue Value;
  };
  std::vector<Cell> Cells;
};

} // namespace mix::c

#endif // MIX_CSYM_CSYMVALUE_H
