//===--- Diagnostics.h - Diagnostic engine ----------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostic engine shared by every analysis in the project.
///
/// The paper's analyses report three flavours of result: hard errors (the
/// program is rejected), warnings (possible null dereference found by
/// qualifier inference or symbolic execution), and notes that explain a
/// preceding diagnostic (e.g. the qualifier flow path that witnesses a
/// warning). Library code never prints directly; it records diagnostics
/// here and tools render them.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SUPPORT_DIAGNOSTICS_H
#define MIX_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mix {

namespace prov {
struct DiagProvenance;
} // namespace prov

/// Severity of a diagnostic.
enum class DiagKind {
  Error,   ///< The analysis rejects the program.
  Warning, ///< A possible property violation (e.g. null dereference).
  Note,    ///< Additional context attached to the previous diagnostic.
};

/// Stable identity of a diagnostic, independent of its message text.
/// Values are grouped by hundreds into categories (see diagCategory) and
/// are part of the tool output contract: renumbering an existing ID is a
/// breaking change to --format=json consumers.
enum class DiagID : uint16_t {
  None = 0, ///< Unclassified (legacy call sites); category "general".

  // 1xx — parse: lexing / parsing of either input language.
  LexError = 101,
  ParseError = 102,

  // 2xx — type: the off-the-shelf type checkers.
  TypeError = 201,

  // 3xx — path: symbolic execution and the mix rules.
  SymExecError = 301,      ///< type error on a feasible path
  PathsNotExhaustive = 302,
  ExecBudget = 303,        ///< path/step or fixpoint-round budget exhausted
  NoFeasiblePath = 304,
  ResultTypeMismatch = 305,
  MemoryInconsistent = 306, ///< |- m ok failed
  EscapedClosure = 307,

  // 4xx — null: MIXY qualifier inference / null-pointer checking.
  NullWarning = 401,
  QualFlowNote = 402,
  WitnessNote = 403,

  // 5xx — driver: tool-level failures surfaced as diagnostics.
  EntryNotFound = 501,
  CacheDegraded = 502, ///< persistent cache rejected; run started cold

  // 6xx — sign: the sign-qualifier extension.
  SignError = 601,
};

/// Stable rendering of an ID: "MIX401". DiagID::None renders as "MIX000".
std::string diagIdString(DiagID ID);

/// Category slug of an ID's hundreds group: "parse", "type", "path",
/// "null", "driver", "sign", or "general".
const char *diagCategory(DiagID ID);

/// A single reported diagnostic.
struct Diagnostic {
  DiagKind Kind = DiagKind::Error;
  SourceLoc Loc;
  std::string Message;
  DiagID ID = DiagID::None;
  /// For notes: index (into the engine's diagnostic list) of the error or
  /// warning this note elaborates, or NoParent for a free-standing note.
  /// The structural link replaces the old by-adjacency convention; text
  /// rendering still emits notes right after their parent, so str()
  /// output is unchanged.
  static constexpr size_t NoParent = (size_t)-1;
  size_t Parent = NoParent;

  /// Evidence for this diagnostic (witness path, qualifier flow chain,
  /// block context), or null when no provenance sink was attached. The
  /// payload is immutable and shared: cache replays re-attach the same
  /// object. Opaque to this layer — src/provenance
  /// defines the type and every renderer of it.
  std::shared_ptr<const prov::DiagProvenance> Prov;

  /// Renders the diagnostic in the conventional "line:col: kind: message"
  /// shape used by compilers.
  std::string str() const;
};

/// Collects diagnostics emitted during an analysis run.
///
/// Analyses append diagnostics as they go; clients query counts afterwards
/// or render the full list. A caller can snapshot size() before a
/// sub-analysis and diff afterwards: the only removal,
/// dropRepeatedWarnings(), is for an analysis to call once its
/// sub-analyses have ended.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message, DiagID ID = DiagID::None) {
    report(DiagKind::Error, Loc, std::move(Message), ID);
  }
  void warning(SourceLoc Loc, std::string Message, DiagID ID = DiagID::None) {
    report(DiagKind::Warning, Loc, std::move(Message), ID);
  }
  /// Notes attach structurally to the most recent error or warning (their
  /// Parent index); a note with no preceding diagnostic stands alone.
  void note(SourceLoc Loc, std::string Message, DiagID ID = DiagID::None) {
    report(DiagKind::Note, Loc, std::move(Message), ID);
  }
  /// Appends a diagnostic and returns its index, so callers can attach
  /// provenance or notes structurally.
  size_t report(DiagKind Kind, SourceLoc Loc, std::string Message,
                DiagID ID = DiagID::None);

  /// Attaches a provenance payload to the diagnostic at \p Index. A null
  /// payload clears it.
  void attachProvenance(size_t Index,
                        std::shared_ptr<const prov::DiagProvenance> P) {
    Diags[Index].Prov = std::move(P);
  }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  size_t size() const { return Diags.size(); }
  bool empty() const { return Diags.empty(); }

  /// Indices of the notes attached to the diagnostic at \p Parent.
  std::vector<size_t> notesFor(size_t Parent) const;

  /// Indices of every top-level diagnostic (errors, warnings, and
  /// free-standing notes — everything except notes with a parent),
  /// stably sorted by (line, column, id). The shared result order of the
  /// sorted JSON and SARIF renderers, which makes machine output
  /// independent of the order the analysis reported diagnostics in.
  std::vector<size_t> sortedTopLevelIndices() const;

  unsigned errorCount() const { return NumErrors; }
  unsigned warningCount() const { return NumWarnings; }
  bool hasErrors() const { return NumErrors != 0; }

  /// Drops every warning from index \p From on whose location and message
  /// an earlier warning from \p From on has, together with its notes.
  /// The first occurrence stays where it is, with its notes and
  /// provenance; later indices shift down.
  void dropRepeatedWarnings(size_t From);

  /// Discards all recorded diagnostics.
  void clear();

  /// Renders every diagnostic, one per line.
  std::string str() const;

  /// Renders the diagnostics as a JSON array. Errors and warnings become
  /// objects with "id", "category", "severity", "line", "column",
  /// "message", and a "notes" array of their structurally attached notes;
  /// free-standing notes render as top-level objects with an empty notes
  /// list. The --format=json surface of both CLIs.
  ///
  /// With \p Sorted, top-level entries are ordered by (line, column, id)
  /// instead of emission order, so parallel runs render byte-identically
  /// (the drivers always pass true); the default mirrors engine order.
  std::string renderJSON(bool Sorted = false) const;

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
  unsigned NumWarnings = 0;
};

} // namespace mix

#endif // MIX_SUPPORT_DIAGNOSTICS_H
