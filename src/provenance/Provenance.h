//===--- Provenance.h - Diagnostic provenance payloads ----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evidence attached to diagnostics: why the analysis believes a report.
///
/// Section 4.5 of the paper notes that the hard part of using MIXY on
/// vsftpd was deciding, for each warning, whether it was real or an
/// artifact of aliasing or block placement. This subsystem records, per
/// emitted diagnostic, up to three kinds of evidence:
///
///  - a \ref WitnessPath: the branch decisions symbolic execution took to
///    reach the error, the accumulated path condition, and a satisfying
///    model (concrete input values) extracted from the solver;
///  - a \ref FlowChain: for qualifier errors, the shortest path through
///    the qualifier constraint graph from the $null source to the
///    $nonnull sink, with the program point and rule (plain flow, mix
///    boundary, aliasing) that induced each edge;
///  - a \ref BlockContext: which MIX block stack the diagnostic came from
///    and the cache disposition of that block's analysis.
///
/// Recording follows the TraceSink pattern: analyses take a
/// \ref ProvenanceSink pointer and a null pointer is the off switch, so
/// an unexplained run costs one branch per site (bench_observe guards
/// this). Payloads are immutable once attached (shared_ptr<const>), which
/// makes sharing them across cache replays safe.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_PROVENANCE_PROVENANCE_H
#define MIX_PROVENANCE_PROVENANCE_H

#include "observe/Metrics.h"
#include "persist/RecordFile.h"
#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mix::prov {

/// One branch decision on the path symbolic execution followed to the
/// reported program point.
struct WitnessStep {
  SourceLoc Loc;    ///< location of the branch (or loop) condition
  std::string Note; ///< e.g. "condition true", "branches merged (defer)"
};

/// A concrete value the solver chose for one symbolic input.
struct ModelBinding {
  std::string Name;  ///< source-level variable name
  std::string Value; ///< rendered value ("-3", "true", ...)
};

/// The symbolic witness of a path-sensitive report.
struct WitnessPath {
  std::vector<WitnessStep> Steps;
  std::string PathCondition;       ///< Term::str() of the accumulated guard
  std::vector<ModelBinding> Model; ///< name-sorted satisfying assignment
  bool ModelComplete = false;      ///< solver proved every binding exact
  /// Which solver backend decided the witness query ("smtlite", "dnf").
  /// Empty in payloads persisted before the field existed.
  std::string DecidedBy;
};

/// How one edge of a qualifier flow chain came to exist.
enum class FlowEdgeKind : uint8_t {
  Seed,        ///< $null entered the graph (NULL literal, havoc, ...)
  Flow,        ///< ordinary assignment / parameter / return flow
  MixBoundary, ///< induced by a TSymBlock / SETypBlock translation
  Alias,       ///< induced by the points-to alias restoration
};

/// Stable label for a \ref FlowEdgeKind ("seed", "flow", "mix boundary",
/// "alias").
const char *flowEdgeKindName(FlowEdgeKind Kind);

/// One node of a qualifier flow chain plus the edge that reached it.
struct FlowStep {
  std::string Desc; ///< constraint-graph node description
  SourceLoc Loc;    ///< program point of the node
  /// The rule that induced the edge from the previous step (meaningless
  /// for the first step, which is the $null source itself).
  FlowEdgeKind EdgeFromPrev = FlowEdgeKind::Flow;
};

/// The shortest $null-source-to-$nonnull-sink path that witnesses a
/// qualifier warning.
struct FlowChain {
  std::vector<FlowStep> Steps; ///< source first, sink last
};

/// Cache disposition of the block analysis that emitted a diagnostic.
enum class BlockDisposition : uint8_t {
  None = 0, ///< not produced by a MIX block (e.g. baseline inference)
  Fresh,    ///< the block was analyzed live in this run
  WarmHit,  ///< replayed from the persistent block-summary store
  Replay,   ///< replayed from the in-memory block cache (fixpoint re-visit)
};

/// Stable label for a \ref BlockDisposition ("fresh", "warm hit",
/// "replay"; None renders empty).
const char *blockDispositionName(BlockDisposition D);

/// Which MIX block stack a diagnostic came from.
struct BlockContext {
  /// Function names of the nested block analyses, outermost first.
  std::vector<std::string> Stack;
  BlockDisposition Disposition = BlockDisposition::None;
};

/// Everything recorded for one diagnostic. Attached to Diagnostic::Prov
/// as an immutable shared payload.
struct DiagProvenance {
  std::optional<WitnessPath> Witness;
  std::optional<FlowChain> Flow;
  BlockContext Block;

  bool empty() const {
    return !Witness && !Flow && Block.Stack.empty() &&
           Block.Disposition == BlockDisposition::None;
  }
};

/// The recording handle analyses receive. A null ProvenanceSink pointer
/// disables recording entirely (the null-handle pattern shared with
/// TraceSink); a live sink only counts what was attached — the payloads
/// themselves ride on the diagnostics.
class ProvenanceSink {
public:
  ProvenanceSink() = default;

  /// Resolves the provenance.* counters against \p R. Without this the
  /// sink still enables recording; it just counts into detached handles.
  void attachMetrics(obs::MetricsRegistry &R) {
    Witnesses = R.counter("provenance.witnesses");
    Flows = R.counter("provenance.flows");
    Blocks = R.counter("provenance.blocks");
    Replays = R.counter("provenance.replayed");
  }

  void countWitness() { Witnesses.inc(); }
  void countFlow() { Flows.inc(); }
  void countBlock() { Blocks.inc(); }
  /// A recorded payload was re-attached from a cache instead of being
  /// rebuilt. The payload is replayed verbatim (so --explain output is
  /// identical cold vs. warm); only this counter tells the runs apart.
  void countReplay() { Replays.inc(); }

private:
  obs::Counter Witnesses;
  obs::Counter Flows;
  obs::Counter Blocks;
  obs::Counter Replays;
};

/// Renders one provenance payload as the indented explanation block that
/// --explain prints under its diagnostic. Deterministic; every line is
/// indented with \p Indent.
std::string renderExplain(const DiagProvenance &P, const std::string &Indent);

/// Renders the full --explain text output: every diagnostic in engine
/// order as Diagnostic::str(), each followed by its explanation block
/// (when it carries provenance). Diagnostics without provenance render
/// exactly as DiagnosticEngine::str() would.
std::string renderExplainText(const DiagnosticEngine &Diags);

/// Serializes \p P for the persistent block-summary store.
void encodeProvenance(const DiagProvenance &P, persist::ByteWriter &W);

/// Decodes an encodeProvenance payload. Returns null (and sets the
/// reader's error flag) on malformed input.
std::shared_ptr<const DiagProvenance> decodeProvenance(persist::ByteReader &R);

} // namespace mix::prov

#endif // MIX_PROVENANCE_PROVENANCE_H
