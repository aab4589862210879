//===--- QualGraph.h - Qualifier constraint graph ---------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint graph of the null/nonnull type qualifier inference
/// system (a simplified reimplementation of Foster et al. 2006, as MIXY's
/// CilQual is). Nodes are qualifier variables; directed edges are value
/// flows. The qualifier lattice is nonnull < null ("may be null" is the
/// top): an error is a flow from a null source into a nonnull-bounded
/// position.
///
/// Solving is reachability from null sources, yielding for each offending
/// node a witness path that the diagnostics print — the paper's notion of
/// "imprecise qualifier flows".
///
//===----------------------------------------------------------------------===//

#ifndef MIX_QUAL_QUALGRAPH_H
#define MIX_QUAL_QUALGRAPH_H

#include "provenance/Provenance.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace mix::c {

/// A qualifier constraint graph.
class QualGraph {
public:
  using Node = unsigned;
  static constexpr Node NoNode = ~0u;

  /// Why an edge exists and where it was induced — the provenance the
  /// flow-chain explanations print. Plain assignments default to Flow
  /// with no location (the node's own location stands in); the mix rules
  /// and alias restoration tag their edges so block-boundary translations
  /// are visible in the explanation.
  struct EdgeInfo {
    prov::FlowEdgeKind Kind = prov::FlowEdgeKind::Flow;
    SourceLoc Loc;
  };

  /// Creates a qualifier variable. \p Description names the program
  /// position (e.g. "main::p_addr" or "param 1 of sysutil_free").
  Node newNode(std::string Description, SourceLoc Loc = SourceLoc());

  /// Records the value flow \p From -> \p To (qual(From) <= qual(To)).
  /// \p Info records why; a duplicate edge keeps its first recording
  /// (deterministic under re-analysis). The two-argument form records a
  /// plain Flow edge with no location.
  void addFlow(Node From, Node To);
  void addFlow(Node From, Node To, EdgeInfo Info);

  /// Marks \p N as a source of null values (a NULL literal or a `null`
  /// annotation).
  void markNullSource(Node N);

  /// Marks \p N as requiring nonnull (a `nonnull` annotation).
  void markNonnullBound(Node N);

  unsigned numNodes() const { return (unsigned)Descriptions.size(); }
  unsigned numEdges() const { return NumEdges; }
  const std::string &description(Node N) const { return Descriptions[N]; }
  SourceLoc location(Node N) const { return Locations[N]; }

  /// Recomputes null-reachability. Call after the graph changes and
  /// before querying mayBeNull / violations.
  void solve();

  /// After solve(): does a null value reach \p N?
  bool mayBeNull(Node N) const { return NullReachable[N]; }

  /// After solve(): every nonnull-bounded node reached by null, i.e.
  /// every qualifier error.
  std::vector<Node> violations() const;

  /// After solve(): a witness flow path from some null source to \p N
  /// (inclusive), as node indices. Empty if N is not reachable.
  std::vector<Node> witnessPath(Node N) const;

  /// Renders the witness path for diagnostics.
  std::string describePath(const std::vector<Node> &Path) const;

  /// After solve(): the witness path for \p N as a provenance flow
  /// chain — one step per node, each carrying the kind and program point
  /// of the edge that reached it (steps with no recorded edge site fall
  /// back to the node's own location). Empty chain if N is unreachable.
  prov::FlowChain flowChain(Node N) const;

private:
  std::vector<std::string> Descriptions;
  std::vector<SourceLoc> Locations;
  std::vector<std::vector<Node>> Successors;
  std::vector<std::vector<EdgeInfo>> EdgeMeta; // parallel to Successors
  std::vector<bool> NullSource;
  std::vector<bool> NonnullBound;
  std::vector<bool> NullReachable;
  std::vector<Node> Parents;         // BFS tree for witnesses
  std::vector<EdgeInfo> ParentEdges; // edge that reached each node
  unsigned NumEdges = 0;
};

} // namespace mix::c

#endif // MIX_QUAL_QUALGRAPH_H
