#pragma once

// Shortest-path primitives: BFS hop counts, Dijkstra with optional per-edge
// weight overrides and edge masks (the masks are what Yen's algorithm and
// the edge-disjoint path selectors build on), and Bellman-Ford as an
// independent oracle for property tests.

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace splicer::graph {

/// Hop distance from `src` to every node; -1 where unreachable.
[[nodiscard]] std::vector<int> bfs_hops(const Graph& g, NodeId src);

/// Per-call options for dijkstra().
struct DijkstraOptions {
  /// If non-null, edge e uses (*weights)[e] instead of g.edge(e).weight.
  const std::vector<double>* weights = nullptr;
  /// If non-null, edges with (*disabled_edges)[e] are skipped.
  const std::vector<char>* disabled_edges = nullptr;
  /// If non-null, nodes with (*disabled_nodes)[n] cannot be traversed
  /// (source is always allowed to start).
  const std::vector<char>* disabled_nodes = nullptr;
};

struct DijkstraResult {
  std::vector<double> dist;       // +inf where unreachable
  std::vector<NodeId> parent;     // kInvalidNode at source/unreachable
  std::vector<EdgeId> parent_edge;
};

/// Non-negative weights required (checked in debug; negative weights throw).
[[nodiscard]] DijkstraResult dijkstra(const Graph& g, NodeId src,
                                      const DijkstraOptions& options = {});

/// Reconstructs the path src->dst from a DijkstraResult; nullopt if
/// unreachable. `length` is re-accumulated from the effective weights.
[[nodiscard]] std::optional<Path> extract_path(const Graph& g,
                                               const DijkstraResult& result,
                                               NodeId src, NodeId dst);

/// One-shot shortest path: the path dijkstra()'s (dist, node) pop order
/// defines, nullopt if unreachable. With no `weights` override on a graph
/// whose edges share one positive weight (every PCN topology), it is found
/// by a bidirectional BFS; otherwise by the heap loop, stopped once `dst`
/// settles. Throws std::out_of_range if `src` or `dst` is not a node.
[[nodiscard]] std::optional<Path> shortest_path(const Graph& g, NodeId src,
                                                NodeId dst,
                                                const DijkstraOptions& options = {});

/// Bellman-Ford distances (oracle for tests; O(n*m)).
[[nodiscard]] std::vector<double> bellman_ford(const Graph& g, NodeId src);

}  // namespace splicer::graph
