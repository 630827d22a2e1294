#pragma once

// Edmonds-Karp max-flow with flow-path decomposition. Flash (CoNEXT '19)
// routes "elephant" payments along max-flow paths probed from current
// channel balances; this module is that substrate.

#include <vector>

#include "graph/graph.h"

namespace splicer::graph {

/// One decomposed flow path with the amount it carries.
struct FlowPath {
  Path path;
  double flow = 0.0;
};

struct MaxFlowResult {
  double total_flow = 0.0;
  std::vector<FlowPath> paths;  // one per augmentation, in augmentation order
};

/// Max flow from src to dst. Undirected edges are modelled as a pair of
/// anti-parallel arcs whose capacities can differ via `forward_capacity` /
/// `backward_capacity` overrides (PCN channels have per-direction balances;
/// "forward" means u->v of the stored edge). With no overrides both
/// directions use edge.capacity.
///
/// Each round augments along the path a FIFO BFS in adjacency order picks
/// over arcs whose residual exceeds 1e-9: a shortest residual path, found
/// by a bidirectional search that returns exactly that path. The override
/// vectors must hold one entry per edge.
///
/// `flow_limit` stops early once that much flow is found (Flash does not
/// need the full max flow, just enough for the payment); `max_paths` bounds
/// the number of augmenting paths.
struct MaxFlowOptions {
  const std::vector<double>* forward_capacity = nullptr;
  const std::vector<double>* backward_capacity = nullptr;
  double flow_limit = -1.0;      // < 0 = unlimited
  std::size_t max_paths = 0;     // 0 = unlimited
};

/// Throws std::out_of_range if `src` or `dst` is not a node and
/// std::invalid_argument if an override's size is not edge_count().
[[nodiscard]] MaxFlowResult max_flow(const Graph& g, NodeId src, NodeId dst,
                                     const MaxFlowOptions& options = {});

}  // namespace splicer::graph
