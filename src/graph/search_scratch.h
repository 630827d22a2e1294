#pragma once

// Internal to src/graph: the flattened adjacency and the stamped hop labels
// that the bidirectional searches of shortest_path.cpp and max_flow.cpp
// share. Both are thread-local, so parallel experiment runs stay
// independent. Not part of the library's interface.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace splicer::graph::detail {

/// One adjacency entry of the flattened view: the neighbour and the arc
/// that reaches it. Arc 2e runs u->v of stored edge e and arc 2e+1 runs
/// v->u, so `arc ^ 1` is the same edge the other way.
struct CsrHalf {
  NodeId to;
  std::uint32_t arc;

  [[nodiscard]] EdgeId edge() const noexcept { return arc >> 1; }
};

/// Flattened adjacency (CSR) of one graph structure, rebuilt per
/// structure_version(): the per-node vector-of-vectors chase was the
/// dominant cache-miss source in the k-path relaxation loops. Halves are
/// appended in exactly the adjacency order, so every traversal sees the
/// identical neighbour sequence — bit-identical results.
struct CsrView {
  std::uint64_t version = 0;  // 0 = empty slot (real versions start at 1)
  std::uint64_t last_used = 0;
  std::vector<std::uint32_t> offsets;  // node -> first half index
  std::vector<CsrHalf> halves;

  [[nodiscard]] std::span<const CsrHalf> out(NodeId n) const {
    return {halves.data() + offsets[n], halves.data() + offsets[n + 1]};
  }
};

/// The calling thread's view of `g`, from a small pool so a thread
/// alternating between topologies (the raw, multi-star and single-star
/// substrates of one scenario) doesn't thrash. Throws std::length_error if
/// `g` has more edges than a 32-bit arc index can name.
[[nodiscard]] const CsrView& csr_for(const Graph& g);

/// Hop labels of a bidirectional search, side 0 = forward from the source,
/// side 1 = backward from the target. A label is live only while its stamp
/// equals the search's, so a search starts by bumping one counter instead
/// of clearing O(n) entries.
struct HopLabel {
  std::uint32_t stamp[2] = {0, 0};
  std::uint32_t hops[2] = {0, 0};
};

struct BidirectionalScratch {
  std::vector<HopLabel> labels;
  std::uint32_t stamp = 0;
  std::vector<NodeId> frontier[2];
  std::vector<NodeId> next;
  std::vector<NodeId> meet;
};

/// The calling thread's scratch, with a fresh stamp and a label for every
/// one of `node_count` nodes. Labels are zeroed only when the array grows
/// or the stamp wraps (old stamps would then read as live).
[[nodiscard]] BidirectionalScratch& fresh_scratch(std::size_t node_count);

}  // namespace splicer::graph::detail
