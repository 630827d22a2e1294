#include "graph/search_scratch.h"

#include <algorithm>
#include <stdexcept>

namespace splicer::graph::detail {

const CsrView& csr_for(const Graph& g) {
  static thread_local CsrView pool[4];
  static thread_local std::uint64_t use_clock = 0;
  const std::uint64_t version = g.structure_version();
  CsrView* slot = nullptr;
  for (auto& view : pool) {
    if (view.version == version) {
      view.last_used = ++use_clock;
      return view;
    }
    if (slot == nullptr || view.last_used < slot->last_used) slot = &view;
  }
  if (g.edge_count() >= (std::size_t{1} << 31)) {
    throw std::length_error("csr_for: too many edges for 32-bit arcs");
  }
  slot->version = version;
  slot->last_used = ++use_clock;
  slot->offsets.assign(g.node_count() + 1, 0);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    slot->offsets[n + 1] =
        slot->offsets[n] + static_cast<std::uint32_t>(g.degree(n));
  }
  slot->halves.resize(slot->offsets[g.node_count()]);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    std::uint32_t at = slot->offsets[n];
    for (const auto& half : g.neighbors(n)) {
      const std::uint32_t reversed = g.edge(half.edge).u == n ? 0 : 1;
      slot->halves[at++] = CsrHalf{half.to, 2 * half.edge + reversed};
    }
  }
  return *slot;
}

BidirectionalScratch& fresh_scratch(std::size_t node_count) {
  static thread_local BidirectionalScratch s;
  if (s.labels.size() < node_count) s.labels.resize(node_count);
  if (++s.stamp == 0) {
    std::fill(s.labels.begin(), s.labels.end(), HopLabel{});
    s.stamp = 1;
  }
  return s;
}

}  // namespace splicer::graph::detail
