#include "graph/max_flow.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/search_scratch.h"

namespace splicer::graph {

namespace {
using detail::BidirectionalScratch;
using detail::CsrHalf;
using detail::CsrView;
using detail::HopLabel;
using detail::csr_for;
using detail::fresh_scratch;

constexpr double kEps = 1e-9;

/// Per-thread state of one max_flow call. Residual capacities are filled
/// lazily: an edge's two arcs read their capacities until the first
/// augmentation through the edge copies both into `residual`, so an
/// untouched edge costs nothing per call. Parents are live where the
/// round's forward label is, so neither array is cleared between calls.
struct FlowScratch {
  std::vector<std::uint32_t> touched;  // per edge: == call once copied
  std::vector<double> residual;        // per arc
  std::uint32_t call = 0;
  std::vector<NodeId> parent;             // per node
  std::vector<std::uint32_t> parent_arc;  // per node: the arc parent->node
};

FlowScratch& fresh_flow_scratch(const Graph& g) {
  static thread_local FlowScratch s;
  if (s.touched.size() < g.edge_count()) {
    s.touched.resize(g.edge_count(), 0);
    s.residual.resize(2 * g.edge_count());
  }
  if (s.parent.size() < g.node_count()) {
    s.parent.resize(g.node_count());
    s.parent_arc.resize(g.node_count());
  }
  if (++s.call == 0) {
    std::fill(s.touched.begin(), s.touched.end(), 0);
    s.call = 1;
  }
  return s;
}

/// Residual capacity per arc (arc 2e = u->v of edge e, arc 2e+1 = v->u).
class Residuals {
 public:
  Residuals(const Graph& g, const MaxFlowOptions& options, FlowScratch& s)
      : g_(g), s_(s) {
    capacity_[0] = options.forward_capacity;
    capacity_[1] = options.backward_capacity;
  }

  [[nodiscard]] double operator[](std::uint32_t arc) const {
    return s_.touched[arc >> 1] == s_.call ? s_.residual[arc] : initial(arc);
  }

  /// The arc's entry, copying both arcs of its edge in on first use.
  double& at(std::uint32_t arc) {
    const EdgeId e = arc >> 1;
    if (s_.touched[e] != s_.call) {
      s_.touched[e] = s_.call;
      s_.residual[2 * e] = initial(2 * e);
      s_.residual[2 * e + 1] = initial(2 * e + 1);
    }
    return s_.residual[arc];
  }

 private:
  [[nodiscard]] double initial(std::uint32_t arc) const {
    const std::vector<double>* caps = capacity_[arc & 1];
    return caps ? (*caps)[arc >> 1] : g_.edge(arc >> 1).capacity;
  }

  const Graph& g_;
  FlowScratch& s_;
  const std::vector<double>* capacity_[2];
};

/// The augmenting path a FIFO BFS in adjacency order finds from src to dst
/// over arcs with residual > kEps: its hop count, with the BFS parent of
/// every node on it in f.parent/f.parent_arc; 0 if dst is unreachable.
///
/// A node's FIFO parent is the first node of the previous level, in FIFO
/// order, with an open arc to it. If the node lies on a shortest src->dst
/// path, so does that parent, so the BFS order restricted to the
/// shortest-path DAG is the full BFS's order. Hence, as in shortest_path:
///  1. grow the smaller frontier one full level at a time until the balls
///     meet; the forward side records parents in FIFO order, and
///     d = forward radius + backward radius;
///  2. take the meeting layer in the forward frontier's order (the order
///     the backward side met it in is not FIFO order);
///  3. extend forward layer by layer through nodes whose backward label is
///     one less, recording first-discoverer parents.
std::uint32_t augmenting_path(const CsrView& csr, const Residuals& residual,
                              NodeId src, NodeId dst, std::size_t node_count,
                              FlowScratch& f) {
  BidirectionalScratch& s = fresh_scratch(node_count);
  const std::uint32_t stamp = s.stamp;
  std::vector<HopLabel>& labels = s.labels;
  const auto label = [&](NodeId n, int side, std::uint32_t hops) {
    labels[n].stamp[side] = stamp;
    labels[n].hops[side] = hops;
  };
  const auto has_label = [&](NodeId n, int side, std::uint32_t hops) {
    return labels[n].stamp[side] == stamp && labels[n].hops[side] == hops;
  };
  // `!(r > kEps)` would differ on NaN; this is the FIFO BFS's own test.
  const auto blocked = [&](std::uint32_t arc) { return residual[arc] <= kEps; };

  // 1. Meet in the middle. The backward side follows arcs into its nodes:
  // from u over half (u -> to, arc), the arc to->u is arc ^ 1.
  label(src, 0, 0);
  label(dst, 1, 0);
  s.frontier[0].assign(1, src);
  s.frontier[1].assign(1, dst);
  std::uint32_t radius[2] = {0, 0};
  bool met = false;
  while (!met) {
    if (s.frontier[0].empty() || s.frontier[1].empty()) return 0;
    const int side = s.frontier[0].size() <= s.frontier[1].size() ? 0 : 1;
    const std::uint32_t hops = ++radius[side];
    const std::uint32_t flip = side == 0 ? 0 : 1;
    s.next.clear();
    for (const NodeId u : s.frontier[side]) {
      for (const CsrHalf half : csr.out(u)) {
        const HopLabel& seen = labels[half.to];
        if (seen.stamp[side] == stamp) continue;
        if (blocked(half.arc ^ flip)) continue;
        label(half.to, side, hops);
        if (side == 0) {
          f.parent[half.to] = u;
          f.parent_arc[half.to] = half.arc;
        }
        if (seen.stamp[1 - side] == stamp) met = true;
        s.next.push_back(half.to);
      }
    }
    s.frontier[side].swap(s.next);
  }
  const std::uint32_t d = radius[0] + radius[1];

  // 2. Every node of the forward frontier with a backward label is at the
  // meeting distance: while the balls were disjoint, d > sum of the radii.
  std::vector<NodeId>& layer = s.meet;
  layer.clear();
  for (const NodeId n : s.frontier[0]) {
    if (labels[n].stamp[1] == stamp) layer.push_back(n);
  }

  // 3. No node past the forward radius has a forward label yet: it would
  // close a path shorter than d.
  for (std::uint32_t j = radius[0]; j < d; ++j) {
    s.next.clear();
    for (const NodeId u : layer) {
      for (const CsrHalf half : csr.out(u)) {
        if (!has_label(half.to, 1, d - j - 1)) continue;
        if (labels[half.to].stamp[0] == stamp) continue;
        if (blocked(half.arc)) continue;
        label(half.to, 0, j + 1);
        f.parent[half.to] = u;
        f.parent_arc[half.to] = half.arc;
        s.next.push_back(half.to);
      }
    }
    layer.swap(s.next);
  }
  return d;
}
}  // namespace

MaxFlowResult max_flow(const Graph& g, NodeId src, NodeId dst,
                       const MaxFlowOptions& options) {
  if (src >= g.node_count() || dst >= g.node_count()) {
    throw std::out_of_range("max_flow: node out of range");
  }
  for (const auto* caps : {options.forward_capacity, options.backward_capacity}) {
    if (caps != nullptr && caps->size() != g.edge_count()) {
      throw std::invalid_argument("max_flow: capacity override size != edge_count()");
    }
  }
  MaxFlowResult result;
  if (src == dst) return result;

  // Thread-local scratch: Flash runs one max_flow per elephant payment.
  const CsrView& csr = csr_for(g);
  FlowScratch& f = fresh_flow_scratch(g);
  Residuals residual(g, options, f);

  while (true) {
    if (options.flow_limit >= 0.0 && result.total_flow >= options.flow_limit - kEps) break;
    if (options.max_paths != 0 && result.paths.size() >= options.max_paths) break;

    const std::uint32_t hops = augmenting_path(csr, residual, src, dst, g.node_count(), f);
    if (hops == 0) break;  // no augmenting path

    // Bottleneck along the found path.
    double bottleneck = std::numeric_limits<double>::infinity();
    for (NodeId v = dst; v != src; v = f.parent[v]) {
      bottleneck = std::min(bottleneck, residual[f.parent_arc[v]]);
    }
    if (options.flow_limit >= 0.0) {
      bottleneck = std::min(bottleneck, options.flow_limit - result.total_flow);
    }

    FlowPath fp;
    fp.flow = bottleneck;
    fp.path.nodes.resize(hops + 1);
    fp.path.edges.resize(hops);
    NodeId v = dst;
    for (std::uint32_t j = hops; j-- > 0;) {
      const std::uint32_t arc = f.parent_arc[v];
      residual.at(arc) -= bottleneck;
      residual.at(arc ^ 1) += bottleneck;
      fp.path.nodes[j + 1] = v;
      fp.path.edges[j] = arc >> 1;
      v = f.parent[v];
    }
    fp.path.nodes[0] = src;
    fp.path.length = static_cast<double>(hops);

    result.total_flow += bottleneck;
    result.paths.push_back(std::move(fp));
  }
  return result;
}

}  // namespace splicer::graph
