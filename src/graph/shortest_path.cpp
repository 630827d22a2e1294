#include "graph/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/search_scratch.h"

namespace splicer::graph {

namespace {
using detail::BidirectionalScratch;
using detail::CsrHalf;
using detail::CsrView;
using detail::HopLabel;
using detail::csr_for;
using detail::fresh_scratch;

constexpr double kInf = std::numeric_limits<double>::infinity();

using HeapItem = std::pair<double, NodeId>;  // (dist, node)

/// Relaxation loop with the option checks hoisted to compile time — the
/// k-path selectors call dijkstra thousands of times per run, and the
/// per-edge null checks dominated the inner loop. Pop order is the strict
/// total order on (dist, node), so every specialisation (and the old
/// std::priority_queue) yields bit-identical results. The search stops once
/// `goal` is settled (popped with its final distance): a settled node's
/// parent chain is final, so the extracted src->goal path is identical to a
/// full run's. kInvalidNode runs the full single-source search.
template <bool kWeights, bool kDisabledEdges, bool kDisabledNodes>
void dijkstra_loop(const Graph& g, const DijkstraOptions& options, NodeId goal,
                   std::vector<HeapItem>& heap, DijkstraResult& result) {
  const CsrView& csr = csr_for(g);
  const std::greater<HeapItem> later;
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.pop_back();
    if (d > result.dist[u]) continue;  // stale entry
    if (u == goal) break;              // settled: its parent chain is final
    for (const CsrHalf half : csr.out(u)) {
      if constexpr (kDisabledEdges) {
        if ((*options.disabled_edges)[half.edge()]) continue;
      }
      if constexpr (kDisabledNodes) {
        if ((*options.disabled_nodes)[half.to]) continue;
      }
      const double w =
          kWeights ? (*options.weights)[half.edge()] : g.edge(half.edge()).weight;
      if (w < 0) throw std::invalid_argument("dijkstra: negative edge weight");
      const double nd = d + w;
      if (nd < result.dist[half.to]) {
        result.dist[half.to] = nd;
        result.parent[half.to] = u;
        result.parent_edge[half.to] = half.edge();
        heap.emplace_back(nd, half.to);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
}
}  // namespace

std::vector<int> bfs_hops(const Graph& g, NodeId src) {
  std::vector<int> hops(g.node_count(), -1);
  std::queue<NodeId> frontier;
  hops.at(src) = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const auto& half : g.neighbors(u)) {
      if (hops[half.to] == -1) {
        hops[half.to] = hops[u] + 1;
        frontier.push(half.to);
      }
    }
  }
  return hops;
}

namespace {
/// Fills `result` in place so shortest_path's thread-local scratch reuses
/// its capacity instead of allocating three vectors per call.
void dijkstra_into(const Graph& g, NodeId src, NodeId goal,
                   const DijkstraOptions& options, DijkstraResult& result) {
  result.dist.assign(g.node_count(), kInf);
  result.parent.assign(g.node_count(), kInvalidNode);
  result.parent_edge.assign(g.node_count(), kInvalidEdge);
  result.dist.at(src) = 0.0;

  // Reused scratch heap: thread-local, so parallel experiment runs stay
  // independent.
  static thread_local std::vector<HeapItem> heap;
  heap.clear();
  heap.emplace_back(0.0, src);

  const int variant = (options.weights ? 4 : 0) |
                      (options.disabled_edges ? 2 : 0) |
                      (options.disabled_nodes ? 1 : 0);
  switch (variant) {
    case 0: dijkstra_loop<false, false, false>(g, options, goal, heap, result); break;
    case 1: dijkstra_loop<false, false, true>(g, options, goal, heap, result); break;
    case 2: dijkstra_loop<false, true, false>(g, options, goal, heap, result); break;
    case 3: dijkstra_loop<false, true, true>(g, options, goal, heap, result); break;
    case 4: dijkstra_loop<true, false, false>(g, options, goal, heap, result); break;
    case 5: dijkstra_loop<true, false, true>(g, options, goal, heap, result); break;
    case 6: dijkstra_loop<true, true, false>(g, options, goal, heap, result); break;
    default: dijkstra_loop<true, true, true>(g, options, goal, heap, result); break;
  }
}

/// Uniform-weight shortest path by bidirectional BFS, returning exactly the
/// Path the heap loop returns. When every edge weighs the same w > 0, the
/// heap pops level by level in ascending node id, and a node's parent is
/// the first relaxation that reaches it: its smallest-id neighbour one
/// level closer to src, through that neighbour's first unmasked edge to it
/// in CSR order. Every such neighbour of a node on a shortest src–dst path
/// lies on one too, so only the shortest-path DAG is needed:
///  1. grow the smaller frontier one full level at a time until the balls
///     meet; then d = forward radius + backward radius, and the meeting
///     nodes are the DAG's layer at the forward radius;
///  2. extend the forward labels through the DAG: layer j+1 is the
///     neighbours of layer j whose backward label is d-j-1;
///  3. walk back from dst, picking at each step the smallest-id neighbour
///     whose forward label is one less.
/// Ties go to the forward side, so src's level is grown first and the balls
/// meet before the backward search can reach src. A masked src therefore
/// still starts the path, as in the heap loop, without an exception here.
template <bool kDisabledEdges, bool kDisabledNodes>
std::optional<Path> bidirectional_bfs(const Graph& g, NodeId src, NodeId dst,
                                      const DijkstraOptions& options,
                                      double weight) {
  const auto edge_off = [&](EdgeId e) {
    if constexpr (kDisabledEdges) return (*options.disabled_edges)[e] != 0;
    return false;
  };
  const auto node_off = [&](NodeId n) {
    if constexpr (kDisabledNodes) return (*options.disabled_nodes)[n] != 0;
    return false;
  };
  if (node_off(dst)) return std::nullopt;

  const CsrView& csr = csr_for(g);
  BidirectionalScratch& s = fresh_scratch(g.node_count());
  const std::uint32_t stamp = s.stamp;
  std::vector<HopLabel>& labels = s.labels;
  const auto label = [&](NodeId n, int side, std::uint32_t hops) {
    labels[n].stamp[side] = stamp;
    labels[n].hops[side] = hops;
  };
  const auto has_label = [&](NodeId n, int side, std::uint32_t hops) {
    return labels[n].stamp[side] == stamp && labels[n].hops[side] == hops;
  };

  // 1. Meet in the middle. While the balls are disjoint, d exceeds the sum
  // of their radii, so the first level that meets fixes d at that sum.
  label(src, 0, 0);
  label(dst, 1, 0);
  s.frontier[0].assign(1, src);
  s.frontier[1].assign(1, dst);
  std::uint32_t radius[2] = {0, 0};
  s.meet.clear();
  while (s.meet.empty()) {
    if (s.frontier[0].empty() || s.frontier[1].empty()) return std::nullopt;
    const int side = s.frontier[0].size() <= s.frontier[1].size() ? 0 : 1;
    const std::uint32_t hops = ++radius[side];
    s.next.clear();
    for (const NodeId u : s.frontier[side]) {
      for (const CsrHalf half : csr.out(u)) {
        if (edge_off(half.edge())) continue;
        const HopLabel& seen = labels[half.to];
        if (seen.stamp[side] == stamp) continue;
        if (node_off(half.to)) continue;
        label(half.to, side, hops);
        if (seen.stamp[1 - side] == stamp) s.meet.push_back(half.to);
        s.next.push_back(half.to);
      }
    }
    s.frontier[side].swap(s.next);
  }
  const std::uint32_t d = radius[0] + radius[1];

  // 2. Forward labels for the DAG layers beyond the forward radius. No node
  // there has a forward label yet: it would close a path shorter than d.
  std::vector<NodeId>& layer = s.meet;
  for (std::uint32_t j = radius[0]; j + 1 < d; ++j) {
    s.next.clear();
    for (const NodeId u : layer) {
      for (const CsrHalf half : csr.out(u)) {
        if (edge_off(half.edge())) continue;
        if (!has_label(half.to, 1, d - j - 1)) continue;
        if (labels[half.to].stamp[0] == stamp) continue;
        label(half.to, 0, j + 1);
        s.next.push_back(half.to);
      }
    }
    layer.swap(s.next);
  }

  // 3. Walk back from dst. Adjacency lists are in edge-id order, so v's
  // first unmasked edge to u is also u's first unmasked edge to v.
  Path path;
  path.nodes.resize(d + 1);
  path.edges.resize(d);
  path.nodes[d] = dst;
  for (std::uint32_t j = d; j-- > 0;) {
    const NodeId v = path.nodes[j + 1];
    NodeId parent = kInvalidNode;
    EdgeId parent_edge = kInvalidEdge;
    for (const CsrHalf half : csr.out(v)) {
      if (half.to < parent && !edge_off(half.edge()) && has_label(half.to, 0, j)) {
        parent = half.to;
        parent_edge = half.edge();
      }
    }
    path.nodes[j] = parent;
    path.edges[j] = parent_edge;
  }
  // Accumulated from src as the heap accumulates dist, so the double is
  // the same; a length that overflows to +inf is unreachable there too.
  for (std::uint32_t i = 0; i < d; ++i) path.length += weight;
  if (path.length == kInf) return std::nullopt;
  return path;
}
}  // namespace

DijkstraResult dijkstra(const Graph& g, NodeId src, const DijkstraOptions& options) {
  DijkstraResult result;
  dijkstra_into(g, src, kInvalidNode, options, result);
  return result;
}

std::optional<Path> extract_path(const Graph& g, const DijkstraResult& result,
                                 NodeId src, NodeId dst) {
  if (result.dist.at(dst) == kInf) return std::nullopt;
  // Walk the parent chain once to size the buffers exactly (the walk is a
  // handful of loads; the incremental push_back growth it replaces was
  // several reallocations per extracted path).
  std::size_t hops = 0;
  for (NodeId cur = dst; cur != src; cur = result.parent[cur]) {
    if (++hops > g.node_count()) {
      throw std::logic_error("extract_path: parent cycle");
    }
  }
  Path path;
  path.nodes.resize(hops + 1);
  path.edges.resize(hops);
  NodeId cur = dst;
  for (std::size_t i = hops; i-- > 0;) {
    path.nodes[i + 1] = cur;
    path.edges[i] = result.parent_edge[cur];
    cur = result.parent[cur];
  }
  path.nodes[0] = src;
  path.length = result.dist[dst];
  return path;
}

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  const DijkstraOptions& options) {
  if (src >= g.node_count() || dst >= g.node_count()) {
    throw std::out_of_range("shortest_path: node out of range");
  }
  if (src == dst) {
    Path trivial;
    trivial.nodes.push_back(src);
    return trivial;
  }
  // Maintained incrementally by the Graph — no per-query edge scan. Every
  // PCN topology is hop-weighted, so this is the k-path selectors' case.
  const double w0 = options.weights == nullptr ? g.uniform_positive_weight() : 0.0;
  if (w0 > 0) {
    if (options.disabled_edges == nullptr && options.disabled_nodes == nullptr) {
      return bidirectional_bfs<false, false>(g, src, dst, options, w0);
    }
    if (options.disabled_nodes == nullptr) {
      return bidirectional_bfs<true, false>(g, src, dst, options, w0);
    }
    if (options.disabled_edges == nullptr) {
      return bidirectional_bfs<false, true>(g, src, dst, options, w0);
    }
    return bidirectional_bfs<true, true>(g, src, dst, options, w0);
  }
  // The heap loop, stopped once dst settles; the scratch result recycles
  // its vectors across calls.
  static thread_local DijkstraResult scratch;
  dijkstra_into(g, src, dst, options, scratch);
  return extract_path(g, scratch, src, dst);
}

std::vector<double> bellman_ford(const Graph& g, NodeId src) {
  std::vector<double> dist(g.node_count(), kInf);
  dist.at(src) = 0.0;
  for (std::size_t round = 0; round + 1 < g.node_count(); ++round) {
    bool changed = false;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& rec = g.edge(e);
      if (dist[rec.u] + rec.weight < dist[rec.v]) {
        dist[rec.v] = dist[rec.u] + rec.weight;
        changed = true;
      }
      if (dist[rec.v] + rec.weight < dist[rec.u]) {
        dist[rec.u] = dist[rec.v] + rec.weight;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

}  // namespace splicer::graph
