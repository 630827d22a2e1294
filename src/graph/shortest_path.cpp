#include "graph/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace splicer::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

using HeapItem = std::pair<double, NodeId>;  // (dist, node)

/// Flattened adjacency (CSR) of one graph structure, rebuilt per
/// structure_version(): the per-node vector-of-vectors chase was the
/// dominant cache-miss source in the k-path relaxation loops. Halves are
/// appended in exactly the adjacency order, so every traversal sees the
/// identical neighbour sequence — bit-identical results. Thread-local with
/// a small pool so a thread alternating between topologies (the raw,
/// multi-star and single-star substrates of one scenario) doesn't thrash.
struct CsrView {
  std::uint64_t version = 0;  // 0 = empty slot (real versions start at 1)
  std::uint64_t last_used = 0;
  std::vector<std::uint32_t> offsets;  // node -> first half index
  std::vector<HalfEdge> halves;
};

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
    for (const auto& half : g.neighbors(n)) slot->halves[at++] = half;
  }
  return *slot;
}

/// Relaxation loop with the option checks hoisted to compile time — the
/// k-path selectors call dijkstra thousands of times per run, and the
/// per-edge null checks dominated the inner loop. Pop order is the strict
/// total order on (dist, node), so every specialisation (and the old
/// std::priority_queue) yields bit-identical results.
template <bool kWeights, bool kDisabledEdges, bool kDisabledNodes>
void dijkstra_loop(const Graph& g, const DijkstraOptions& options,
                   std::vector<HeapItem>& heap, DijkstraResult& result) {
  const CsrView& csr = csr_for(g);
  const std::greater<HeapItem> later;
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.pop_back();
    if (d > result.dist[u]) continue;  // stale entry
    if (u == options.stop_at) break;   // settled: its parent chain is final
    const std::uint32_t begin = csr.offsets[u];
    const std::uint32_t end = csr.offsets[u + 1];
    for (std::uint32_t h = begin; h < end; ++h) {
      const HalfEdge half = csr.halves[h];
      if constexpr (kDisabledEdges) {
        if ((*options.disabled_edges)[half.edge]) continue;
      }
      if constexpr (kDisabledNodes) {
        if ((*options.disabled_nodes)[half.to]) continue;
      }
      const double w =
          kWeights ? (*options.weights)[half.edge] : g.edge(half.edge).weight;
      if (w < 0) throw std::invalid_argument("dijkstra: negative edge weight");
      const double nd = d + w;
      if (nd < result.dist[half.to]) {
        result.dist[half.to] = nd;
        result.parent[half.to] = u;
        result.parent_edge[half.to] = half.edge;
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
/// Uniform-weight fast path. When every edge carries the same positive
/// weight w, the heap's strict (dist, node) pop order is exactly
/// "level by level, ascending node id within a level": all level-k entries
/// pop before any level-(k+1) entry (k*w accumulates strictly), and a node
/// is only ever pushed once (relaxations strictly improve). Processing a
/// sorted level therefore performs the identical relaxation sequence —
/// same parents, same accumulated dist doubles, same early-exit cut — with
/// no heap traffic at all. The PCN topologies are hop-weighted, so this is
/// the common case for the k-path selectors.
///
/// Goal-directed cut: under uniform weights a node's (dist, parent,
/// parent_edge) are final the moment they are first assigned — every later
/// relaxation of the node offers the same level distance and fails the
/// strict `<`. So when `stop_at` is set the search can return at the
/// assignment itself, not when the node's level is processed: the parent
/// chain extract_path walks is already exactly the one the full run (and
/// the heap loop) would produce.
template <bool kDisabledEdges, bool kDisabledNodes>
void uniform_level_loop(const Graph& g, const DijkstraOptions& options,
                        double weight, NodeId src, DijkstraResult& result) {
  const CsrView& csr = csr_for(g);
  static thread_local std::vector<NodeId> level;
  static thread_local std::vector<NodeId> next;
  level.clear();
  next.clear();
  level.push_back(src);
  while (!level.empty()) {
    std::sort(level.begin(), level.end());  // the heap's within-level order
    for (const NodeId u : level) {
      if (u == options.stop_at) return;  // settled: parent chain is final
      const double d = result.dist[u];
      const std::uint32_t begin = csr.offsets[u];
      const std::uint32_t end = csr.offsets[u + 1];
      for (std::uint32_t h = begin; h < end; ++h) {
        const HalfEdge half = csr.halves[h];
        if constexpr (kDisabledEdges) {
          if ((*options.disabled_edges)[half.edge]) continue;
        }
        if constexpr (kDisabledNodes) {
          if ((*options.disabled_nodes)[half.to]) continue;
        }
        const double nd = d + weight;
        if (nd < result.dist[half.to]) {
          result.dist[half.to] = nd;
          result.parent[half.to] = u;
          result.parent_edge[half.to] = half.edge;
          if (half.to == options.stop_at) return;  // assignment is final
          next.push_back(half.to);
        }
      }
    }
    level.swap(next);
    next.clear();
  }
}

/// Shared implementation: fills `result` in place so callers with a scratch
/// result (shortest_path, called thousands of times per experiment for
/// k-path setup) reuse its capacity instead of allocating three vectors
/// per call.
void dijkstra_into(const Graph& g, NodeId src, const DijkstraOptions& options,
                   DijkstraResult& result) {
  result.dist.assign(g.node_count(), kInf);
  result.parent.assign(g.node_count(), kInvalidNode);
  result.parent_edge.assign(g.node_count(), kInvalidEdge);
  result.dist.at(src) = 0.0;

  if (options.weights == nullptr) {
    // Maintained incrementally by the Graph — no per-query edge scan.
    const double w0 = g.uniform_positive_weight();
    if (w0 > 0) {
      if (options.disabled_edges == nullptr &&
          options.disabled_nodes == nullptr) {
        uniform_level_loop<false, false>(g, options, w0, src, result);
      } else if (options.disabled_nodes == nullptr) {
        uniform_level_loop<true, false>(g, options, w0, src, result);
      } else if (options.disabled_edges == nullptr) {
        uniform_level_loop<false, true>(g, options, w0, src, result);
      } else {
        uniform_level_loop<true, true>(g, options, w0, src, result);
      }
      return;
    }
  }

  // Reused scratch heap: thread-local, so parallel experiment runs stay
  // independent.
  static thread_local std::vector<HeapItem> heap;
  heap.clear();
  heap.emplace_back(0.0, src);

  const int variant = (options.weights ? 4 : 0) |
                      (options.disabled_edges ? 2 : 0) |
                      (options.disabled_nodes ? 1 : 0);
  switch (variant) {
    case 0: dijkstra_loop<false, false, false>(g, options, heap, result); break;
    case 1: dijkstra_loop<false, false, true>(g, options, heap, result); break;
    case 2: dijkstra_loop<false, true, false>(g, options, heap, result); break;
    case 3: dijkstra_loop<false, true, true>(g, options, heap, result); break;
    case 4: dijkstra_loop<true, false, false>(g, options, heap, result); break;
    case 5: dijkstra_loop<true, false, true>(g, options, heap, result); break;
    case 6: dijkstra_loop<true, true, false>(g, options, heap, result); break;
    default: dijkstra_loop<true, true, true>(g, options, heap, result); break;
  }
}
}  // namespace

DijkstraResult dijkstra(const Graph& g, NodeId src, const DijkstraOptions& options) {
  DijkstraResult result;
  dijkstra_into(g, src, options, result);
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
  if (src == dst) {
    Path trivial;
    trivial.nodes.push_back(src);
    return trivial;
  }
  // Goal-directed: stop the search the moment dst settles. The extracted
  // path is identical to a full single-source run (see stop_at's contract);
  // on the k-path hot paths this cuts most of each Dijkstra. The scratch
  // result recycles its vectors across the thousands of per-pair calls.
  DijkstraOptions goal_options = options;
  goal_options.stop_at = dst;
  static thread_local DijkstraResult scratch;
  dijkstra_into(g, src, goal_options, scratch);
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
