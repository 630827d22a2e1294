#include "graph/disjoint_paths.h"

#include <set>

#include "graph/shortest_path.h"
#include "graph/widest_path.h"
#include "graph/yen.h"

namespace splicer::graph {

const char* to_string(PathType type) noexcept {
  switch (type) {
    case PathType::kShortest: return "KSP";
    case PathType::kHeuristic: return "Heuristic";
    case PathType::kEdgeDisjointWidest: return "EDW";
    case PathType::kEdgeDisjointShortest: return "EDS";
  }
  return "?";
}

std::vector<Path> edge_disjoint_shortest_paths(const Graph& g, NodeId src,
                                               NodeId dst, std::size_t k) {
  std::vector<Path> result;
  // Reused scratch: the k-path selectors run once per (src, dst) pair but
  // thousands of pairs per experiment. The mask is all-zero between calls:
  // each call clears exactly the edges it disabled, also when a search
  // throws, so a call costs its paths' edges rather than edge_count().
  static thread_local std::vector<char> disabled;
  if (disabled.size() < g.edge_count()) disabled.resize(g.edge_count(), 0);
  const auto enable_found = [&] {
    for (const Path& p : result) {
      for (const EdgeId e : p.edges) disabled[e] = 0;
    }
  };
  DijkstraOptions options;
  options.disabled_edges = &disabled;
  try {
    for (std::size_t i = 0; i < k; ++i) {
      auto p = shortest_path(g, src, dst, options);
      if (!p || p->empty()) break;
      for (const EdgeId e : p->edges) disabled[e] = 1;
      result.push_back(std::move(*p));
    }
  } catch (...) {
    enable_found();
    throw;
  }
  enable_found();
  return result;
}

std::vector<Path> edge_disjoint_widest_paths(const Graph& g, NodeId src,
                                             NodeId dst, std::size_t k) {
  std::vector<Path> result;
  std::vector<char> disabled(g.edge_count(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    WidestOptions options;
    options.disabled_edges = &disabled;
    auto p = widest_path(g, src, dst, options);
    if (!p || p->empty()) break;
    for (const EdgeId e : p->edges) disabled[e] = 1;
    result.push_back(std::move(*p));
  }
  return result;
}

std::vector<Path> select_paths(const Graph& g, NodeId src, NodeId dst,
                               std::size_t k, PathType type) {
  switch (type) {
    case PathType::kShortest: return yen_ksp(g, src, dst, k);
    case PathType::kHeuristic: return highest_fund_paths(g, src, dst, k);
    case PathType::kEdgeDisjointWidest:
      return edge_disjoint_widest_paths(g, src, dst, k);
    case PathType::kEdgeDisjointShortest:
      return edge_disjoint_shortest_paths(g, src, dst, k);
  }
  return {};
}

bool paths_edge_disjoint(const std::vector<Path>& paths) {
  std::set<EdgeId> seen;
  for (const auto& p : paths) {
    for (const EdgeId e : p.edges) {
      if (!seen.insert(e).second) return false;
    }
  }
  return true;
}

}  // namespace splicer::graph
