#include "graph/max_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace splicer::graph {
namespace {

TEST(MaxFlow, ClassicExample) {
  // Two parallel 2-hop routes with capacities 10/5 and 4/8.
  Graph g(4);
  g.add_edge(0, 1, 1.0, 10.0);
  g.add_edge(1, 3, 1.0, 5.0);
  g.add_edge(0, 2, 1.0, 4.0);
  g.add_edge(2, 3, 1.0, 8.0);
  const auto result = max_flow(g, 0, 3);
  EXPECT_DOUBLE_EQ(result.total_flow, 9.0);  // 5 + 4
}

TEST(MaxFlow, BottleneckSingleEdge) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 100.0);
  g.add_edge(1, 2, 1.0, 7.0);
  const auto result = max_flow(g, 0, 2);
  EXPECT_DOUBLE_EQ(result.total_flow, 7.0);
}

TEST(MaxFlow, FlowLimitStopsEarly) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 100.0);
  g.add_edge(1, 2, 1.0, 100.0);
  MaxFlowOptions options;
  options.flow_limit = 25.0;
  const auto result = max_flow(g, 0, 2, options);
  EXPECT_DOUBLE_EQ(result.total_flow, 25.0);
}

TEST(MaxFlow, MaxPathsBound) {
  Graph g(6);
  for (NodeId mid = 1; mid <= 4; ++mid) {
    g.add_edge(0, mid, 1.0, 1.0);
    g.add_edge(mid, 5, 1.0, 1.0);
  }
  MaxFlowOptions options;
  options.max_paths = 2;
  const auto result = max_flow(g, 0, 5, options);
  EXPECT_EQ(result.paths.size(), 2u);
  EXPECT_DOUBLE_EQ(result.total_flow, 2.0);
}

TEST(MaxFlow, AsymmetricDirectionCapacities) {
  Graph g(2);
  g.add_edge(0, 1, 1.0, 0.0);
  std::vector<double> fwd{9.0};   // 0->1 of stored edge
  std::vector<double> bwd{2.0};   // 1->0
  MaxFlowOptions options;
  options.forward_capacity = &fwd;
  options.backward_capacity = &bwd;
  EXPECT_DOUBLE_EQ(max_flow(g, 0, 1, options).total_flow, 9.0);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 0, options).total_flow, 2.0);
}

TEST(MaxFlow, DisconnectedIsZero) {
  Graph g(4);
  g.add_edge(0, 1, 1.0, 5.0);
  const auto result = max_flow(g, 0, 3);
  EXPECT_DOUBLE_EQ(result.total_flow, 0.0);
  EXPECT_TRUE(result.paths.empty());
}

TEST(MaxFlow, PathsCarryTheFlow) {
  Graph g(4);
  g.add_edge(0, 1, 1.0, 10.0);
  g.add_edge(1, 3, 1.0, 5.0);
  g.add_edge(0, 2, 1.0, 4.0);
  g.add_edge(2, 3, 1.0, 8.0);
  const auto result = max_flow(g, 0, 3);
  double sum = 0.0;
  for (const auto& fp : result.paths) {
    EXPECT_GT(fp.flow, 0.0);
    EXPECT_TRUE(is_valid_path(g, fp.path));
    sum += fp.flow;
  }
  EXPECT_DOUBLE_EQ(sum, result.total_flow);
}

// Property: max flow can never exceed the degree cut at source or sink.
class MaxFlowPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowPropertyTest, BoundedByTrivialCuts) {
  common::Rng rng(GetParam());
  Graph g = watts_strogatz(30, 4, 0.3, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_capacity(e, rng.uniform(1, 50));
  const NodeId s = 0, t = 15;
  double s_cut = 0.0, t_cut = 0.0;
  for (const auto& half : g.neighbors(s)) s_cut += g.edge(half.edge).capacity;
  for (const auto& half : g.neighbors(t)) t_cut += g.edge(half.edge).capacity;
  const auto result = max_flow(g, s, t);
  EXPECT_LE(result.total_flow, std::min(s_cut, t_cut) + 1e-9);
  EXPECT_GT(result.total_flow, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowPropertyTest,
                         ::testing::Values(100, 200, 300, 400, 500));

TEST(MaxFlow, RejectsNodeOutOfRange) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 5.0);
  EXPECT_THROW(static_cast<void>(max_flow(g, 0, 3)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(max_flow(g, 7, 1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(max_flow(g, 3, 3)), std::out_of_range);
}

TEST(MaxFlow, RejectsMisSizedCapacityOverride) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 5.0);
  g.add_edge(1, 2, 1.0, 5.0);
  const std::vector<double> short_caps{5.0};
  const std::vector<double> caps{5.0, 5.0};
  MaxFlowOptions options;
  options.forward_capacity = &short_caps;
  options.backward_capacity = &caps;
  EXPECT_THROW(static_cast<void>(max_flow(g, 0, 2, options)), std::invalid_argument);
  options.forward_capacity = &caps;
  options.backward_capacity = &short_caps;
  EXPECT_THROW(static_cast<void>(max_flow(g, 0, 2, options)), std::invalid_argument);
  options.backward_capacity = &caps;
  EXPECT_DOUBLE_EQ(max_flow(g, 0, 2, options).total_flow, 5.0);
}

// Differential oracle: the FIFO-BFS Edmonds-Karp that max_flow was before
// its bidirectional search, kept verbatim. max_flow must return the same
// total and the same FlowPaths, bit for bit.
MaxFlowResult fifo_bfs_max_flow(const Graph& g, NodeId src, NodeId dst,
                                const MaxFlowOptions& options) {
  constexpr double kEps = 1e-9;
  MaxFlowResult result;
  if (src == dst) return result;
  std::vector<double> residual(2 * g.edge_count(), 0.0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    residual[2 * e] =
        options.forward_capacity ? (*options.forward_capacity)[e] : g.edge(e).capacity;
    residual[2 * e + 1] =
        options.backward_capacity ? (*options.backward_capacity)[e] : g.edge(e).capacity;
  }
  const auto arc_of = [&](EdgeId e, NodeId from) -> std::size_t {
    return g.edge(e).u == from ? 2 * e : 2 * e + 1;
  };
  std::vector<NodeId> parent(g.node_count());
  std::vector<EdgeId> parent_edge(g.node_count());
  std::vector<NodeId> frontier;
  while (true) {
    if (options.flow_limit >= 0.0 && result.total_flow >= options.flow_limit - kEps) break;
    if (options.max_paths != 0 && result.paths.size() >= options.max_paths) break;
    std::fill(parent.begin(), parent.end(), kInvalidNode);
    parent[src] = src;
    frontier.assign(1, src);
    for (std::size_t head = 0;
         head < frontier.size() && parent[dst] == kInvalidNode; ++head) {
      const NodeId u = frontier[head];
      for (const auto& half : g.neighbors(u)) {
        if (parent[half.to] != kInvalidNode) continue;
        if (residual[arc_of(half.edge, u)] <= kEps) continue;
        parent[half.to] = u;
        parent_edge[half.to] = half.edge;
        frontier.push_back(half.to);
      }
    }
    if (parent[dst] == kInvalidNode) break;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (NodeId v = dst; v != src; v = parent[v]) {
      bottleneck = std::min(bottleneck, residual[arc_of(parent_edge[v], parent[v])]);
    }
    if (options.flow_limit >= 0.0) {
      bottleneck = std::min(bottleneck, options.flow_limit - result.total_flow);
    }
    FlowPath fp;
    fp.flow = bottleneck;
    for (NodeId v = dst; v != src; v = parent[v]) {
      residual[arc_of(parent_edge[v], parent[v])] -= bottleneck;
      residual[arc_of(parent_edge[v], v)] += bottleneck;
      fp.path.nodes.push_back(v);
      fp.path.edges.push_back(parent_edge[v]);
    }
    fp.path.nodes.push_back(src);
    std::reverse(fp.path.nodes.begin(), fp.path.nodes.end());
    std::reverse(fp.path.edges.begin(), fp.path.edges.end());
    fp.path.length = static_cast<double>(fp.path.edges.size());
    result.total_flow += bottleneck;
    result.paths.push_back(std::move(fp));
  }
  return result;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs both implementations and fails on the first difference; returns
/// the reference result so callers can tally what the cases exercised.
MaxFlowResult expect_same_flow(const Graph& g, NodeId src, NodeId dst,
                               const MaxFlowOptions& options, std::uint64_t seed) {
  const MaxFlowResult want = fifo_bfs_max_flow(g, src, dst, options);
  const MaxFlowResult got = max_flow(g, src, dst, options);
  const auto where = ::testing::Message() << "seed " << seed << ", " << src << " -> " << dst;
  EXPECT_EQ(bits(got.total_flow), bits(want.total_flow)) << where;
  EXPECT_EQ(got.paths.size(), want.paths.size()) << where;
  for (std::size_t i = 0; i < std::min(got.paths.size(), want.paths.size()); ++i) {
    EXPECT_EQ(got.paths[i].path.nodes, want.paths[i].path.nodes) << where << ", path " << i;
    EXPECT_EQ(got.paths[i].path.edges, want.paths[i].path.edges) << where << ", path " << i;
    EXPECT_EQ(bits(got.paths[i].flow), bits(want.paths[i].flow)) << where << ", path " << i;
    EXPECT_EQ(bits(got.paths[i].path.length), bits(want.paths[i].path.length))
        << where << ", path " << i;
  }
  return want;
}

/// Per-direction capacities drawn from {0, 1e-9, 2e-9, uniform}: the two
/// tiny values sit on either side of the 1e-9 residual threshold.
std::vector<double> draw_capacities(std::size_t edges, common::Rng& rng) {
  std::vector<double> caps(edges);
  for (auto& c : caps) {
    switch (rng.next_below(4)) {
      case 0: c = 0.0; break;
      case 1: c = 1e-9; break;
      case 2: c = 2e-9; break;
      default: c = rng.uniform(0.0, 20.0); break;
    }
  }
  return caps;
}

/// A random multigraph on n nodes: about a third of its edges repeat an
/// earlier pair, in either orientation, so adjacency lists carry parallel
/// edges in both directions. Nodes past `reachable` get no edges, so a
/// query into them has no augmenting path.
Graph random_multigraph(std::size_t n, std::size_t reachable, common::Rng& rng) {
  Graph g(n);
  const auto edges = static_cast<std::size_t>(rng.uniform_int(1, 4 * static_cast<std::int64_t>(reachable)));
  for (std::size_t i = 0; i < edges; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    if (g.edge_count() > 0 && rng.bernoulli(0.35)) {
      const auto& twin = g.edge(static_cast<EdgeId>(rng.next_below(g.edge_count())));
      u = twin.u;
      v = twin.v;
      if (rng.bernoulli(0.5)) std::swap(u, v);
    } else {
      u = static_cast<NodeId>(rng.next_below(reachable));
      v = static_cast<NodeId>(rng.next_below(reachable - 1));
      if (v >= u) ++v;
    }
    g.add_edge(u, v, 1.0, rng.uniform(0.0, 20.0));
  }
  return g;
}

/// Random options: overrides (none, one side or both), flow_limit and
/// max_paths, each unlimited about half the time.
MaxFlowOptions draw_options(const std::vector<double>& fwd, const std::vector<double>& bwd,
                            common::Rng& rng) {
  MaxFlowOptions options;
  const auto overrides = rng.next_below(4);
  if (overrides & 1) options.forward_capacity = &fwd;
  if (overrides & 2) options.backward_capacity = &bwd;
  if (rng.bernoulli(0.5)) options.flow_limit = rng.uniform(0.0, 60.0);
  if (rng.bernoulli(0.5)) options.max_paths = rng.next_below(8) + 1;
  return options;
}

struct Tally {
  int cases = 0;
  int no_flow = 0;
  int multi_path = 0;
  void add(const MaxFlowResult& r) {
    ++cases;
    if (r.paths.empty()) ++no_flow;
    if (r.paths.size() >= 2) ++multi_path;
  }
};

TEST(MaxFlowDifferential, MatchesFifoBfsOnRandomGraphs) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    common::Rng rng(seed);
    Graph g(1);
    if (seed % 2 == 0) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(8, 120));
      const std::size_t k = 2 * static_cast<std::size_t>(rng.uniform_int(1, 3));
      g = watts_strogatz(n, k, rng.uniform(0.0, 0.5), rng);
      for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_capacity(e, rng.uniform(0.0, 20.0));
    } else {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 40));
      const std::size_t isolated = rng.bernoulli(0.2) ? 1 + rng.next_below(3) : 0;
      g = random_multigraph(n + isolated, n, rng);
    }
    const auto fwd = draw_capacities(g.edge_count(), rng);
    const auto bwd = draw_capacities(g.edge_count(), rng);
    for (int q = 0; q < 3; ++q) {
      const auto src = static_cast<NodeId>(rng.next_below(g.node_count()));
      const auto dst = static_cast<NodeId>(rng.next_below(g.node_count()));
      tally.add(expect_same_flow(g, src, dst, draw_options(fwd, bwd, rng), seed));
    }
    if (::testing::Test::HasFailure()) break;
  }
  // The cases must exercise both outcomes, not only trivial ones.
  EXPECT_EQ(tally.cases, 9000);
  EXPECT_GT(tally.no_flow, 1000);
  EXPECT_GT(tally.multi_path, 2500);
}

TEST(MaxFlowDifferential, MatchesFifoBfsAtPaperScale) {
  // Fig. 8's topology size: 3,000 nodes, ring degree 8.
  common::Rng rng(3000);
  Graph g = watts_strogatz(3000, 8, 0.15, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_capacity(e, rng.uniform(0.0, 20.0));
  const auto fwd = draw_capacities(g.edge_count(), rng);
  const auto bwd = draw_capacities(g.edge_count(), rng);
  Tally tally;
  for (int q = 0; q < 2000; ++q) {
    const auto src = static_cast<NodeId>(rng.next_below(g.node_count()));
    const auto dst = static_cast<NodeId>(rng.next_below(g.node_count()));
    // Bounded like Flash's split width, so the reference stays cheap here.
    MaxFlowOptions options = draw_options(fwd, bwd, rng);
    if (options.max_paths == 0) options.max_paths = rng.next_below(8) + 1;
    tally.add(expect_same_flow(g, src, dst, options, 3000));
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(tally.cases, 2000);
  EXPECT_GT(tally.multi_path, 1000);
}

}  // namespace
}  // namespace splicer::graph
