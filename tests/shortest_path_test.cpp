#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"

namespace splicer::graph {
namespace {

Graph diamond() {
  // 0 -1- 1 -1- 3,  0 -1- 2 -5- 3
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  return g;
}

TEST(BfsHops, Distances) {
  const Graph g = diamond();
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0);
  EXPECT_EQ(hops[1], 1);
  EXPECT_EQ(hops[2], 1);
  EXPECT_EQ(hops[3], 2);
}

TEST(BfsHops, UnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(bfs_hops(g, 0)[2], -1);
}

TEST(Dijkstra, PicksCheaperRoute) {
  const Graph g = diamond();
  const auto p = shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(p->length, 2.0);
  EXPECT_TRUE(is_valid_path(g, *p));
}

TEST(Dijkstra, WeightOverride) {
  const Graph g = diamond();
  std::vector<double> weights{10.0, 10.0, 1.0, 1.0};  // make lower route cheap
  DijkstraOptions options;
  options.weights = &weights;
  const auto p = shortest_path(g, 0, 3, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, DisabledEdgeForcesDetour) {
  const Graph g = diamond();
  std::vector<char> disabled(g.edge_count(), 0);
  disabled[0] = 1;  // kill 0-1
  DijkstraOptions options;
  options.disabled_edges = &disabled;
  const auto p = shortest_path(g, 0, 3, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, DisabledNodeForcesDetour) {
  const Graph g = diamond();
  std::vector<char> disabled(g.node_count(), 0);
  disabled[1] = 1;
  DijkstraOptions options;
  options.disabled_nodes = &disabled;
  const auto p = shortest_path(g, 0, 3, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, UnreachableReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
}

TEST(Dijkstra, TrivialSourceEqualsTarget) {
  const Graph g = diamond();
  const auto p = shortest_path(g, 2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(Dijkstra, NegativeWeightThrows) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  EXPECT_THROW((void)shortest_path(g, 0, 1), std::invalid_argument);
}

TEST(Dijkstra, OutOfRangeNodeThrows) {
  const auto expect_throws = [](const Graph& g) {
    EXPECT_THROW((void)shortest_path(g, 4, 0), std::out_of_range);
    EXPECT_THROW((void)shortest_path(g, 0, 4), std::out_of_range);
    EXPECT_THROW((void)shortest_path(g, 4, 4), std::out_of_range);
  };
  expect_throws(diamond());  // mixed weights: the heap loop
  Graph uniform(4);          // the bidirectional search
  uniform.add_edge(0, 1);
  uniform.add_edge(1, 2);
  expect_throws(uniform);
}

// Differential oracle: on a graph whose edges share one positive weight,
// shortest_path takes the bidirectional BFS. Passing a `weights` vector
// equal to every edge's weight forces the heap loop instead, whose
// (dist, node) pop order defines the expected path, so the two must agree
// on every field.
std::optional<Path> heap_shortest_path(const Graph& g, NodeId src, NodeId dst,
                                       DijkstraOptions options) {
  std::vector<double> weights(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) weights[e] = g.edge(e).weight;
  options.weights = &weights;
  return shortest_path(g, src, dst, options);
}

/// `base`'s edges rebuilt through add_edge with one uniform `weight` (so the
/// graph keeps its uniform flag), plus parallel copies of some edges and a
/// two-node component {n, n+1} that no other node reaches.
Graph uniform_copy(const Graph& base, double weight, common::Rng& rng) {
  const std::size_t n = base.node_count();
  Graph g(n + 2);
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    const auto& rec = base.edge(e);
    g.add_edge(rec.u, rec.v, weight);
    if (rng.bernoulli(0.15)) g.add_edge(rec.v, rec.u, weight);
  }
  for (std::size_t i = 0; i < n / 10; ++i) {
    const auto& rec = base.edge(static_cast<EdgeId>(rng.index(base.edge_count())));
    g.add_edge(rec.u, rec.v, weight);
  }
  g.add_edge(static_cast<NodeId>(n), static_cast<NodeId>(n + 1), weight);
  return g;
}

enum class Masks { kNone, kEdges, kNodes, kBoth };

class BidirectionalOracleTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(BidirectionalOracleTest, MatchesHeapLoopUnderEveryMask) {
  const auto [seed, scale_free] = GetParam();
  common::Rng rng(seed);
  const Graph base = scale_free
                         ? preferential_attachment(150 + seed, 2 + seed % 2, rng)
                         : watts_strogatz(150 + seed, 4 + 2 * (seed % 3), 0.2, rng);
  const double weight = seed % 3 == 0 ? 0.1 : (seed % 3 == 1 ? 1.0 : 2.5);
  const Graph g = uniform_copy(base, weight, rng);
  ASSERT_EQ(g.uniform_positive_weight(), weight);
  const auto n = static_cast<NodeId>(g.node_count());
  const NodeId island = n - 2;

  std::vector<char> edge_mask(g.edge_count());
  std::vector<char> node_mask(n);
  std::size_t found = 0;
  for (const Masks masks : {Masks::kNone, Masks::kEdges, Masks::kNodes, Masks::kBoth}) {
    DijkstraOptions options;
    if (masks == Masks::kEdges || masks == Masks::kBoth) options.disabled_edges = &edge_mask;
    if (masks == Masks::kNodes || masks == Masks::kBoth) options.disabled_nodes = &node_mask;
    for (int query = 0; query < 40; ++query) {
      for (auto& bit : edge_mask) bit = rng.bernoulli(0.2) ? 1 : 0;
      for (auto& bit : node_mask) bit = rng.bernoulli(0.1) ? 1 : 0;
      NodeId src = static_cast<NodeId>(rng.index(n));
      NodeId dst = static_cast<NodeId>(rng.index(n));
      if (query % 10 == 0) dst = src;
      if (query % 10 == 1) dst = island;
      if (query % 10 == 2) src = island;
      if (query % 10 == 3) node_mask[src] = 1;  // a masked source may start
      if (query % 10 == 4) node_mask[dst] = 1;

      const auto got = shortest_path(g, src, dst, options);
      const auto want = heap_shortest_path(g, src, dst, options);
      SCOPED_TRACE(::testing::Message() << "masks " << static_cast<int>(masks)
                                        << " query " << query << ": " << src
                                        << " -> " << dst);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (query % 10 == 0) {
        EXPECT_TRUE(got && got->empty());
      }
      if ((src >= island) != (dst >= island)) {
        EXPECT_FALSE(got.has_value());
      }
      if (query % 10 == 4 && options.disabled_nodes != nullptr && src != dst) {
        EXPECT_FALSE(got.has_value());
      }
      if (!got) continue;
      EXPECT_EQ(got->nodes, want->nodes);
      EXPECT_EQ(got->edges, want->edges);
      EXPECT_EQ(got->length, want->length);
      EXPECT_TRUE(is_valid_path(g, *got));
      found += got->empty() ? 0 : 1;
    }
  }
  EXPECT_GT(found, 60u);  // most queries must exercise a real search
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BidirectionalOracleTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 31), ::testing::Bool()));

TEST(BidirectionalOracle, ParallelEdgesTakeTheFirstUnmaskedOne) {
  // 0 =(e0,e1)= 1 =(e2,e3)= 2 with every edge doubled.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 2);
  std::vector<char> disabled(g.edge_count(), 0);
  DijkstraOptions options;
  options.disabled_edges = &disabled;
  for (int mask = 0; mask < 16; ++mask) {
    for (EdgeId e = 0; e < 4; ++e) disabled[e] = (mask >> e) & 1;
    const auto got = shortest_path(g, 0, 2, options);
    const auto want = heap_shortest_path(g, 0, 2, options);
    ASSERT_EQ(got.has_value(), want.has_value()) << "mask " << mask;
    if (got) {
      EXPECT_EQ(got->edges, want->edges) << "mask " << mask;
    }
  }
  const auto unmasked = shortest_path(g, 2, 0);
  ASSERT_TRUE(unmasked.has_value());
  EXPECT_EQ(unmasked->edges, (std::vector<EdgeId>{2, 0}));
}

TEST(BidirectionalOracle, MaskedSourceStillStartsThePath) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<char> disabled{1, 0, 0};
  DijkstraOptions options;
  options.disabled_nodes = &disabled;
  for (const NodeId dst : {1u, 2u}) {
    const auto got = shortest_path(g, 0, dst, options);
    ASSERT_TRUE(got.has_value()) << dst;
    EXPECT_EQ(got->hop_count(), dst);
    EXPECT_EQ(got->nodes, heap_shortest_path(g, 0, dst, options)->nodes);
  }
}

TEST(BidirectionalOracle, LengthOverflowingToInfinityIsUnreachable) {
  // Two hops of 1e308 sum to +inf, which the heap loop never relaxes.
  Graph g(3);
  g.add_edge(0, 1, 1e308);
  g.add_edge(1, 2, 1e308);
  ASSERT_EQ(g.uniform_positive_weight(), 1e308);
  EXPECT_FALSE(heap_shortest_path(g, 0, 2, {}).has_value());
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
  const auto one_hop = shortest_path(g, 0, 1);
  ASSERT_TRUE(one_hop.has_value());
  EXPECT_EQ(one_hop->length, 1e308);
}

// Property: Dijkstra distances equal Bellman-Ford on random graphs.
class DijkstraPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesBellmanFord) {
  common::Rng rng(GetParam());
  Graph g = watts_strogatz(60, 6, 0.3, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_weight(e, rng.uniform(0.1, 10.0));
  }
  const NodeId src = static_cast<NodeId>(rng.index(g.node_count()));
  const auto result = dijkstra(g, src);
  const auto reference = bellman_ford(g, src);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_NEAR(result.dist[v], reference[v], 1e-9) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ExtractPath, ReconstructionIsConsistent) {
  common::Rng rng(99);
  const Graph g = watts_strogatz(80, 6, 0.2, rng);
  const auto result = dijkstra(g, 0);
  for (NodeId v = 1; v < g.node_count(); v += 7) {
    const auto p = extract_path(g, result, 0, v);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(is_valid_path(g, *p));
    EXPECT_EQ(p->source(), 0u);
    EXPECT_EQ(p->target(), v);
    EXPECT_DOUBLE_EQ(p->length, result.dist[v]);
  }
}

}  // namespace
}  // namespace splicer::graph
