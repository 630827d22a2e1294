#include "graph/widest_path.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace splicer::graph {
namespace {

TEST(WidestPath, MaximisesBottleneck) {
  // 0->1->3 bottleneck 5; 0->2->3 bottleneck 8.
  Graph g(4);
  g.add_edge(0, 1, 1.0, 5.0);
  g.add_edge(1, 3, 1.0, 10.0);
  g.add_edge(0, 2, 1.0, 8.0);
  g.add_edge(2, 3, 1.0, 9.0);
  const auto p = widest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(p->bottleneck(g), 8.0);
}

TEST(WidestPath, TieBreaksTowardFewerHops) {
  // Direct edge bottleneck 5 vs 3-hop route bottleneck 5.
  Graph g(4);
  g.add_edge(0, 3, 1.0, 5.0);
  g.add_edge(0, 1, 1.0, 5.0);
  g.add_edge(1, 2, 1.0, 5.0);
  g.add_edge(2, 3, 1.0, 5.0);
  const auto p = widest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hop_count(), 1u);
}

TEST(WidestPath, CapacityOverride) {
  Graph g(3);
  const EdgeId top = g.add_edge(0, 1, 1.0, 1.0);
  const EdgeId bottom = g.add_edge(0, 2, 1.0, 100.0);
  g.add_edge(1, 2, 1.0, 50.0);
  std::vector<double> caps(g.edge_count());
  caps[top] = 100.0;
  caps[bottom] = 1.0;
  caps[2] = 50.0;
  WidestOptions options;
  options.capacities = &caps;
  const auto p = widest_path(g, 0, 2, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 2}));
}

TEST(WidestPath, DisabledEdges) {
  Graph g(3);
  g.add_edge(0, 2, 1.0, 100.0);
  g.add_edge(0, 1, 1.0, 10.0);
  g.add_edge(1, 2, 1.0, 10.0);
  std::vector<char> disabled{1, 0, 0};
  WidestOptions options;
  options.disabled_edges = &disabled;
  const auto p = widest_path(g, 0, 2, options);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hop_count(), 2u);
}

TEST(WidestPath, UnreachableIsNullopt) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(widest_path(g, 0, 2).has_value());
}

TEST(WidestPath, RejectsNodeOutOfRange) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(static_cast<void>(widest_path(g, 0, 3)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(widest_path(g, 5, 5)), std::out_of_range);
}

TEST(WidestPath, RejectsMisSizedCapacityOverride) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<double> caps{1.0};
  WidestOptions options;
  options.capacities = &caps;
  EXPECT_THROW(static_cast<void>(widest_path(g, 0, 2, options)), std::invalid_argument);
}

TEST(WidestPath, TrivialPath) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto p = widest_path(g, 1, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

// Property sweep: widest_path bottleneck equals exhaustive DFS result.
class WidestPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WidestPropertyTest, MatchesBruteForce) {
  common::Rng rng(GetParam());
  Graph g = watts_strogatz(12, 4, 0.4, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_capacity(e, rng.uniform(1.0, 100.0));
  }
  for (int trial = 0; trial < 6; ++trial) {
    const auto s = static_cast<NodeId>(rng.index(g.node_count()));
    const auto t = static_cast<NodeId>(rng.index(g.node_count()));
    if (s == t) continue;
    const auto p = widest_path(g, s, t);
    const double brute = brute_force_widest_bottleneck(g, s, t);
    if (!p.has_value()) {
      EXPECT_LT(brute, 0.0);
      continue;
    }
    EXPECT_TRUE(is_valid_path(g, *p));
    EXPECT_NEAR(p->bottleneck(g), brute, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidestPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80));

}  // namespace
}  // namespace splicer::graph
