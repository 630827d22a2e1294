#include "graph/disjoint_paths.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"

namespace splicer::graph {
namespace {

TEST(DisjointPaths, ShortestSetIsDisjointAndOrdered) {
  common::Rng rng(1);
  const Graph g = watts_strogatz(80, 8, 0.2, rng);
  const auto paths = edge_disjoint_shortest_paths(g, 0, 40, 5);
  EXPECT_GE(paths.size(), 2u);
  EXPECT_TRUE(paths_edge_disjoint(paths));
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length, paths[i].length);
  }
  for (const auto& p : paths) EXPECT_TRUE(is_valid_path(g, p));
}

TEST(DisjointPaths, OutOfRangeNodeThrows) {
  common::Rng rng(5);
  const Graph g = watts_strogatz(40, 4, 0.2, rng);
  EXPECT_THROW((void)edge_disjoint_shortest_paths(g, 40, 0, 3), std::out_of_range);
  EXPECT_THROW((void)edge_disjoint_shortest_paths(g, 0, 40, 3), std::out_of_range);
}

TEST(DisjointPaths, MaskIsRestoredWhenASearchThrows) {
  // The first search settles 1 through edge 0 (node 1 pops before node 2 at
  // the same distance) and never relaxes the negative edge 2-3. With edge 0
  // disabled, the second search reaches 2 and throws on that edge.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3, -1.0);
  g.add_edge(3, 1);
  EXPECT_THROW((void)edge_disjoint_shortest_paths(g, 0, 1, 2), std::invalid_argument);
  // The thread's scratch mask must hold no disabled edge afterwards.
  Graph line(3);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  const auto paths = edge_disjoint_shortest_paths(line, 0, 2, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].edges, (std::vector<EdgeId>{0, 1}));
}

// Differential oracle: the same successive-disable loop run on the heap
// loop, forced by a `weights` vector equal to every edge's weight, must
// return the identical path set.
std::vector<Path> heap_edge_disjoint_shortest_paths(const Graph& g, NodeId src,
                                                    NodeId dst, std::size_t k) {
  std::vector<double> weights(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) weights[e] = g.edge(e).weight;
  std::vector<char> disabled(g.edge_count(), 0);
  DijkstraOptions options;
  options.weights = &weights;
  options.disabled_edges = &disabled;
  std::vector<Path> result;
  for (std::size_t i = 0; i < k; ++i) {
    auto p = shortest_path(g, src, dst, options);
    if (!p || p->empty()) break;
    for (const EdgeId e : p->edges) disabled[e] = 1;
    result.push_back(std::move(*p));
  }
  return result;
}

class DisjointOracleTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(DisjointOracleTest, MatchesHeapLoop) {
  const auto [seed, scale_free] = GetParam();
  common::Rng rng(seed);
  const Graph g = scale_free ? preferential_attachment(200, 3, rng)
                             : watts_strogatz(200, 8, 0.2, rng);
  ASSERT_GT(g.uniform_positive_weight(), 0.0);
  for (int query = 0; query < 30; ++query) {
    const auto src = static_cast<NodeId>(rng.index(g.node_count()));
    const auto dst = static_cast<NodeId>(rng.index(g.node_count()));
    const auto got = edge_disjoint_shortest_paths(g, src, dst, 5);
    const auto want = heap_edge_disjoint_shortest_paths(g, src, dst, 5);
    ASSERT_EQ(got.size(), want.size()) << src << " -> " << dst;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].nodes, want[i].nodes) << src << " -> " << dst << " #" << i;
      EXPECT_EQ(got[i].edges, want[i].edges) << src << " -> " << dst << " #" << i;
      EXPECT_EQ(got[i].length, want[i].length) << src << " -> " << dst << " #" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DisjointOracleTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 26), ::testing::Bool()));

TEST(DisjointPaths, WidestSetIsDisjoint) {
  common::Rng rng(2);
  Graph g = watts_strogatz(80, 8, 0.2, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_capacity(e, rng.uniform(1, 500));
  const auto paths = edge_disjoint_widest_paths(g, 0, 40, 5);
  EXPECT_GE(paths.size(), 2u);
  EXPECT_TRUE(paths_edge_disjoint(paths));
  // Successively removed widest paths have non-increasing bottlenecks.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i - 1].bottleneck(g), paths[i].bottleneck(g));
  }
}

TEST(DisjointPaths, CountBoundedByMinCut) {
  // Two vertex-disjoint routes only -> at most 2 edge-disjoint paths.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 5);
  g.add_edge(0, 2);
  g.add_edge(2, 5);
  g.add_edge(1, 2);  // cross edge does not add a third route
  const auto paths = edge_disjoint_shortest_paths(g, 0, 5, 5);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(DisjointPaths, EmptyWhenDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_TRUE(edge_disjoint_shortest_paths(g, 0, 3, 3).empty());
  EXPECT_TRUE(edge_disjoint_widest_paths(g, 0, 3, 3).empty());
}

TEST(SelectPaths, DispatchesAllFourTypes) {
  common::Rng rng(3);
  Graph g = watts_strogatz(60, 6, 0.2, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_capacity(e, rng.uniform(1, 500));
  for (const auto type :
       {PathType::kShortest, PathType::kHeuristic, PathType::kEdgeDisjointWidest,
        PathType::kEdgeDisjointShortest}) {
    const auto paths = select_paths(g, 5, 30, 3, type);
    EXPECT_FALSE(paths.empty()) << to_string(type);
    for (const auto& p : paths) {
      EXPECT_TRUE(is_valid_path(g, p)) << to_string(type);
      EXPECT_EQ(p.source(), 5u);
      EXPECT_EQ(p.target(), 30u);
    }
  }
}

TEST(SelectPaths, DisjointVariantsAreDisjointButKspMayShare) {
  common::Rng rng(4);
  const Graph g = watts_strogatz(60, 6, 0.2, rng);
  EXPECT_TRUE(paths_edge_disjoint(
      select_paths(g, 2, 33, 4, PathType::kEdgeDisjointWidest)));
  EXPECT_TRUE(paths_edge_disjoint(
      select_paths(g, 2, 33, 4, PathType::kEdgeDisjointShortest)));
  // KSP paths typically share edges; just confirm they exist.
  EXPECT_FALSE(select_paths(g, 2, 33, 4, PathType::kShortest).empty());
}

TEST(PathTypeNames, Strings) {
  EXPECT_STREQ(to_string(PathType::kShortest), "KSP");
  EXPECT_STREQ(to_string(PathType::kHeuristic), "Heuristic");
  EXPECT_STREQ(to_string(PathType::kEdgeDisjointWidest), "EDW");
  EXPECT_STREQ(to_string(PathType::kEdgeDisjointShortest), "EDS");
}

TEST(PathsEdgeDisjoint, DetectsSharing) {
  Path a{{0, 1}, {7}, 1.0};
  Path b{{2, 3}, {7}, 1.0};
  EXPECT_FALSE(paths_edge_disjoint({a, b}));
  Path c{{2, 3}, {8}, 1.0};
  EXPECT_TRUE(paths_edge_disjoint({a, c}));
}

}  // namespace
}  // namespace splicer::graph
