// Per-scheme router behaviour on small controlled networks.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "routing/a2l_router.h"
#include "routing/engine.h"
#include "routing/experiment.h"
#include "routing/flash_router.h"
#include "routing/landmark_router.h"
#include "routing/shortest_path_router.h"
#include "routing/splicer_router.h"
#include "routing/spider_router.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

std::vector<pcn::Payment> single_payment(NodeId s, NodeId r, Amount v) {
  pcn::Payment p;
  p.id = 1;
  p.sender = s;
  p.receiver = r;
  p.value = v;
  p.arrival_time = 0.1;
  p.deadline = 3.1;
  return {p};
}

pcn::Network rich_ws_network(std::uint64_t seed, std::size_t n = 60) {
  common::Rng rng(seed);
  auto g = graph::watts_strogatz(n, 6, 0.2, rng);
  return pcn::Network::with_uniform_funds(std::move(g), whole_tokens(500));
}

TEST(ShortestPathRouterTest, DeliversSimplePayment) {
  ShortestPathRouter router;
  EngineConfig config;
  config.queues_enabled = false;
  Engine engine(rich_ws_network(1), single_payment(0, 30, whole_tokens(20)),
                router, config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 1u);
  EXPECT_EQ(m.tus_sent, 1u);  // unsplit
}

TEST(ShortestPathRouterTest, FailsWhenValueExceedsBottleneck) {
  ShortestPathRouter router;
  EngineConfig config;
  config.queues_enabled = false;
  Engine engine(rich_ws_network(2), single_payment(0, 30, whole_tokens(600)),
                router, config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 0u);
}

TEST(SpiderRouterTest, SplitsAcrossPathsAndDelivers) {
  SpiderRouter router;
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(rich_ws_network(3), single_payment(0, 30, whole_tokens(40)),
                router, config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 1u);
  EXPECT_GE(m.tus_sent, 10u);  // 40 tokens / Max-TU 4
}

TEST(SpiderRouterTest, DecisionDelayGrowsWithNetworkSize) {
  SpiderRouter::Config config = SpiderRouter::make_default_config();
  config.compute_base_s = 0.001;
  config.compute_per_node_s = 1e-5;
  // Verify via completion delay difference between a small and big net.
  SpiderRouter small_router(config);
  EngineConfig engine_config;
  Engine small_engine(rich_ws_network(4, 30),
                      single_payment(0, 20, whole_tokens(5)), small_router,
                      engine_config);
  const auto small_m = small_engine.run();

  SpiderRouter big_router(config);
  Engine big_engine(rich_ws_network(4, 600),
                    single_payment(0, 20, whole_tokens(5)), big_router,
                    engine_config);
  const auto big_m = big_engine.run();
  ASSERT_EQ(small_m.payments_completed, 1u);
  ASSERT_EQ(big_m.payments_completed, 1u);
  EXPECT_GT(big_m.average_delay_s(), small_m.average_delay_s());
}

TEST(FlashRouterTest, MicePaymentTakesPrecomputedPath) {
  FlashRouter::Config config;
  config.elephant_threshold = whole_tokens(50);
  FlashRouter router(config);
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  Engine engine(rich_ws_network(5), single_payment(0, 30, whole_tokens(10)),
                router, engine_config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 1u);
  EXPECT_EQ(m.tus_sent, 1u);  // mice are unsplit
}

TEST(FlashRouterTest, ElephantSplitsAlongMaxFlow) {
  FlashRouter::Config config;
  config.elephant_threshold = whole_tokens(50);
  FlashRouter router(config);
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  // 600 tokens exceeds any single 500-token channel side: must split.
  Engine engine(rich_ws_network(6), single_payment(0, 30, whole_tokens(900)),
                router, engine_config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 1u);
  EXPECT_GE(m.tus_sent, 2u);
}

TEST(FlashRouterTest, ImpossiblePaymentFails) {
  FlashRouter router;
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  // More than the sender's total adjacent capacity.
  Engine engine(rich_ws_network(7), single_payment(0, 30, whole_tokens(50000)),
                router, engine_config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 0u);
  EXPECT_GT(m.payment_fail_reasons[static_cast<std::size_t>(
                FailReason::kInsufficientFunds)],
            0u);
}

TEST(LandmarkRouterTest, DeliversViaLandmarks) {
  LandmarkRouter router;
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  Engine engine(rich_ws_network(8), single_payment(0, 30, whole_tokens(25)),
                router, engine_config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 1u);
  EXPECT_GE(m.tus_sent, 2u);  // split across landmarks
}

TEST(LandmarkRouterTest, PruneLoopsProducesSimplePaths) {
  graph::Path looped;
  looped.nodes = {0, 1, 2, 1, 3};
  looped.edges = {10, 11, 11, 12};
  const auto pruned = LandmarkRouter::prune_loops(looped);
  EXPECT_EQ(pruned.nodes, (std::vector<graph::NodeId>{0, 1, 3}));
  EXPECT_EQ(pruned.edges, (std::vector<graph::EdgeId>{10, 12}));
}

TEST(LandmarkRouterTest, PruneLoopsIdentityOnSimplePath) {
  graph::Path simple;
  simple.nodes = {4, 5, 6};
  simple.edges = {1, 2};
  const auto pruned = LandmarkRouter::prune_loops(simple);
  EXPECT_EQ(pruned.nodes, simple.nodes);
  EXPECT_EQ(pruned.edges, simple.edges);
}

TEST(A2lRouterTest, RoutesThroughHubOnStar) {
  auto net = pcn::Network::with_uniform_funds(graph::star(10), whole_tokens(100));
  A2lRouter::Config config;
  config.hub = 0;
  A2lRouter router(config);
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  Engine engine(std::move(net), single_payment(3, 7, whole_tokens(15)), router,
                engine_config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 1u);
  EXPECT_EQ(m.messages.data_hops, 2u);  // sender->hub->receiver
}

TEST(A2lRouterTest, HubCryptoSerialisesAndOverloads) {
  auto net = pcn::Network::with_uniform_funds(graph::star(20), whole_tokens(1000));
  A2lRouter::Config config;
  config.hub = 0;
  config.hub_crypto_s = 0.5;  // absurdly slow hub
  config.epoch_s = 0.0;
  A2lRouter router(config);
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  // 20 payments arriving at once: only ~6 fit within the 3 s deadline.
  std::vector<pcn::Payment> payments;
  for (int i = 0; i < 20; ++i) {
    pcn::Payment p;
    p.id = i + 1;
    p.sender = 1 + (i % 9);
    p.receiver = 10 + (i % 9);
    p.value = whole_tokens(1);
    p.arrival_time = 0.1;
    p.deadline = 3.1;
    payments.push_back(p);
  }
  Engine engine(std::move(net), payments, router, engine_config);
  const auto m = engine.run();
  EXPECT_LT(m.tsr(), 0.5);
  EXPECT_GT(m.payment_fail_reasons[static_cast<std::size_t>(
                FailReason::kHubOverload)],
            5u);
}

TEST(A2lRouterTest, EpochBoundaryDelaysProcessing) {
  auto net = pcn::Network::with_uniform_funds(graph::star(6), whole_tokens(100));
  A2lRouter::Config config;
  config.hub = 0;
  config.epoch_s = 1.0;  // payment at 0.1 waits for t = 1.0
  A2lRouter router(config);
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  Engine engine(std::move(net), single_payment(1, 2, whole_tokens(5)), router,
                engine_config);
  const auto m = engine.run();
  ASSERT_EQ(m.payments_completed, 1u);
  EXPECT_GT(m.average_delay_s(), 0.85);
}

TEST(A2lRouterTest, NonStarEndpointFails) {
  // Receiver not connected to the hub: payment cannot route.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);  // 3 reaches hub only through 2
  auto net = pcn::Network::with_uniform_funds(std::move(g), whole_tokens(100));
  A2lRouter::Config config;
  config.hub = 0;
  A2lRouter router(config);
  EngineConfig engine_config;
  engine_config.queues_enabled = false;
  Engine engine(std::move(net), single_payment(1, 3, whole_tokens(5)), router,
                engine_config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 0u);
  EXPECT_EQ(m.payment_fail_reasons[static_cast<std::size_t>(FailReason::kNoPath)],
            1u);
}

TEST(RouterPaymentMaps, EmptyAfterEveryRun) {
  // on_payment_resolved fires for every payment at quiescence, so no
  // router-side per-payment map can outlive its payment.
  ScenarioConfig scenario_config;
  scenario_config.seed = 55;
  scenario_config.topology.nodes = 60;
  scenario_config.placement.candidate_count = 6;
  scenario_config.workload.payment_count = 150;
  scenario_config.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(scenario_config);
  EngineConfig config;
  {
    config.queues_enabled = true;
    SplicerRouter router(scenario.multi_star.hub_of, scenario.multi_star.hubs);
    Engine engine(scenario.multi_star.network, scenario.make_source(), router,
                  config);
    (void)engine.run();
    EXPECT_EQ(router.tracked_payments(), 0u) << "Splicer";
  }
  config.queues_enabled = false;
  {
    FlashRouter router;
    Engine engine(scenario.raw, scenario.make_source(), router, config);
    (void)engine.run();
    EXPECT_EQ(router.tracked_payments(), 0u) << "Flash";
  }
  {
    LandmarkRouter router;
    Engine engine(scenario.raw, scenario.make_source(), router, config);
    (void)engine.run();
    EXPECT_EQ(router.tracked_payments(), 0u) << "Landmark";
  }
}

}  // namespace
}  // namespace splicer::routing
