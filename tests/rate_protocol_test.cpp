#include "routing/rate_protocol.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "routing/experiment.h"
#include "routing/spider_router.h"
#include "routing/splicer_router.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

pcn::Network hub_pair_network() {
  // Clients 0, 3 on hubs 1, 2; trunk 1-2.
  graph::Graph g(4);
  g.add_edge(0, 1);  // spoke
  g.add_edge(1, 2);  // trunk
  g.add_edge(2, 3);  // spoke
  return pcn::Network::with_uniform_funds(std::move(g), whole_tokens(1000));
}

std::vector<pcn::Payment> stream(NodeId s, NodeId r, Amount v, double rate,
                                 double seconds, PaymentId first_id = 1) {
  std::vector<pcn::Payment> payments;
  PaymentId id = first_id;
  for (double t = 0.05; t < seconds; t += 1.0 / rate) {
    pcn::Payment p;
    p.id = id++;
    p.sender = s;
    p.receiver = r;
    p.value = v;
    p.arrival_time = t;
    p.deadline = t + 3.0;
    payments.push_back(p);
  }
  return payments;
}

SplicerRouter::Config hub_config() {
  SplicerRouter::Config config;
  config.protocol.k_paths = 1;
  return config;
}

TEST(RateProtocol, BalancedTrafficFlowsFreely) {
  auto payments = stream(0, 3, whole_tokens(10), 3.0, 10.0);
  auto reverse = stream(3, 0, whole_tokens(10), 3.0, 10.0, 1000);
  payments.insert(payments.end(), reverse.begin(), reverse.end());
  std::sort(payments.begin(), payments.end(),
            [](const auto& a, const auto& b) { return a.arrival_time < b.arrival_time; });
  for (std::size_t i = 0; i < payments.size(); ++i) payments[i].id = i + 1;

  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(hub_pair_network(), payments, router, config);
  const auto m = engine.run();
  EXPECT_GT(m.tsr(), 0.95);
}

TEST(RateProtocol, PricesRiseOnImbalance) {
  // Heavy one-way flow (no reverse traffic) must raise the forward price.
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(hub_pair_network(),
                stream(0, 3, whole_tokens(40), 8.0, 10.0), router, config);
  (void)engine.run();
  const ChannelId trunk = 1;
  EXPECT_GT(router.channel_price(trunk, pcn::Direction::kForward), 0.0);
  EXPECT_DOUBLE_EQ(router.channel_price(trunk, pcn::Direction::kBackward), 0.0);
}

TEST(RateProtocol, FeeFollowsPriceWithCap) {
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  Engine engine(hub_pair_network(),
                stream(0, 3, whole_tokens(40), 8.0, 10.0), router, config);
  (void)engine.run();
  const auto& protocol = router.protocol_config();
  const double price = router.channel_price(1, pcn::Direction::kForward);
  const double fee = router.fee_rate(1, pcn::Direction::kForward);
  EXPECT_LE(fee, protocol.fee_rate_cap + 1e-12);
  EXPECT_NEAR(fee, std::min(protocol.fee_rate_cap, protocol.t_fee * price), 1e-12);
}

TEST(RateProtocol, ImbalancedFlowThrottledBelowBalanced) {
  // One-way heavy flow (7500 tokens demanded through a 2000-token channel
  // with zero reverse traffic): the balance throttle must refuse most of
  // it, while the balanced variant of the same volume sails through.
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(hub_pair_network(),
                stream(0, 3, whole_tokens(50), 10.0, 15.0), router, config);
  const auto one_way = engine.run();
  EXPECT_LT(one_way.normalized_throughput(), 0.6);

  auto balanced = stream(0, 3, whole_tokens(50), 5.0, 15.0);
  auto reverse = stream(3, 0, whole_tokens(50), 5.0, 15.0, 5000);
  balanced.insert(balanced.end(), reverse.begin(), reverse.end());
  std::sort(balanced.begin(), balanced.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (std::size_t i = 0; i < balanced.size(); ++i) balanced[i].id = i + 1;
  SplicerRouter router2({1, 1, 2, 2}, {1, 2}, hub_config());
  Engine engine2(hub_pair_network(), balanced, router2, config);
  const auto both_ways = engine2.run();
  EXPECT_GT(both_ways.normalized_throughput(),
            one_way.normalized_throughput() + 0.2);
}

TEST(RateProtocol, WindowShrinksOnMarkedTus) {
  // Tiny trunk + aggressive flow => queueing => marks => window decrease.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  std::vector<Amount> ab{whole_tokens(5000), whole_tokens(20), whole_tokens(5000)};
  std::vector<Amount> ba{whole_tokens(5000), whole_tokens(20), whole_tokens(5000)};
  pcn::Network net(std::move(g), std::move(ab), std::move(ba));

  SplicerRouter::Config rc = hub_config();
  // Disable source gating effects dominating: gating holds TUs, so marks
  // are rare for Splicer; instead verify the window ends at or below start.
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, rc);
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(std::move(net), stream(0, 3, whole_tokens(100), 10.0, 10.0),
                router, config);
  (void)engine.run();
  const auto diag = router.pair_diagnostics(0, 3);
  ASSERT_FALSE(diag.empty());
  EXPECT_LE(diag[0].window, router.protocol_config().initial_window + 1.0);
}

TEST(RateProtocol, TuSplitRespectsBounds) {
  // Track TU values through a spying subclass-free approach: use metrics.
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  Engine engine(hub_pair_network(), stream(0, 3, whole_tokens(10), 2.0, 5.0),
                router, config);
  const auto m = engine.run();
  // 10-token payments with Max-TU 4 and Min-TU 1: ceil(10/4) = 3 TUs each.
  ASSERT_GT(m.tus_sent, 0u);
  const double tus_per_payment =
      static_cast<double>(m.tus_sent) / static_cast<double>(m.payments_generated);
  EXPECT_NEAR(tus_per_payment, 3.0, 0.5);
}

TEST(RateProtocol, NoPathFailsPayment) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);  // two islands
  pcn::Network net = pcn::Network::with_uniform_funds(std::move(g), whole_tokens(100));
  SplicerRouter router({1, 1, 3, 3}, {1, 3}, hub_config());
  EngineConfig config;
  Engine engine(std::move(net), stream(0, 2, whole_tokens(5), 2.0, 2.0), router,
                config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 0u);
  EXPECT_GT(m.payment_fail_reasons[static_cast<std::size_t>(FailReason::kNoPath)], 0u);
}

TEST(RateProtocol, ProbesAreCounted) {
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  Engine engine(hub_pair_network(), stream(0, 3, whole_tokens(20), 4.0, 8.0),
                router, config);
  const auto m = engine.run();
  EXPECT_GT(m.messages.probe_messages, 0u);
}

TEST(RateProtocol, EpochSyncCounted) {
  SplicerRouter::Config rc = hub_config();
  rc.epoch_s = 1.0;
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, rc);
  EngineConfig config;
  Engine engine(hub_pair_network(), stream(0, 3, whole_tokens(5), 2.0, 6.0),
                router, config);
  const auto m = engine.run();
  // 2 hubs -> 2 sync messages per epoch over ~9 seconds of simulation.
  EXPECT_GE(m.messages.sync_messages, 10u);
}

TEST(RateProtocol, SourceGatingPreventsWastedLocks) {
  // Splicer's admission check: when the trunk lacks funds entirely, TUs
  // stay at the source (no failed TUs, no marks).
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  std::vector<Amount> ab{whole_tokens(5000), 0, whole_tokens(5000)};
  std::vector<Amount> ba{whole_tokens(5000), 0, whole_tokens(5000)};
  pcn::Network net(std::move(g), std::move(ab), std::move(ba));
  SplicerRouter router({1, 1, 2, 2}, {1, 2}, hub_config());
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(std::move(net), stream(0, 3, whole_tokens(5), 2.0, 4.0), router,
                config);
  const auto m = engine.run();
  EXPECT_EQ(m.payments_completed, 0u);
  EXPECT_EQ(m.tus_failed, 0u);  // nothing ever locked and died downstream
}

TEST(RateProtocol, ConfigValidation) {
  EXPECT_NO_THROW(RateProtocolConfig{}.validate());
  const auto invalid = [](auto set) {
    RateProtocolConfig config;
    set(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  invalid([](RateProtocolConfig& c) { c.tau_s = 0.0; });
  invalid([](RateProtocolConfig& c) { c.tau_s = -0.2; });
  invalid([](RateProtocolConfig& c) { c.tau_s = std::numeric_limits<double>::infinity(); });
  invalid([](RateProtocolConfig& c) { c.price_decay = 0.0; });
  invalid([](RateProtocolConfig& c) { c.price_decay = 1.5; });
  invalid([](RateProtocolConfig& c) { c.min_rate_tps = c.max_rate_tps + 1.0; });
  invalid([](RateProtocolConfig& c) { c.min_window = c.max_window + 1.0; });
  invalid([](RateProtocolConfig& c) { c.min_tu = c.max_tu + 1; });
  invalid([](RateProtocolConfig& c) { c.k_paths = 0; });
}

TEST(RateProtocol, ZeroTauThrowsInsteadOfHanging) {
  // tau = 0 used to re-arm the price tick at the same instant forever.
  SpiderRouter::Config config = SpiderRouter::make_default_config();
  config.protocol.tau_s = 0.0;
  SpiderRouter router(config);
  Engine engine(hub_pair_network(), stream(0, 3, whole_tokens(5), 2.0, 2.0),
                router, EngineConfig{});
  EXPECT_THROW((void)engine.run(), std::invalid_argument);
}

// Pinned outcomes of all six schemes on a 60-node scenario under exact
// (epoch 0) and batched (10 ms epoch) settlement. The frozen fig7 baseline
// covers epoch 0 only; these values also pin the price/probe tick on the
// batched path, and they match runs that kept every resolved payment
// state, so evicting states moves no outcome.
TEST(RateProtocol, GoldenOutcomesAcrossSettlementModes) {
  ScenarioConfig scenario_config;
  scenario_config.seed = 7;
  scenario_config.topology.nodes = 60;
  scenario_config.placement.candidate_count = 6;
  scenario_config.workload.payment_count = 250;
  scenario_config.workload.horizon_seconds = 12.0;
  const auto scenario = prepare_scenario(scenario_config);

  struct Golden {
    Scheme scheme;
    double epoch_s;
    std::size_t payments_completed;
    Amount value_completed;
    std::uint64_t tus_sent;
    std::uint64_t scheduler_events;
    std::uint64_t messages;
  };
  const Golden kGolden[] = {
      {Scheme::kSplicer, 0.0, 221, 11297072, 3924, 33248, 29068},
      {Scheme::kSplicer, 0.01, 218, 11143054, 3853, 16408, 28416},
      {Scheme::kSpider, 0.0, 170, 4855386, 3396, 29043, 58999},
      {Scheme::kSpider, 0.01, 170, 4855386, 3396, 13500, 58994},
      {Scheme::kFlash, 0.0, 208, 10988313, 431, 2796, 3277},
      {Scheme::kFlash, 0.01, 209, 11019763, 430, 1449, 3290},
      {Scheme::kLandmark, 0.0, 155, 4317000, 1891, 12950, 10575},
      {Scheme::kLandmark, 0.01, 155, 4701182, 1893, 3368, 10759},
      {Scheme::kA2l, 0.0, 234, 18066854, 250, 1725, 2700},
      {Scheme::kA2l, 0.01, 234, 18066854, 250, 1276, 2700},
      {Scheme::kShortestPath, 0.0, 145, 3912317, 250, 1292, 1435},
      {Scheme::kShortestPath, 0.01, 145, 3912317, 250, 824, 1435},
  };
  for (const auto& g : kGolden) {
    SchemeConfig config;
    config.engine.settlement_epoch_s = g.epoch_s;
    const auto m = run_scheme(scenario, g.scheme, config);
    const std::string where =
        std::string(to_string(g.scheme)) + " epoch=" + std::to_string(g.epoch_s);
    EXPECT_EQ(m.payments_completed, g.payments_completed) << where;
    EXPECT_EQ(m.value_completed, g.value_completed) << where;
    EXPECT_EQ(m.tus_sent, g.tus_sent) << where;
    EXPECT_EQ(m.scheduler_events, g.scheduler_events) << where;
    EXPECT_EQ(m.messages.total(), g.messages) << where;
  }
}

}  // namespace
}  // namespace splicer::routing
