#include "routing/rate_protocol.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
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

TEST(RateProtocol, ZeroEpochThrowsInsteadOfHanging) {
  // A zero epoch would re-arm Splicer's hub sync at the same instant
  // forever; negative and NaN epochs are no better.
  for (const double epoch_s :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(
        {
          SplicerRouter::Config config = hub_config();
          config.epoch_s = epoch_s;
          SplicerRouter router({1, 1, 2, 2}, {1, 2}, config);
          Engine engine(hub_pair_network(),
                        stream(0, 3, whole_tokens(5), 2.0, 2.0), router,
                        EngineConfig{});
          (void)engine.run();
        },
        std::invalid_argument)
        << "epoch_s " << epoch_s;
  }
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

struct GoldenPair {
  NodeId from;
  NodeId to;
  std::vector<RateRouterBase::PathDiagnostics> paths;
};

/// Forwards every hook to `inner`, and runs `snapshot` once at `when` from a
/// timer of its own. It arms that timer before the inner on_start, so the
/// snapshot is the first event scheduled: at a tie in time it fires before
/// any of the inner router's events.
class SnapshotRouter final : public Router {
 public:
  SnapshotRouter(Router& inner, double when, std::function<void()> snapshot)
      : inner_(inner), when_(when), snapshot_(std::move(snapshot)) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_start(Engine& engine) override {
    engine.schedule_timer(when_, 0, kSnapshotTimer);
    inner_.on_start(engine);
  }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    inner_.on_payment(engine, payment);
  }
  void on_tu_delivered(Engine& engine, const TransactionUnit& tu) override {
    inner_.on_tu_delivered(engine, tu);
  }
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override {
    inner_.on_tu_failed(engine, tu, reason);
  }
  void on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                       ChannelId channel, pcn::Direction direction) override {
    inner_.on_tu_forwarded(engine, tu, channel, direction);
  }
  void on_payment_timeout(Engine& engine, PaymentId payment) override {
    inner_.on_payment_timeout(engine, payment);
  }
  void on_payment_resolved(Engine& engine, PaymentId payment) override {
    inner_.on_payment_resolved(engine, payment);
  }
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override {
    if (b == kSnapshotTimer) {
      snapshot_();
    } else {
      inner_.on_timer(engine, a, b);
    }
  }

 private:
  // No rate-router timer uses this `b`: drips carry a path index (< k
  // paths) and the rate routers' sentinels sit at the top of the range.
  static constexpr std::uint64_t kSnapshotTimer = std::uint64_t{1} << 63;

  Router& inner_;
  double when_;
  std::function<void()> snapshot_;
};

// Runs `router` on `network` over the scenario's workload and compares every
// golden pair's pair_diagnostics, field by field with ==, at t = 6 s: mid-run,
// while TUs are in flight. The snapshot event only reads router state.
void expect_golden_rate_state(const Scenario& scenario,
                              const pcn::Network& network,
                              RateRouterBase& router,
                              const std::vector<GoldenPair>& golden) {
  std::vector<std::vector<RateRouterBase::PathDiagnostics>> seen;
  SnapshotRouter snapshot(router, 6.0, [&] {
    for (const auto& g : golden) seen.push_back(router.pair_diagnostics(g.from, g.to));
  });
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(network, scenario.make_source(), snapshot, config);
  (void)engine.run();
  ASSERT_EQ(seen.size(), golden.size());
  for (std::size_t p = 0; p < golden.size(); ++p) {
    const auto& want = golden[p].paths;
    const auto& got = seen[p];
    const std::string pair =
        std::to_string(golden[p].from) + "->" + std::to_string(golden[p].to);
    ASSERT_EQ(got.size(), want.size()) << pair;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::string where = pair + " path " + std::to_string(i);
      EXPECT_EQ(got[i].rate_tps, want[i].rate_tps) << where;
      EXPECT_EQ(got[i].window, want[i].window) << where;
      EXPECT_EQ(got[i].price, want[i].price) << where;
      EXPECT_EQ(got[i].outstanding, want[i].outstanding) << where;
      EXPECT_EQ(got[i].hops, want[i].hops) << where;
    }
  }
}

// Rate, window, price, outstanding and hop count of five pairs per rate
// scheme on the GoldenOutcomes scenario, as hex-float literals. The scheme
// goldens see rates only through drip times; these pin the doubles the
// per-tau probe sweep writes, bit for bit.
TEST(RateProtocol, GoldenRateStateMidRun) {
  ScenarioConfig scenario_config;
  scenario_config.seed = 7;
  scenario_config.topology.nodes = 60;
  scenario_config.placement.candidate_count = 6;
  scenario_config.workload.payment_count = 250;
  scenario_config.workload.horizon_seconds = 12.0;
  const auto scenario = prepare_scenario(scenario_config);

  SplicerRouter splicer(scenario.multi_star.hub_of, scenario.multi_star.hubs,
                        SplicerRouter::Config{});
  expect_golden_rate_state(scenario, scenario.multi_star.network, splicer, {
      {28, 58, {
          {0x1.2e8eff8ed95e2p+7, 0x1.020ac465f4ca6p+4, 0x1.f80520fba713dp-3, 0, 3},
          {0x1.bdfc38a209e1p+6, 0x1.01f15020ed1fp+4, 0x1.c7b2eab5b5ea5p-2, 0, 4},
      }},
      {0, 13, {
          {0x1p-1, 0x1.008ca62931a5p+4, 0x1.2ac7385f31541p-4, 0, 4},
          {0x1.3a12208aefebbp+7, 0x1.008ca9ab98608p+4, 0x1.b1cd3d1ab7d4bp-6, 0, 3},
      }},
      {22, 26, {
          {0x1.0c181df20492bp+8, 0x1.017ef4a8fb11bp+4, 0x1.68aa9cf161b77p-3, 1, 2},
      }},
      {17, 44, {
          {0x1.29e4f326348p+4, 0x1.0217814f7bff5p+4, 0x1.50b744e5b6ba3p-3, 0, 3},
          {0x1p-1, 0x1.01e4933765ea1p+4, 0x1.740bfcaabdbd7p-2, 0, 4},
      }},
      {38, 58, {
          {0x1.793bd6705e89bp+6, 0x1.01cbd153ecbe6p+4, 0x1.0fd9b432f6b22p-1, 0, 3},
          {0x1.b4341fe96b5c9p+5, 0x1.003ff6179a67cp+4, 0x1.75b1e14ee7e26p-1, 0, 4},
      }},
  });

  SpiderRouter::Config spider_config;
  spider_config.protocol.path_type = graph::PathType::kEdgeDisjointShortest;
  SpiderRouter spider(spider_config);
  expect_golden_rate_state(scenario, scenario.raw, spider, {
      {31, 29, {
          {0x1.1e06358d1c3dep+2, 0x1.000a3d566dbp+4, 0x0p+0, 0, 2},
          {0x1.0817d6c8f29f3p+8, 0x1.000a3d4bf1b08p+4, 0x0p+0, 0, 2},
          {0x1p-1, 0x1.000a3d4175d13p+4, 0x1.0d03bb9d70e5bp+1, 0, 2},
          {0x1p-1, 0x1.000a3d36fa121p+4, 0x1.e81425f2add58p+0, 0, 2},
          {0x1.2d6f58878ff56p+6, 0x1.000a3d2c7e732p+4, 0x1.7675e86aa508dp-6, 0, 3},
      }},
      {8, 12, {
          {0x1.4312534dfaa5fp+7, 0x1.00051eb851eb8p+4, 0x0p+0, 0, 1},
          {0x1p-1, 0x1p+4, 0x1.534cea6d49a65p-3, 0, 2},
          {0x1.fbf29c74994efp+7, 0x1p+4, 0x1.35da8c3fce19p-5, 0, 2},
          {0x1p-1, 0x1p+4, 0x1.d8bbffd86d8b7p-3, 0, 2},
          {0x1p-1, 0x1p+4, 0x1.f9af9ef211f21p-2, 0, 4},
      }},
      {25, 26, {
          {0x1p-1, 0x1.004491b7503fbp+4, 0x1.08efc91517dcfp-1, 0, 1},
          {0x1.c9c6532c72098p+4, 0x1.002e589a4c63fp+4, 0x1.09ac0e582d6dap-2, 0, 2},
          {0x1p-1, 0x1p+0, 0x1.a3d76b401b675p+0, 0, 2},
          {0x1p-1, 0x1.0021c8afd0d11p+4, 0x1.bbe0f7a724e8ap+1, 0, 2},
          {0x1.3c2f736745255p+4, 0x1p+0, 0x1.36fb0e455a837p-2, 0, 2},
      }},
      {4, 26, {
          {0x1p-1, 0x1.00051eb851eb8p+4, 0x1.b3cc5d366e472p-2, 0, 3},
          {0x1p-1, 0x1.000a3d512f88p+4, 0x1.b24594baf331bp+0, 0, 4},
          {0x1p-1, 0x1.000a3d46b398ap+4, 0x1.a679c1fb9e13ep+0, 1, 4},
          {0x1p-1, 0x1.00051ea897a3dp+4, 0x1.6fe045f8162d7p-1, 0, 5},
          {0x1p-1, 0x1.00051ea359ac1p+4, 0x1.a0e757fdc6c5fp+1, 0, 5},
      }},
      {0, 13, {
          {0x1p-1, 0x1.00210a76f9837p+4, 0x1.19077780b499ap+1, 0, 3},
          {0x1.08ef705e7ddb2p+5, 0x1.00210a4ca8058p+4, 0x1.e533eb0c2bb46p-3, 0, 3},
          {0x1p-1, 0x1.001bebc85a865p+4, 0x1.73274c88ccae2p+1, 0, 3},
          {0x1p-1, 0x1p+0, 0x1.89df21a705787p+1, 0, 4},
          {0x1p-1, 0x1.803d6e19ecb5cp+2, 0x1.04c0136ee30f1p+1, 0, 4},
      }},
  });
}

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv1a {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xff;
      value *= 0x100000001b3ULL;
    }
  }
};

/// One pair's hash line of tests/data/rate_state_pairs.txt.
struct PairHash {
  NodeId from;
  NodeId to;
  std::uint64_t hash;
  bool operator==(const PairHash&) const = default;
};

/// "<label> <from> <to> <hex hash>" lines, grouped by label in file order.
std::map<std::string, std::vector<PairHash>> load_pair_hashes(const char* file) {
  std::map<std::string, std::vector<PairHash>> out;
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string label;
    PairHash pair{};
    fields >> label >> pair.from >> pair.to >> std::hex >> pair.hash;
    out[label].push_back(pair);
  }
  return out;
}

// Every pair's rate state after a full run: for each distinct (sender,
// receiver) pair of the GoldenOutcomes payments, in sorted order, the
// pair_diagnostics of each path (bit patterns of rate, window and price;
// outstanding; hops) fold into one FNV-1a hash per scheme and engine config,
// pinned below. tests/data/rate_state_pairs.txt holds each pair's own hash,
// recorded with the totals, so a mismatch names the first pair that moved;
// the failing run writes its own listing next to the test's temp files.
TEST(RateProtocol, GoldenRateStateAllPairs) {
  ScenarioConfig scenario_config;
  scenario_config.seed = 7;
  scenario_config.topology.nodes = 60;
  scenario_config.placement.candidate_count = 6;
  scenario_config.workload.payment_count = 250;
  scenario_config.workload.horizon_seconds = 12.0;
  const auto scenario = prepare_scenario(scenario_config);
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const auto& p : scenario.payments) pairs.emplace(p.sender, p.receiver);

  // GoldenOutcomesUnderChurn's storm (robustness_test).
  pcn::HostileConfig hostile;
  hostile.fault_rate = 4.0;
  hostile.churn_rate = 20.0;
  hostile.fee_policy_rate = 1.0;
  hostile.timelock_budget = 16;
  struct Golden {
    const char* scheme;
    const char* config;
    double epoch_s;
    bool hostile;
    std::uint64_t hash;
  };
  const Golden kGolden[] = {
      {"splicer", "exact", 0.0, false, 0x06fbbcc3eea5f8fbULL},
      {"splicer", "epoch10", 0.010, false, 0xd5ab80d765522797ULL},
      {"splicer", "hostile", 0.0, true, 0x1a07d44e6ec49959ULL},
      {"splicer", "hostile_epoch10", 0.010, true, 0x5e0808fc473322a0ULL},
      {"spider", "exact", 0.0, false, 0xc9a98b6d3c329046ULL},
      {"spider", "epoch10", 0.010, false, 0x2e4d9f59d2e50ea9ULL},
      {"spider", "hostile", 0.0, true, 0x3f4e7d01e81905deULL},
      {"spider", "hostile_epoch10", 0.010, true, 0x1decda965955181bULL},
  };
  auto recorded = load_pair_hashes(SPLICER_RATE_STATE_GOLDEN);
  std::ostringstream listing;
  listing << "# label from to fnv1a64 (GoldenRateStateAllPairs)\n";
  bool any_mismatch = false;
  for (const auto& g : kGolden) {
    const std::string label = std::string(g.scheme) + "/" + g.config;
    EngineConfig config;
    config.queues_enabled = true;
    config.settlement_epoch_s = g.epoch_s;
    if (g.hostile) config.hostile = hostile;
    SplicerRouter splicer(scenario.multi_star.hub_of, scenario.multi_star.hubs,
                          SplicerRouter::Config{});
    SpiderRouter spider(SpiderRouter::make_default_config());
    const bool is_splicer = std::string(g.scheme) == "splicer";
    RateRouterBase& router = is_splicer ? static_cast<RateRouterBase&>(splicer)
                                        : static_cast<RateRouterBase&>(spider);
    Engine engine(is_splicer ? scenario.multi_star.network : scenario.raw,
                  scenario.make_source(), router, config);
    (void)engine.run();

    Fnv1a total;
    std::vector<PairHash> got;
    for (const auto& [from, to] : pairs) {
      const auto paths = router.pair_diagnostics(from, to);
      Fnv1a own;
      for (Fnv1a* h : {&total, &own}) {
        h->add(from);
        h->add(to);
        h->add(paths.size());
        for (const auto& d : paths) {
          h->add(std::bit_cast<std::uint64_t>(d.rate_tps));
          h->add(std::bit_cast<std::uint64_t>(d.window));
          h->add(std::bit_cast<std::uint64_t>(d.price));
          h->add(d.outstanding);
          h->add(d.hops);
        }
      }
      got.push_back(PairHash{from, to, own.value});
      listing << label << ' ' << from << ' ' << to << ' ' << std::hex << own.value
              << std::dec << '\n';
    }
    EXPECT_EQ(total.value, g.hash) << label << std::hex << " hash 0x" << total.value;
    if (total.value == g.hash) continue;
    any_mismatch = true;
    const auto& want = recorded[label];
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i < want.size() && got[i] == want[i]) continue;
      std::ostringstream state;
      for (const auto& d : router.pair_diagnostics(got[i].from, got[i].to)) {
        state << std::hexfloat << " {" << d.rate_tps << ", " << d.window << ", "
              << d.price << ", " << d.outstanding << ", " << d.hops << "}";
      }
      ADD_FAILURE() << label << ": first differing pair " << got[i].from << "->"
                    << got[i].to << ", now" << state.str();
      break;
    }
  }
  if (any_mismatch) {
    const std::string out = ::testing::TempDir() + "rate_state_pairs.txt";
    std::ofstream(out) << listing.str();
    ADD_FAILURE() << "this run's per-pair hashes: " << out;
  }
}

}  // namespace
}  // namespace splicer::routing
