// Scenario preparation + cross-scheme integration checks (the machinery
// behind the Fig. 7/8 benches).

#include "routing/experiment.h"

#include <gtest/gtest.h>

#include "graph/metrics.h"

namespace splicer::routing {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 7) {
  ScenarioConfig config;
  config.seed = seed;
  config.topology.nodes = 80;
  config.placement.candidate_count = 8;
  config.workload.payment_count = 400;
  config.workload.horizon_seconds = 8.0;
  return config;
}

TEST(Scenario, PreparationIsConsistent) {
  const auto scenario = prepare_scenario(small_config());
  EXPECT_EQ(scenario.raw.node_count(), 80u);
  EXPECT_GE(scenario.multi_star.hubs.size(), 1u);
  EXPECT_EQ(scenario.payments.size(), 400u);
  // Clients exclude all hubs.
  for (const auto client : scenario.clients) {
    EXPECT_FALSE(scenario.multi_star.is_hub[client]);
    EXPECT_NE(client, scenario.single_star.hubs.front());
  }
  // Payment endpoints are clients.
  for (const auto& p : scenario.payments) {
    EXPECT_FALSE(scenario.multi_star.is_hub[p.sender]);
    EXPECT_FALSE(scenario.multi_star.is_hub[p.receiver]);
  }
}

TEST(Scenario, DeterministicAcrossCalls) {
  const auto a = prepare_scenario(small_config(11));
  const auto b = prepare_scenario(small_config(11));
  ASSERT_EQ(a.payments.size(), b.payments.size());
  for (std::size_t i = 0; i < a.payments.size(); ++i) {
    EXPECT_EQ(a.payments[i].sender, b.payments[i].sender);
    EXPECT_EQ(a.payments[i].value, b.payments[i].value);
  }
  EXPECT_EQ(a.multi_star.hubs, b.multi_star.hubs);
}

TEST(Scenario, ScaleFreeVariant) {
  auto config = small_config();
  config.topology.scale_free = true;
  const auto scenario = prepare_scenario(config);
  EXPECT_TRUE(graph::is_connected(scenario.raw.topology()));
}

TEST(RunScheme, AllSchemesProduceSaneMetrics) {
  const auto scenario = prepare_scenario(small_config());
  for (const auto scheme :
       {Scheme::kSplicer, Scheme::kSpider, Scheme::kFlash, Scheme::kLandmark,
        Scheme::kA2l, Scheme::kShortestPath}) {
    const auto m = run_scheme(scenario, scheme);
    EXPECT_EQ(m.payments_generated, 400u) << to_string(scheme);
    EXPECT_GE(m.tsr(), 0.0);
    EXPECT_LE(m.tsr(), 1.0);
    EXPECT_GE(m.normalized_throughput(), 0.0);
    EXPECT_LE(m.normalized_throughput(), 1.0);
    EXPECT_EQ(m.payments_completed + m.payments_failed, 400u)
        << to_string(scheme) << ": every payment must resolve";
    EXPECT_GT(m.messages.total(), 0u);
  }
}

TEST(RunScheme, SplicerBeatsNaiveBaselines) {
  const auto scenario = prepare_scenario(small_config(21));
  const auto splicer = run_scheme(scenario, Scheme::kSplicer);
  const auto naive = run_scheme(scenario, Scheme::kShortestPath);
  const auto landmark = run_scheme(scenario, Scheme::kLandmark);
  EXPECT_GT(splicer.tsr(), naive.tsr());
  EXPECT_GT(splicer.tsr(), landmark.tsr());
}

TEST(RunScheme, SplicerBeatsSpiderOnSameWorkload) {
  // The paper's headline comparison; the deadlock-prone workload favours
  // hub consolidation + global-state gating.
  const auto scenario = prepare_scenario(small_config(22));
  const auto splicer = run_scheme(scenario, Scheme::kSplicer);
  const auto spider = run_scheme(scenario, Scheme::kSpider);
  EXPECT_GT(splicer.tsr(), spider.tsr());
  EXPECT_GT(splicer.normalized_throughput(), spider.normalized_throughput());
}

TEST(RunScheme, RepeatRunsAreIdentical) {
  const auto scenario = prepare_scenario(small_config(23));
  const auto a = run_scheme(scenario, Scheme::kSplicer);
  const auto b = run_scheme(scenario, Scheme::kSplicer);
  EXPECT_EQ(a.payments_completed, b.payments_completed);
  EXPECT_EQ(a.tus_sent, b.tus_sent);
  EXPECT_EQ(a.messages.total(), b.messages.total());
}

TEST(RunScheme, UpdateTimeSweepKeepsSplicerStable) {
  // Fig. 7(c) property: Splicer TSR stays roughly flat as tau grows, while
  // A2L (epoch-bound tumbler) degrades under load.
  auto config = small_config(24);
  config.workload.payment_count = 600;
  config.workload.horizon_seconds = 6.0;  // ~100/s: stresses the A2L hub
  const auto scenario = prepare_scenario(config);
  SchemeConfig fast, slow;
  fast.protocol.tau_s = 0.1;
  slow.protocol.tau_s = 1.0;
  const auto splicer_fast = run_scheme(scenario, Scheme::kSplicer, fast);
  const auto splicer_slow = run_scheme(scenario, Scheme::kSplicer, slow);
  const auto a2l_fast = run_scheme(scenario, Scheme::kA2l, fast);
  const auto a2l_slow = run_scheme(scenario, Scheme::kA2l, slow);
  EXPECT_GT(splicer_slow.tsr(), splicer_fast.tsr() - 0.15);
  EXPECT_LT(a2l_slow.tsr(), a2l_fast.tsr());
}

TEST(Scenario, StreamingModeMatchesMaterialisedRuns) {
  // streaming=true keeps Scenario::payments empty; every run re-derives
  // the identical stream from the stored RNG snapshot, so payment-level
  // outcomes are exactly those of the materialised path.
  auto config = small_config(31);
  auto streaming_config = config;
  streaming_config.workload.streaming = true;

  const auto materialised = prepare_scenario(config);
  const auto streaming = prepare_scenario(streaming_config);
  EXPECT_EQ(materialised.payments.size(), 400u);
  EXPECT_TRUE(streaming.payments.empty());

  for (const auto scheme : {Scheme::kSplicer, Scheme::kShortestPath}) {
    const auto a = run_scheme(materialised, scheme);
    const auto b = run_scheme(streaming, scheme);
    EXPECT_EQ(a.payments_generated, b.payments_generated) << to_string(scheme);
    EXPECT_EQ(a.payments_completed, b.payments_completed) << to_string(scheme);
    EXPECT_EQ(a.payments_failed, b.payments_failed) << to_string(scheme);
    EXPECT_EQ(a.value_completed, b.value_completed) << to_string(scheme);
    EXPECT_DOUBLE_EQ(a.completion_delay_stats.sum(),
                     b.completion_delay_stats.sum())
        << to_string(scheme);
  }
}

TEST(Scenario, AlternativeWorkloadKindsRunEndToEnd) {
  for (const auto kind : {pcn::WorkloadKind::kBursty,
                          pcn::WorkloadKind::kHotspot}) {
    auto config = small_config(32);
    config.workload.kind = kind;
    config.workload.payment_count = 200;
    const auto scenario = prepare_scenario(config);
    EXPECT_EQ(scenario.payments.size(), 200u) << pcn::to_string(kind);
    const auto m = run_scheme(scenario, Scheme::kSplicer);
    EXPECT_EQ(m.payments_generated, 200u) << pcn::to_string(kind);
    EXPECT_EQ(m.payments_completed + m.payments_failed, 200u)
        << pcn::to_string(kind);
  }
}

TEST(SchemeNames, Strings) {
  EXPECT_STREQ(to_string(Scheme::kSplicer), "Splicer");
  EXPECT_STREQ(to_string(Scheme::kSpider), "Spider");
  EXPECT_STREQ(to_string(Scheme::kFlash), "Flash");
  EXPECT_STREQ(to_string(Scheme::kLandmark), "Landmark");
  EXPECT_STREQ(to_string(Scheme::kA2l), "A2L");
  EXPECT_EQ(comparison_schemes().size(), 5u);
}

}  // namespace
}  // namespace splicer::routing
