// The streaming-scale contract: a 10^6-payment run completes without ever
// materialising the workload — the engine pulls one payment at a time, and
// EngineMetrics::peak_payment_buffer proves the arrival pipeline stayed at
// the concurrency level, not the total size. The resolved side matches:
// a resolved PaymentState is evicted once no live TU references it, so
// peak_resident_states also stays at the concurrency level.

#include <gtest/gtest.h>

#include <array>

#include "graph/graph.h"
#include "pcn/network.h"
#include "pcn/traffic_source.h"
#include "routing/engine.h"

namespace splicer::routing {
namespace {

/// Cheapest possible policy: reject every payment on arrival. The engine
/// still runs the full arrival + deadline event machinery per payment.
class RejectingRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "rejecting"; }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    engine.fail_payment(payment.id, FailReason::kNoPath);
  }
};

/// Forwards every payment over the single channel 0 -> 1.
class ForwardingRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "forwarding"; }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    const std::array<NodeId, 2> nodes{payment.sender, payment.receiver};
    const std::array<ChannelId, 1> edges{0};
    const std::array<Amount, 1> hop_amounts{payment.value};
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = payment.value;
    tu.deadline = payment.deadline;
    tu.path = graph::PathView(nodes, edges);
    tu.hop_amounts = hop_amounts;
    engine.send_tu(tu);
  }
};

pcn::Network pair_network(common::Amount per_side) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  return pcn::Network::with_uniform_funds(std::move(g), per_side);
}

TEST(StreamingScale, MillionPaymentRunNeverMaterialisesTheWorkload) {
  pcn::WorkloadConfig config;
  config.payment_count = 1'000'000;
  config.horizon_seconds = 10'000.0;
  config.streaming = true;

  auto source = std::make_unique<pcn::SyntheticSource>(
      std::vector<pcn::NodeId>{0, 1}, config, common::Rng(123));

  RejectingRouter router;
  Engine engine(pair_network(common::whole_tokens(100)), std::move(source),
                router, {});
  const auto metrics = engine.run();

  EXPECT_EQ(metrics.payments_generated, 1'000'000u);
  EXPECT_EQ(metrics.payments_failed, 1'000'000u);
  // Every payment resolves inside its own arrival event, so the pipeline
  // never holds more than the one look-ahead pull plus the arriving
  // payment.
  EXPECT_LE(metrics.peak_payment_buffer, 2u);
}

TEST(StreamingScale, BusyStreamingRunKeepsTheBufferAtConcurrencyLevel) {
  pcn::WorkloadConfig config;
  config.payment_count = 50'000;
  config.horizon_seconds = 500.0;
  config.streaming = true;

  auto source = std::make_unique<pcn::SyntheticSource>(
      std::vector<pcn::NodeId>{0, 1}, config, common::Rng(9));

  ForwardingRouter router;
  Engine engine(pair_network(common::whole_tokens(500'000)),
                std::move(source), router, {});
  const auto metrics = engine.run();

  EXPECT_EQ(metrics.payments_generated, 50'000u);
  EXPECT_GT(metrics.payments_completed, 0u);
  // ~100 arrivals/s against a ~3.5 s payment lifetime: the resident window
  // is a few hundred payments, never the 50k workload.
  EXPECT_GT(metrics.peak_payment_buffer, 1u);
  EXPECT_LT(metrics.peak_payment_buffer, 5'000u);
}

TEST(StreamingScale, EvictingMillionPaymentRunHoldsOnlyTheActiveWindow) {
  pcn::WorkloadConfig config;
  config.payment_count = 1'000'000;
  config.horizon_seconds = 10'000.0;
  config.streaming = true;

  auto source = std::make_unique<pcn::SyntheticSource>(
      std::vector<pcn::NodeId>{0, 1}, config, common::Rng(123));

  RejectingRouter router;
  Engine engine(pair_network(common::whole_tokens(100)), std::move(source),
                router, EngineConfig{});
  const auto metrics = engine.run();

  EXPECT_EQ(metrics.payments_generated, 1'000'000u);
  EXPECT_EQ(metrics.payments_failed, 1'000'000u);
  // A payment rejected on arrival has no TU and a cancelled deadline, so
  // its state is evicted before the next arrival: one resident at a time.
  EXPECT_EQ(metrics.peak_resident_states, 1u);
  // The streamed accumulators carry the resolved outcomes.
  EXPECT_EQ(metrics.tus_per_payment_stats.count(), 1'000'000u);
}

TEST(StreamingScale, EvictionBoundsResidentStatesInBothSettlementModes) {
  pcn::WorkloadConfig config;
  config.payment_count = 20'000;
  config.horizon_seconds = 200.0;
  config.streaming = true;

  // Both engine modes: exact per-hop settlement (states wait for the last
  // ack-chain release) and the batched epoch path.
  for (const double epoch_s : {0.0, 0.01}) {
    auto source = std::make_unique<pcn::SyntheticSource>(
        std::vector<pcn::NodeId>{0, 1}, config, common::Rng(9));
    ForwardingRouter router;
    EngineConfig engine_config;
    engine_config.settlement_epoch_s = epoch_s;
    Engine engine(pair_network(common::whole_tokens(500'000)),
                  std::move(source), router, engine_config);
    const auto m = engine.run();

    EXPECT_EQ(m.payments_generated, 20'000u) << epoch_s;
    EXPECT_EQ(m.payments_completed + m.payments_failed, 20'000u) << epoch_s;
    // The accumulators fold every resolved payment before its state goes.
    EXPECT_EQ(m.tus_per_payment_stats.count(), 20'000u) << epoch_s;
    EXPECT_LT(m.peak_resident_states, 5'000u) << epoch_s;
  }
}

}  // namespace
}  // namespace splicer::routing
