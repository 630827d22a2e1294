// Queue-accounting and funds-conservation invariants under randomized
// traffic. Every run must end with no resident TU and no wedged queue
// value. SPLICER_AUDIT builds also re-derive every touched queue's value
// from its entries after each enqueue/drain/mark and throw on any drift —
// the regression guard for the queued_value leaks fixed alongside batched
// settlement.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "routing/engine.h"
#include "routing/experiment.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

/// The deadlock witnesses run() stamps: nothing alive or queued.
void expect_nothing_wedged(const EngineMetrics& m) {
  EXPECT_EQ(m.resident_tus_at_end, 0u);
  EXPECT_EQ(m.wedged_queue_value, 0);
}

/// Sends every payment over its shortest path as a single TU; enough to
/// exercise locks, queues, marking and refunds without router policy noise.
class PathRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "path"; }

  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    const auto path = graph::shortest_path(engine.network().topology(),
                                           payment.sender, payment.receiver);
    if (!path || path->edges.empty()) {
      engine.fail_payment(payment.id, FailReason::kNoPath);
      return;
    }
    const std::vector<Amount> hop_amounts(path->edges.size(), payment.value);
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = payment.value;
    tu.path = *path;
    tu.hop_amounts = hop_amounts;
    tu.deadline = payment.deadline;
    engine.send_tu(tu);
  }
};

std::vector<pcn::Payment> random_payments(std::size_t count, std::size_t nodes,
                                          std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<pcn::Payment> payments;
  const auto last = static_cast<std::int64_t>(nodes) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    pcn::Payment p;
    p.id = i + 1;
    p.sender = static_cast<pcn::NodeId>(rng.uniform_int(0, last));
    do {
      p.receiver = static_cast<pcn::NodeId>(rng.uniform_int(0, last));
    } while (p.receiver == p.sender);
    p.value = whole_tokens(1 + static_cast<Amount>(rng.uniform_int(0, 40)));
    p.arrival_time = rng.uniform(0.05, 6.0);
    p.deadline = p.arrival_time + 3.0;
    payments.push_back(p);
  }
  return payments;
}

/// Scarce funds + low processing rate: queues fill, marks fire, refunds and
/// settles interleave — the adversarial regime for queue accounting.
EngineMetrics run_randomized(SchedulingPolicy policy, double epoch_s,
                             std::uint64_t seed) {
  common::Rng rng(seed);
  auto g = graph::watts_strogatz(40, 4, 0.2, rng);
  auto net = pcn::Network::with_uniform_funds(std::move(g), whole_tokens(60));

  PathRouter router;
  EngineConfig config;
  config.policy = policy;
  config.queues_enabled = true;
  config.queue_delay_threshold_s = 0.3;
  config.queue_capacity = whole_tokens(120);
  config.process_rate_tokens_per_s = 400.0;
  config.settlement_epoch_s = epoch_s;
  config.seed = seed;

  Engine engine(std::move(net), random_payments(250, 40, seed), router, config);
  // run() itself asserts funds conservation; audit builds also assert the
  // queued_value invariant after every queue mutation.
  const EngineMetrics m = engine.run();
  expect_nothing_wedged(m);
  return m;
}

class QueueInvariants
    : public ::testing::TestWithParam<std::tuple<SchedulingPolicy, double>> {};

TEST_P(QueueInvariants, RandomizedTrafficKeepsQueueAccountingExact) {
  const auto [policy, epoch_s] = GetParam();
  const auto m = run_randomized(policy, epoch_s, 7);
  // The workload must actually stress the queues for the check to mean
  // anything: TUs got sent and some were marked or failed.
  EXPECT_GT(m.tus_sent, 100u);
  EXPECT_GT(m.payments_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesBothModes, QueueInvariants,
    ::testing::Combine(::testing::Values(SchedulingPolicy::kFifo,
                                         SchedulingPolicy::kLifo,
                                         SchedulingPolicy::kSpf,
                                         SchedulingPolicy::kEdf),
                       ::testing::Values(0.0, 0.02)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) > 0 ? "_batched" : "_perhop");
    });

TEST(QueueInvariants, SeedsSweepBothModes) {
  for (const std::uint64_t seed : {11u, 23u, 51u}) {
    const auto per_hop = run_randomized(SchedulingPolicy::kLifo, 0.0, seed);
    const auto batched = run_randomized(SchedulingPolicy::kLifo, 0.01, seed);
    // Same workload; batching coalesces events but must keep the
    // simulation sound: everything generated is accounted for.
    EXPECT_EQ(per_hop.payments_generated, batched.payments_generated);
    EXPECT_LT(batched.scheduler_events, per_hop.scheduler_events);
  }
}

TEST(QueueInvariants, BatchedModeMatchesThroughputClosely) {
  const auto per_hop = run_randomized(SchedulingPolicy::kLifo, 0.0, 3);
  const auto batched = run_randomized(SchedulingPolicy::kLifo, 0.005, 3);
  // A 5 ms epoch only defers fund availability by sub-hop-delay amounts;
  // aggregate outcomes stay in the same regime.
  EXPECT_NEAR(per_hop.tsr(), batched.tsr(), 0.1);
}

TEST(QueueInvariants, FullSchemeStackHoldsUnderBatching) {
  // End-to-end: the real experiment harness (placement + rate protocol +
  // queues), per-hop and batched.
  ScenarioConfig sc;
  sc.seed = 5;
  sc.topology.nodes = 50;
  sc.placement.candidate_count = 6;
  sc.workload.payment_count = 150;
  sc.workload.horizon_seconds = 6.0;
  const auto scenario = prepare_scenario(sc);
  for (const double epoch_s : {0.0, 0.02}) {
    for (const auto scheme : {Scheme::kSplicer, Scheme::kSpider}) {
      SchemeConfig config;
      config.engine.settlement_epoch_s = epoch_s;
      const auto m = run_scheme(scenario, scheme, config);
      EXPECT_GT(m.payments_generated, 0u);
      expect_nothing_wedged(m);
    }
  }
}

}  // namespace
}  // namespace splicer::routing
