// Direct verification of the waiting-queue service orders (Table II's
// FIFO/LIFO/SPF/EDF): four TUs arrive while a rate-limited channel is
// busy; the drain order must follow the configured policy.

#include <gtest/gtest.h>

#include <array>

#include "graph/generators.h"
#include "routing/engine.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

class RecordingRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    // One TU per payment across the 2-hop line 0-1-2, value = payment value.
    const std::array<NodeId, 3> nodes{0, 1, 2};
    const std::array<ChannelId, 2> edges{
        engine.network().topology().find_edge(0, 1),
        engine.network().topology().find_edge(1, 2)};
    const std::array<Amount, 2> hop_amounts{payment.value, payment.value};
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = payment.value;
    tu.path = graph::PathView(nodes, edges);
    tu.hop_amounts = hop_amounts;
    tu.deadline = payment.deadline;
    engine.send_tu(tu);
  }
  void on_tu_delivered(Engine&, const TransactionUnit& tu) override {
    delivered_payments.push_back(tu.payment);
  }
  std::vector<PaymentId> delivered_payments;
};

/// Four payments with distinct values and deadlines, all arriving at once.
/// Payment p: value tokens and deadline as listed.
///   p1: value 5, deadline 9.0      p2: value 2, deadline 8.0
///   p3: value 4, deadline 7.0      p4: value 3, deadline 6.0
std::vector<pcn::Payment> burst() {
  const double values[] = {5, 2, 4, 3};
  const double deadlines[] = {9.0, 8.0, 7.0, 6.0};
  std::vector<pcn::Payment> payments;
  for (int i = 0; i < 4; ++i) {
    pcn::Payment p;
    p.id = i + 1;
    p.sender = 0;
    p.receiver = 2;
    p.value = common::tokens(values[i]);
    p.arrival_time = 0.1 + 1e-4 * i;  // effectively simultaneous
    p.deadline = deadlines[i];
    payments.push_back(p);
  }
  return payments;
}

std::vector<PaymentId> run_policy(SchedulingPolicy policy) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto net = pcn::Network::with_uniform_funds(std::move(g), whole_tokens(100));

  RecordingRouter router;
  EngineConfig config;
  config.queues_enabled = true;
  config.policy = policy;
  config.queue_delay_threshold_s = 30.0;  // no marking in this test
  // Second hop processes ~4 tokens/second: the first TU occupies it for
  // over a second, so the remaining three TUs queue behind it.
  config.process_rate_tokens_per_s = 4.0;
  Engine engine(std::move(net), burst(), router, config);
  (void)engine.run();
  return router.delivered_payments;
}

TEST(QueuePolicy, FifoServesArrivalOrder) {
  const auto order = run_policy(SchedulingPolicy::kFifo);
  ASSERT_EQ(order.size(), 4u);
  // First TU (p1) grabs the processor; the queue drains in arrival order.
  EXPECT_EQ(order, (std::vector<PaymentId>{1, 2, 3, 4}));
}

TEST(QueuePolicy, LifoServesNewestFirst) {
  const auto order = run_policy(SchedulingPolicy::kLifo);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<PaymentId>{1, 4, 3, 2}));
}

TEST(QueuePolicy, SpfServesSmallestValueFirst) {
  const auto order = run_policy(SchedulingPolicy::kSpf);
  ASSERT_EQ(order.size(), 4u);
  // Queued values: p2=2, p3=4, p4=3 -> smallest first: p2, p4, p3.
  EXPECT_EQ(order, (std::vector<PaymentId>{1, 2, 4, 3}));
}

TEST(QueuePolicy, EdfServesEarliestDeadlineFirst) {
  const auto order = run_policy(SchedulingPolicy::kEdf);
  ASSERT_EQ(order.size(), 4u);
  // Queued deadlines: p2=8, p3=7, p4=6 -> earliest first: p4, p3, p2.
  EXPECT_EQ(order, (std::vector<PaymentId>{1, 4, 3, 2}));
}

TEST(QueuePolicy, PolicyNames) {
  EXPECT_STREQ(to_string(SchedulingPolicy::kFifo), "FIFO");
  EXPECT_STREQ(to_string(SchedulingPolicy::kLifo), "LIFO");
  EXPECT_STREQ(to_string(SchedulingPolicy::kSpf), "SPF");
  EXPECT_STREQ(to_string(SchedulingPolicy::kEdf), "EDF");
}

TEST(QueuePolicy, RateLimitDelaysButDeliversEverything) {
  // Even at a crawling processing rate, with generous deadlines every TU
  // eventually gets through (no starvation in any policy).
  for (const auto policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kLifo,
        SchedulingPolicy::kSpf, SchedulingPolicy::kEdf}) {
    const auto order = run_policy(policy);
    EXPECT_EQ(order.size(), 4u) << to_string(policy);
    EXPECT_EQ(order.front(), 1u) << to_string(policy);  // head TU never queued
  }
}

}  // namespace
}  // namespace splicer::routing
