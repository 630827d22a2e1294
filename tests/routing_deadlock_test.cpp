// Reproduction of paper SS II-B / Fig. 1: the local deadlock under naive
// routing, and Splicer's rate-based protocol sustaining the balanced flows.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "routing/engine.h"
#include "routing/shortest_path_router.h"
#include "routing/splicer_router.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

pcn::Network fig1_network() {
  graph::Graph g(3);  // A=0, B=1, C=2
  g.add_edge(0, 2);   // A - C
  g.add_edge(2, 1);   // C - B
  return pcn::Network::with_uniform_funds(std::move(g), whole_tokens(10));
}

std::vector<pcn::Payment> fig1_streams(double seconds) {
  std::vector<pcn::Payment> payments;
  const auto add = [&](NodeId s, NodeId r, double rate) {
    for (double t = 0.05; t < seconds; t += 1.0 / rate) {
      pcn::Payment p;
      p.sender = s;
      p.receiver = r;
      p.value = whole_tokens(1);
      p.arrival_time = t;
      p.deadline = t + 3.0;
      payments.push_back(p);
    }
  };
  add(0, 1, 1.0);  // A -> B at 1 token/s
  add(2, 1, 2.0);  // C -> B at 2 token/s
  add(1, 0, 2.0);  // B -> A at 2 token/s
  std::sort(payments.begin(), payments.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (std::size_t i = 0; i < payments.size(); ++i) payments[i].id = i + 1;
  return payments;
}

/// Forwards every hook to `inner` and records each completed payment's
/// sender and completion time in on_payment_resolved, the last point at
/// which the engine still holds the payment's state.
class CompletionRecorder : public Router {
 public:
  struct Completion {
    NodeId sender;
    double time;
  };

  explicit CompletionRecorder(Router& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_start(Engine& engine) override { inner_.on_start(engine); }
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
    const PaymentState* state = engine.find_payment_state(payment);
    if (state != nullptr && state->completed) {
      completions.push_back({state->payment.sender, state->completion_time});
    }
    inner_.on_payment_resolved(engine, payment);
  }
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override {
    inner_.on_timer(engine, a, b);
  }

  std::vector<Completion> completions;

 private:
  Router& inner_;
};

struct StreamStats {
  int completed_ab = 0, total_ab = 0;
  int completed_cb = 0, total_cb = 0;
  int completed_ba = 0, total_ba = 0;
  double last_completion = 0.0;
};

StreamStats analyze(const CompletionRecorder& recorder,
                    const std::vector<pcn::Payment>& payments) {
  StreamStats stats;
  for (const auto& p : payments) {
    if (p.sender == 0) {
      ++stats.total_ab;
    } else if (p.sender == 2) {
      ++stats.total_cb;
    } else {
      ++stats.total_ba;
    }
  }
  for (const auto& c : recorder.completions) {
    if (c.sender == 0) {
      ++stats.completed_ab;
    } else if (c.sender == 2) {
      ++stats.completed_cb;
    } else {
      ++stats.completed_ba;
    }
    stats.last_completion = std::max(stats.last_completion, c.time);
  }
  return stats;
}

TEST(Fig1Deadlock, NaiveRoutingDeadlocksCompletely) {
  const auto payments = fig1_streams(30.0);
  ShortestPathRouter naive;
  CompletionRecorder recorder(naive);
  EngineConfig config;
  config.queues_enabled = false;
  Engine engine(fig1_network(), payments, recorder, config);
  const auto m = engine.run();
  const auto stats = analyze(recorder, payments);

  // The imbalanced rates drain C: after ~10 s nothing completes, even the
  // balanced A<->B streams with ample total funds ("local deadlock").
  EXPECT_LT(m.tsr(), 0.40);
  EXPECT_LT(stats.last_completion, 15.0);
  // Insufficient funds, not timeouts, is the naive failure mode.
  EXPECT_GT(m.payment_fail_reasons[static_cast<std::size_t>(
                FailReason::kInsufficientFunds)],
            50u);
}

TEST(Fig1Deadlock, SplicerSustainsBalancedFlows) {
  const auto payments = fig1_streams(30.0);
  SplicerRouter::Config rc;
  rc.protocol.k_paths = 1;
  rc.protocol.initial_rate_tps = 20.0;  // proportionate to 20-token channels
  SplicerRouter splicer({2, 2, 2}, {2}, rc);
  CompletionRecorder recorder(splicer);
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(fig1_network(), payments, recorder, config);
  const auto m = engine.run();
  const auto stats = analyze(recorder, payments);

  // The fluid-model optimum here is 2 tokens/s: A->B and B->A at 1 each
  // (paper SS II-B), i.e. TSR = 60/150 = 40%. Splicer's discrete protocol
  // approaches it (min-rate floors and 1-token TU granularity cost a few
  // points) and keeps completing payments past the naive 10 s drain point.
  EXPECT_GT(m.tsr(), 0.33);
  EXPECT_GT(stats.last_completion, 12.0);
  // Throughput strictly better than the naive deadlock.
  ShortestPathRouter naive;
  EngineConfig atomic_config;
  atomic_config.queues_enabled = false;
  Engine naive_engine(fig1_network(), payments, naive, atomic_config);
  const auto naive_m = naive_engine.run();
  EXPECT_GT(m.payments_completed, naive_m.payments_completed);
}

TEST(Fig1Deadlock, SplicerKeepsChannelsAlive) {
  // After the run, no channel side should be fully drained under Splicer -
  // the balance constraint (eq. 19) in action.
  const auto payments = fig1_streams(30.0);
  SplicerRouter::Config rc;
  rc.protocol.k_paths = 1;
  rc.protocol.initial_rate_tps = 20.0;  // proportionate to 20-token channels
  SplicerRouter splicer({2, 2, 2}, {2}, rc);
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(fig1_network(), payments, splicer, config);
  (void)engine.run();
  int drained_sides = 0;
  for (pcn::ChannelId c = 0; c < engine.network().channel_count(); ++c) {
    const auto& ch = engine.network().channel(c);
    drained_sides += ch.available(pcn::Direction::kForward) == 0;
    drained_sides += ch.available(pcn::Direction::kBackward) == 0;
  }
  EXPECT_LE(drained_sides, 1);
}

TEST(Fig1Deadlock, BalancedOnlyWorkloadIsNearPerfect) {
  // Control experiment: with only the balanced A<->B streams, even at the
  // same rates, Splicer completes nearly everything.
  std::vector<pcn::Payment> payments;
  const auto add = [&](NodeId s, NodeId r, double rate) {
    for (double t = 0.05; t < 30.0; t += 1.0 / rate) {
      pcn::Payment p;
      p.sender = s;
      p.receiver = r;
      p.value = whole_tokens(1);
      p.arrival_time = t;
      p.deadline = t + 3.0;
      payments.push_back(p);
    }
  };
  add(0, 1, 1.0);
  add(1, 0, 1.0);
  std::sort(payments.begin(), payments.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (std::size_t i = 0; i < payments.size(); ++i) payments[i].id = i + 1;

  SplicerRouter::Config rc;
  rc.protocol.k_paths = 1;
  rc.protocol.initial_rate_tps = 20.0;  // proportionate to 20-token channels
  SplicerRouter splicer({2, 2, 2}, {2}, rc);
  EngineConfig config;
  config.queues_enabled = true;
  Engine engine(fig1_network(), payments, splicer, config);
  const auto m = engine.run();
  EXPECT_GT(m.tsr(), 0.9);
}

}  // namespace
}  // namespace splicer::routing
