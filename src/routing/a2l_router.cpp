#include "routing/a2l_router.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "graph/metrics.h"
#include "routing/path_filter.h"

namespace splicer::routing {

A2lRouter::A2lRouter() : A2lRouter(Config{}) {}

void A2lRouter::on_start(Engine& engine) {
  hub_ = config_.hub != graph::kInvalidNode
             ? config_.hub
             : graph::nodes_by_degree(engine.network().topology()).front();
  hub_busy_until_ = 0.0;
}

void A2lRouter::on_payment(Engine& engine, const pcn::Payment& payment) {
  const auto& g = engine.network().topology();
  const auto in_edge = g.find_edge(payment.sender, hub_);
  const auto out_edge = g.find_edge(hub_, payment.receiver);
  if (in_edge == graph::kInvalidEdge || out_edge == graph::kInvalidEdge) {
    engine.fail_payment(payment.id, FailReason::kNoPath);
    return;
  }
  // Phase-based tumbler: the puzzle-promise phase for this payment starts
  // at the next epoch boundary; the hub's cryptographic pipeline then
  // serialises payments.
  const double boundary =
      config_.epoch_s > 0.0
          ? std::ceil(engine.now() / config_.epoch_s) * config_.epoch_s
          : engine.now();
  const double start = std::max(boundary, hub_busy_until_);
  hub_busy_until_ = start + config_.hub_crypto_s;
  if (hub_busy_until_ > payment.deadline) {
    engine.fail_payment(payment.id, FailReason::kHubOverload);
    return;
  }
  engine.counters().control_messages += 4;  // puzzle promise/solver exchange

  // Typed crypto-phase timer: the engine's PaymentState keeps the payment
  // and the star topology is immutable during a run, so the path is
  // recomputed on fire from the id alone — no closure, no Path copy.
  engine.schedule_timer(hub_busy_until_ - engine.now(), payment.id);
}

void A2lRouter::on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) {
  (void)b;
  // Checked lookup: the crypto-phase delay can outlive the payment, whose
  // resolved state may already be evicted.
  const auto* state = engine.find_payment_state(a);
  if (state == nullptr || !state->active()) return;
  const pcn::Payment& payment = state->payment;
  const auto& g = engine.network().topology();

  // The two-hop route lives on the stack: send_tu copies it.
  const std::array<NodeId, 3> nodes{payment.sender, hub_, payment.receiver};
  const std::array<ChannelId, 2> edges{g.find_edge(payment.sender, hub_),
                                       g.find_edge(hub_, payment.receiver)};
  const std::array<Amount, 2> hop_amounts{payment.value, payment.value};
  const graph::PathView path(nodes, edges);

  // Hostile-world: the tumbler has exactly one route; if a spoke channel
  // closed, an endpoint (or the hub itself) is offline, or the two-hop
  // timelock cost is over budget, the payment cannot complete.
  if (const auto blocked = path_obstruction(
          engine.network(), path, engine.config().hostile.timelock_budget)) {
    engine.fail_payment(payment.id, *blocked);
    return;
  }

  TransactionUnit tu;
  tu.payment = payment.id;
  tu.value = payment.value;
  tu.path = path;
  tu.hop_amounts = hop_amounts;
  tu.deadline = payment.deadline;
  engine.send_tu(tu);
}

void A2lRouter::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                             FailReason reason) {
  (void)reason;
  // Unsplit and atomic: the payment cannot complete.
  engine.fail_payment(tu.payment, FailReason::kInsufficientFunds);
}

}  // namespace splicer::routing
