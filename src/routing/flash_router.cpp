#include "routing/flash_router.h"

#include <algorithm>

#include "graph/disjoint_paths.h"
#include "graph/max_flow.h"
#include "routing/path_filter.h"

namespace splicer::routing {

FlashRouter::FlashRouter() : FlashRouter(Config{}) {}

void FlashRouter::on_payment(Engine& engine, const pcn::Payment& payment) {
  auto& progress = progress_[payment.id];
  progress.elephant = payment.value > config_.elephant_threshold;
  progress.retries_left =
      progress.elephant ? config_.elephant_retries : config_.mice_retries;
  if (progress.elephant) {
    send_elephant(engine, payment, payment.value, progress);
  } else {
    send_mice(engine, payment, payment.value, progress);
  }
}

const std::vector<graph::Path>& FlashRouter::mice_paths(Engine& engine,
                                                        NodeId from, NodeId to) {
  const auto key = std::make_pair(from, to);
  const auto it = mice_cache_.find(key);
  if (it != mice_cache_.end()) return it->second;
  auto paths = graph::edge_disjoint_shortest_paths(engine.network().topology(),
                                                   from, to,
                                                   config_.mice_path_count);
  return mice_cache_.emplace(key, std::move(paths)).first->second;
}

void FlashRouter::send_mice(Engine& engine, const pcn::Payment& payment,
                            Amount value, PaymentProgress& progress) {
  const auto& paths = mice_paths(engine, payment.sender, payment.receiver);
  // Hostile-world filter over the precomputed candidates: skip paths that
  // are currently obstructed (closed channel, offline endpoint, timelock
  // over budget). In a benign run every path passes, so the random pick
  // below draws over the same range as before — identical RNG stream.
  mice_candidates_.clear();
  for (const auto& path : paths) {
    if (!path_obstruction(engine.network(), path,
                          engine.config().hostile.timelock_budget)) {
      mice_candidates_.push_back(&path);
    }
  }
  if (mice_candidates_.empty()) {
    engine.fail_payment(payment.id, FailReason::kNoPath);
    return;
  }
  const auto& path =
      *mice_candidates_[engine.rng().index(mice_candidates_.size())];
  // Views of the path cache and the hop-amount scratch: send_tu copies both.
  hop_amounts_.assign(path.edges.size(), value);
  TransactionUnit tu;
  tu.payment = payment.id;
  tu.value = value;
  tu.path = path;
  tu.hop_amounts = hop_amounts_;
  tu.deadline = payment.deadline;
  ++progress.outstanding;
  engine.send_tu(tu);
}

void FlashRouter::send_elephant(Engine& engine, const pcn::Payment& payment,
                                Amount value, PaymentProgress& progress) {
  // Probe balances (stale up to probe_staleness_s: probes take a round
  // trip, so concurrent elephants plan against the same snapshot).
  if (snapshot_time_ < 0.0 ||
      engine.now() - snapshot_time_ >= config_.probe_staleness_s) {
    snapshot_forward_ = engine.network().forward_balances_tokens();
    snapshot_backward_ = engine.network().backward_balances_tokens();
    snapshot_time_ = engine.now();
    engine.counters().probe_messages += engine.network().channel_count() / 16;
    // Hostile-world: a closed or endpoint-offline channel contributes no
    // capacity in either direction, so max-flow plans around it.
    for (std::size_t c = 0; c < engine.network().channel_count(); ++c) {
      if (!engine.network().channel_usable(static_cast<ChannelId>(c))) {
        snapshot_forward_[c] = 0;
        snapshot_backward_[c] = 0;
      }
    }
  }

  graph::MaxFlowOptions options;
  options.forward_capacity = &snapshot_forward_;
  options.backward_capacity = &snapshot_backward_;
  options.flow_limit = common::to_tokens(value);
  options.max_paths = config_.max_flow_paths;
  auto flow = graph::max_flow(engine.network().topology(), payment.sender,
                              payment.receiver, options);
  // Drop flow paths obstructed since the snapshot (or whose timelock cost
  // exceeds the budget) and deduct their flow; the benign-run subtraction
  // is exact zero, keeping `reachable` bit-identical to the unfiltered sum.
  double usable_flow = flow.total_flow;
  std::erase_if(flow.paths, [&](const auto& flow_path) {
    if (!path_obstruction(engine.network(), flow_path.path,
                          engine.config().hostile.timelock_budget)) {
      return false;
    }
    usable_flow -= flow_path.flow;
    return true;
  });
  const Amount reachable = common::tokens(usable_flow);
  if (flow.paths.empty() || reachable < value) {
    engine.fail_payment(payment.id, FailReason::kInsufficientFunds);
    return;
  }
  // Split the value across the flow paths proportionally to their flows;
  // fix the rounding remainder on the widest path.
  std::vector<Amount> shares(flow.paths.size(), 0);
  Amount assigned = 0;
  std::size_t widest = 0;
  for (std::size_t i = 0; i < flow.paths.size(); ++i) {
    shares[i] = std::min<Amount>(
        common::tokens(flow.paths[i].flow),
        value - assigned);
    assigned += shares[i];
    if (flow.paths[i].flow > flow.paths[widest].flow) widest = i;
  }
  if (assigned < value) shares[widest] += value - assigned;

  for (std::size_t i = 0; i < flow.paths.size(); ++i) {
    if (shares[i] <= 0) continue;
    // A split's hook may send a retry that refills hop_amounts_, so the
    // scratch is refilled per split; send_tu copies it and the path.
    hop_amounts_.assign(flow.paths[i].path.edges.size(), shares[i]);
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = shares[i];
    tu.path = flow.paths[i].path;
    tu.hop_amounts = hop_amounts_;
    tu.deadline = payment.deadline;
    ++progress.outstanding;
    engine.send_tu(tu);
    // A split that fails inside send_tu can resolve the payment, and
    // on_payment_resolved then erases the entry `progress` refers to:
    // the payment is over, so send no further splits.
    if (!progress_.contains(payment.id)) return;
  }
}

void FlashRouter::on_tu_delivered(Engine& engine, const TransactionUnit& tu) {
  (void)engine;
  const auto it = progress_.find(tu.payment);
  if (it != progress_.end() && it->second.outstanding > 0) {
    --it->second.outstanding;
  }
}

void FlashRouter::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                               FailReason reason) {
  (void)reason;
  const auto it = progress_.find(tu.payment);
  if (it == progress_.end()) return;
  auto& progress = it->second;
  if (progress.outstanding > 0) --progress.outstanding;
  progress.failed_value += tu.value;

  // Checked lookup: a sibling split's synchronous failure can resolve the
  // payment and evict its state before this TU unwinds. Evicted ==
  // resolved == nothing left to retry.
  const auto* state = engine.find_payment_state(tu.payment);
  if (state == nullptr || !state->active()) return;
  if (progress.outstanding > 0) return;  // wait until all splits resolve

  if (progress.retries_left == 0) {
    engine.fail_payment(tu.payment, FailReason::kInsufficientFunds);
    return;
  }
  --progress.retries_left;
  const Amount retry_value = progress.failed_value;
  progress.failed_value = 0;
  // Copy: the retry's own splits can fail synchronously, resolve the
  // payment and evict the state this reference points into.
  const pcn::Payment payment = state->payment;
  if (progress.elephant) {
    send_elephant(engine, payment, retry_value, progress);
  } else {
    send_mice(engine, payment, retry_value, progress);
  }
}

}  // namespace splicer::routing
