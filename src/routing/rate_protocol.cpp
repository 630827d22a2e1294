#include "routing/rate_protocol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "routing/path_filter.h"

namespace splicer::routing {

void RateProtocolConfig::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("RateProtocolConfig: ") + what);
  };
  if (!(tau_s > 0) || !std::isfinite(tau_s)) fail("tau_s must be finite and > 0");
  if (!(price_decay > 0 && price_decay <= 1)) fail("price_decay must be in (0, 1]");
  if (!(min_rate_tps <= max_rate_tps)) fail("min_rate_tps must be <= max_rate_tps");
  if (!(min_window <= max_window)) fail("min_window must be <= max_window");
  if (min_tu > max_tu) fail("min_tu must be <= max_tu");
  if (k_paths < 1) fail("k_paths must be >= 1");
}

void RateRouterBase::on_start(Engine& engine) {
  config_.validate();
  const std::size_t channels = engine.network().channel_count();
  prices_.assign(channels, ChannelPrices{});
  // channel_price() of the zero-initialised prices is 0 for every
  // direction, so the flat mirror starts at zero too.
  price_flat_.assign(2 * channels, 0.0);
  engine.schedule_timer(config_.tau_s, 0, kTickTimer);
}

void RateRouterBase::on_payment(Engine& engine, const pcn::Payment& payment) {
  const double delay = decision_delay(engine, payment);
  if (delay <= 0.0) {
    admit_demand(engine, payment);
  } else {
    // Typed deferred admit: the engine's PaymentState holds the payment, so
    // the timer only needs the id — no per-payment closure allocation.
    engine.schedule_timer(delay, payment.id, kAdmitTimer);
  }
}

void RateRouterBase::on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) {
  if (b == kTickTimer) {
    // workload_horizon() is queried per tick: for streaming sources it
    // grows as payments are pulled, so price updates keep running until the
    // tail payments' deadlines have passed. The tick re-arms last, after the
    // drips its sweep schedules, which fixes its place among same-instant
    // events.
    if (engine.past_horizon()) return;
    update_prices(engine);
    probe_pairs(engine);
    engine.schedule_timer(config_.tau_s, 0, kTickTimer);
    return;
  }
  if (b == kAdmitTimer) {
    // Checked lookup: the decision delay can outlive the payment, and a
    // resolved state may already be evicted.
    const auto* state = engine.find_payment_state(a);
    if (state == nullptr || !state->active()) return;  // already timed out
    // SPLICER_LINT_ALLOW(slab-alias-escape): admit_demand re-fetches the
    // state by payment.id before acting; its fail_payment path returns
    // without touching the ref again, and the drip scheduling that can
    // reach send_tu runs after the last read of the aliased payment.
    admit_demand(engine, state->payment);
    return;
  }
  const auto pair = static_cast<std::uint32_t>(a);
  pacing_[path_id(pair, b)].drip_scheduled = false;
  try_send(engine, pair, b);
}

void RateRouterBase::admit_demand(Engine& engine, const pcn::Payment& payment) {
  // Checked lookup: the decision delay can outlive the payment, and a
  // resolved state may already be evicted.
  const auto* state = engine.find_payment_state(payment.id);
  if (state == nullptr || !state->active()) return;  // already timed out
  const std::uint32_t pair = ensure_pair(engine, pair_of(engine, payment));
  if (pair == kNoPair) {
    engine.fail_payment(payment.id, FailReason::kNoPath);
    return;
  }
  *pair_of_payment_.emplace(payment.id, pair).first = pair;
  demand_pool_.push_back(pairs_[pair].demands, DemandEntry{payment.id, payment.value});
  for (std::size_t i = 0; i < pairs_[pair].path_count; ++i) {
    schedule_drip(engine, pair, i);
  }
}

std::vector<std::uint32_t>::const_iterator RateRouterBase::sweep_position(
    const PairKey& key) const {
  return std::lower_bound(
      sweep_order_.begin(), sweep_order_.end(), key,
      [this](std::uint32_t i, const PairKey& k) { return pairs_[i].key < k; });
}

std::uint32_t RateRouterBase::ensure_pair(Engine& engine, const PairKey& pair) {
#ifdef SPLICER_AUDIT
  if (audit_slice_held_) {
    throw std::logic_error("RateRouterBase: ensure_pair ran while try_send held a path slice");
  }
#endif
  const auto at = sweep_position(pair);
  if (at != sweep_order_.end() && pairs_[*at].key == pair) return *at;
  const auto sweep_index = at - sweep_order_.begin();

  const std::vector<graph::Path>& pair_paths = compute_pair_paths(engine, pair);
  const auto first_path = static_cast<std::uint32_t>(rate_tps_.size());
  for (const auto& p : pair_paths) {
    graph::Path& full = assembled_;
    if (!assemble_path(engine, pair.from, pair.to, p, full) || full.edges.empty()) {
      continue;
    }
    // One pass per hop fetches the channel record once for both the
    // capacity constraint (eq. 18: the sustained rate on a channel cannot
    // exceed c_ab / Delta; start at most there) and the directed hop index.
    double bottleneck = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < full.edges.size(); ++i) {
      const ChannelId e = full.edges[i];
      const auto& ch = engine.network().channel(e);
      bottleneck = std::min(bottleneck, common::to_tokens(ch.capacity()));
      const auto d = ch.direction_from(full.nodes[i]);
      hops_.push_back(static_cast<std::uint32_t>(2 * e + pcn::dir_index(d)));
    }
    hop_begin_.push_back(static_cast<std::uint32_t>(hops_.size()));
    path_nodes_.insert(path_nodes_.end(), full.nodes.begin(), full.nodes.end());
    path_edges_.insert(path_edges_.end(), full.edges.begin(), full.edges.end());
    const double capacity_rate = bottleneck / std::max(config_.delta_rtt_s, 1e-6);
    rate_tps_.push_back(std::min(config_.initial_rate_tps, capacity_rate));
    outstanding_.push_back(0);
    pacing_.push_back(PathPacing{.window = config_.initial_window});
  }
  const auto path_count = static_cast<std::uint32_t>(rate_tps_.size()) - first_path;
  if (path_count == 0) return kNoPair;
  const auto index = static_cast<std::uint32_t>(pairs_.size());
  pairs_.push_back(PairState{pair, first_path, path_count, {}});
  sweep_order_.insert(sweep_order_.begin() + sweep_index, index);
  return index;
}

const std::vector<graph::Path>& RateRouterBase::compute_pair_paths(
    Engine& engine, const PairKey& pair) {
  pair_paths_ = graph::select_paths(engine.network().topology(), pair.from, pair.to,
                                    config_.k_paths, config_.path_type);
  return pair_paths_;
}

void RateRouterBase::update_prices(Engine& engine) {
  const auto& network = engine.network();
  // Funds required to sustain the current arrival rates for one lock
  // duration Delta (n_a + n_b of eq. 21), per token arrived this window.
  const double scale = config_.delta_rtt_s / config_.tau_s;
  for (ChannelId c = 0; c < network.channel_count(); ++c) {
    auto& p = prices_[c];
    const auto& ch = network.channel(c);
    const double capacity_tokens = common::to_tokens(ch.capacity());
    const double required =
        (p.arrived_tokens[0] + p.arrived_tokens[1]) * scale;
    const double cap = std::max(capacity_tokens, 1e-9);
    p.lambda = std::clamp(
        p.lambda + config_.kappa * (required - capacity_tokens) / cap, 0.0,
        config_.max_price);
    // Imbalance urgency: the same net drain matters in proportion to the
    // funds remaining on the side being drained - the quantity the balance
    // constraint (eq. 19) ultimately protects. The cap/3 ceiling engages
    // the brake while headroom still exists (a side holding most of the
    // channel is not "safe" if the drain rate empties it within seconds).
    const double imbalance_tokens = p.arrived_tokens[0] - p.arrived_tokens[1];
    const double floor_tokens = 0.01 * cap;
    const double draining_side = common::to_tokens(
        ch.available(imbalance_tokens >= 0 ? pcn::Direction::kForward
                                           : pcn::Direction::kBackward));
    const double normaliser =
        std::clamp(draining_side, floor_tokens, cap / 3.0);
    const double urgency = imbalance_tokens / normaliser;
    p.mu[0] = std::clamp(p.mu[0] + config_.eta * urgency, 0.0, config_.max_price);
    p.mu[1] = std::clamp(p.mu[1] - config_.eta * urgency, 0.0, config_.max_price);
    p.lambda *= config_.price_decay;
    p.mu[0] *= config_.price_decay;
    p.mu[1] *= config_.price_decay;
    p.arrived_tokens[0] = 0.0;
    p.arrived_tokens[1] = 0.0;
    // Mirror into the flat per-direction array read by probes and fee
    // schedules until the next tick (prices only change here).
    price_flat_[2 * c] = channel_price(c, pcn::Direction::kForward);
    price_flat_[2 * c + 1] = channel_price(c, pcn::Direction::kBackward);
  }
}

double RateRouterBase::channel_price(ChannelId channel, pcn::Direction d) const {
  const auto& p = prices_.at(channel);
  const auto di = pcn::dir_index(d);
  return std::max(0.0, 2.0 * p.lambda + p.mu[di] - p.mu[1 - di]);
}

double RateRouterBase::fee_rate(ChannelId channel, pcn::Direction d) const {
  return fee_from_price(channel_price(channel, d));
}

double RateRouterBase::path_price(std::uint32_t path) const {
  double price = 0.0;
  for (std::uint32_t h = hop_begin_[path]; h < hop_begin_[path + 1]; ++h) {
    price += price_flat_[hops_[h]];
  }
  return price * (1.0 + config_.t_fee);
}

void RateRouterBase::probe_pairs(Engine& engine) {
#ifdef SPLICER_AUDIT
  audit_demand_pool();
#endif
  // Pass 1, rates: a pair's update reads only its own paths and this
  // tick's price array, so pairs go in storage order — a linear scan of
  // the flat per-path arrays.
  std::uint64_t probes = 0;
  for (const PairState& pair : pairs_) {
    const std::uint32_t begin = pair.first_path;
    const std::uint32_t end = begin + pair.path_count;
    // Probe messages are only sent on paths that carry or await traffic,
    // but the rate state always integrates the latest prices.
    bool active = !pair.demands.empty();
    double total_rate = 0.0;
    for (std::uint32_t p = begin; p < end; ++p) {
      active = active || outstanding_[p] > 0;
      total_rate += rate_tps_[p];
    }
    if (active) probes += hop_begin_[end] - hop_begin_[begin];
    const double marginal_utility = 1.0 / std::max(total_rate, 1e-9);
    for (std::uint32_t p = begin; p < end; ++p) {
      // Eq. (26): r_p += alpha (U'(r) - rho_p) with U = log.
      const double gradient = marginal_utility - path_price(p);
      rate_tps_[p] = std::clamp(rate_tps_[p] + config_.alpha * gradient,
                                config_.min_rate_tps, config_.max_rate_tps);
    }
  }
  engine.counters().probe_messages += probes;
  // Pass 2, drips: schedule_drip(i) reads only path i, which pass 1 has
  // finished writing, and sweep_order_ is the sorted pair order the frozen
  // event stream was recorded with.
  for (const std::uint32_t pair : sweep_order_) {
    if (pairs_[pair].demands.empty()) continue;
    for (std::size_t i = 0; i < pairs_[pair].path_count; ++i) {
      schedule_drip(engine, pair, i);
    }
  }
}

std::vector<RateRouterBase::PathDiagnostics> RateRouterBase::pair_diagnostics(
    NodeId from, NodeId to) const {
  std::vector<PathDiagnostics> out;
  const PairKey key{from, to};
  const auto at = sweep_position(key);
  if (at == sweep_order_.end() || pairs_[*at].key != key) return out;
  const PairState& pair = pairs_[*at];
  for (std::uint32_t p = pair.first_path; p < pair.first_path + pair.path_count;
       ++p) {
    out.push_back(PathDiagnostics{rate_tps_[p], pacing_[p].window, path_price(p),
                                  outstanding_[p], hop_begin_[p + 1] - hop_begin_[p]});
  }
  return out;
}

const std::vector<Amount>& RateRouterBase::fee_schedule(
    const pcn::Network& network, std::uint32_t path, Amount value) const {
  // hop_amounts[i] = value + downstream fees; fees follow eq. (24) with the
  // current fee rates, charged on the forwarded amount, plus each hop
  // channel's hostile-world policy fee (base + proportional). The
  // precomputed hop indices avoid re-deriving each hop's direction per TU;
  // the flat price array yields the same fee_rate doubles bit for bit, and
  // an all-default policy adds exact zero to both terms.
  const std::uint32_t* hops = hops_.data() + hop_begin_[path];
  const std::size_t hop_count = hop_begin_[path + 1] - hop_begin_[path];
  auto& amounts = fee_scratch_;
  amounts.resize(hop_count);
  Amount carry = value;
  for (std::size_t i = hop_count; i-- > 0;) {
    amounts[i] = carry;
    if (i == 0) break;
    const std::uint32_t idx = hops[i];
    const pcn::ChannelPolicy& policy =
        network.channel(static_cast<ChannelId>(idx / 2)).policy();
    const double rate =
        fee_from_price(price_flat_[idx]) + policy.fee_proportional;
    const auto fee = static_cast<Amount>(
        std::llround(rate * static_cast<double>(carry)));
    carry += std::max<Amount>(fee, 0) + std::max<Amount>(policy.fee_base, 0);
  }
  return amounts;
}

void RateRouterBase::schedule_drip(Engine& engine, std::uint32_t pair,
                                   std::size_t path_index) {
  const std::uint32_t path = path_id(pair, path_index);
  PathPacing& pacing = pacing_[path];
  if (pacing.drip_scheduled) return;
  if (engine.past_horizon()) return;
  pacing.drip_scheduled = true;
  const double delay = std::max(0.0, earliest_send(path) - engine.now());
  // Typed drip timer (one per TU send on the hot path): POD fields in the
  // scheduler pool instead of a heap-allocated closure per drip.
  engine.schedule_timer(delay, pair, path_index);
}

void RateRouterBase::try_send(Engine& engine, std::uint32_t pair,
                              std::size_t path_index) {
  const std::uint32_t path = path_id(pair, path_index);
  if (engine.past_horizon()) return;
  if (engine.now() + 1e-12 < earliest_send(path)) {
    schedule_drip(engine, pair, path_index);  // pacing not yet satisfied
    return;
  }
  if (outstanding_[path] >= static_cast<std::size_t>(
                                std::max(1.0, std::floor(pacing_[path].window)))) {
    return;  // window-bound; re-armed on delivery/failure
  }
  // Pop exhausted/inactive demands. An evicted state (nullptr) counts as
  // inactive, exactly like a still-resident resolved state.
  auto& demands = pairs_[pair].demands;
  const PaymentState* front_state = nullptr;
  while (!demands.empty()) {
    const auto& front = demand_pool_.front(demands);
    front_state = engine.find_payment_state(front.payment);
    if (front.remaining <= 0 || front_state == nullptr ||
        !front_state->active()) {
      demand_pool_.pop_front(demands);
      continue;
    }
    break;
  }
  if (demands.empty()) return;
  // The path store does not move until the next ensure_pair, which nothing
  // below reaches: send_tu copies the slice before any hook runs.
  const graph::PathView full = full_path(path);
#ifdef SPLICER_AUDIT
  audit_slice_held_ = true;
  struct SliceRelease {
    bool& held;
    ~SliceRelease() { held = false; }
  } slice_release{audit_slice_held_};
#endif
  // Hostile-world dispatch gate: the pair's path set is computed once, so a
  // mutation obstructing this path (closed channel, offline node, timelock
  // over budget) is discovered here, at send time, against current network
  // state — hold and retry like a funds-short admit; a reopened channel or
  // recovered node makes the path usable again with no path recompute.
  if (path_obstruction(engine.network(), full,
                       engine.config().hostile.timelock_budget)) {
    pacing_[path].hold_until = std::max(pacing_[path].hold_until, engine.now() + 0.05);
    schedule_drip(engine, pair, path_index);
    return;
  }
  auto& entry = demand_pool_.front(demands);
  const auto& payment_state = *front_state;

  // TU sizing: Min-TU <= |d_i| <= Max-TU, avoiding a sub-Min-TU crumb.
  Amount tu_value;
  if (entry.remaining <= config_.max_tu) {
    tu_value = entry.remaining;
  } else if (entry.remaining - config_.max_tu < config_.min_tu) {
    tu_value = entry.remaining - config_.min_tu;
  } else {
    tu_value = config_.max_tu;
  }
  tu_value = std::max<Amount>(tu_value, 1);

  const auto& hop_amounts = fee_schedule(engine.network(), path, tu_value);
  if (!admit_tu(engine, full, hop_amounts)) {
    // Downstream funds are short (F_ab < |d_i|): hold at the source and
    // retry shortly instead of locking a doomed HTLC chain.
    pacing_[path].hold_until = std::max(pacing_[path].hold_until, engine.now() + 0.05);
    schedule_drip(engine, pair, path_index);
    return;
  }

  // Views of the path store and the fee scratch: send_tu copies both.
  TransactionUnit tu;
  tu.payment = entry.payment;
  tu.value = tu_value;
  tu.path = full;
  tu.hop_amounts = hop_amounts;
  tu.deadline = payment_state.payment.deadline;
  tu.path_index = path_index;
  entry.remaining -= tu_value;
  ++outstanding_[path];
  engine.send_tu(tu);

  PathPacing& pacing = pacing_[path];
  pacing.last_send = engine.now();
  pacing.last_tu_tokens = common::to_tokens(tu_value);
  schedule_drip(engine, pair, path_index);
}

void RateRouterBase::on_tu_delivered(Engine& engine, const TransactionUnit& tu) {
  const std::uint32_t* found = pair_of_payment_.find(tu.payment);
  if (found == nullptr) return;
  const std::uint32_t pair = *found;
  const std::uint32_t begin = pairs_[pair].first_path;
  const std::uint32_t end = begin + pairs_[pair].path_count;
  const std::uint32_t path = path_id(pair, tu.path_index);
  if (outstanding_[path] > 0) --outstanding_[path];
  // Eq. (28): window grows by gamma / sum of the pair's windows.
  double window_sum = 0.0;
  for (std::uint32_t p = begin; p < end; ++p) window_sum += pacing_[p].window;
  pacing_[path].window =
      std::clamp(pacing_[path].window + config_.gamma / std::max(window_sum, 1e-9),
                 config_.min_window, config_.max_window);
  schedule_drip(engine, pair, tu.path_index);
}

void RateRouterBase::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                                  FailReason reason) {
  const std::uint32_t* found = pair_of_payment_.find(tu.payment);
  if (found == nullptr) return;
  const std::uint32_t pair = *found;
  const std::uint32_t path = path_id(pair, tu.path_index);
  if (outstanding_[path] > 0) --outstanding_[path];
  if (reason == FailReason::kMarkedCongested ||
      reason == FailReason::kQueueOverflow) {
    // Eq. (27): the aborted TU shrinks the window by beta.
    pacing_[path].window = std::clamp(pacing_[path].window - config_.beta,
                                      config_.min_window, config_.max_window);
  }
  // Unserved value is retried (front of the queue) while the deadline holds.
  const auto* payment_state = engine.find_payment_state(tu.payment);
  if (payment_state != nullptr && payment_state->active() &&
      engine.now() < payment_state->payment.deadline) {
    demand_pool_.push_front(pairs_[pair].demands, DemandEntry{tu.payment, tu.value});
  }
  for (std::size_t i = 0; i < pairs_[pair].path_count; ++i) {
    schedule_drip(engine, pair, i);
  }
}

void RateRouterBase::on_payment_resolved(Engine& engine, PaymentId payment) {
  (void)engine;
  // Quiescent: no TU of this payment can ever reach on_tu_delivered /
  // on_tu_failed again (both tolerate the missing entry regardless), so the
  // pair lookup entry is dead weight from here on. The pair itself stays —
  // its paths, rates and windows are shared by every payment of the pair.
  pair_of_payment_.erase(payment);
}

void RateRouterBase::on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                                     ChannelId channel, pcn::Direction direction) {
  (void)engine;
  // m_a accumulation for eq. (22): value arriving into this direction.
  prices_.at(channel).arrived_tokens[pcn::dir_index(direction)] +=
      common::to_tokens(tu.hop_amounts[tu.next_hop]);
}

#ifdef SPLICER_AUDIT
std::size_t RateRouterBase::DemandPool::length(std::uint32_t node) const {
  std::size_t count = 0;
  for (; node != kNone; node = nodes_[node].next) {
    if (++count > nodes_.size()) {
      throw std::logic_error("RateRouterBase: demand list has a cycle");
    }
  }
  return count;
}

void RateRouterBase::audit_demand_pool() const {
  std::size_t nodes = demand_pool_.free_length();
  for (const PairState& pair : pairs_) nodes += demand_pool_.length(pair.demands.head);
  if (nodes != demand_pool_.size()) {
    throw std::logic_error("RateRouterBase: demand pool leaked or shared a node");
  }
}
#endif

}  // namespace splicer::routing
