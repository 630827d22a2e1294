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

  // workload_horizon() is queried per tick: for streaming sources it grows
  // as payments are pulled, so price updates keep running until the tail
  // payments' deadlines have passed (replay sources report it exactly from
  // the start, matching the old materialised-vector scan).
  engine.scheduler().every(config_.tau_s, [this, &engine] {
    if (engine.past_horizon()) return false;
    run_protocol_tick(engine);
    on_tick(engine);
    return true;
  });
}

void RateRouterBase::run_protocol_tick(Engine& engine) {
  update_prices(engine);
  probe_pairs(engine);
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
  if (b == kAdmitTimer) {
    // Checked lookup: the decision delay can outlive the payment, and a
    // resolved state may already be evicted (streaming retention contract).
    const auto* state = engine.find_payment_state(a);
    if (state == nullptr || !state->active()) return;  // already timed out
    // SPLICER_LINT_ALLOW(slab-alias-escape): admit_demand re-fetches the
    // state by payment.id before acting; its fail_payment path returns
    // without touching the ref again, and the drip scheduling that can
    // reach send_tu runs after the last read of the aliased payment.
    admit_demand(engine, state->payment);
    return;
  }
  const PairKey pair = unpack_pair(a);
  pair_state(pair).paths[b].drip_scheduled = false;
  try_send(engine, pair, b);
}

void RateRouterBase::admit_demand(Engine& engine, const pcn::Payment& payment) {
  // Checked lookup: the decision delay can outlive the payment, and a
  // resolved state may already be evicted (streaming retention contract).
  const auto* state = engine.find_payment_state(payment.id);
  if (state == nullptr || !state->active()) return;  // already timed out
  const PairKey pair = pair_of(engine, payment);
  PairState* ps = ensure_pair(engine, pair);
  if (ps == nullptr || ps->paths.empty()) {
    engine.fail_payment(payment.id, FailReason::kNoPath);
    return;
  }
  pair_of_payment_[payment.id] = pair;
  ps->demands.push_back(DemandEntry{payment.id, payment.value});
  for (std::size_t i = 0; i < ps->paths.size(); ++i) {
    schedule_drip(engine, pair, i);
  }
}

RateRouterBase::PairState* RateRouterBase::ensure_pair(Engine& engine,
                                                       const PairKey& pair) {
  const auto it = pairs_.find(pair);
  if (it != pairs_.end()) return &it->second;

  PairState state;
  // SPLICER_LINT_ALLOW(hotpath-alloc): first-touch pair construction — runs
  // once per (src, dst) pair on its first demand, never per TU or per tick.
  const std::vector<graph::Path> pair_paths = compute_pair_paths(engine, pair);
  // SPLICER_LINT_ALLOW(hotpath-alloc): same first-touch path — sizes the
  // pair's path list once for the pair's lifetime.
  state.paths.reserve(pair_paths.size());
  for (const auto& p : pair_paths) {
    auto full = assemble_path(engine, pair.from, pair.to, p);
    if (!full || full->edges.empty()) continue;
    PathState path_state;
    // One pass per hop fetches the channel record once for both the
    // capacity constraint (eq. 18: the sustained rate on a channel cannot
    // exceed c_ab / Delta; start at most there) and the directed hop index.
    double bottleneck = std::numeric_limits<double>::infinity();
    // SPLICER_LINT_ALLOW(hotpath-alloc): first-touch pair construction —
    // the hop index is built once per path when the pair is created.
    path_state.hop_index.reserve(full->edges.size());
    for (std::size_t i = 0; i < full->edges.size(); ++i) {
      const ChannelId e = full->edges[i];
      const auto& ch = engine.network().channel(e);
      bottleneck = std::min(bottleneck, common::to_tokens(ch.capacity()));
      const auto d = ch.direction_from(full->nodes[i]);
      path_state.hop_index.push_back(
          static_cast<std::uint32_t>(2 * e + pcn::dir_index(d)));
    }
    const double capacity_rate = bottleneck / std::max(config_.delta_rtt_s, 1e-6);
    path_state.full_path = std::move(*full);
    path_state.rate_tps = std::min(config_.initial_rate_tps, capacity_rate);
    path_state.window = config_.initial_window;
    state.paths.push_back(std::move(path_state));
  }
  if (state.paths.empty()) return nullptr;
  PairState* stored = &pairs_.emplace(pair, std::move(state)).first->second;
  pair_index_.emplace(pack_pair(pair), stored);
  return stored;
}

// SPLICER_LINT_ALLOW(hotpath-alloc): first-touch pair construction — path
// selection runs once per pair (ensure_pair miss), never per TU or per tick.
std::vector<graph::Path> RateRouterBase::compute_pair_paths(
    Engine& engine, const PairKey& pair) const {
  return graph::select_paths(engine.network().topology(), pair.from, pair.to,
                             config_.k_paths, config_.path_type);
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

double RateRouterBase::path_price(const PathState& path) const {
  double price = 0.0;
  for (const std::uint32_t idx : path.hop_index) price += price_flat_[idx];
  return price * (1.0 + config_.t_fee);
}

void RateRouterBase::probe_pairs(Engine& engine) {
  // pairs_ is ordered, so the drip events this sweep schedules come out in
  // the sorted pair order the frozen event stream was recorded with.
  for (auto& [pair, state] : pairs_) {
    // Probe messages are only sent on paths that carry or await traffic,
    // but the rate state always integrates the latest prices.
    bool active = !state.demands.empty();
    for (const auto& path : state.paths) active = active || path.outstanding > 0;
    const double total_rate = std::max(total_pair_rate(state), 1e-9);
    for (std::size_t i = 0; i < state.paths.size(); ++i) {
      auto& path = state.paths[i];
      if (active) engine.counters().probe_messages += path.full_path.edges.size();
      // Eq. (26): r_p += alpha (U'(r) - rho_p) with U = log.
      const double gradient = 1.0 / total_rate - path_price(path);
      path.rate_tps = std::clamp(path.rate_tps + config_.alpha * gradient,
                                 config_.min_rate_tps, config_.max_rate_tps);
      if (!state.demands.empty()) schedule_drip(engine, pair, i);
    }
  }
}

std::vector<RateRouterBase::PathDiagnostics> RateRouterBase::pair_diagnostics(
    NodeId from, NodeId to) const {
  std::vector<PathDiagnostics> out;
  const auto it = pairs_.find(PairKey{from, to});
  if (it == pairs_.end()) return out;
  for (const auto& path : it->second.paths) {
    out.push_back(PathDiagnostics{path.rate_tps, path.window, path_price(path),
                                  path.outstanding, path.full_path.edges.size()});
  }
  return out;
}

double RateRouterBase::total_pair_rate(const PairState& pair) const {
  double total = 0.0;
  for (const auto& path : pair.paths) total += path.rate_tps;
  return total;
}

const std::vector<Amount>& RateRouterBase::fee_schedule(
    const pcn::Network& network, const PathState& path, Amount value) const {
  // hop_amounts[i] = value + downstream fees; fees follow eq. (24) with the
  // current fee rates, charged on the forwarded amount, plus each hop
  // channel's hostile-world policy fee (base + proportional). The
  // precomputed hop_index avoids re-deriving each hop's direction per TU;
  // the flat price array yields the same fee_rate doubles bit for bit, and
  // an all-default policy adds exact zero to both terms.
  auto& amounts = fee_scratch_;
  // SPLICER_LINT_ALLOW(hotpath-alloc): per-router scratch — grows to the
  // longest path's hop count once, then every resize is within capacity.
  amounts.resize(path.hop_index.size());
  Amount carry = value;
  for (std::size_t i = path.hop_index.size(); i-- > 0;) {
    amounts[i] = carry;
    if (i == 0) break;
    const std::uint32_t idx = path.hop_index[i];
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

void RateRouterBase::schedule_drip(Engine& engine, const PairKey& pair,
                                   std::size_t path_index) {
  auto& state = pair_state(pair);
  auto& path = state.paths[path_index];
  if (path.drip_scheduled) return;
  if (engine.past_horizon()) return;
  path.drip_scheduled = true;
  const double delay =
      std::max(0.0, path.earliest_send(config_.min_rate_tps) - engine.now());
  // Typed drip timer (one per TU send on the hot path): POD fields in the
  // scheduler pool instead of a heap-allocated closure per drip.
  engine.schedule_timer(delay, pack_pair(pair), path_index);
}

void RateRouterBase::try_send(Engine& engine, const PairKey& pair,
                              std::size_t path_index) {
  auto& state = pair_state(pair);
  auto& path = state.paths[path_index];
  if (engine.past_horizon()) return;
  if (engine.now() + 1e-12 < path.earliest_send(config_.min_rate_tps)) {
    schedule_drip(engine, pair, path_index);  // pacing not yet satisfied
    return;
  }
  if (path.outstanding >= static_cast<std::size_t>(
                              std::max(1.0, std::floor(path.window)))) {
    return;  // window-bound; re-armed on delivery/failure
  }
  // Pop exhausted/inactive demands. Evicted states (resolved payments whose
  // PaymentState is already gone under the retention contract) count as
  // inactive, exactly like a still-resident resolved state.
  const PaymentState* front_state = nullptr;
  while (!state.demands.empty()) {
    const auto& front = state.demands.front();
    front_state = engine.find_payment_state(front.payment);
    if (front.remaining <= 0 || front_state == nullptr ||
        !front_state->active()) {
      state.demands.pop_front();
      continue;
    }
    break;
  }
  if (state.demands.empty()) return;
  // Hostile-world dispatch gate: the pair's path set is computed once, so a
  // mutation obstructing this path (closed channel, offline node, timelock
  // over budget) is discovered here, at send time, against current network
  // state — hold and retry like a funds-short admit; a reopened channel or
  // recovered node makes the path usable again with no path recompute.
  if (path_obstruction(engine.network(), path.full_path,
                       engine.config().hostile.timelock_budget)) {
    path.hold_until = std::max(path.hold_until, engine.now() + 0.05);
    schedule_drip(engine, pair, path_index);
    return;
  }
  auto& entry = state.demands.front();
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
  if (!admit_tu(engine, path.full_path, hop_amounts)) {
    // Downstream funds are short (F_ab < |d_i|): hold at the source and
    // retry shortly instead of locking a doomed HTLC chain.
    path.hold_until = std::max(path.hold_until, engine.now() + 0.05);
    schedule_drip(engine, pair, path_index);
    return;
  }

  TransactionUnit tu;
  tu.payment = entry.payment;
  tu.value = tu_value;
  tu.path = path.full_path;
  tu.hop_amounts = hop_amounts;  // the TU owns its schedule; scratch is reused
  tu.deadline = payment_state.payment.deadline;
  tu.path_index = path_index;
  entry.remaining -= tu_value;
  ++path.outstanding;
  engine.send_tu(std::move(tu));

  path.last_send = engine.now();
  path.last_tu_tokens = common::to_tokens(tu_value);
  schedule_drip(engine, pair, path_index);
}

void RateRouterBase::on_tu_delivered(Engine& engine, const TransactionUnit& tu) {
  const auto it = pair_of_payment_.find(tu.payment);
  if (it == pair_of_payment_.end()) return;
  auto& state = pair_state(it->second);
  auto& path = state.paths[tu.path_index];
  if (path.outstanding > 0) --path.outstanding;
  // Eq. (28): window grows by gamma / sum of the pair's windows.
  double window_sum = 0.0;
  for (const auto& p : state.paths) window_sum += p.window;
  path.window = std::clamp(path.window + config_.gamma / std::max(window_sum, 1e-9),
                           config_.min_window, config_.max_window);
  schedule_drip(engine, it->second, tu.path_index);
}

void RateRouterBase::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                                  FailReason reason) {
  const auto it = pair_of_payment_.find(tu.payment);
  if (it == pair_of_payment_.end()) return;
  const PairKey pair = it->second;
  auto& state = pair_state(pair);
  auto& path = state.paths[tu.path_index];
  if (path.outstanding > 0) --path.outstanding;
  if (reason == FailReason::kMarkedCongested ||
      reason == FailReason::kQueueOverflow) {
    // Eq. (27): the aborted TU shrinks the window by beta.
    path.window = std::clamp(path.window - config_.beta, config_.min_window,
                             config_.max_window);
  }
  // Unserved value is retried (front of the queue) while the deadline holds.
  const auto* payment_state = engine.find_payment_state(tu.payment);
  if (payment_state != nullptr && payment_state->active() &&
      engine.now() < payment_state->payment.deadline) {
    state.demands.push_front(DemandEntry{tu.payment, tu.value});
  }
  for (std::size_t i = 0; i < state.paths.size(); ++i) {
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

}  // namespace splicer::routing
