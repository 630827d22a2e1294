#include "routing/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace splicer::routing {

const char* to_string(SchedulingPolicy policy) noexcept {
  switch (policy) {
    case SchedulingPolicy::kFifo: return "FIFO";
    case SchedulingPolicy::kLifo: return "LIFO";
    case SchedulingPolicy::kSpf: return "SPF";
    case SchedulingPolicy::kEdf: return "EDF";
  }
  return "?";
}

const char* to_string(FailReason reason) noexcept {
  switch (reason) {
    case FailReason::kNoPath: return "no-path";
    case FailReason::kInsufficientFunds: return "insufficient-funds";
    case FailReason::kMarkedCongested: return "marked-congested";
    case FailReason::kQueueOverflow: return "queue-overflow";
    case FailReason::kTimeout: return "timeout";
    case FailReason::kHubOverload: return "hub-overload";
    case FailReason::kNodeOffline: return "node-offline";
    case FailReason::kChannelClosed: return "channel-closed";
  }
  return "?";
}

void EngineConfig::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("EngineConfig: ") + what);
  };
  // The `> 0` tests that pick batched mode would read a negative or NaN
  // epoch as exact mode without a word.
  if (!(settlement_epoch_s >= 0)) fail("settlement_epoch_s must be >= 0");
  if (!(hop_delay_s >= 0)) fail("hop_delay_s must be >= 0");
  if (!(process_rate_tokens_per_s > 0)) {
    fail("process_rate_tokens_per_s must be > 0");
  }
}

Engine::Engine(pcn::Network network, std::unique_ptr<pcn::TrafficSource> source,
               Router& router, EngineConfig config)
    : network_(std::move(network)),
      source_(std::move(source)),
      router_(router),
      config_(config),
      rng_(config.seed) {
  if (!source_) throw std::invalid_argument("Engine: null traffic source");
  config_.validate();
  scheduler_.set_sink(this);
  source_horizon_ = source_->horizon_hint();
  directed_.resize(2 * network_.channel_count());
  batcher_.pending.resize(2 * network_.channel_count());
  initial_funds_ = network_.total_funds();
}

std::int64_t Engine::arrival_tick(double when) noexcept {
  // Nanosecond grid: times this close are "the same instant" for arrival
  // coalescing (hop delays are milliseconds), and the integer key makes
  // same-instant equality exact instead of bit-pattern luck.
  return static_cast<std::int64_t>(std::llround(when * 1e9));
}

void Engine::handle_event(const sim::EngineEvent& event) {
  using Kind = sim::EngineEvent::Kind;
  switch (event.kind) {
    case Kind::kArrival: {
      const pcn::Payment payment = std::move(*staged_arrival_);
      staged_arrival_.reset();
      on_arrival(payment);
      break;
    }
    case Kind::kDeadline:
      on_payment_deadline(static_cast<PaymentId>(event.a));
      break;
    case Kind::kAttemptHop:
      attempt_hop(static_cast<TuId>(event.a));
      break;
    case Kind::kArriveNext:
      arrive_next(static_cast<TuId>(event.a));
      break;
    case Kind::kArrivalBucket:
      fire_arrival_bucket(static_cast<std::int64_t>(event.a));
      break;
    case Kind::kReleaseTu:
      release_live_tu(static_cast<TuId>(event.a));
      break;
    case Kind::kSettleAck:
    case Kind::kRefundAck: {
      auto& ch = network_.channel(event.channel);
      const pcn::Direction d = ch.direction_from(event.aux);
      const auto amount = static_cast<Amount>(event.a);
      ++metrics_.messages.ack_messages;
      if (event.kind == Kind::kSettleAck) {
        ch.settle(d, amount);
        // The receiving side gained spendable funds: opposite direction.
        drain_queue(event.channel, pcn::opposite(d));
      } else {
        ch.refund(d, amount);
        // The payer side regained spendable funds: same direction.
        drain_queue(event.channel, d);
      }
      break;
    }
    case Kind::kMark: {
      const auto id = static_cast<TuId>(event.a);
      const ChannelId channel = event.channel;
      const auto d = static_cast<pcn::Direction>(event.aux);
      auto& state = directed(channel, d);
      const auto pos = std::find_if(
          state.queue.begin(), state.queue.end(),
          [id](const QueuedTu& q) { return q.id == id; });
      if (pos == state.queue.end()) break;  // already drained
      state.queued_value -= pos->amount;
      state.queue.erase(pos);
      check_queue_invariant(channel, d);
      const LiveTu* live = live_.find(id);
      // Stale (resolved elsewhere): the accounting was released above and
      // there is nothing left to fail.
      if (live == nullptr || live->resolved) break;
      fail_tu(id, FailReason::kMarkedCongested);
      break;
    }
    case Kind::kDrain:
      directed(event.channel, static_cast<pcn::Direction>(event.aux))
          .drain_pending = false;
      drain_queue(event.channel, static_cast<pcn::Direction>(event.aux));
      break;
    case Kind::kFlush:
      batcher_.flush_scheduled = false;
      ++metrics_.settlement_flushes;
      flush_settlements(/*drain=*/true);
      break;
    case Kind::kRouterTimer:
      router_.on_timer(*this, event.a, event.b);
      break;
    case Kind::kMutation: {
      const auto idx = static_cast<std::size_t>(event.a);
      const pcn::MutationEvent mutation = *staged_mutations_[idx];
      staged_mutations_[idx] = mutators_[idx]->next();
      apply_mutation(mutation);
      schedule_next_mutation();
      break;
    }
    case Kind::kNone:  // Scheduler::at rejects it
      throw std::logic_error("Engine: kNone event reached the sink");
  }
}

Engine::Engine(pcn::Network network, std::vector<pcn::Payment> payments,
               Router& router, EngineConfig config)
    : Engine(std::move(network),
             std::make_unique<pcn::VectorSource>(std::move(payments)), router,
             config) {}

EngineMetrics Engine::run() {
  init_mutators();
  router_.on_start(*this);
  schedule_next_arrival();
  schedule_next_mutation();

  // The hard stop tracks the deadlines pulled so far; streamed arrivals
  // keep extending it, so the loop re-runs until the bound stabilises (for
  // replay sources the final bound equals the old whole-vector scan).
  double hard_stop = last_deadline_seen_ + config_.horizon_slack_s + 60.0;
  for (;;) {
    metrics_.scheduler_events += scheduler_.run(hard_stop);
    const double extended =
        last_deadline_seen_ + config_.horizon_slack_s + 60.0;
    if (scheduler_.empty() || extended <= hard_stop) break;
    hard_stop = extended;
  }

  metrics_.simulated_seconds = scheduler_.now();
  if (config_.settlement_epoch_s > 0) {
    // Apply any residue whose flush boundary fell past the hard stop so the
    // final network state is fully settled; no queue retries — the
    // simulation is over.
    flush_settlements(/*drain=*/false);
  }
  // Deadlock witnesses for the churn stress gate: anything still alive or
  // queued at run end is wedged liquidity (benign AND hostile runs must
  // both end at zero — every ack chain, mark event and refund fires before
  // the deadline-driven hard stop).
  metrics_.resident_tus_at_end = live_.size();
  Amount wedged = 0;
  for (const DirectedState& ds : directed_) wedged += ds.queued_value;
  metrics_.wedged_queue_value = wedged;
  if (network_.total_funds() != initial_funds_) {
    throw std::logic_error("Engine: funds-conservation violation");
  }
  return metrics_;
}

void Engine::init_mutators() {
  if (!config_.hostile.any_mutation_active()) return;
  // Mutations cover the workload plus the slack tail.
  const double horizon = workload_horizon() + config_.horizon_slack_s;
  mutators_ = pcn::make_mutators(config_.hostile, network_.node_count(),
                                 network_.channel_count(), horizon);
  staged_mutations_.clear();
  staged_mutations_.reserve(mutators_.size());
  for (auto& mutator : mutators_) staged_mutations_.push_back(mutator->next());
  node_down_depth_.assign(network_.node_count(), 0);
  channel_close_depth_.assign(network_.channel_count(), 0);
}

void Engine::schedule_next_mutation() {
  // One kMutation event in flight at a time: each firing re-stages its
  // mutator and re-arms the global minimum. Strict < keeps equal-timestamp
  // events firing in ascending mutator-index order (the construction order
  // pinned by make_mutators).
  std::size_t best = staged_mutations_.size();
  for (std::size_t i = 0; i < staged_mutations_.size(); ++i) {
    if (!staged_mutations_[i]) continue;
    if (best == staged_mutations_.size() ||
        staged_mutations_[i]->time < staged_mutations_[best]->time) {
      best = i;
    }
  }
  if (best == staged_mutations_.size()) return;
  scheduler_.at(staged_mutations_[best]->time,
                sim::EngineEvent{.kind = sim::EngineEvent::Kind::kMutation,
                                 .channel = 0,
                                 .aux = 0,
                                 .a = best});
}

void Engine::apply_mutation(const pcn::MutationEvent& event) {
  ++metrics_.mutation_events;
  using Kind = pcn::MutationEvent::Kind;
  switch (event.kind) {
    // Fault and churn flags flip only on the 0<->1 depth transition so
    // overlapping windows from independent primary draws stay idempotent;
    // the paired recovery event unwinds one level.
    case Kind::kNodeDown:
      if (node_down_depth_[event.node]++ == 0) {
        network_.set_node_online(event.node, false);
      }
      break;
    case Kind::kNodeUp:
      if (node_down_depth_[event.node] > 0 &&
          --node_down_depth_[event.node] == 0) {
        network_.set_node_online(event.node, true);
      }
      break;
    case Kind::kChannelClose:
      if (channel_close_depth_[event.channel]++ == 0) {
        network_.channel(event.channel).set_closed(true);
        on_channel_close(event.channel);
      }
      break;
    case Kind::kChannelReopen:
      if (channel_close_depth_[event.channel] > 0 &&
          --channel_close_depth_[event.channel] == 0) {
        network_.channel(event.channel).set_closed(false);
      }
      break;
    case Kind::kFeePolicy: {
      auto& ch = network_.channel(event.channel);
      pcn::ChannelPolicy policy = ch.policy();
      policy.fee_base = event.policy.fee_base;
      policy.fee_proportional = event.policy.fee_proportional;
      policy.min_htlc = event.policy.min_htlc;
      ch.set_policy(policy);
      break;
    }
    case Kind::kTimelock: {
      auto& ch = network_.channel(event.channel);
      pcn::ChannelPolicy policy = ch.policy();
      policy.timelock = event.policy.timelock;
      ch.set_policy(policy);
      break;
    }
  }
}

void Engine::on_channel_close(ChannelId channel) {
  // The flag is already set, so any retry a failure callback triggers hits
  // the attempt_hop backstop instead of re-entering this channel's queues.
  //
  // Drain both waiting queues first: every queued TU fails with
  // kChannelClosed, releasing its queued_value and cancelling its mark
  // event — drain_queue's stale bookkeeping minus the retry. A failure
  // callback cannot reach these queues: attempt_hop refuses any retry onto
  // this channel before it could enqueue (and the indexed walk would still
  // fail an entry appended mid-way).
  for (const pcn::Direction d :
       {pcn::Direction::kForward, pcn::Direction::kBackward}) {
    auto& ds = directed(channel, d);
    for (std::size_t i = 0; i < ds.queue.size(); ++i) {
      const QueuedTu entry = ds.queue[i];
      ds.queued_value -= entry.amount;
      scheduler_.cancel(entry.mark_event);
      fail_tu(entry.id, FailReason::kChannelClosed);
    }
    ds.queue.clear();
    check_queue_invariant(channel, d);
  }
  // Then refund every unresolved resident TU holding a lock on the closed
  // channel. Collect ids before failing any: batched-mode fail_tu erases
  // from live_ and failure callbacks may send new TUs (slab relocation), so
  // the traversal must see no mutation.
  std::vector<TuId> victims;
  live_.for_each([&](TuId id, const LiveTu& live) {
    if (live.resolved) return;
    for (std::size_t i = 0; i < live.locked_hops; ++i) {
      if (live.tu.path.edges[i] == channel) {
        victims.push_back(id);
        return;
      }
    }
  });
  for (const TuId id : victims) fail_tu(id, FailReason::kChannelClosed);
}

void Engine::schedule_next_arrival() {
  auto payment = source_->next();
  if (!payment) return;
  if (payment->arrival_time < last_arrival_time_) {
    throw std::logic_error("Engine: source arrivals not monotone");
  }
  last_arrival_time_ = payment->arrival_time;
  // Fold the deadline in at pull time: the run() hard stop must already
  // cover this arrival while it is still pending, however sparse the
  // arrival process is.
  last_deadline_seen_ = std::max(last_deadline_seen_, payment->deadline);
  ++pending_arrivals_;
  note_buffer_peak();
  staged_arrival_ = std::move(*payment);
  scheduler_.at(staged_arrival_->arrival_time,
                sim::EngineEvent{.kind = sim::EngineEvent::Kind::kArrival});
}

void Engine::on_arrival(const pcn::Payment& payment) {
  --pending_arrivals_;
  auto [state, inserted] = states_.emplace(payment.id, PaymentState{payment});
  if (!inserted) throw std::logic_error("Engine: duplicate payment id");
  max_arrived_id_ = std::max(max_arrived_id_, payment.id);
  ++active_payments_;
  note_buffer_peak();
  if (states_.size() > metrics_.peak_resident_states) {
    metrics_.peak_resident_states = states_.size();
  }
  ++metrics_.payments_generated;
  metrics_.value_generated += payment.value;
  // payreq over the secure channel + KMG key issuance.
  metrics_.messages.control_messages += 2;
  state->deadline_event = scheduler_.at(
      payment.deadline,
      sim::EngineEvent{.kind = sim::EngineEvent::Kind::kDeadline,
                       .channel = 0,
                       .aux = 0,
                       .a = payment.id});
  router_.on_payment(*this, payment);
  schedule_next_arrival();
}

void Engine::note_buffer_peak() noexcept {
  const std::size_t resident = pending_arrivals_ + active_payments_;
  if (resident > metrics_.peak_payment_buffer) {
    metrics_.peak_payment_buffer = resident;
  }
}

void Engine::fold_resolution(const PaymentState& state) {
  metrics_.tus_per_payment_stats.add(static_cast<double>(state.tus_launched));
  if (state.completed) {
    metrics_.completion_delay_stats.add(state.completion_time -
                                        state.payment.arrival_time);
  } else {
    metrics_.failed_delivered_value += state.delivered;
  }
}

void Engine::release_live_tu(TuId id) {
  const LiveTu* live = live_.find(id);
  if (live == nullptr) return;
  const PaymentId payment = live->tu.payment;
  free_route_slots_.push_back(live->route_slot);
  live_.erase(id);
  if (auto* state = state_or_orphan(payment)) {
    if (state->live_tus > 0) --state->live_tus;
    maybe_evict(payment);
  }
}

void Engine::maybe_evict(PaymentId id) {
  PaymentState* state = states_.find(id);
  if (state == nullptr || state->active() || state->live_tus > 0) return;
  // Quiescent: resolved (so its deadline event has fired or been
  // cancelled) with no live TU, so no per-TU hook can fire for this payment
  // again. The router drops its per-payment map entries, then the state
  // goes; an erased state cannot be notified twice.
  router_.on_payment_resolved(*this, id);
  states_.erase(id);
}

TuId Engine::send_tu(const TransactionUnit& tu) {
  if (in_forward_hook_) {
    // The on_tu_forwarded hook holds a reference into live_; inserting a
    // new TU could relocate the slab under it (Router::on_tu_forwarded
    // documents the contract — this makes a violation a hard error).
    throw std::logic_error("Engine::send_tu: called from on_tu_forwarded");
  }
  if (tu.path.edges.empty() || tu.path.nodes.size() != tu.path.edges.size() + 1 ||
      tu.hop_amounts.size() != tu.path.edges.size()) {
    throw std::invalid_argument("Engine::send_tu: malformed TU");
  }
  if (tu.value <= 0) throw std::invalid_argument("Engine::send_tu: value <= 0");
  LiveTu live{.tu = tu};
  live.tu.id = next_tu_id_++;
  live.tu.next_hop = 0;
  const TuId id = live.tu.id;

  // Orphan-tolerant: a router may keep dispatching splits of a payment
  // that a sibling TU's synchronous failure just resolved and evicted. The
  // orphan TU flows like any other; its resolution skips the per-payment
  // bookkeeping.
  if (auto* state = state_or_orphan(tu.payment)) {
    state->in_flight += tu.value;
    ++state->live_tus;
    ++state->tus_launched;
  }

  live.route_slot = store_route(live.tu);
  live_.emplace(id, live);
  ++metrics_.tus_sent;
  attempt_hop(id);
  return id;
}

std::uint32_t Engine::store_route(TransactionUnit& tu) {
  std::uint32_t slot;
  if (free_route_slots_.empty()) {
    slot = static_cast<std::uint32_t>(route_slots_.size());
    route_slots_.emplace_back();
  } else {
    slot = free_route_slots_.back();
    free_route_slots_.pop_back();
  }
  // A free slot is viewed by no TU, and the source views never alias it.
  RouteSlot& route = route_slots_[slot];
  route.nodes.assign(tu.path.nodes.begin(), tu.path.nodes.end());
  route.edges.assign(tu.path.edges.begin(), tu.path.edges.end());
  route.hop_amounts.assign(tu.hop_amounts.begin(), tu.hop_amounts.end());
  tu.path = graph::PathView(route.nodes, route.edges);
  tu.hop_amounts = route.hop_amounts;
  return slot;
}

PaymentState* Engine::state_or_orphan(PaymentId id) {
  auto* state = find_payment_state(id);
  if (state == nullptr && id > max_arrived_id_) {
    // No payment with this id has arrived, so it cannot have been evicted:
    // a router handed the engine a bogus id. Throw instead of silently
    // moving funds with no bookkeeping.
    throw std::out_of_range("Engine: unknown payment");
  }
  return state;
}

void Engine::fail_payment(PaymentId id, FailReason reason) {
  auto* state = state_or_orphan(id);
  if (state == nullptr || !state->active()) return;  // resolved and evicted
  scheduler_.cancel(state->deadline_event);
  state->failed = true;
  --active_payments_;
  ++metrics_.payments_failed;
  ++metrics_.payment_fail_reasons[static_cast<std::size_t>(reason)];
  fold_resolution(*state);
  router_.on_payment_timeout(*this, id);
  maybe_evict(id);
}

Amount Engine::queue_amount(ChannelId channel, pcn::Direction d) const {
  return directed(channel, d).queued_value;
}

void Engine::attempt_hop(TuId id) {
  LiveTu* live_ptr = live_.find(id);
  if (live_ptr == nullptr) return;  // already resolved and released
  auto& live = *live_ptr;
  // Per-hop mode keeps a resolved TU's live entry until kReleaseTu; a
  // pending retry event must not touch it.
  if (live.resolved) return;
  auto& tu = live.tu;
  const std::size_t hop = tu.next_hop;
  const ChannelId channel = tu.path.edges[hop];
  const NodeId from = tu.path.nodes[hop];
  auto& ch = network_.channel(channel);
  const pcn::Direction d = ch.direction_from(from);
  auto& ds = directed(channel, d);
  const Amount amount = tu.hop_amounts[hop];

  // Hostile-world admission backstop: whatever path the router chose (or
  // cached before a mutation landed), no new lock goes onto a closed
  // channel, through an offline endpoint, or below the channel's min_htlc
  // policy floor. In-flight settles and refunds stay legal on a closed
  // channel — only new locks are refused, so conservation is untouched.
  // All three reads hit identity defaults in a benign run.
  if (ch.is_closed()) {
    fail_tu(id, FailReason::kChannelClosed);
    return;
  }
  if (!network_.node_online(ch.node_a()) ||
      !network_.node_online(ch.node_b())) {
    fail_tu(id, FailReason::kNodeOffline);
    return;
  }
  if (amount < ch.policy().min_htlc) {
    fail_tu(id, FailReason::kInsufficientFunds);
    return;
  }

  // Processing-rate limit (r_process, paper Alg. 2 line 10): processing
  // capacity delays forwarding; in queue mode the TU takes a queue slot,
  // in atomic mode it simply waits for the processor.
  if (scheduler_.now() < ds.next_free) {
    if (config_.queues_enabled) {
      enqueue(id, channel, d);
    } else if (config_.settlement_epoch_s > 0) {
      // Batched mode: retry from the shared epoch flush instead of one
      // scheduler event per waiting TU.
      batcher_.deferred_tus.push_back(id);
      schedule_flush();
    } else {
      scheduler_.at(ds.next_free,
                    sim::EngineEvent{
                        .kind = sim::EngineEvent::Kind::kAttemptHop,
                        .channel = 0,
                        .aux = 0,
                        .a = id});
    }
    return;
  }
  // Funds check (F_ab < |d_i|, same line).
  if (!ch.lock(d, amount)) {
    if (config_.queues_enabled) {
      enqueue(id, channel, d);
    } else {
      fail_tu(id, FailReason::kInsufficientFunds);
    }
    return;
  }
  live.locked_hops = static_cast<std::uint32_t>(hop + 1);
  ds.next_free = std::max(scheduler_.now(), ds.next_free) +
                 common::to_tokens(amount) / config_.process_rate_tokens_per_s;
  ++metrics_.messages.data_hops;
  in_forward_hook_ = true;
  router_.on_tu_forwarded(*this, tu, channel, d);
  in_forward_hook_ = false;
  schedule_hop_arrival(id);
}

void Engine::schedule_hop_arrival(TuId id) {
  if (config_.settlement_epoch_s <= 0) {
    scheduler_.after(config_.hop_delay_s,
                     sim::EngineEvent{
                         .kind = sim::EngineEvent::Kind::kArriveNext,
                         .channel = 0,
                         .aux = 0,
                         .a = id});
    return;
  }
  // Batched mode: a flush forwards whole queues at one boundary, so many
  // TUs arrive at the identical instant — share one event per tick-
  // quantised timestamp. Arrival order inside a bucket is insertion order,
  // i.e. the order the separate events would have fired in. A firing
  // bucket is no longer pending, so with a zero hop delay a TU it forwards
  // opens a new bucket on the same tick (and a new event after it).
  const double when = scheduler_.now() + config_.hop_delay_s;
  const std::int64_t tick = arrival_tick(when);
  arrival_tus_.push_back(id);
  if (arrival_buckets_head_ < arrival_buckets_.size() &&
      arrival_buckets_.back().tick == tick) {
    ++arrival_buckets_.back().size;
    return;
  }
  arrival_buckets_.push_back(ArrivalBucket{.tick = tick, .size = 1});
  scheduler_.at(when, sim::EngineEvent{
                          .kind = sim::EngineEvent::Kind::kArrivalBucket,
                          .channel = 0,
                          .aux = 0,
                          .a = static_cast<std::uint64_t>(tick)});
}

void Engine::fire_arrival_bucket(std::int64_t tick) {
  // Buckets fire in the order they were opened, so this event's bucket is
  // the oldest pending one. Pop it before any TU moves: the arrivals below
  // may append new ids and buckets (and reallocate arrival_tus_, hence the
  // indexed reads).
  const ArrivalBucket bucket = arrival_buckets_[arrival_buckets_head_++];
  if (bucket.tick != tick) {
    throw std::logic_error("Engine: arrival buckets fired out of order");
  }
  const std::size_t first = arrival_tus_head_;
  arrival_tus_head_ += bucket.size;
  for (std::size_t i = first; i < first + bucket.size; ++i) {
    arrive_next(arrival_tus_[i]);
  }
  // Reclaim the consumed prefixes: all at once when nothing is pending,
  // otherwise once they make up half the storage, so both vectors stay
  // near the peak pending size without a ring's index arithmetic.
  if (arrival_buckets_head_ == arrival_buckets_.size()) {
    arrival_buckets_.clear();
    arrival_buckets_head_ = 0;
    arrival_tus_.clear();
    arrival_tus_head_ = 0;
  } else if (2 * arrival_tus_head_ >= arrival_tus_.size()) {
    arrival_buckets_.erase(
        arrival_buckets_.begin(),
        arrival_buckets_.begin() + static_cast<std::ptrdiff_t>(arrival_buckets_head_));
    arrival_buckets_head_ = 0;
    arrival_tus_.erase(
        arrival_tus_.begin(),
        arrival_tus_.begin() + static_cast<std::ptrdiff_t>(arrival_tus_head_));
    arrival_tus_head_ = 0;
  }
}

void Engine::arrive_next(TuId id) {
  LiveTu* live = live_.find(id);
  if (live == nullptr || live->resolved) return;
  auto& tu = live->tu;
  ++tu.next_hop;
  if (tu.next_hop == tu.path.edges.size()) {
    deliver(id);
  } else {
    attempt_hop(id);
  }
}

void Engine::deliver(TuId id) {
  LiveTu* live_ptr = live_.find(id);
  if (live_ptr == nullptr) return;
  auto& live = *live_ptr;
  live.resolved = true;
  ++metrics_.tus_delivered;

  // Orphan-tolerant: a TU of a payment resolved and evicted before it was
  // sent settles its hops like any other; only the per-payment bookkeeping
  // is gone.
  if (auto* state = state_or_orphan(live.tu.payment)) {
    state->in_flight -= live.tu.value;
    state->delivered += live.tu.value;
    if (!state->failed && !state->completed &&
        state->delivered >= state->payment.value) {
      scheduler_.cancel(state->deadline_event);
      state->completed = true;
      --active_payments_;
      state->completion_time = scheduler_.now();
      ++metrics_.payments_completed;
      metrics_.value_completed += state->payment.value;
      fold_resolution(*state);
      // Receipt ACK_tid forwarded back to the sender.
      metrics_.messages.control_messages += 1;
    }
  }
  unwind(id, live, /*settle=*/true);
  // The hook gets a copy of the record: it may send TUs, and a slab grow
  // would move `live`. The copy's views stay valid through the hook, since
  // the route slot is only freed at release, after the hook returns.
  const TransactionUnit tu = live.tu;
  router_.on_tu_delivered(*this, tu);
  // Batched mode settles from the epoch buffer, so nothing references the
  // live entry anymore; per-hop mode releases it after the last ack event.
  if (config_.settlement_epoch_s > 0) release_live_tu(id);
}

void Engine::fail_tu(TuId id, FailReason reason) {
  LiveTu* live = live_.find(id);
  // The resolved check makes failure idempotent: a channel-close sweep and
  // a late mark/retry event may both reach the same per-hop-mode TU while
  // its entry awaits kReleaseTu.
  if (live == nullptr || live->resolved) return;
  live->resolved = true;
  // Orphan TUs (see send_tu) have no payment state to update.
  if (auto* state = state_or_orphan(live->tu.payment)) {
    state->in_flight -= live->tu.value;
  }
  ++metrics_.tus_failed;
  ++metrics_.tu_fail_reasons[static_cast<std::size_t>(reason)];
  if (reason == FailReason::kMarkedCongested) ++metrics_.tus_marked;
  unwind(id, *live, /*settle=*/false);
  // A copy for the hook, as in deliver(). unwind schedules events but never
  // inserts into live_, so `live` stays valid up to here.
  const TransactionUnit tu = live->tu;
  router_.on_tu_failed(*this, tu, reason);
  if (config_.settlement_epoch_s > 0) release_live_tu(id);
}

void Engine::unwind(TuId id, const LiveTu& live, bool settle) {
  const auto& tu = live.tu;
  if (config_.settlement_epoch_s > 0) {
    // Batched mode: a single flush event applies every folded hop at the
    // next settlement_epoch_s boundary; the caller releases the live entry.
    for (std::size_t i = live.locked_hops; i-- > 0;) {
      const auto& ch = network_.channel(tu.path.edges[i]);
      add_pending(tu.path.edges[i], ch.direction_from(tu.path.nodes[i]),
                  tu.hop_amounts[i], settle);
    }
    return;
  }
  // The ack walks back from the last locked hop, one hop per hop_delay:
  // a settle moves each lock into the receiving side, a refund returns it
  // to the payer.
  const auto kind = settle ? sim::EngineEvent::Kind::kSettleAck
                           : sim::EngineEvent::Kind::kRefundAck;
  double delay = config_.hop_delay_s;
  for (std::size_t i = live.locked_hops; i-- > 0;) {
    scheduler_.after(
        delay, sim::EngineEvent{
                   .kind = kind,
                   .channel = tu.path.edges[i],
                   .aux = tu.path.nodes[i],
                   .a = static_cast<std::uint64_t>(tu.hop_amounts[i])});
    delay += config_.hop_delay_s;
  }
  scheduler_.after(delay,
                   sim::EngineEvent{.kind = sim::EngineEvent::Kind::kReleaseTu,
                                    .channel = 0,
                                    .aux = 0,
                                    .a = id});
}

void Engine::enqueue(TuId id, ChannelId channel, pcn::Direction d) {
  auto& live = live_.at(id);
  auto& ds = directed(channel, d);
  const Amount amount = live.tu.hop_amounts[live.tu.next_hop];
  if (ds.queued_value + amount > config_.queue_capacity) {
    fail_tu(id, FailReason::kQueueOverflow);
    return;
  }
  QueuedTu queued;
  queued.id = id;
  queued.amount = amount;
  // Congestion marking: if still queued after T, mark & abort (eq. 27 path,
  // handled by the kMark branch of handle_event).
  queued.mark_event = scheduler_.after(
      config_.queue_delay_threshold_s,
      sim::EngineEvent{.kind = sim::EngineEvent::Kind::kMark,
                       .channel = channel,
                       .aux = static_cast<std::uint32_t>(pcn::dir_index(d)),
                       .a = id});
  ds.queued_value += amount;
  ds.queue.push_back(queued);
  // If blocked on the rate limiter, retry when the bucket frees up.
  if (scheduler_.now() < ds.next_free) schedule_drain(channel, d, ds.next_free);
  check_queue_invariant(channel, d);
}

std::size_t Engine::pick_from_queue(const DirectedState& state) const {
  switch (config_.policy) {
    case SchedulingPolicy::kFifo:
      return 0;
    case SchedulingPolicy::kLifo:
      return state.queue.size() - 1;
    case SchedulingPolicy::kSpf: {
      std::size_t best = 0;
      Amount best_value = 0;
      for (std::size_t i = 0; i < state.queue.size(); ++i) {
        const LiveTu* live = live_.find(state.queue[i].id);
        // Stale: evict before policy picks.
        if (live == nullptr || live->resolved) return i;
        const Amount v = live->tu.value;
        if (i == 0 || v < best_value) {
          best = i;
          best_value = v;
        }
      }
      return best;
    }
    case SchedulingPolicy::kEdf: {
      std::size_t best = 0;
      double best_deadline = 0.0;
      for (std::size_t i = 0; i < state.queue.size(); ++i) {
        const LiveTu* live = live_.find(state.queue[i].id);
        // Stale: evict before policy picks.
        if (live == nullptr || live->resolved) return i;
        const double dl = live->tu.deadline;
        if (i == 0 || dl < best_deadline) {
          best = i;
          best_deadline = dl;
        }
      }
      return best;
    }
  }
  return 0;
}

void Engine::drain_queue(ChannelId channel, pcn::Direction d) {
  auto& ds = directed(channel, d);
  auto& ch = network_.channel(channel);
  while (!ds.queue.empty()) {
    if (scheduler_.now() < ds.next_free) {
      schedule_drain(channel, d, ds.next_free);
      break;
    }
    const std::size_t index = pick_from_queue(ds);
    const QueuedTu entry = ds.queue[index];
    const LiveTu* live = live_.find(entry.id);
    if (live == nullptr || live->resolved) {
      // Stale entry (TU resolved elsewhere): release its accounting too —
      // erasing the entry alone would leak queued_value and leave the mark
      // event live to fire against a recycled queue position.
      scheduler_.cancel(entry.mark_event);
      ds.queue.erase(ds.queue.begin() + static_cast<std::ptrdiff_t>(index));
      ds.queued_value -= entry.amount;
      continue;
    }
    const Amount amount = live->tu.hop_amounts[live->tu.next_hop];
    if (ch.available(d) < amount) break;  // wait for the next settle/refund
    scheduler_.cancel(entry.mark_event);
    ds.queue.erase(ds.queue.begin() + static_cast<std::ptrdiff_t>(index));
    ds.queued_value -= amount;
    attempt_hop(entry.id);  // re-checks rate & funds; both were just verified
  }
  check_queue_invariant(channel, d);
}

void Engine::schedule_drain(ChannelId channel, pcn::Direction d, double when) {
  auto& ds = directed(channel, d);
  if (ds.drain_pending) return;  // one wake-up is enough
  ds.drain_pending = true;
  if (config_.settlement_epoch_s > 0) {
    // Batched mode: the recurring epoch flush retries this queue; no
    // per-direction wake-up event.
    batcher_.blocked_queues.push_back(directed_index(channel, d));
    schedule_flush();
    return;
  }
  scheduler_.at(when,
                sim::EngineEvent{
                    .kind = sim::EngineEvent::Kind::kDrain,
                    .channel = channel,
                    .aux = static_cast<std::uint32_t>(pcn::dir_index(d)),
                    .a = 0});
}

void Engine::add_pending(ChannelId channel, pcn::Direction d, Amount amount,
                        bool is_settle) {
  auto& p = batcher_.pending[directed_index(channel, d)];
  if (p.settle_ops == 0 && p.refund_ops == 0) {
    batcher_.dirty.push_back(directed_index(channel, d));
  }
  if (is_settle) {
    p.settle_total += amount;
    ++p.settle_ops;
  } else {
    p.refund_total += amount;
    ++p.refund_ops;
  }
  // The per-hop ack still flows in the modelled network; only its
  // simulation event is coalesced.
  ++metrics_.messages.ack_messages;
  ++metrics_.settlements_batched;
  schedule_flush();
}

void Engine::schedule_flush() {
  if (config_.settlement_epoch_s <= 0) {
    throw std::logic_error("Engine: schedule_flush without batched mode");
  }
  if (batcher_.flush_scheduled) return;
  batcher_.flush_scheduled = true;
  scheduler_.at_next_boundary(
      config_.settlement_epoch_s,
      sim::EngineEvent{.kind = sim::EngineEvent::Kind::kFlush});
}

void Engine::flush_settlements(bool drain) {
  // Two passes: apply every fund movement first, then retry the queues, so
  // a drained TU can use funds applied by a later entry of the same flush.
  // Queue retries during the drain pass can refund into the batcher again;
  // the totals and the dirty list were reset in the first pass, so those
  // land in a new epoch. Every list below keeps its capacity for the next
  // flush.
  auto& to_drain = batcher_.to_drain;
  to_drain.clear();
  for (const std::size_t idx : batcher_.dirty) {
    auto& p = batcher_.pending[idx];
    const ChannelId channel = channel_of(idx);
    const pcn::Direction d = direction_of(idx);
    auto& ch = network_.channel(channel);
    if (p.settle_ops > 0) {
      ch.settle_n(d, p.settle_total, p.settle_ops);
      // The receiving side gained spendable funds: opposite direction.
      to_drain.emplace_back(channel, pcn::opposite(d));
    }
    if (p.refund_ops > 0) {
      ch.refund_n(d, p.refund_total, p.refund_ops);
      // The payer side regained spendable funds: same direction.
      to_drain.emplace_back(channel, d);
    }
    p = PendingSettlement{};
  }
  batcher_.dirty.clear();
  if (!drain) return;
  // Nothing a drain reaches runs a flush, so to_drain is stable here.
  for (const auto& [channel, dir] : to_drain) drain_queue(channel, dir);

  // Wake every rate-blocked queue; drains that are still blocked (or block
  // again) re-register for the next flush via schedule_drain, into the
  // emptied blocked_queues.
  batcher_.retry_queues.swap(batcher_.blocked_queues);
  for (const std::size_t idx : batcher_.retry_queues) {
    directed_[idx].drain_pending = false;
    drain_queue(channel_of(idx), direction_of(idx));
  }
  batcher_.retry_queues.clear();

  // Retry atomic-mode TUs that were waiting on a processing slot; a retry
  // that is still blocked re-defers itself onto the next flush.
  batcher_.retry_tus.swap(batcher_.deferred_tus);
  for (const TuId id : batcher_.retry_tus) attempt_hop(id);
  batcher_.retry_tus.clear();
}

#ifdef SPLICER_AUDIT
void Engine::check_queue_invariant(ChannelId channel, pcn::Direction d) const {
  const auto& ds = directed(channel, d);
  Amount sum = 0;
  for (const auto& entry : ds.queue) {
    sum += entry.amount;
    const LiveTu* live = live_.find(entry.id);
    // A resolved TU's entry is stale (drain_queue drops it): only the
    // charged amount is left to check.
    if (live != nullptr && !live->resolved &&
        live->tu.hop_amounts[live->tu.next_hop] != entry.amount) {
      throw std::logic_error(
          "Engine: queued amount diverged from the TU's hop amount");
    }
  }
  if (sum != ds.queued_value) {
    throw std::logic_error("Engine: queued_value drifted from queue contents");
  }
}
#endif

void Engine::on_payment_deadline(PaymentId id) {
  // Every resolution cancels the deadline event, so a firing deadline finds
  // its payment active. The fired event id is already stale, so the cancel
  // inside fail_payment is a detected no-op.
  ++metrics_.messages.control_messages;  // withdraw notice
  fail_payment(id, FailReason::kTimeout);
}

}  // namespace splicer::routing
