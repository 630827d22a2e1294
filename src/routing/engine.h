#pragma once

// Discrete-event execution engine for PCN routing schemes.
//
// Mechanics implemented here, identically for every router:
//  * hop-by-hop HTLC forwarding: lock on each channel direction, propagate
//    after the hop delay, settle backwards along the path on delivery,
//    refund backwards on failure (funds conservation is exact);
//  * per-direction processing-rate limits (r_process) and bounded waiting
//    queues with pluggable scheduling (FIFO/LIFO/SPF/EDF, Table II);
//  * congestion marking: a TU queued longer than the threshold T is marked
//    and aborted (paper SS IV-D congestion control);
//  * payment deadlines (transaction timeout, 3 s in the paper) and the
//    all-or-nothing completion rule (the destination hub releases funds to
//    the recipient only once every TU arrived);
//  * metrics: TSR, normalised throughput, delays, message counters.

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/dense_id_map.h"
#include "common/rng.h"
#include "common/stats.h"
#include "pcn/network.h"
#include "pcn/scenario_mutator.h"
#include "pcn/traffic_source.h"
#include "pcn/workload.h"
#include "routing/router.h"
#include "sim/counters.h"
#include "sim/engine_event.h"
#include "sim/scheduler.h"

namespace splicer::routing {

struct EngineConfig {
  double hop_delay_s = 0.005;             // per-channel propagation delay
  double queue_delay_threshold_s = 0.4;   // T (paper: 400 ms)
  Amount queue_capacity = common::whole_tokens(8000);  // q_amount bound
  SchedulingPolicy policy = SchedulingPolicy::kLifo;   // paper's default
  double process_rate_tokens_per_s = 4000.0;           // r_process per direction
  bool queues_enabled = true;   // false = atomic HTLC (fail on first shortage)
  double horizon_slack_s = 5.0; // keep simulating past the last deadline
  std::uint64_t seed = 1;
  /// Batched settlement epoch. 0 (default) keeps the exact per-hop
  /// behaviour: every settle/refund of every TU hop is its own scheduler
  /// event (byte-identical to the pre-batching engine). When > 0, settle
  /// and refund contributions accumulate per (channel, direction) and are
  /// applied in bulk on the next multiple of `settlement_epoch_s` — one
  /// flush event per active epoch instead of one event per hop.
  double settlement_epoch_s = 0.0;
  /// Debug: after every queue mutation, re-derive each touched queue's
  /// value from its entries and throw on any drift (invariant test suite).
  bool validate_queues = false;
  /// Retention contract for resolved PaymentStates. true (default) keeps
  /// every state for the whole run — the legacy behaviour, required when
  /// callers inspect payment_state() after run() returns. false evicts a
  /// resolved payment's state as soon as nothing can reference it any more
  /// (no live TU, no queue entry, no pending deadline event, no epoch
  /// buffer), so a truly unbounded streaming run holds O(concurrency)
  /// states instead of one per payment ever processed. All reported
  /// metrics are folded into streaming accumulators at resolution time and
  /// are identical in both modes; only memory (peak_resident_states) and
  /// the states_evicted counter differ.
  bool retain_resolved = true;
  /// Hostile-world scenario pack: fault injection, channel churn, per-edge
  /// fee/timelock policies (see pcn/scenario_mutator.h). All rates default
  /// to 0, in which case no mutator is built, no mutation event is ever
  /// scheduled and no RNG draw happens — the benign event stream is
  /// byte-identical to an engine without this field (CI-gated). Mutation
  /// randomness derives from hostile.seed, never from `seed`, so the
  /// stream is also bit-identical across shard counts.
  pcn::HostileConfig hostile;

  /// Throws std::invalid_argument on a negative or NaN settlement epoch, a
  /// negative or NaN hop delay, or a processing rate that is not > 0.
  void validate() const;
};

struct EngineMetrics {
  std::size_t payments_generated = 0;
  std::size_t payments_completed = 0;
  std::size_t payments_failed = 0;
  Amount value_generated = 0;
  Amount value_completed = 0;
  std::uint64_t tus_sent = 0;
  std::uint64_t tus_delivered = 0;
  std::uint64_t tus_failed = 0;
  std::uint64_t tus_marked = 0;
  /// TU failures by FailReason (indexed by the enum's underlying value).
  std::array<std::uint64_t, kFailReasonCount> tu_fail_reasons{};
  /// Payment failures by FailReason.
  std::array<std::uint64_t, kFailReasonCount> payment_fail_reasons{};
  sim::MessageCounters messages;
  double simulated_seconds = 0.0;
  /// Scheduler events executed by run() (the batching cost signal).
  std::uint64_t scheduler_events = 0;
  /// Epoch flush events executed (0 when settlement_epoch_s == 0).
  std::uint64_t settlement_flushes = 0;
  /// Individual settle/refund operations coalesced into flush events.
  std::uint64_t settlements_batched = 0;
  /// Peak number of payments simultaneously resident in the arrival
  /// pipeline: pulled from the traffic source but not yet arrived, plus
  /// arrived but not yet completed/failed. The engine pulls lazily (one
  /// look-ahead payment), so this stays at the workload's concurrency
  /// level rather than its total size - the streaming-scale signal.
  std::size_t peak_payment_buffer = 0;
  /// Peak number of PaymentStates simultaneously resident. With
  /// retain_resolved (default) this equals payments_generated by the end
  /// of the run; with eviction it stays at the concurrency level — the
  /// retention-contract memory signal.
  std::size_t peak_resident_states = 0;
  /// Resolved PaymentStates evicted (always 0 when retain_resolved).
  std::uint64_t states_evicted = 0;
  /// Streaming per-run accumulators, folded at resolution time so no
  /// metric ever needs a post-hoc scan over retained states (the retention
  /// contract: resolved states may be long gone by the end of the run).
  common::RunningStats completion_delay_stats;  // seconds, completed payments
  common::RunningStats tus_per_payment_stats;   // TUs launched per resolved payment
  /// Value delivered by payments that nonetheless failed (partial
  /// deliveries observed at resolution time).
  Amount failed_delivered_value = 0;
  /// Sharded mode only (0 in a sequential run): TU handoffs plus TU results
  /// this shard sent to other shards, and barrier epochs executed. The
  /// merged metrics carry the totals.
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t shard_barriers = 0;
  /// BSP critical path (sum over windows of the busiest shard's events);
  /// scheduler_events / this = the speedup the partition admits on enough
  /// cores. 0 in a sequential run; set by the coordinator after merging.
  std::uint64_t shard_critical_path_events = 0;
  /// Always 0: the rate tick sweeps every channel and pair each tau, so it
  /// skips no price update and reuses no probe sum. Kept because the
  /// perfbench harness still reads and reports both fields.
  std::uint64_t price_updates_skipped = 0;
  std::uint64_t probe_sums_reused = 0;
  /// Hostile-world mutation events applied (0 in a benign run). In a
  /// sharded run every shard replays the full stream (state flags must
  /// agree everywhere), so the merged count is shards x stream length.
  std::uint64_t mutation_events = 0;
  /// Deadlock witnesses, stamped by finish_run() before the conservation
  /// check: TUs still resident in the live slab and value still sitting in
  /// waiting queues when the run ended. Both must be 0 for every scheme
  /// even under churn storms — a nonzero value is a wedged liquidity cycle
  /// (the deadlock-under-churn stress gate asserts this).
  std::size_t resident_tus_at_end = 0;
  Amount wedged_queue_value = 0;

  /// Transaction success ratio: completed / generated payments.
  [[nodiscard]] double tsr() const {
    return payments_generated
               ? static_cast<double>(payments_completed) /
                     static_cast<double>(payments_generated)
               : 0.0;
  }
  /// Completed value over generated value (normalised throughput).
  [[nodiscard]] double normalized_throughput() const {
    return value_generated > 0 ? static_cast<double>(value_completed) /
                                     static_cast<double>(value_generated)
                               : 0.0;
  }
  /// Mean completion delay, derived from the streamed accumulator (the
  /// exact sum-over-count of the legacy running total, bit for bit).
  [[nodiscard]] double average_delay_s() const {
    return payments_completed ? completion_delay_stats.sum() /
                                    static_cast<double>(payments_completed)
                              : 0.0;
  }

  /// Deterministic fold of another shard's metrics into this one: counters
  /// and accumulators sum, simulated_seconds takes the max. Peaks sum too —
  /// each shard's peak is attained on its own clock, so the sum is an upper
  /// bound on simultaneous residency, which is the capacity-planning signal
  /// the field exists for. Merging in ascending shard order makes the
  /// result independent of thread interleaving (RunningStats::merge is
  /// order-sensitive in the last bits).
  void merge_from(const EngineMetrics& other);
};

/// Per-payment progress (router-visible). With eviction enabled
/// (EngineConfig::retain_resolved == false) a resolved state disappears as
/// soon as the last engine-side reference is gone — routers must reach it
/// through Engine::find_payment_state() from any context that can outlive
/// resolution (deferred lambdas, demand queues, recurring ticks).
struct PaymentState {
  pcn::Payment payment;
  Amount delivered = 0;     // settled at destination
  Amount in_flight = 0;     // dispatched, not yet settled/failed
  bool completed = false;
  bool failed = false;
  double completion_time = 0.0;
  /// Engine-owned TUs of this payment still alive (in flight, queued, or
  /// awaiting their ack-chain release event). The eviction gate.
  std::uint32_t live_tus = 0;
  /// Total TUs ever launched for this payment (the retry signal folded
  /// into EngineMetrics::tus_per_payment_stats at resolution).
  std::uint32_t tus_launched = 0;
  /// The deadline event has not fired/been cancelled yet. Per-hop mode
  /// lets resolved payments' deadline events fire as no-ops (keeping the
  /// epoch-0 event stream byte-identical), so eviction must wait for them.
  bool deadline_pending = false;
  /// The pending deadline event (valid while deadline_pending). Batched
  /// mode cancels it on resolution; stored inline so no side map is needed.
  sim::Scheduler::EventId deadline_event = 0;
  /// Router::on_payment_resolved has fired for this payment (it fires
  /// exactly once, at quiescence — resolved with no live TU and no pending
  /// deadline event — whether or not the state is then evicted).
  bool resolution_notified = false;

  [[nodiscard]] Amount remaining_to_dispatch() const noexcept {
    return payment.value - delivered - in_flight;
  }
  [[nodiscard]] bool active() const noexcept { return !completed && !failed; }
};

/// A live TU crossing a shard boundary: the receiving shard adopts it under
/// a fresh local id and keeps forwarding. hop_locked travels with the TU —
/// earlier hops may hold locks on channels owned by shards it already left,
/// and the resolving shard routes their settle/refund acks back by owner.
struct TuHandoff {
  TransactionUnit tu;
  std::vector<char> hop_locked;
  TuId home_id = 0;               // the TU's id in its home shard
  std::uint32_t home_shard = 0;   // shard owning the payment's state
  double when = 0.0;              // emission time (clamped to the barrier)
};

/// Terminal outcome of a TU that resolved away from its home shard,
/// relayed back so the home shard can run the payment bookkeeping and the
/// router callbacks. tu.id is restored to the home id before posting.
struct TuResult {
  TransactionUnit tu;
  bool delivered = false;
  FailReason reason = FailReason::kNoPath;
  double when = 0.0;  // resolution time (clamped to the barrier)
};

/// What a shard-bound Engine needs from the sharding layer. All four calls
/// happen during the parallel phase, from the worker running shard `from`;
/// implementations append to single-writer mailbox lanes (see
/// sim/sharded_scheduler.h) and must not touch shared mutable state.
class ShardCoordinator {
 public:
  /// Owning shard of a channel (the partition is total and static).
  [[nodiscard]] virtual std::uint32_t shard_of_channel(
      ChannelId channel) const noexcept = 0;

  /// Ships a live TU to the shard owning its next-hop channel.
  virtual void handoff_tu(std::uint32_t from, TuHandoff msg) = 0;

  /// Relays a foreign TU's terminal outcome to its home shard.
  virtual void post_result(std::uint32_t from, std::uint32_t home_shard,
                           TuResult msg) = 0;

  /// Posts a settle/refund ack for a channel owned by another shard; the
  /// owner executes it at the next barrier (at max(when, barrier)).
  virtual void post_ack(std::uint32_t from, ChannelId channel, double when,
                        const sim::EngineEvent& event) = 0;

 protected:
  ~ShardCoordinator() = default;
};

class Engine : private sim::EventSink {
 public:
  /// Streams payments lazily out of `source`: the next arrival event is
  /// scheduled only when the previous one fires, so the engine never holds
  /// more than one unarrived payment regardless of workload size.
  Engine(pcn::Network network, std::unique_ptr<pcn::TrafficSource> source,
         Router& router, EngineConfig config = {});

  /// Compatibility: replays a pre-built vector (wrapped in a VectorSource).
  Engine(pcn::Network network, std::vector<pcn::Payment> payments,
         Router& router, EngineConfig config = {});

  /// Runs the whole simulation; single call. Equivalent to begin_run(),
  /// a run_window() loop bounded by the deadline-driven hard stop, then
  /// finish_run() — the sharded coordinator drives those pieces itself.
  EngineMetrics run();

  // ---- Sharded-mode lifecycle (coordinator-facing) ---------------------
  // A shard-bound engine is one shard of a ShardedEngine: it owns its full
  // network copy, scheduler, RNG and router, touches only channels its
  // shard owns, and exchanges TUs/acks with other shards through the
  // coordinator. All of these are harmless no-ops/equivalents in a
  // sequential run; Engine::run() itself never needs them.

  /// Binds this engine to a shard. `horizon_hint` seeds workload_horizon()
  /// for engines whose local source is empty (the coordinator streams
  /// arrivals in); pass the real source's hint.
  void bind_shard(ShardCoordinator* coordinator, std::uint32_t shard,
                  double horizon_hint);

  /// Router on_start + first lazy source pull (the opening of run()).
  void begin_run();

  /// Advances the local scheduler to `until` (inclusive); returns events
  /// executed (also folded into metrics().scheduler_events).
  std::size_t run_window(double until);

  /// Closing bookkeeping of run(): stamps simulated_seconds, applies any
  /// residual batched settlements, checks funds conservation.
  void finish_run();

  /// Streams one payment in from the coordinator (N-shard mode, where the
  /// per-shard sources are empty): schedules its arrival event locally.
  /// Arrival times must be monotone, as with a real source.
  void inject_arrival(pcn::Payment payment);

  /// Queues a cross-shard TU for adoption / a foreign TU's outcome for the
  /// home-side bookkeeping. Called at a barrier; the matching event fires
  /// no earlier than `not_before` (the barrier time).
  void deliver_handoff(TuHandoff msg, double not_before);
  void deliver_result(TuResult msg, double not_before);

  /// Deadline high-water mark pulled/injected so far; the coordinator's
  /// hard stop is the max over shards of this, plus the usual slack.
  [[nodiscard]] double last_deadline_seen() const noexcept {
    return last_deadline_seen_;
  }

  // ---- Router-facing API ----------------------------------------------
  [[nodiscard]] double now() const noexcept { return scheduler_.now(); }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] pcn::Network& network() noexcept { return network_; }
  [[nodiscard]] const pcn::Network& network() const noexcept { return network_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::MessageCounters& counters() noexcept { return metrics_.messages; }
  [[nodiscard]] EngineMetrics& metrics() noexcept { return metrics_; }

  /// Dispatches a TU (path and hop_amounts must be populated; next_hop 0).
  /// Returns the TU id. The engine owns the TU from here on and reports
  /// back through Router::on_tu_delivered / on_tu_failed.
  TuId send_tu(TransactionUnit tu);

  /// Strict lookup: throws on an unknown (or evicted) payment. Safe from
  /// any context holding a live TU of the payment — the TU pins the state.
  [[nodiscard]] PaymentState& payment_state(PaymentId id);

  /// Checked lookup that tolerates eviction: nullptr when the payment is
  /// unknown or its resolved state has been evicted (treat as inactive).
  [[nodiscard]] PaymentState* find_payment_state(PaymentId id) noexcept {
    return states_.find(id);
  }

  /// Arms a router timer `delay` seconds from now: fires back through
  /// Router::on_timer with (a, b) verbatim. A typed pooled event — use this
  /// instead of scheduler().after(...) for per-TU-frequency timers, where a
  /// captured lambda would heap-allocate.
  sim::Scheduler::EventId schedule_timer(double delay, std::uint64_t a,
                                         std::uint64_t b = 0) {
    return scheduler_.after(
        delay, sim::EngineEvent{.kind = sim::EngineEvent::Kind::kRouterTimer,
                                .channel = 0,
                                .aux = 0,
                                .a = a,
                                .b = b});
  }

  /// Grace period past the workload horizon during which recurring router
  /// events (price ticks, probes, hub sync, send drips) keep running, so
  /// the tail payments can still complete. One named constant shared by
  /// every cutoff site so a grace change can never leave them divergent.
  static constexpr double kHorizonGraceS = 0.5;

  /// True once the simulation clock has passed the workload horizon plus
  /// the grace period — recurring router events should stop re-arming.
  [[nodiscard]] bool past_horizon() const noexcept {
    return now() > workload_horizon() + kHorizonGraceS;
  }

  /// Upper bound on the last payment deadline: exact once the source is
  /// drained (and from the start for replay sources, whose hint is exact);
  /// before that, the larger of the source's hint and the deadlines seen so
  /// far. Routers bound their recurring price/probe ticks with this instead
  /// of scanning a materialised payment vector.
  [[nodiscard]] double workload_horizon() const noexcept {
    return source_horizon_ > last_deadline_seen_ ? source_horizon_
                                                 : last_deadline_seen_;
  }

  /// Quantised arrival-bucket key (nanosecond grid): same-instant hop
  /// arrivals must coalesce on an integer key, never on a raw double (two
  /// doubles that print alike can differ in the last bit and silently
  /// split a bucket). Public so tests can pin the quantisation contract.
  [[nodiscard]] static std::int64_t arrival_tick(double when) noexcept;

  /// Marks the payment failed (router decision, e.g., no path exists).
  void fail_payment(PaymentId id, FailReason reason);

  /// Queue depth in value for a directed channel (router congestion input).
  [[nodiscard]] Amount queue_amount(ChannelId channel, pcn::Direction d) const;

 private:
  struct LiveTu {
    TransactionUnit tu;
    std::vector<char> hop_locked;  // which path edges currently hold a lock
    /// Sharded mode: this TU was adopted from another shard and its payment
    /// state lives elsewhere — resolution relays a TuResult home instead of
    /// touching local payment bookkeeping.
    bool foreign = false;
    std::uint32_t home_shard = 0;  // valid when foreign
    TuId home_id = 0;              // the id the home shard knows the TU by
    /// deliver()/fail_tu() ran: in per-hop mode the entry outlives its
    /// resolution until the ack-chain kReleaseTu fires, and the channel-
    /// close sweep (and any late kMark) must not fail it a second time.
    bool resolved = false;
  };
  struct QueuedTu {
    TuId id;
    double enqueued_at;
    Amount amount;  // hop amount charged against queued_value at enqueue
    sim::Scheduler::EventId mark_event;
  };
  struct DirectedState {
    std::deque<QueuedTu> queue;
    Amount queued_value = 0;
    double next_free = 0.0;     // processing-rate token bucket
    bool drain_pending = false; // a drain wake-up is already scheduled
  };
  /// Per-epoch settle/refund totals for one channel direction, applied in
  /// bulk at the next settlement_epoch_s boundary.
  struct PendingSettlement {
    Amount settle_total = 0;
    Amount refund_total = 0;
    std::uint64_t settle_ops = 0;
    std::uint64_t refund_ops = 0;
  };
  /// Epoch buffer for batched settlement: pending totals per directed
  /// channel plus the dirty set, drained by one flush event per epoch. The
  /// same flush also wakes rate-blocked queues and deferred atomic-mode
  /// TUs, so one recurring event replaces per-direction and per-TU wake-ups.
  struct SettlementBatcher {
    std::vector<PendingSettlement> pending;  // index: 2*channel + dir
    std::vector<std::size_t> dirty;          // indices with nonzero pending
    std::vector<std::size_t> blocked_queues; // rate-blocked directed indices
    std::vector<TuId> deferred_tus;          // atomic TUs waiting on r_process
    bool flush_scheduled = false;
  };

  // Typed-event dispatch: every hot-path scheduler event lands here as a
  // tagged POD (see sim/engine_event.h) instead of a per-event closure.
  void handle_event(const sim::EngineEvent& event) override;

  // Mechanics.
  /// Pulls the next payment from the source (if any) and schedules its
  /// arrival event; called once at start-up and then from each arrival.
  void schedule_next_arrival();
  void on_arrival(const pcn::Payment& payment);
  void note_buffer_peak() noexcept;
  void attempt_hop(TuId id);
  /// Schedules arrive_next after the hop delay. Batched mode coalesces
  /// same-instant arrivals (common: a flush forwards many TUs at one
  /// boundary) into a single shared scheduler event.
  void schedule_hop_arrival(TuId id);
  void arrive_next(TuId id);
  void deliver(TuId id);
  void fail_tu(TuId id, FailReason reason);
  void settle_backwards(TuId id);
  void refund_backwards(TuId id, FailReason reason);
  void enqueue(TuId id, ChannelId channel, pcn::Direction d);
  void drain_queue(ChannelId channel, pcn::Direction d);
  /// Schedules one drain wake-up at `when` unless one is already pending
  /// for this direction (duplicate wake-ups flood the scheduler).
  void schedule_drain(ChannelId channel, pcn::Direction d, double when);
  std::size_t pick_from_queue(const DirectedState& state) const;
  void on_payment_deadline(PaymentId id);

  // Sharded-mode internals.
  /// True when the channel belongs to another shard (always false unbound).
  [[nodiscard]] bool channel_is_remote(ChannelId channel) const noexcept {
    return coordinator_ != nullptr &&
           coordinator_->shard_of_channel(channel) != shard_id_;
  }
  /// Ships a live TU to the shard owning its next-hop channel; the local
  /// entry is erased (the home payment pin, if any, stays held until the
  /// TuResult comes back).
  void export_tu(TuId id);
  /// Registers a handed-off TU under a fresh local id and forwards it.
  void adopt_tu(TuHandoff msg);
  /// Home-side bookkeeping for a TU that resolved on another shard: the
  /// payment-state block of deliver()/fail_tu(), the router callbacks, and
  /// the release of the live_tus pin taken at send_tu.
  void apply_remote_result(TuResult msg);

  // Retention contract.
  /// Orphan-tolerant lookup for engine-internal TU paths: nullptr means
  /// the payment was resolved and evicted (only possible with retention
  /// off); with retention on a miss is a caller bug and throws like
  /// payment_state().
  [[nodiscard]] PaymentState* state_or_orphan(PaymentId id);
  /// Folds the payment's final outcome (latency, TU count, partial value)
  /// into the streaming accumulators. Called exactly once, at resolution.
  void fold_resolution(const PaymentState& state);
  /// Erases the live TU entry, drops its payment's live_tus pin and evicts
  /// the state when that was the last reference. Replaces every direct
  /// live_.erase() at TU release sites.
  void release_live_tu(TuId id);
  /// Evicts the payment's state iff eviction is enabled, the payment is
  /// resolved and nothing (live TU, deadline event) references it.
  void maybe_evict(PaymentId id);

  // Batched settlement (settlement_epoch_s > 0).
  void add_pending(ChannelId channel, pcn::Direction d, Amount amount,
                   bool is_settle);
  /// Folds every still-locked hop of a resolved TU into the epoch buffer
  /// (settle on delivery, refund on failure).
  void add_pending_locked_hops(const LiveTu& live, bool is_settle);
  void schedule_flush();
  /// Cancels the payment's pending deadline event (batched mode only; the
  /// payment must still be unresolved, i.e. the event has not fired).
  void cancel_deadline_event(PaymentId id);
  /// Applies every pending settle/refund total, then (if `drain`) retries
  /// the queues whose funds changed.
  void flush_settlements(bool drain);

  /// validate_queues hook: recomputes the queue's value from its entries.
  void check_queue_invariant(ChannelId channel, pcn::Direction d) const;

  // Hostile-world mutation plumbing (inert unless config_.hostile enables
  // a mutator). The engine replays the merged mutator streams through its
  // own scheduler, one staged kMutation event at a time (the arrival
  // pattern): equal-timestamp events across mutators fire in ascending
  // mutator index order. In a sharded run every shard replays the whole
  // stream and flips the state flags (closed / offline / policy) so path
  // selection agrees everywhere; the fund-touching side effects of a close
  // (queue flush, in-flight refunds) run only on the channel's owning
  // shard.
  /// Builds the mutators and stages each one's first event (begin_run).
  void init_mutators();
  /// Schedules one kMutation event for the earliest staged event, if any.
  void schedule_next_mutation();
  /// Applies one mutation. Down/close depth counters make overlapping
  /// faults on one target idempotent: only 0 <-> 1 transitions flip flags.
  void apply_mutation(const pcn::MutationEvent& event);
  /// Close side effects on the owning shard: fail both waiting queues
  /// (kChannelClosed, mark events cancelled) and refund every unresolved
  /// in-flight TU holding a lock on the channel.
  void on_channel_close(ChannelId channel);

  // Directed-channel index scheme shared by directed_ and the batcher.
  [[nodiscard]] static constexpr std::size_t directed_index(
      ChannelId channel, pcn::Direction d) noexcept {
    return 2 * channel + pcn::dir_index(d);
  }
  [[nodiscard]] static constexpr ChannelId channel_of(std::size_t idx) noexcept {
    return static_cast<ChannelId>(idx / 2);
  }
  [[nodiscard]] static constexpr pcn::Direction direction_of(
      std::size_t idx) noexcept {
    return static_cast<pcn::Direction>(idx % 2);
  }

  [[nodiscard]] DirectedState& directed(ChannelId channel, pcn::Direction d) {
    return directed_[directed_index(channel, d)];
  }
  [[nodiscard]] const DirectedState& directed(ChannelId channel,
                                              pcn::Direction d) const {
    return directed_[directed_index(channel, d)];
  }

  pcn::Network network_;
  std::unique_ptr<pcn::TrafficSource> source_;
  Router& router_;
  EngineConfig config_;
  sim::Scheduler scheduler_;
  common::Rng rng_;
  EngineMetrics metrics_;

  // Streaming-arrival state.
  double source_horizon_ = 0.0;      // source->horizon_hint() at start
  double last_arrival_time_ = 0.0;   // monotonicity guard
  double last_deadline_seen_ = 0.0;  // grows as payments are pulled
  std::size_t pending_arrivals_ = 0; // pulled but not yet arrived (<= 1)
  std::size_t active_payments_ = 0;  // arrived, not yet resolved
  // The one pulled-but-not-arrived payment (pending_arrivals_ <= 1); its
  // kArrival event carries no payload, it just claims this slot.
  std::optional<pcn::Payment> staged_arrival_;

  // Slab stores exploiting that PaymentId/TuId are dense sequential ids:
  // hot-path lookups are a subtraction and a masked index instead of a
  // hash-map probe. Eviction (PR 4) frees the slot back into the window.
  common::DenseIdMap<PaymentState> states_;
  common::DenseIdMap<LiveTu> live_;
  std::vector<DirectedState> directed_;
  SettlementBatcher batcher_;
  // Hostile-world mutation state: the mutator streams, one staged event
  // per mutator, and per-target depth counters for overlapping faults.
  // Empty/unused in a benign run. Written only by the engine's mutation
  // plumbing (splicer_lint writer-lanes owns these names).
  std::vector<std::unique_ptr<pcn::ScenarioMutator>> mutators_;
  std::vector<std::optional<pcn::MutationEvent>> staged_mutations_;
  std::vector<std::uint32_t> node_down_depth_;
  std::vector<std::uint32_t> channel_close_depth_;
  // Batched mode: TUs arriving at the same instant share one event, keyed
  // by the tick-quantised arrival time (never by a raw double).
  // SPLICER_LINT_ALLOW(unordered-decl): keyed try_emplace/extract only; the
  // firing order of buckets comes from the scheduler heap, and TUs within a
  // bucket keep their deterministic insertion order in the vector.
  std::unordered_map<std::int64_t, std::vector<TuId>> arrival_buckets_;
  TuId next_tu_id_ = 1;
  Amount initial_funds_ = 0;

  // Sharded-mode state (inert in a sequential run).
  ShardCoordinator* coordinator_ = nullptr;
  std::uint32_t shard_id_ = 0;
  // Barrier-delivered rich messages; each entry is claimed in FIFO order by
  // its matching kRemoteHandoff/kRemoteResult event (scheduled at the same
  // barrier timestamp, so heap order equals deque order).
  std::deque<TuHandoff> handoff_inbox_;
  std::deque<TuResult> result_inbox_;
  // Coordinator-injected payments awaiting their kArrival events (N-shard
  // mode; the sequential path uses the single staged_arrival_ slot).
  std::deque<pcn::Payment> injected_arrivals_;
  // Guard: on_tu_forwarded receives a reference into the live_ slab, which
  // send_tu can relocate — dispatching from that hook is a hard error, not
  // silent UB (see Router::on_tu_forwarded's contract).
  bool in_forward_hook_ = false;
};

}  // namespace splicer::routing
