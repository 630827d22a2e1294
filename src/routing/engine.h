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
#include <type_traits>
#include <utility>
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
  /// Hostile-world scenario pack: fault injection, channel churn, per-edge
  /// fee/timelock policies (see pcn/scenario_mutator.h). All rates default
  /// to 0, in which case no mutator is built, no mutation event is ever
  /// scheduled and no RNG draw happens — the benign event stream is
  /// byte-identical to an engine without this field (CI-gated). Mutation
  /// randomness derives from hostile.seed, never from `seed`, so enabling
  /// mutators consumes no engine RNG draw.
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
  /// Peak number of PaymentStates simultaneously resident. A resolved
  /// state is erased once no live TU references it, so this stays at the
  /// concurrency level, not the workload size.
  std::size_t peak_resident_states = 0;
  /// Streaming per-run accumulators, folded at resolution time: resolved
  /// states are gone by the end of the run, so no metric can scan them.
  common::RunningStats completion_delay_stats;  // seconds, completed payments
  common::RunningStats tus_per_payment_stats;   // TUs launched per resolved payment
  /// Value delivered by payments that nonetheless failed (partial
  /// deliveries observed at resolution time).
  Amount failed_delivered_value = 0;
  /// Always 0: the rate tick sweeps every channel and pair each tau, so it
  /// skips no price update and reuses no probe sum. Kept because the
  /// perfbench harness still reads and reports both fields.
  std::uint64_t price_updates_skipped = 0;
  std::uint64_t probe_sums_reused = 0;
  /// Hostile-world mutation events applied (0 in a benign run).
  std::uint64_t mutation_events = 0;
  /// Deadlock witnesses, stamped at the end of run() before the conservation
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
};

/// Per-payment progress (router-visible). A resolved state is erased as
/// soon as its last live TU is released, so routers must reach it through
/// Engine::find_payment_state() from any context that can outlive
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
  /// The deadline event, pending while the payment is active: every
  /// resolution cancels it. Stored inline so no side map is needed.
  sim::Scheduler::EventId deadline_event = 0;

  [[nodiscard]] Amount remaining_to_dispatch() const noexcept {
    return payment.value - delivered - in_flight;
  }
  [[nodiscard]] bool active() const noexcept { return !completed && !failed; }
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

  /// Runs the whole simulation; single call.
  EngineMetrics run();

  // ---- Router-facing API ----------------------------------------------
  [[nodiscard]] double now() const noexcept { return scheduler_.now(); }
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] pcn::Network& network() noexcept { return network_; }
  [[nodiscard]] const pcn::Network& network() const noexcept { return network_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::MessageCounters& counters() noexcept { return metrics_.messages; }
  [[nodiscard]] EngineMetrics& metrics() noexcept { return metrics_; }

  /// Dispatches a TU (path and hop_amounts must be populated; next_hop 0).
  /// Returns the TU id. The path and hop amounts are copied into recycled
  /// engine storage before any router hook runs, so the views may point at
  /// router scratch that the caller reuses right after (or, inside a nested
  /// hook, before) this returns. The engine owns the TU from here on and
  /// reports back through Router::on_tu_delivered / on_tu_failed.
  TuId send_tu(const TransactionUnit& tu);

  /// nullptr when the payment is unknown or resolved and evicted (treat
  /// as inactive). A live TU of the payment pins its state.
  [[nodiscard]] PaymentState* find_payment_state(PaymentId id) noexcept {
    return states_.find(id);
  }

  /// Arms a router timer `delay` seconds from now: fires back through
  /// Router::on_timer with (a, b) verbatim. The one way a router schedules
  /// work, from per-TU drips to the recurring tau tick: a typed pooled
  /// event, never a heap-allocated closure.
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
  /// A live TU: a small trivially copyable record. Its `tu.path` and
  /// `tu.hop_amounts` view route_slots_[route_slot], which the TU holds
  /// from send_tu until release_live_tu.
  struct LiveTu {
    TransactionUnit tu;
    std::uint32_t route_slot = 0;
    /// Path edges [0, locked_hops) hold a lock: attempt_hop locks only
    /// tu.next_hop, in path order, and nothing is released before the TU
    /// resolves, so the locked hops are always a prefix.
    std::uint32_t locked_hops = 0;
    /// deliver()/fail_tu() ran: in per-hop mode the entry outlives its
    /// resolution until the ack-chain kReleaseTu fires, and the channel-
    /// close sweep (and any late kMark) must not fail it a second time.
    bool resolved = false;
  };
  static_assert(std::is_trivially_copyable_v<LiveTu>);
  /// Engine-owned copy of one live TU's route. Slots are recycled through
  /// free_route_slots_ and never freed; their vectors keep their capacity,
  /// so once the slots have grown to the run's path lengths, send_tu copies
  /// without allocating. route_slots_ is a deque, so adding a slot never
  /// moves another: a view stays valid for as long as its TU holds the slot.
  struct RouteSlot {
    std::vector<NodeId> nodes;
    std::vector<ChannelId> edges;
    std::vector<Amount> hop_amounts;
  };
  /// Batched-mode arrival bucket: the next `size` ids of arrival_tus_ all
  /// arrive on nanosecond tick `tick`.
  struct ArrivalBucket {
    std::int64_t tick = 0;
    std::size_t size = 0;
  };
  struct QueuedTu {
    TuId id;
    Amount amount;  // hop amount charged against queued_value at enqueue
    sim::Scheduler::EventId mark_event;
  };
  struct DirectedState {
    // A vector, not a deque: libstdc++'s deque allocates on construction,
    // two blocks for every directed channel of every run. LIFO (the
    // default) serves from the back.
    std::vector<QueuedTu> queue;
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
  /// Every vector keeps its capacity across epochs. The flush walks the
  /// `retry_*` twins of blocked_queues and deferred_tus (swapped in), since
  /// its retries may append to the live lists for the next flush.
  struct SettlementBatcher {
    std::vector<PendingSettlement> pending;  // index: 2*channel + dir
    std::vector<std::size_t> dirty;          // indices with nonzero pending
    std::vector<std::size_t> blocked_queues; // rate-blocked directed indices
    std::vector<TuId> deferred_tus;          // atomic TUs waiting on r_process
    std::vector<std::pair<ChannelId, pcn::Direction>> to_drain;
    std::vector<std::size_t> retry_queues;
    std::vector<TuId> retry_tus;
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
  /// Fires the oldest arrival bucket, whose kArrivalBucket event carries
  /// `tick`; throws std::logic_error if the two disagree.
  void fire_arrival_bucket(std::int64_t tick);
  void arrive_next(TuId id);
  void deliver(TuId id);
  void fail_tu(TuId id, FailReason reason);
  /// Walks a resolved TU's locked hops back from the last one: settles them
  /// on delivery, refunds them on failure. Per-hop mode schedules one ack
  /// event per hop, a hop delay apart, then the kReleaseTu that frees the
  /// live entry; batched mode folds each hop into the epoch buffer.
  void unwind(TuId id, const LiveTu& live, bool settle);
  void enqueue(TuId id, ChannelId channel, pcn::Direction d);
  void drain_queue(ChannelId channel, pcn::Direction d);
  /// Schedules one drain wake-up at `when` unless one is already pending
  /// for this direction (duplicate wake-ups flood the scheduler).
  void schedule_drain(ChannelId channel, pcn::Direction d, double when);
  std::size_t pick_from_queue(const DirectedState& state) const;
  void on_payment_deadline(PaymentId id);

  // Payment-state lifetime.
  /// Orphan-tolerant lookup for engine-internal TU paths: nullptr means
  /// the payment was resolved and evicted. An id above every arrived id
  /// can only be a router bug and throws std::out_of_range.
  [[nodiscard]] PaymentState* state_or_orphan(PaymentId id);
  /// Folds the payment's final outcome (latency, TU count, partial value)
  /// into the streaming accumulators. Called exactly once, at resolution.
  void fold_resolution(const PaymentState& state);
  /// Copies the TU's route into a free route slot (growing the pool when
  /// none is free), points the TU's views at it and returns the slot.
  std::uint32_t store_route(TransactionUnit& tu);
  /// Erases the live TU entry, returns its route slot, drops its payment's
  /// live_tus pin and evicts the state when that was the last reference.
  /// Replaces every direct live_.erase() at TU release sites.
  void release_live_tu(TuId id);
  /// Once the payment is resolved with no live TU, notifies the router
  /// (Router::on_payment_resolved) and erases the state.
  void maybe_evict(PaymentId id);

  // Batched settlement (settlement_epoch_s > 0).
  void add_pending(ChannelId channel, pcn::Direction d, Amount amount,
                   bool is_settle);
  void schedule_flush();
  /// Applies every pending settle/refund total, then (if `drain`) retries
  /// the queues whose funds changed.
  void flush_settlements(bool drain);

  /// SPLICER_AUDIT witness, run after every queue mutation: re-derives the
  /// queue's value from its entries and throws on drift. Compiles to
  /// nothing in other builds.
#ifdef SPLICER_AUDIT
  void check_queue_invariant(ChannelId channel, pcn::Direction d) const;
#else
  void check_queue_invariant(ChannelId, pcn::Direction) const noexcept {}
#endif

  // Hostile-world mutation plumbing (inert unless config_.hostile enables
  // a mutator). The engine replays the merged mutator streams through its
  // own scheduler, one staged kMutation event at a time (the arrival
  // pattern): equal-timestamp events across mutators fire in ascending
  // mutator index order.
  /// Builds the mutators and stages each one's first event (start of run()).
  void init_mutators();
  /// Schedules one kMutation event for the earliest staged event, if any.
  void schedule_next_mutation();
  /// Applies one mutation. Down/close depth counters make overlapping
  /// faults on one target idempotent: only 0 <-> 1 transitions flip flags.
  void apply_mutation(const pcn::MutationEvent& event);
  /// Close side effects: fail both waiting queues (kChannelClosed, mark
  /// events cancelled) and refund every unresolved in-flight TU holding a
  /// lock on the channel.
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
  PaymentId max_arrived_id_ = 0;     // state_or_orphan's router-bug bound
  // The one pulled-but-not-arrived payment (pending_arrivals_ <= 1); its
  // kArrival event carries no payload, it just claims this slot.
  std::optional<pcn::Payment> staged_arrival_;

  // Slab stores exploiting that PaymentId/TuId are dense sequential ids:
  // hot-path lookups are a subtraction and a masked index instead of a
  // hash-map probe. Eviction frees the slot back into the window.
  common::DenseIdMap<PaymentState> states_;
  common::DenseIdMap<LiveTu> live_;
  std::vector<DirectedState> directed_;
  SettlementBatcher batcher_;
  // Hostile-world mutation state: the mutator streams, one staged event
  // per mutator, and per-target depth counters for overlapping faults.
  // Empty/unused in a benign run.
  std::vector<std::unique_ptr<pcn::ScenarioMutator>> mutators_;
  std::vector<std::optional<pcn::MutationEvent>> staged_mutations_;
  std::vector<std::uint32_t> node_down_depth_;
  std::vector<std::uint32_t> channel_close_depth_;
  std::deque<RouteSlot> route_slots_;
  std::vector<std::uint32_t> free_route_slots_;
  // Batched mode: TUs arriving at the same instant share one event, keyed
  // by the tick-quantised arrival time (never by a raw double). A bucket's
  // tick is that of now + hop_delay_s at its first insert, and now never
  // decreases, so no tick is ever below a pending bucket's: buckets fire in
  // the order they were opened and a FIFO holds them. Only the newest
  // pending bucket can take a new id. The buckets from arrival_buckets_head_
  // on are pending; their ids are arrival_tus_ from arrival_tus_head_ on, in
  // bucket order, each bucket's in insertion order.
  std::vector<ArrivalBucket> arrival_buckets_;
  std::size_t arrival_buckets_head_ = 0;
  std::vector<TuId> arrival_tus_;
  std::size_t arrival_tus_head_ = 0;
  TuId next_tu_id_ = 1;
  Amount initial_funds_ = 0;

  // Guard: on_tu_forwarded receives a reference into the live_ slab, which
  // send_tu can relocate — dispatching from that hook is a hard error, not
  // silent UB (see Router::on_tu_forwarded's contract).
  bool in_forward_hook_ = false;
};

}  // namespace splicer::routing
