#pragma once

// Deterministic discrete-event scheduler. Events fire in (time, sequence)
// order, so two events at the same timestamp execute in scheduling order -
// runs are bit-reproducible given the same seed and call sequence. This is
// the substitute substrate for the paper's LND-testnet deployment (see
// DESIGN.md substitution table).
//
// Hot-path representation: events live in a free-list pool (stable slots,
// no per-event allocation) and are ordered by an index-based 4-ary min-heap
// that moves 4-byte slot indices instead of whole event records. An event
// is either a typed EngineEvent (dispatched through the registered
// EventSink) or a std::function fallback for low-frequency work. EventIds
// encode (slot, generation), so cancel() removes the event from the heap
// eagerly — no tombstone set to sift through, and cancelling an
// already-fired id is a detected no-op (the generation has moved on).

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine_event.h"

namespace splicer::sim {

using Time = double;  // seconds

class Scheduler {
 public:
  // SPLICER_LINT_ALLOW(std-function): the documented low-frequency fallback
  // variant (ticks, tests, tools); hot-path traffic uses typed pooled
  // EngineEvents that never touch this type-erased path.
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Registers the typed-event receiver. Required before scheduling any
  /// EngineEvent; fallback callbacks work without one.
  void set_sink(EventSink* sink) noexcept { sink_ = sink; }

  /// Schedules at absolute time (clamped to now if in the past).
  EventId at(Time when, Callback callback);
  EventId at(Time when, const EngineEvent& event);

  /// Schedules `delay` seconds from now (delay < 0 clamps to 0).
  EventId after(Time delay, Callback callback) {
    return at(now_ + delay, std::move(callback));
  }
  EventId after(Time delay, const EngineEvent& event) {
    return at(now_ + delay, event);
  }

  /// Schedules at the next strict multiple of `period` after now — the
  /// coalescing point for per-epoch batched work: every request made inside
  /// one epoch lands on the same boundary timestamp. period must be > 0.
  EventId at_next_boundary(Time period, Callback callback);
  EventId at_next_boundary(Time period, const EngineEvent& event);

  /// Cancels a pending event; returns false if already fired/cancelled.
  /// Eager: the event leaves the heap immediately and its pool slot is
  /// recycled (the slot's generation counter invalidates the old id).
  bool cancel(EventId id);

  /// Schedules `callback` every `period` seconds starting at now+period,
  /// until it returns false. Throws std::invalid_argument unless period > 0.
  // SPLICER_LINT_ALLOW(std-function): periodic ticks fire a handful of times
  // per simulated second — the documented fallback variant, not the hot path.
  void every(Time period, std::function<bool()> callback);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Executes the next event; returns false if none remain.
  bool step();

  /// Runs until the queue drains, `until` is passed, or `max_events` fire.
  /// Returns the number of events executed.
  std::size_t run(Time until = kForever, std::size_t max_events = kUnlimited);

  static constexpr Time kForever = 1e100;
  static constexpr std::size_t kUnlimited = ~std::size_t{0};

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;

  struct Node {
    Time when = 0.0;
    std::uint64_t seq = 0;           // (when, seq) is the firing order
    std::uint32_t generation = 1;    // bumped on release; validates EventIds
    std::uint32_t heap_pos = kNullIndex;  // kNullIndex when free
    std::uint32_t next_free = kNullIndex;
    EngineEvent event;
    Callback callback;  // non-empty = fallback dispatch
  };

  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Pops a pool slot (growing the pool if the free list is empty) and
  /// stamps it with `when` and the next sequence number.
  std::uint32_t acquire_node(Time when);
  /// Returns a slot to the free list; bumps its generation so any EventId
  /// still pointing at it is detected as stale.
  void release_node(std::uint32_t slot);

  /// Heap entry with the ordering key inlined: sift comparisons stay in the
  /// contiguous heap array instead of chasing pool nodes per comparison.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] static bool fires_before(const HeapEntry& a,
                                         const HeapEntry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void heap_push(std::uint32_t slot);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);

#ifdef SPLICER_AUDIT
  // Dynamic witness for the heap-order invariant (SPLICER_AUDIT builds):
  // pops must be monotone in (when, seq) — the firing order the frozen fig7
  // baseline depends on — and every ~4096 heap mutations the full 4-ary heap
  // property plus the pool heap_pos back-pointers are re-validated.
  void audit_check_pop(const HeapEntry& top);
  void audit_validate_heap() const;
  void audit_on_mutation() {
    if ((++audit_mutations_ & 0xfffu) == 0) audit_validate_heap();
  }
  Time audit_last_when_ = -kForever;
  std::uint64_t audit_last_seq_ = 0;
  std::uint64_t audit_mutations_ = 0;
#endif

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  EventSink* sink_ = nullptr;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNullIndex;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, seq)
};

}  // namespace splicer::sim
