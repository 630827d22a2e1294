#pragma once

// Deterministic discrete-event scheduler. Events fire in (time, sequence)
// order, so two events at the same timestamp execute in scheduling order -
// runs are bit-reproducible given the same seed and call sequence. This is
// the substitute substrate for the paper's LND-testnet deployment (see
// DESIGN.md substitution table).
//
// Representation: every event is a typed EngineEvent, dispatched through
// the registered EventSink. Events live in a free-list pool of 48-byte
// nodes (stable slots, no per-event allocation) and are ordered by a 4-ary
// min-heap of 24-byte entries that carry the (when, seq) key inline, so
// sifts compare within the contiguous heap array and write nothing back
// into the pool. EventIds encode (slot, generation). cancel() is lazy: it
// frees the pool slot at once (the generation bump makes the id stale, so
// cancelling twice or after firing is a detected no-op) and leaves the heap
// entry in place; the entry is dropped when it reaches the top, because its
// seq no longer matches its slot's. A count of such entries keeps pending()
// exact.

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/engine_event.h"

namespace splicer::sim {

using Time = double;  // seconds

class Scheduler {
 public:
  using EventId = std::uint64_t;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Registers the receiver every event is dispatched to. Required before
  /// scheduling any event.
  void set_sink(EventSink* sink) noexcept { sink_ = sink; }

  /// Schedules at absolute time (clamped to now if in the past). Throws
  /// std::logic_error with no sink set, and std::invalid_argument for a NaN
  /// time or a kNone event; +inf is legal.
  EventId at(Time when, const EngineEvent& event);

  /// Schedules `delay` seconds from now (delay < 0 clamps to 0).
  EventId after(Time delay, const EngineEvent& event) {
    return at(now_ + delay, event);
  }

  /// Schedules at the next strict multiple of `period` after now — the
  /// coalescing point for per-epoch batched work: every request made inside
  /// one epoch lands on the same boundary timestamp. Throws
  /// std::invalid_argument unless period > 0 (a NaN period included).
  EventId at_next_boundary(Time period, const EngineEvent& event);

  /// Cancels a pending event; returns false if already fired/cancelled.
  /// The pool slot is recycled at once (its generation counter invalidates
  /// the old id); the heap entry stays until it reaches the top and is
  /// dropped there without moving now() or counting as executed.
  bool cancel(EventId id);

  /// Live events only: heap entries minus the cancelled ones still in it.
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() - cancelled_in_heap_;
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }

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
    std::uint64_t seq = 0;           // 0 while free; matches its live heap entry
    std::uint32_t generation = 1;    // bumped on release; validates EventIds
    std::uint32_t next_free = kNullIndex;
    EngineEvent event;
  };

  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Pops a pool slot (growing the pool if the free list is empty), stamps
  /// it with the next sequence number and pushes its heap entry at `when`
  /// (clamped to now). Throws std::invalid_argument for a NaN `when`.
  std::uint32_t acquire_node(Time when);
  /// Returns a slot to the free list; bumps its generation so any EventId
  /// still pointing at it is detected as stale, and zeroes its seq so a heap
  /// entry still naming it reads as cancelled.
  void release_node(std::uint32_t slot);

  /// Heap entry with the ordering key inlined: sift comparisons stay in the
  /// contiguous heap array instead of chasing pool nodes per comparison.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// (when, seq) as one unsigned integer: the bits of a non-negative double
  /// order like its value (acquire_node rejects NaN and folds -0.0 into
  /// +0.0), and seqs are unique, so one compare decides firing order.
  using Key = unsigned __int128;
  [[nodiscard]] static Key key(const HeapEntry& e) noexcept {
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(e.when)) << 64) | e.seq;
  }
  [[nodiscard]] bool is_cancelled(const HeapEntry& e) const noexcept {
    return pool_[e.slot].seq != e.seq;
  }

  void heap_push(const HeapEntry& entry);
  /// Removes the top entry: the last entry sifts down once from the root.
  void heap_pop();
  /// Drops cancelled entries off the top, so heap_[0] (if any) is live.
  void drop_cancelled_tops();
  /// Fires heap_[0], which drop_cancelled_tops has left live.
  void fire_top();

#ifdef SPLICER_AUDIT
  // Dynamic witness for the heap-order invariant (SPLICER_AUDIT builds):
  // live pops must be monotone in (when, seq) — the firing order the frozen
  // fig7 baseline depends on — and every ~4096 heap mutations the full 4-ary
  // heap property is re-validated, along with the cancelled count: exactly
  // cancelled_in_heap_ entries may carry a seq their slot no longer holds.
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
  std::size_t cancelled_in_heap_ = 0;  // heap entries whose slot was released
};

}  // namespace splicer::sim
