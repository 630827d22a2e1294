#include "sim/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace splicer::sim {

std::uint32_t Scheduler::acquire_node(Time when) {
  std::uint32_t slot;
  if (free_head_ != kNullIndex) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
    pool_[slot].next_free = kNullIndex;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& node = pool_[slot];
  node.when = when < now_ ? now_ : when;
  node.seq = next_seq_++;
  return slot;
}

void Scheduler::release_node(std::uint32_t slot) {
  Node& node = pool_[slot];
  ++node.generation;  // invalidate outstanding EventIds for this slot
  node.heap_pos = kNullIndex;
  node.event = EngineEvent{};
  node.callback = nullptr;
  node.next_free = free_head_;
  free_head_ = slot;
}

Scheduler::EventId Scheduler::at(Time when, Callback callback) {
  const std::uint32_t slot = acquire_node(when);
  pool_[slot].callback = std::move(callback);
  heap_push(slot);
  return (static_cast<EventId>(pool_[slot].generation) << 32) | slot;
}

Scheduler::EventId Scheduler::at(Time when, const EngineEvent& event) {
  if (sink_ == nullptr) {
    throw std::logic_error("Scheduler: typed event scheduled without a sink");
  }
  if (event.kind == EngineEvent::Kind::kNone) {
    // kNone is the pool's "this node carries a callback" discriminator;
    // letting it through would mis-route the event to the (empty) callback
    // branch at fire time — reject at the scheduling site instead.
    throw std::invalid_argument("Scheduler: typed event with kind kNone");
  }
  const std::uint32_t slot = acquire_node(when);
  pool_[slot].event = event;
  heap_push(slot);
  return (static_cast<EventId>(pool_[slot].generation) << 32) | slot;
}

namespace {
[[nodiscard]] Time next_boundary_after(Time now, Time period) {
  if (period <= 0) {
    throw std::invalid_argument("Scheduler::at_next_boundary: period <= 0");
  }
  // Strictly after now: a flush that runs exactly on boundary k*period and
  // generates new work must coalesce that work onto boundary (k+1)*period.
  Time when = (std::floor(now / period) + 1.0) * period;
  while (when <= now) when += period;  // guard against rounding at huge t/period
  return when;
}
}  // namespace

Scheduler::EventId Scheduler::at_next_boundary(Time period, Callback callback) {
  return at(next_boundary_after(now_, period), std::move(callback));
}

Scheduler::EventId Scheduler::at_next_boundary(Time period,
                                               const EngineEvent& event) {
  return at(next_boundary_after(now_, period), event);
}

bool Scheduler::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= pool_.size()) return false;
  Node& node = pool_[slot];
  // A stale generation (or a free slot) means the event already fired or
  // was cancelled: report failure without touching any accounting.
  if (node.generation != generation_of(id) || node.heap_pos == kNullIndex) {
    return false;
  }
  heap_remove(node.heap_pos);
  release_node(slot);
  return true;
}

// SPLICER_LINT_ALLOW(std-function): definition of the documented periodic-
// tick fallback variant declared in scheduler.h; not on the hot path.
void Scheduler::every(Time period, std::function<bool()> callback) {
  // A zero, negative or NaN period would re-arm at the same instant
  // forever, so run(until) could never advance the clock.
  if (!(period > 0)) throw std::invalid_argument("Scheduler::every: period <= 0");
  after(period, [this, period, cb = std::move(callback)]() mutable {
    if (cb()) every(period, std::move(cb));
  });
}

#ifdef SPLICER_AUDIT
void Scheduler::audit_check_pop(const HeapEntry& top) {
  const bool monotone =
      top.when > audit_last_when_ ||
      (top.when == audit_last_when_ && top.seq > audit_last_seq_);
  if (!monotone) {
    throw std::logic_error(
        "Scheduler audit: non-monotone (when, seq) pop — heap order broken");
  }
  if (top.when < now_) {
    throw std::logic_error("Scheduler audit: popped event is in the past");
  }
  audit_last_when_ = top.when;
  audit_last_seq_ = top.seq;
}

void Scheduler::audit_validate_heap() const {
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  for (std::uint32_t pos = 0; pos < size; ++pos) {
    const HeapEntry& entry = heap_[pos];
    if (pos > 0 && fires_before(entry, heap_[(pos - 1) / 4])) {
      throw std::logic_error(
          "Scheduler audit: 4-ary heap property violated");
    }
    const Node& node = pool_[entry.slot];
    if (node.heap_pos != pos || node.when != entry.when ||
        node.seq != entry.seq) {
      throw std::logic_error(
          "Scheduler audit: heap entry / pool back-pointer mismatch");
    }
  }
}
#endif

bool Scheduler::step() {
  if (heap_.empty()) return false;
#ifdef SPLICER_AUDIT
  audit_check_pop(heap_[0]);
#endif
  const std::uint32_t slot = heap_[0].slot;
  Node& node = pool_[slot];
  now_ = node.when;
  // Copy the payload out before releasing: the handler may schedule new
  // events, which can recycle this slot or grow the pool.
  const EngineEvent event = node.event;
  Callback callback = std::move(node.callback);
  heap_remove(0);
  release_node(slot);
  if (event.kind == EngineEvent::Kind::kNone) {
    callback();  // empty callbacks throw bad_function_call, as before
  } else {
    sink_->handle_event(event);
  }
  return true;
}

std::size_t Scheduler::run(Time until, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && !heap_.empty()) {
    if (heap_[0].when > until) break;
    if (step()) ++executed;
  }
  return executed;
}

void Scheduler::heap_push(std::uint32_t slot) {
  const Node& node = pool_[slot];
  pool_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{node.when, node.seq, slot});
  sift_up(pool_[slot].heap_pos);
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::heap_remove(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
#ifdef SPLICER_AUDIT
    audit_on_mutation();
#endif
    return;  // removed the tail entry
  }
  heap_[pos] = last;
  pool_[last.slot].heap_pos = pos;
  // The moved entry may violate the heap property in either direction.
  sift_down(pos);
  sift_up(pool_[last.slot].heap_pos);
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::sift_up(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!fires_before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = pos;
}

void Scheduler::sift_down(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        std::min(first_child + 3, size - 1);
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (fires_before(heap_[c], heap_[best])) best = c;
    }
    if (!fires_before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    pool_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = pos;
}

}  // namespace splicer::sim
