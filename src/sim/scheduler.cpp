#include "sim/scheduler.h"

#include <cmath>
#include <stdexcept>

namespace splicer::sim {

std::uint32_t Scheduler::acquire_node(Time when) {
  // A NaN time has no place in the (when, seq) order: it would fire after
  // every finite event and leave now() at NaN.
  if (std::isnan(when)) throw std::invalid_argument("Scheduler::at: NaN time");
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
  node.seq = next_seq_++;
  // `+ 0.0` folds -0.0 into +0.0 (the key orders raw bits) and leaves every
  // other non-NaN value unchanged.
  heap_push(HeapEntry{(when < now_ ? now_ : when) + 0.0, node.seq, slot});
  return slot;
}

void Scheduler::release_node(std::uint32_t slot) {
  Node& node = pool_[slot];
  ++node.generation;  // invalidate outstanding EventIds for this slot
  node.seq = 0;       // a heap entry still naming this slot is now stale
  node.event = EngineEvent{};
  node.next_free = free_head_;
  free_head_ = slot;
}

Scheduler::EventId Scheduler::at(Time when, const EngineEvent& event) {
  if (sink_ == nullptr) {
    throw std::logic_error("Scheduler: event scheduled without a sink");
  }
  if (event.kind == EngineEvent::Kind::kNone) {
    // kNone means "unset": an event nobody filled in would reach the sink
    // with no handler, so reject it at the scheduling site instead.
    throw std::invalid_argument("Scheduler: event with kind kNone");
  }
  const std::uint32_t slot = acquire_node(when);
  pool_[slot].event = event;
  return (static_cast<EventId>(pool_[slot].generation) << 32) | slot;
}

namespace {
[[nodiscard]] Time next_boundary_after(Time now, Time period) {
  if (!(period > 0)) {
    throw std::invalid_argument("Scheduler::at_next_boundary: period <= 0");
  }
  // Strictly after now: a flush that runs exactly on boundary k*period and
  // generates new work must coalesce that work onto boundary (k+1)*period.
  Time when = (std::floor(now / period) + 1.0) * period;
  while (when <= now) when += period;  // guard against rounding at huge t/period
  return when;
}
}  // namespace

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
  if (node.generation != generation_of(id) || node.seq == 0) return false;
  release_node(slot);
  ++cancelled_in_heap_;
  return true;
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
  std::size_t stale = 0;
  for (std::uint32_t pos = 0; pos < size; ++pos) {
    const HeapEntry& entry = heap_[pos];
    if (pos > 0 && key(entry) < key(heap_[(pos - 1) / 4])) {
      throw std::logic_error(
          "Scheduler audit: 4-ary heap property violated");
    }
    if (is_cancelled(entry)) ++stale;
  }
  if (stale != cancelled_in_heap_) {
    throw std::logic_error(
        "Scheduler audit: cancelled count differs from the heap's stale entries");
  }
}
#endif

bool Scheduler::step() {
  drop_cancelled_tops();
  if (heap_.empty()) return false;
  fire_top();
  return true;
}

std::size_t Scheduler::run(Time until, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    drop_cancelled_tops();
    if (heap_.empty() || heap_[0].when > until) break;
    fire_top();
    ++executed;
  }
  return executed;
}

void Scheduler::drop_cancelled_tops() {
  // The count is exact, so a run with no cancels never reads the pool here.
  while (cancelled_in_heap_ != 0 && is_cancelled(heap_[0])) {
    --cancelled_in_heap_;  // first: heap_pop may run the audit's recount
    heap_pop();
  }
}

void Scheduler::fire_top() {
  const HeapEntry top = heap_[0];
#ifdef SPLICER_AUDIT
  audit_check_pop(top);
#endif
  Node& node = pool_[top.slot];
  now_ = top.when;
  // Copy the payload out before releasing: the handler may schedule new
  // events, which can recycle this slot or grow the pool.
  const EngineEvent event = node.event;
  heap_pop();
  release_node(top.slot);
  sink_->handle_event(event);
}

void Scheduler::heap_push(const HeapEntry& entry) {
  const Key entry_key = key(entry);
  auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(entry);
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!(entry_key < key(heap_[parent]))) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::heap_pop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const auto size = static_cast<std::uint32_t>(heap_.size());
  const Key last_key = key(last);
  std::uint32_t pos = 0;
  while (pos * 4 + 1 < size) {
    const std::uint32_t first = pos * 4 + 1;
    std::uint32_t best = first;
    Key best_key = key(heap_[first]);
    // The earliest child: a select per candidate instead of a branch (the
    // compare's outcome is unpredictable), over all four children when they
    // exist and the tail's remainder otherwise.
    const std::uint32_t end = first + 4 <= size ? first + 4 : size;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      const Key child_key = key(heap_[c]);
      const bool earlier = child_key < best_key;
      best = earlier ? c : best;
      best_key = earlier ? child_key : best_key;
    }
    if (!(best_key < last_key)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  if (pos < size) heap_[pos] = last;
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

}  // namespace splicer::sim
