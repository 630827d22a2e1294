#pragma once

// Typed hot-path event payload for the discrete-event scheduler.
//
// The simulation engine schedules millions of events per run; carrying each
// one as a std::function closure costs a heap allocation and an indirect
// call per event. An EngineEvent is instead a tag plus a few POD fields,
// stored inline in the scheduler's event pool and dispatched through a
// single EventSink virtual call — no allocation anywhere on the hot path.
// It is the scheduler's only event type: recurring work (the rate tick,
// Splicer's epoch sync) runs as router timers too.

#include <cstdint>

namespace splicer::sim {

struct EngineEvent {
  enum class Kind : std::uint8_t {
    kNone = 0,       // unset; Scheduler::at rejects it
    kArrival,        // pull the staged payment into the engine
    kDeadline,       // payment deadline fired: a = PaymentId
    kAttemptHop,     // (re)try a TU's current hop: a = TuId
    kArriveNext,     // TU reached the next node after the hop delay: a = TuId
    kArrivalBucket,  // batched mode: shared same-instant arrivals, a = tick key
    kReleaseTu,      // ack chain fully walked back: a = TuId
    kSettleAck,      // per-hop settle ack: channel, aux = from-node, a = amount
    kRefundAck,      // per-hop refund ack: channel, aux = from-node, a = amount
    kMark,           // congestion mark check: a = TuId, channel, aux = direction
    kDrain,          // rate-limiter queue wake-up: channel, aux = direction
    kFlush,          // settlement-epoch flush boundary
    kRouterTimer,    // router-owned timer: a and b are router-defined
    kMutation,       // hostile-world mutation due: a = staged mutator index
  };

  Kind kind = Kind::kNone;
  std::uint32_t channel = 0;  // ChannelId where applicable
  std::uint32_t aux = 0;      // Direction / NodeId where applicable
  std::uint64_t a = 0;        // primary payload (TuId / PaymentId / amount / key)
  std::uint64_t b = 0;        // secondary payload (router timers)
};

/// Receiver for events. The engine implements this once; the scheduler
/// dispatches every event through it (one devirtualizable call instead of
/// one type-erased closure per event).
class EventSink {
 public:
  virtual void handle_event(const EngineEvent& event) = 0;

 protected:
  ~EventSink() = default;
};

}  // namespace splicer::sim
