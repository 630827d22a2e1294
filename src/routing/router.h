#pragma once

// Router strategy interface and the transaction-unit (TU) model shared by
// the simulation engine and every routing scheme.
//
// The engine executes mechanics (HTLC locks hop by hop, acks, waiting
// queues, congestion marking, deadlines, metrics); a Router decides policy
// (paths, splitting, rates, windows, retries) through the hooks below.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"
#include "pcn/types.h"
#include "pcn/workload.h"

namespace splicer::routing {

using pcn::Amount;
using pcn::ChannelId;
using pcn::NodeId;
using pcn::PaymentId;
using pcn::TuId;

/// Waiting-queue service orders evaluated in Table II.
enum class SchedulingPolicy : std::uint8_t {
  kFifo,  // first in, first out
  kLifo,  // last in, first out (the paper's pick: serves txns far from deadline)
  kSpf,   // smallest payment first
  kEdf,   // earliest deadline first
};

[[nodiscard]] const char* to_string(SchedulingPolicy policy) noexcept;

enum class FailReason : std::uint8_t {
  kNoPath,             // router found no usable path
  kInsufficientFunds,  // atomic lock failed mid-path
  kMarkedCongested,    // queued past the delay threshold T and marked
  kQueueOverflow,      // channel waiting queue full (q_amount bound)
  kTimeout,            // payment deadline passed
  kHubOverload,        // hub processing backlog (A2L crypto cost model)
  kNodeOffline,        // a path node is offline (hostile-world fault)
  kChannelClosed,      // a path channel closed (hostile-world churn)
  // When adding a reason: keep it above this comment, extend to_string, and
  // bump the static_assert below so kFailReasonCount tracks the enum.
};

/// Number of FailReason values; sizes the per-reason metric arrays.
inline constexpr std::size_t kFailReasonCount =
    static_cast<std::size_t>(FailReason::kChannelClosed) + 1;
static_assert(kFailReasonCount == 8,
              "FailReason changed: update kFailReasonCount's anchor "
              "(last enumerator), to_string(FailReason), and this assert");

[[nodiscard]] const char* to_string(FailReason reason) noexcept;

/// One transaction unit (paper: TU with fresh tuid). hop_amounts[i] is the
/// amount locked on the i-th path edge; it exceeds the delivered value by
/// the downstream forwarding fees (paper eq. 24).
///
/// A TU owns no storage: `path` and `hop_amounts` are views. A router points
/// them at its own path cache or scratch and calls Engine::send_tu, which
/// copies both into engine-owned per-TU storage before it returns, so the
/// router may reuse its buffers at once. The TUs the engine hands to router
/// hooks view that engine storage (see the lifetime contract on Router).
struct TransactionUnit {
  TuId id = 0;
  PaymentId payment = 0;
  Amount value = 0;  // value delivered at the destination
  graph::PathView path;
  std::span<const Amount> hop_amounts;
  std::size_t next_hop = 0;  // index of the edge about to be locked
  double deadline = 0.0;
  std::size_t path_index = 0;  // which of its payment's k paths
};

class Engine;

/// Router hooks receive `const TransactionUnit&`. Lifetime contract: the
/// scalar fields may be copied out freely, but the `path` and `hop_amounts`
/// views are valid only until the hook returns. The engine recycles a TU's
/// storage once the TU is released, and the storage never moves while the
/// TU is live, so a hook may call Engine::send_tu (where its contract
/// allows) without invalidating the view it was handed. To keep a path
/// beyond the hook, copy it.
class Router {
 public:
  virtual ~Router() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the first event; set up timers and caches here.
  virtual void on_start(Engine& engine) { (void)engine; }

  /// A client's payment request reaches its routing decision point.
  virtual void on_payment(Engine& engine, const pcn::Payment& payment) = 0;

  /// All hops of this TU settled at the destination.
  virtual void on_tu_delivered(Engine& engine, const TransactionUnit& tu) {
    (void)engine;
    (void)tu;
  }

  /// The TU was unwound (never reaches the destination).
  virtual void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                            FailReason reason) {
    (void)engine;
    (void)tu;
    (void)reason;
  }

  /// A TU locked funds on (channel, direction); rate-based routers
  /// accumulate the per-direction arrival counters m_a here (eq. 22).
  /// `tu` refers into the engine's live-TU slab: do NOT call
  /// Engine::send_tu from this hook (a slab grow may relocate the
  /// referenced record). on_tu_delivered/on_tu_failed receive copies of the
  /// record and are the places to dispatch follow-up TUs.
  virtual void on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                               ChannelId channel, pcn::Direction direction) {
    (void)engine;
    (void)tu;
    (void)channel;
    (void)direction;
  }

  /// The payment's deadline fired without full delivery.
  virtual void on_payment_timeout(Engine& engine, PaymentId payment) {
    (void)engine;
    (void)payment;
  }

  /// The payment reached quiescence: resolved (completed or failed) and
  /// no live TU remains — the engine will never invoke another per-TU hook
  /// for it. Fired exactly once per payment, immediately before its state
  /// is evicted. This is the place to erase per-payment entries from
  /// router-side maps.
  /// Contract: the hook must not dispatch TUs or schedule events — firing
  /// it must leave the simulation's event stream untouched.
  virtual void on_payment_resolved(Engine& engine, PaymentId payment) {
    (void)engine;
    (void)payment;
  }

  /// A timer armed through Engine::schedule_timer fired. `a` and `b` carry
  /// whatever the router packed when arming. Every router timer lands here:
  /// per-TU ones (pacing drips, deferred admits) and recurring ticks (the
  /// tau tick, Splicer's epoch sync), which re-arm themselves from this
  /// hook. Each is a POD event in the scheduler pool, never a closure.
  virtual void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) {
    (void)engine;
    (void)a;
    (void)b;
  }
};

}  // namespace splicer::routing
