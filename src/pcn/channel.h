#pragma once

// A bidirectional payment channel with per-direction spendable balances and
// in-flight HTLC locks.
//
// Funds movement follows HTLC semantics (paper SS II-A): forwarding value v
// from a to b first *locks* v on a's side; when the downstream hop
// acknowledges, the lock *settles* into b's spendable balance; on failure
// or timeout the lock is *refunded* back to a. The channel total
// (balances + locks) is invariant under all three operations, which is the
// basis of the simulator's funds-conservation checks.

#include <cstdint>

#include "pcn/types.h"

namespace splicer::pcn {

/// Per-edge forwarding policy (CLoTH's channel model): a flat fee, a
/// proportional fee on the forwarded amount, the smallest admissible hop
/// amount, and the timelock cost of traversing the edge. The defaults are
/// the arithmetic identity — zero fees, no HTLC floor, unit timelock — so
/// an unmutated network behaves exactly like the pre-policy engine.
struct ChannelPolicy {
  Amount fee_base = 0;          // flat per-hop fee
  double fee_proportional = 0;  // fraction of the forwarded amount
  Amount min_htlc = 0;          // hops below this amount are rejected
  std::uint32_t timelock = 1;   // per-edge timelock cost (path-depth budget)
};

class Channel {
 public:
  /// `node_a`/`node_b` are the endpoints as stored in the topology edge
  /// (u, v); `funds_ab` is the spendable balance on a's side (usable for
  /// a -> b payments), `funds_ba` on b's side.
  Channel(NodeId node_a, NodeId node_b, Amount funds_ab, Amount funds_ba);

  [[nodiscard]] NodeId node_a() const noexcept { return node_a_; }
  [[nodiscard]] NodeId node_b() const noexcept { return node_b_; }

  /// Direction when sending out of `from`; throws if `from` is not an
  /// endpoint.
  [[nodiscard]] Direction direction_from(NodeId from) const;

  /// The node that pays (source side) in direction `d`.
  [[nodiscard]] NodeId payer(Direction d) const noexcept {
    return d == Direction::kForward ? node_a_ : node_b_;
  }
  [[nodiscard]] NodeId payee(Direction d) const noexcept {
    return d == Direction::kForward ? node_b_ : node_a_;
  }

  [[nodiscard]] Amount available(Direction d) const noexcept {
    return balance_[dir_index(d)];
  }
  [[nodiscard]] Amount locked(Direction d) const noexcept {
    return locked_[dir_index(d)];
  }
  /// Total funds in the channel (both balances + both lock pools).
  [[nodiscard]] Amount total() const noexcept {
    return balance_[0] + balance_[1] + locked_[0] + locked_[1];
  }
  /// Capacity in the paper's sense (c_ab): all funds in the channel.
  [[nodiscard]] Amount capacity() const noexcept { return total(); }

  /// Moves `value` from the payer's spendable balance into the lock pool.
  /// Returns false (no state change) if insufficient balance. value > 0.
  [[nodiscard]] bool lock(Direction d, Amount value);

  /// Settles a previously locked `value`: lock pool -> payee's balance.
  void settle(Direction d, Amount value);

  /// Refunds a previously locked `value`: lock pool -> payer's balance.
  void refund(Direction d, Amount value);

  /// Applies `count` coalesced settlements totalling `total` in one move
  /// (batched per-epoch settlement). Equivalent to `count` settle() calls;
  /// throws if `total` exceeds the lock pool.
  void settle_n(Direction d, Amount total, std::uint64_t count);

  /// Applies `count` coalesced refunds totalling `total` in one move.
  void refund_n(Direction d, Amount total, std::uint64_t count);

  /// Directly transfers spendable balance payer->payee (used for fees and
  /// for instant settlement models). Returns false if insufficient.
  [[nodiscard]] bool transfer(Direction d, Amount value);

  /// Imbalance |balance_ab - balance_ba| (diagnostics / rebalancing tests).
  [[nodiscard]] Amount imbalance() const noexcept;

  /// Churn state: a closed channel refuses new locks at the engine level
  /// (attempt_hop fails the TU with kChannelClosed) while in-flight
  /// settles/refunds of locks taken before the close stay legal — funds
  /// never leave the channel, so conservation holds across close/reopen.
  [[nodiscard]] bool is_closed() const noexcept { return closed_; }
  void set_closed(bool closed) noexcept { closed_ = closed; }

  /// Per-edge forwarding policy (fees, HTLC floor, timelock cost).
  [[nodiscard]] const ChannelPolicy& policy() const noexcept { return policy_; }
  void set_policy(const ChannelPolicy& policy) noexcept { policy_ = policy; }

 private:
  NodeId node_a_;
  NodeId node_b_;
  Amount balance_[2];
  Amount locked_[2];
  bool closed_ = false;
  ChannelPolicy policy_{};
};

}  // namespace splicer::pcn
