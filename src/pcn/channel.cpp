#include "pcn/channel.h"

#include <cstdlib>
#include <stdexcept>

namespace splicer::pcn {

Channel::Channel(NodeId node_a, NodeId node_b, Amount funds_ab, Amount funds_ba)
    : node_a_(node_a), node_b_(node_b), balance_{funds_ab, funds_ba}, locked_{0, 0} {
  if (funds_ab < 0 || funds_ba < 0) {
    throw std::invalid_argument("Channel: negative initial funds");
  }
  if (node_a == node_b) throw std::invalid_argument("Channel: self-channel");
}

Direction Channel::direction_from(NodeId from) const {
  if (from == node_a_) return Direction::kForward;
  if (from == node_b_) return Direction::kBackward;
  throw std::invalid_argument("Channel: node not an endpoint");
}

bool Channel::lock(Direction d, Amount value) {
  if (value <= 0) throw std::invalid_argument("Channel::lock: value must be > 0");
  auto& balance = balance_[dir_index(d)];
  if (balance < value) return false;
  balance -= value;
  locked_[dir_index(d)] += value;
  return true;
}

void Channel::settle(Direction d, Amount value) {
  auto& lock_pool = locked_[dir_index(d)];
  if (value <= 0 || lock_pool < value) {
    throw std::logic_error("Channel::settle: settling more than locked");
  }
  lock_pool -= value;
  balance_[dir_index(opposite(d))] += value;
}

void Channel::refund(Direction d, Amount value) {
  auto& lock_pool = locked_[dir_index(d)];
  if (value <= 0 || lock_pool < value) {
    throw std::logic_error("Channel::refund: refunding more than locked");
  }
  lock_pool -= value;
  balance_[dir_index(d)] += value;
}

void Channel::settle_n(Direction d, Amount total, std::uint64_t count) {
  if (count == 0) throw std::invalid_argument("Channel::settle_n: count == 0");
  if (total < static_cast<Amount>(count)) {
    // Each coalesced settlement moved at least one token unit.
    throw std::invalid_argument("Channel::settle_n: total below count");
  }
  settle(d, total);
}

void Channel::refund_n(Direction d, Amount total, std::uint64_t count) {
  if (count == 0) throw std::invalid_argument("Channel::refund_n: count == 0");
  if (total < static_cast<Amount>(count)) {
    throw std::invalid_argument("Channel::refund_n: total below count");
  }
  refund(d, total);
}

bool Channel::transfer(Direction d, Amount value) {
  if (value <= 0) throw std::invalid_argument("Channel::transfer: value must be > 0");
  auto& from = balance_[dir_index(d)];
  if (from < value) return false;
  from -= value;
  balance_[dir_index(opposite(d))] += value;
  return true;
}

Amount Channel::imbalance() const noexcept {
  return std::llabs(balance_[0] - balance_[1]);
}

}  // namespace splicer::pcn
