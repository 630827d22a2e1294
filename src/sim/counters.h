#pragma once

// Network traffic accounting shared by the routing engine and the placement
// effectiveness evaluation (Fig. 9(e)/(f) plots delay vs "total traffic
// overhead": every data hop and control message increments these).

#include <cstdint>

namespace splicer::sim {

struct MessageCounters {
  std::uint64_t data_hops = 0;        // one TU crossing one channel
  std::uint64_t ack_messages = 0;     // per-hop acknowledgments
  /// Price probes, one per hop of each probed path. Counted only for
  /// pairs with traffic (demands queued or TUs outstanding).
  std::uint64_t probe_messages = 0;
  std::uint64_t sync_messages = 0;    // hub<->hub epoch synchronisation
  std::uint64_t control_messages = 0; // payreq, key fetch, receipts, misc

  [[nodiscard]] std::uint64_t total() const noexcept {
    return data_hops + ack_messages + probe_messages + sync_messages +
           control_messages;
  }

  MessageCounters& operator+=(const MessageCounters& other) noexcept {
    data_hops += other.data_hops;
    ack_messages += other.ack_messages;
    probe_messages += other.probe_messages;
    sync_messages += other.sync_messages;
    control_messages += other.control_messages;
    return *this;
  }
};

}  // namespace splicer::sim
