#pragma once

// Hostile-world path admission shared by every router.
//
// All six routing schemes must observe node liveness, channel churn and
// per-path timelock budgets when selecting paths; this header is the one
// predicate they share, so the admission rule can never diverge between
// schemes. The checks are pure reads over current network state — in a
// benign run (nothing closed, everything online, unit timelocks against an
// unbounded budget) every path passes and no RNG or event state is touched.

#include <cstdint>
#include <optional>

#include "graph/graph.h"
#include "pcn/network.h"
#include "routing/router.h"

namespace splicer::routing {

/// Sum of per-edge timelock costs along `path` (each edge defaults to 1).
[[nodiscard]] inline std::uint64_t path_timelock_cost(
    const pcn::Network& network, graph::PathView path) {
  std::uint64_t cost = 0;
  for (const ChannelId edge : path.edges) {
    cost += network.channel(edge).policy().timelock;
  }
  return cost;
}

/// First obstruction that makes `path` inadmissible right now, or
/// std::nullopt when the path is usable: a closed channel (kChannelClosed),
/// an offline endpoint (kNodeOffline), or a total timelock cost above
/// `timelock_budget` (kNoPath — the path exists but is too deep). Checked
/// hop by hop from the source so the reported reason is the first one a
/// forwarding attempt would hit.
[[nodiscard]] inline std::optional<FailReason> path_obstruction(
    const pcn::Network& network, graph::PathView path,
    std::uint32_t timelock_budget) {
  std::uint64_t timelock = 0;
  for (const ChannelId edge : path.edges) {
    const pcn::Channel& ch = network.channel(edge);
    if (ch.is_closed()) return FailReason::kChannelClosed;
    if (!network.node_online(ch.node_a()) || !network.node_online(ch.node_b())) {
      return FailReason::kNodeOffline;
    }
    timelock += ch.policy().timelock;
  }
  if (timelock > timelock_budget) return FailReason::kNoPath;
  return std::nullopt;
}

}  // namespace splicer::routing
