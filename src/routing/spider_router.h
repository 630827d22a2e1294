#pragma once

// Spider (NSDI '20) baseline: multi-path source routing with packetised
// transaction units and price-based rate control - the scheme Splicer's
// protocol machinery descends from, so it shares RateRouterBase. The
// differences the paper leans on (SS V-B):
//  * routes are computed by each *sender* over the full raw topology, so
//    every payment pays an end-host route-computation latency that grows
//    with network size, serialised per sender (single-machine senders);
//  * no hub consolidation: paths run over raw client channels.

#include <unordered_map>

#include "routing/rate_protocol.h"

namespace splicer::routing {

class SpiderRouter final : public RateRouterBase {
 public:
  struct Config {
    RateProtocolConfig protocol;
    /// Route-computation latency model: base + per-node * |V| per payment,
    /// serialised per sender (see DESIGN.md substitution table).
    double compute_base_s = 0.0005;
    double compute_per_node_s = 5e-6;
  };

  explicit SpiderRouter(Config config = make_default_config());

  [[nodiscard]] std::string name() const override { return "Spider"; }

  [[nodiscard]] static Config make_default_config() {
    Config config;
    // Spider computes k shortest paths per sender; edge-disjoint shortest
    // is the scalable stand-in (see DESIGN.md).
    config.protocol.path_type = graph::PathType::kEdgeDisjointShortest;
    return config;
  }

 protected:
  [[nodiscard]] PairKey pair_of(const Engine& engine,
                                const pcn::Payment& payment) const override;
  [[nodiscard]] bool assemble_path(Engine& engine, NodeId from, NodeId to,
                                   const graph::Path& pair_path,
                                   graph::Path& full) const override;
  [[nodiscard]] double decision_delay(Engine& engine,
                                      const pcn::Payment& payment) override;

 private:
  Config config_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed lookup/update by NodeId only,
  // never iterated; per-sender pacing order cannot reach the event stream.
  std::unordered_map<NodeId, double> sender_busy_until_;
};

}  // namespace splicer::routing
