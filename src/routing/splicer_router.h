#pragma once

// Splicer's distributed routing decision protocol (paper Alg. 2) bound to
// the multi-star topology: every client payment is admitted at the client's
// smooth node, split into TUs, and routed over the hub trunk mesh at
// price-controlled rates. Hub pairs synchronise global state every epoch
// (paper Fig. 5); the sync traffic is accounted in the message counters
// (it is part of the Fig. 9(e)/(f) overhead axis).

#include <map>
#include <utility>
#include <vector>

#include "routing/rate_protocol.h"

namespace splicer::routing {

class SplicerRouter final : public RateRouterBase {
 public:
  struct Config {
    RateProtocolConfig protocol;
    double epoch_s = 1.0;  // hub state-synchronisation epoch; must be > 0
  };

  /// `hub_of[v]` = managing hub for every node (hubs map to themselves);
  /// `hubs` = the placed smooth nodes. Both come from
  /// placement::TransformResult. Throws std::invalid_argument on empty
  /// `hubs` or unless config.epoch_s > 0 (a NaN epoch included).
  SplicerRouter(std::vector<NodeId> hub_of, std::vector<NodeId> hubs);
  SplicerRouter(std::vector<NodeId> hub_of, std::vector<NodeId> hubs,
                Config config);

  [[nodiscard]] std::string name() const override { return "Splicer"; }

  void on_start(Engine& engine) override;
  /// The epoch sync; every other timer goes to RateRouterBase.
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override;

 protected:
  /// Rate/window/demand state is per client pair (the s,e of eq. 16)...
  [[nodiscard]] PairKey pair_of(const Engine& engine,
                                const pcn::Payment& payment) const override;
  /// ...while the k-path sets live on the hub trunk mesh and are cached
  /// per hub pair (every client pair on the same hubs shares them); the
  /// returned reference is the cache entry.
  [[nodiscard]] const std::vector<graph::Path>& compute_pair_paths(
      Engine& engine, const PairKey& pair) override;
  [[nodiscard]] bool assemble_path(Engine& engine, NodeId from, NodeId to,
                                   const graph::Path& pair_path,
                                   graph::Path& full) const override;
  /// Smooth nodes see the epoch-synchronised global channel state, so they
  /// hold TUs at the source while any downstream hop lacks funds
  /// (Alg. 2 line 10) instead of locking a doomed HTLC chain.
  [[nodiscard]] bool admit_tu(Engine& engine, graph::PathView path,
                              const std::vector<Amount>& hop_amounts) override;

 private:
  /// Timer `b` of the epoch sync (see RateRouterBase::kAdmitTimer).
  static constexpr std::uint64_t kEpochTimer = kTickTimer - 1;

  std::vector<NodeId> hub_of_;
  std::vector<NodeId> hubs_;
  Config config_;
  std::map<std::pair<NodeId, NodeId>, std::vector<graph::Path>> hub_path_cache_;
};

}  // namespace splicer::routing
