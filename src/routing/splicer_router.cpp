#include "routing/splicer_router.h"

#include <stdexcept>

namespace splicer::routing {

SplicerRouter::SplicerRouter(std::vector<NodeId> hub_of, std::vector<NodeId> hubs)
    : SplicerRouter(std::move(hub_of), std::move(hubs), Config{}) {}

SplicerRouter::SplicerRouter(std::vector<NodeId> hub_of, std::vector<NodeId> hubs,
                             Config config)
    : RateRouterBase(config.protocol),
      hub_of_(std::move(hub_of)),
      hubs_(std::move(hubs)),
      config_(config) {
  if (hubs_.empty()) throw std::invalid_argument("SplicerRouter: no hubs");
  // A zero epoch would re-arm the sync at the same instant forever.
  if (!(config_.epoch_s > 0)) {
    throw std::invalid_argument("SplicerRouter: epoch_s must be > 0");
  }
}

void SplicerRouter::on_start(Engine& engine) {
  RateRouterBase::on_start(engine);
  engine.schedule_timer(config_.epoch_s, 0, kEpochTimer);
}

void SplicerRouter::on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) {
  if (b != kEpochTimer) {
    RateRouterBase::on_timer(engine, a, b);
    return;
  }
  // Epoch synchronisation (Fig. 5 step 1): every hub exchanges the final
  // global information of the last epoch with every other hub. The horizon
  // is queried per epoch so streamed workloads keep extending it.
  if (engine.past_horizon()) return;
  const auto z = hubs_.size();
  engine.counters().sync_messages += z * (z - 1);
  engine.schedule_timer(config_.epoch_s, 0, kEpochTimer);
}

RateRouterBase::PairKey SplicerRouter::pair_of(const Engine& engine,
                                               const pcn::Payment& payment) const {
  (void)engine;
  return PairKey{payment.sender, payment.receiver};
}

const std::vector<graph::Path>& SplicerRouter::compute_pair_paths(
    Engine& engine, const PairKey& pair) {
  const NodeId hub_s = hub_of_.at(pair.from);
  const NodeId hub_e = hub_of_.at(pair.to);
  const auto [it, inserted] =
      hub_path_cache_.try_emplace(std::make_pair(hub_s, hub_e));
  std::vector<graph::Path>& paths = it->second;
  if (!inserted) return paths;
  if (hub_s == hub_e) {
    // Both clients on one hub: the hub segment is the hub itself.
    paths.emplace_back().nodes.push_back(hub_s);
  } else {
    paths = graph::select_paths(engine.network().topology(), hub_s, hub_e,
                                protocol_config().k_paths,
                                protocol_config().path_type);
  }
  return paths;
}

bool SplicerRouter::admit_tu(Engine& engine, graph::PathView path,
                             const std::vector<Amount>& hop_amounts) {
  if (!protocol_config().source_gating) return true;
  const auto& network = engine.network();
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    const auto& ch = network.channel(path.edges[i]);
    if (ch.available(ch.direction_from(path.nodes[i])) < hop_amounts[i]) {
      return false;
    }
  }
  return true;
}

bool SplicerRouter::assemble_path(Engine& engine, NodeId from, NodeId to,
                                  const graph::Path& pair_path,
                                  graph::Path& full) const {
  const auto& g = engine.network().topology();
  const NodeId hub_s = hub_of_.at(from);
  const NodeId hub_e = hub_of_.at(to);

  full.nodes.clear();
  full.edges.clear();
  // Sender spoke (skipped when the sender is itself the hub).
  if (from != hub_s) {
    const auto spoke = g.find_edge(from, hub_s);
    if (spoke == graph::kInvalidEdge) return false;
    full.nodes.push_back(from);
    full.edges.push_back(spoke);
  }
  // Hub segment.
  if (pair_path.nodes.empty() || pair_path.nodes.front() != hub_s ||
      pair_path.nodes.back() != hub_e) {
    return false;
  }
  full.nodes.insert(full.nodes.end(), pair_path.nodes.begin(), pair_path.nodes.end());
  full.edges.insert(full.edges.end(), pair_path.edges.begin(), pair_path.edges.end());
  // Receiver spoke.
  if (to != hub_e) {
    const auto spoke = g.find_edge(hub_e, to);
    if (spoke == graph::kInvalidEdge) return false;
    full.nodes.push_back(to);
    full.edges.push_back(spoke);
  }
  return !full.edges.empty();  // empty: degenerate, from == to
}

}  // namespace splicer::routing
