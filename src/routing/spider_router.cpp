#include "routing/spider_router.h"

#include <algorithm>

namespace splicer::routing {

SpiderRouter::SpiderRouter(Config config)
    : RateRouterBase(config.protocol), config_(config) {}

RateRouterBase::PairKey SpiderRouter::pair_of(const Engine& engine,
                                              const pcn::Payment& payment) const {
  (void)engine;
  return PairKey{payment.sender, payment.receiver};
}

bool SpiderRouter::assemble_path(Engine& engine, NodeId from, NodeId to,
                                 const graph::Path& pair_path,
                                 graph::Path& full) const {
  (void)engine;
  (void)from;
  (void)to;
  full.nodes = pair_path.nodes;
  full.edges = pair_path.edges;
  return !full.edges.empty();
}

double SpiderRouter::decision_delay(Engine& engine, const pcn::Payment& payment) {
  // Each sender is a single machine: route computations serialise, and each
  // takes time growing with the topology it must search.
  const double cost =
      config_.compute_base_s +
      config_.compute_per_node_s *
          static_cast<double>(engine.network().node_count());
  auto& busy_until = sender_busy_until_[payment.sender];
  const double start = std::max(engine.now(), busy_until);
  busy_until = start + cost;
  return busy_until - engine.now();
}

}  // namespace splicer::routing
