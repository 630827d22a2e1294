#include "routing/landmark_router.h"

#include <algorithm>
#include <queue>

#include "graph/metrics.h"
#include "routing/path_filter.h"

namespace splicer::routing {

void LandmarkRouter::on_start(Engine& engine) {
  const auto& g = engine.network().topology();
  landmarks_ = graph::nodes_by_degree(g);
  landmarks_.resize(std::min(config_.landmark_count, landmarks_.size()));

  parent_.assign(landmarks_.size(), {});
  parent_edge_.assign(landmarks_.size(), {});
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    auto& parent = parent_[i];
    auto& parent_edge = parent_edge_[i];
    parent.assign(g.node_count(), graph::kInvalidNode);
    parent_edge.assign(g.node_count(), graph::kInvalidEdge);
    std::queue<NodeId> frontier;
    parent[landmarks_[i]] = landmarks_[i];
    frontier.push(landmarks_[i]);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (const auto& half : g.neighbors(u)) {
        if (parent[half.to] == graph::kInvalidNode) {
          parent[half.to] = u;
          parent_edge[half.to] = half.edge;
          frontier.push(half.to);
        }
      }
    }
  }
}

std::optional<graph::Path> LandmarkRouter::via_landmark(const Engine& engine,
                                                        std::size_t landmark_index,
                                                        NodeId from, NodeId to) const {
  (void)engine;
  const auto& parent = parent_[landmark_index];
  const auto& parent_edge = parent_edge_[landmark_index];
  const NodeId landmark = landmarks_[landmark_index];
  if (parent[from] == graph::kInvalidNode || parent[to] == graph::kInvalidNode) {
    return std::nullopt;
  }
  // from -> landmark: walk up the BFS tree.
  graph::Path path;
  NodeId cur = from;
  path.nodes.push_back(cur);
  while (cur != landmark) {
    path.edges.push_back(parent_edge[cur]);
    cur = parent[cur];
    path.nodes.push_back(cur);
  }
  // landmark -> to: walk up from `to`, then reverse the segment.
  std::vector<NodeId> down_nodes;
  std::vector<graph::EdgeId> down_edges;
  cur = to;
  while (cur != landmark) {
    down_nodes.push_back(cur);
    down_edges.push_back(parent_edge[cur]);
    cur = parent[cur];
  }
  for (std::size_t i = down_nodes.size(); i-- > 0;) {
    path.edges.push_back(down_edges[i]);
    path.nodes.push_back(down_nodes[i]);
  }
  path.length = static_cast<double>(path.edges.size());
  return prune_loops(path);
}

graph::Path LandmarkRouter::prune_loops(const graph::Path& path) {
  // Landmark paths are a few dozen nodes at most, so a linear scan of the
  // pruned prefix beats a per-call hash map (called once per candidate
  // path per payment — hot enough that the map allocation showed up).
  graph::Path pruned;
  pruned.nodes.reserve(path.nodes.size());
  pruned.edges.reserve(path.edges.size());
  for (std::size_t i = 0; i < path.nodes.size(); ++i) {
    const NodeId node = path.nodes[i];
    const auto it = std::find(pruned.nodes.begin(), pruned.nodes.end(), node);
    if (it != pruned.nodes.end()) {
      // Cut the cycle: drop everything after the first occurrence.
      const auto keep = static_cast<std::size_t>(it - pruned.nodes.begin());
      pruned.nodes.resize(keep + 1);
      pruned.edges.resize(keep);
    } else {
      if (!pruned.nodes.empty()) pruned.edges.push_back(path.edges[i - 1]);
      pruned.nodes.push_back(node);
    }
  }
  pruned.length = static_cast<double>(pruned.edges.size());
  return pruned;
}

void LandmarkRouter::on_payment(Engine& engine, const pcn::Payment& payment) {
  std::vector<graph::Path> paths;
  // Hostile-world filter: a landmark path through a closed channel, an
  // offline node or past the timelock budget is not a candidate. The first
  // obstruction seen becomes the failure reason when nothing survives.
  std::optional<FailReason> obstruction;
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    auto p = via_landmark(engine, i, payment.sender, payment.receiver);
    if (!p || p->edges.empty()) continue;
    if (const auto blocked = path_obstruction(
            engine.network(), *p, engine.config().hostile.timelock_budget)) {
      if (!obstruction) obstruction = blocked;
      continue;
    }
    paths.push_back(std::move(*p));
  }
  if (paths.empty()) {
    engine.fail_payment(payment.id, obstruction.value_or(FailReason::kNoPath));
    return;
  }
  retries_left_[payment.id] = config_.chunk_retries * paths.size();
  // Equal chunks, remainder on the first path.
  const auto k = static_cast<Amount>(paths.size());
  const Amount base = payment.value / k;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Amount chunk = (i == 0) ? payment.value - base * (k - 1) : base;
    if (chunk <= 0) continue;
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = chunk;
    tu.path = paths[i];
    tu.hop_amounts.assign(paths[i].edges.size(), chunk);
    tu.deadline = payment.deadline;
    tu.path_index = i;
    engine.send_tu(std::move(tu));
  }
}

void LandmarkRouter::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                                  FailReason reason) {
  (void)reason;
  // Checked lookup: a sibling chunk's synchronous failure can resolve the
  // payment and evict its state before this TU unwinds. Evicted ==
  // resolved == nothing left to retry.
  const auto* state = engine.find_payment_state(tu.payment);
  if (state == nullptr || !state->active()) return;
  auto& retries = retries_left_[tu.payment];
  if (retries == 0) {
    engine.fail_payment(tu.payment, FailReason::kInsufficientFunds);
    return;
  }
  --retries;
  // Retry the chunk through a different landmark.
  const std::size_t next_index =
      (tu.path_index + 1 + engine.rng().index(landmarks_.size() - 1)) %
      landmarks_.size();
  auto p = via_landmark(engine, next_index, state->payment.sender,
                        state->payment.receiver);
  if (!p || p->edges.empty()) {
    engine.fail_payment(tu.payment, FailReason::kNoPath);
    return;
  }
  if (const auto blocked = path_obstruction(
          engine.network(), *p, engine.config().hostile.timelock_budget)) {
    engine.fail_payment(tu.payment, *blocked);
    return;
  }
  TransactionUnit retry;
  retry.payment = tu.payment;
  retry.value = tu.value;
  retry.path = std::move(*p);
  retry.hop_amounts.assign(retry.path.edges.size(), tu.value);
  retry.deadline = tu.deadline;
  retry.path_index = next_index;
  engine.send_tu(std::move(retry));
}

}  // namespace splicer::routing
