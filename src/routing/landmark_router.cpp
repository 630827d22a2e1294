#include "routing/landmark_router.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <queue>
#include <utility>

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

bool LandmarkRouter::via_landmark(std::size_t landmark_index, NodeId from,
                                  NodeId to, graph::Path& path) const {
  const auto& parent = parent_[landmark_index];
  const auto& parent_edge = parent_edge_[landmark_index];
  const NodeId landmark = landmarks_[landmark_index];
  if (parent[from] == graph::kInvalidNode || parent[to] == graph::kInvalidNode) {
    return false;
  }
  path.nodes.clear();
  path.edges.clear();
  // from -> landmark: walk up the BFS tree.
  NodeId cur = from;
  path.nodes.push_back(cur);
  while (cur != landmark) {
    path.edges.push_back(parent_edge[cur]);
    cur = parent[cur];
    path.nodes.push_back(cur);
  }
  // landmark -> to: walk up from `to` onto the end, then reverse that
  // segment.
  const auto node_mark = static_cast<std::ptrdiff_t>(path.nodes.size());
  const auto edge_mark = static_cast<std::ptrdiff_t>(path.edges.size());
  cur = to;
  while (cur != landmark) {
    path.nodes.push_back(cur);
    path.edges.push_back(parent_edge[cur]);
    cur = parent[cur];
  }
  std::reverse(path.nodes.begin() + node_mark, path.nodes.end());
  std::reverse(path.edges.begin() + edge_mark, path.edges.end());
  path = prune_loops(std::move(path));
  return true;
}

graph::Path LandmarkRouter::prune_loops(graph::Path path) {
  // Landmark paths are a few dozen nodes at most, so a linear scan of the
  // kept prefix beats a per-call hash map. The kept prefix [0, kept) never
  // overtakes the read position, so every node and edge is read before
  // anything overwrites it.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < path.nodes.size(); ++i) {
    const NodeId node = path.nodes[i];
    const auto begin = path.nodes.begin();
    const auto end = begin + static_cast<std::ptrdiff_t>(kept);
    const auto it = std::find(begin, end, node);
    if (it != end) {
      // Cut the cycle: drop everything after the first occurrence.
      kept = static_cast<std::size_t>(it - begin) + 1;
    } else {
      if (kept > 0) path.edges[kept - 1] = path.edges[i - 1];
      path.nodes[kept++] = node;
    }
  }
  path.nodes.resize(kept);
  path.edges.resize(kept > 0 ? kept - 1 : 0);
  path.length = static_cast<double>(path.edges.size());
  return path;
}

void LandmarkRouter::on_payment(Engine& engine, const pcn::Payment& payment) {
  // The payment's paths are candidates_[0, count).
  std::size_t count = 0;
  // Hostile-world filter: a landmark path through a closed channel, an
  // offline node or past the timelock budget is not a candidate. The first
  // obstruction seen becomes the failure reason when nothing survives.
  std::optional<FailReason> obstruction;
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    if (count == candidates_.size()) candidates_.emplace_back();
    graph::Path& p = candidates_[count];
    if (!via_landmark(i, payment.sender, payment.receiver, p) || p.edges.empty()) {
      continue;
    }
    if (const auto blocked = path_obstruction(
            engine.network(), p, engine.config().hostile.timelock_budget)) {
      if (!obstruction) obstruction = blocked;
      continue;
    }
    ++count;
  }
  if (count == 0) {
    engine.fail_payment(payment.id, obstruction.value_or(FailReason::kNoPath));
    return;
  }
  *retries_left_.emplace(payment.id, 0).first = config_.chunk_retries * count;
  // Equal chunks, remainder on the first path.
  const auto k = static_cast<Amount>(count);
  const Amount base = payment.value / k;
  for (std::size_t i = 0; i < count; ++i) {
    Amount chunk = (i == 0) ? payment.value - base * (k - 1) : base;
    if (chunk <= 0) continue;
    hop_amounts_.assign(candidates_[i].edges.size(), chunk);
    TransactionUnit tu;
    tu.payment = payment.id;
    tu.value = chunk;
    tu.path = candidates_[i];
    tu.hop_amounts = hop_amounts_;
    tu.deadline = payment.deadline;
    tu.path_index = i;
    engine.send_tu(tu);
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
  // A payment without an entry has no retries left.
  std::size_t* retries = retries_left_.find(tu.payment);
  if (retries == nullptr || *retries == 0) {
    engine.fail_payment(tu.payment, FailReason::kInsufficientFunds);
    return;
  }
  --*retries;
  // Retry the chunk through a different landmark.
  const std::size_t next_index =
      (tu.path_index + 1 + engine.rng().index(landmarks_.size() - 1)) %
      landmarks_.size();
  if (!via_landmark(next_index, state->payment.sender, state->payment.receiver,
                    retry_path_) ||
      retry_path_.edges.empty()) {
    engine.fail_payment(tu.payment, FailReason::kNoPath);
    return;
  }
  if (const auto blocked = path_obstruction(
          engine.network(), retry_path_, engine.config().hostile.timelock_budget)) {
    engine.fail_payment(tu.payment, *blocked);
    return;
  }
  hop_amounts_.assign(retry_path_.edges.size(), tu.value);
  TransactionUnit retry;
  retry.payment = tu.payment;
  retry.value = tu.value;
  retry.path = retry_path_;
  retry.hop_amounts = hop_amounts_;
  retry.deadline = tu.deadline;
  retry.path_index = next_index;
  engine.send_tu(retry);
}

}  // namespace splicer::routing
