#pragma once

// Landmark routing baseline (used by Flare/SilentWhispers/SpeedyMurmurs-
// style schemes, paper SS V-B): k well-connected landmark nodes; each
// payment travels sender -> landmark_i -> receiver along shortest paths,
// one equal value chunk per landmark, sent atomically with no retries.

#include <vector>

#include "common/dense_id_map.h"
#include "routing/engine.h"
#include "routing/router.h"

namespace splicer::routing {

class LandmarkRouter final : public Router {
 public:
  struct Config {
    std::size_t landmark_count = 5;
    /// One retry of a failed chunk via a different landmark keeps the
    /// baseline from degenerating (prior landmark schemes re-route on
    /// failure); the payment still dies if the retry fails.
    std::size_t chunk_retries = 1;
  };

  LandmarkRouter() : LandmarkRouter(Config{}) {}
  explicit LandmarkRouter(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Landmark"; }

  void on_start(Engine& engine) override;
  void on_payment(Engine& engine, const pcn::Payment& payment) override;
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override;
  void on_payment_resolved(Engine& engine, PaymentId payment) override {
    (void)engine;
    // on_tu_failed consults retries_left_ only while the payment is active,
    // which can't recur once the payment is quiescent.
    retries_left_.erase(payment);
  }

  /// Payments still holding a retries_left_ entry (tests: 0 post-run).
  [[nodiscard]] std::size_t tracked_payments() const noexcept {
    return retries_left_.size();
  }

  /// Exposed for tests: the via-landmark path with loops pruned. Prunes
  /// in place, so a moved-in path comes back in its own storage.
  [[nodiscard]] static graph::Path prune_loops(graph::Path path);

 private:
  /// Writes the from -> landmark -> to tree walk, loops pruned, into
  /// `path`, reusing its capacity. False when `from` or `to` lies outside
  /// the landmark's tree.
  bool via_landmark(std::size_t landmark_index, NodeId from, NodeId to,
                    graph::Path& path) const;

  Config config_;
  std::vector<NodeId> landmarks_;
  // Per landmark: BFS parent forest (parent node + connecting edge).
  std::vector<std::vector<NodeId>> parent_;
  std::vector<std::vector<graph::EdgeId>> parent_edge_;
  common::DenseIdMap<std::size_t> retries_left_;
  // Path scratch, kept for its capacity. on_payment's candidates (the
  // first ones of candidates_) and on_tu_failed's retry path are apart: a
  // chunk can fail inside on_payment's send_tu and retry from there.
  // hop_amounts_ is refilled before every send_tu, which copies it.
  std::vector<graph::Path> candidates_;
  graph::Path retry_path_;
  std::vector<Amount> hop_amounts_;
};

}  // namespace splicer::routing
