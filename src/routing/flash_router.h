#pragma once

// Flash (CoNEXT '19) baseline: elephant/mice split routing.
//  * Elephant payments (value above a threshold) probe current channel
//    balances and run a max-flow computation; the payment is split across
//    the augmenting paths and sent atomically, retrying with a fresh
//    max-flow on partial failure.
//  * Mice payments pick one of m precomputed shortest paths at random and
//    send atomically, retrying on another random path.
// No rate control and no waiting queues (atomic HTLCs), which is what
// exposes Flash to imbalance-driven failures in the paper's workload.

#include <map>
#include <unordered_map>

#include "routing/engine.h"
#include "routing/router.h"

namespace splicer::routing {

class FlashRouter final : public Router {
 public:
  struct Config {
    Amount elephant_threshold = common::whole_tokens(50);
    std::size_t max_flow_paths = 5;   // split width for elephants
    std::size_t mice_path_count = 4;  // m precomputed paths
    std::size_t mice_retries = 2;
    std::size_t elephant_retries = 1;
    /// Balance probes take a round trip, so Flash's view of channel
    /// balances is refreshed at most this often (stale between probes).
    double probe_staleness_s = 0.2;
  };

  FlashRouter();  // default configuration
  explicit FlashRouter(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Flash"; }

  void on_payment(Engine& engine, const pcn::Payment& payment) override;
  void on_tu_delivered(Engine& engine, const TransactionUnit& tu) override;
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override;
  void on_payment_resolved(Engine& engine, PaymentId payment) override {
    (void)engine;
    // No TU of the payment remains; retries stopped at resolution (both TU
    // hooks check the payment's active() state before redispatching).
    progress_.erase(payment);
  }

  /// Payments still holding a progress_ entry (tests: must be 0 post-run).
  [[nodiscard]] std::size_t tracked_payments() const noexcept {
    return progress_.size();
  }

 private:
  struct PaymentProgress {
    std::size_t retries_left = 0;
    bool elephant = false;
    Amount failed_value = 0;   // value that needs re-dispatch
    std::size_t outstanding = 0;
  };

  void send_elephant(Engine& engine, const pcn::Payment& payment, Amount value,
                     PaymentProgress& progress);
  void send_mice(Engine& engine, const pcn::Payment& payment, Amount value,
                 PaymentProgress& progress);
  const std::vector<graph::Path>& mice_paths(Engine& engine, NodeId from,
                                             NodeId to);

  Config config_;
  std::map<std::pair<NodeId, NodeId>, std::vector<graph::Path>> mice_cache_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed lookup/erase by PaymentId only,
  // never iterated; per-payment progress order cannot reach the event stream.
  std::unordered_map<PaymentId, PaymentProgress> progress_;
  // Stale balance snapshot shared by elephant max-flow computations.
  std::vector<double> snapshot_forward_;
  std::vector<double> snapshot_backward_;
  double snapshot_time_ = -1.0;
  // Scratch for hostile-world mice-path filtering (cleared per payment).
  std::vector<const graph::Path*> mice_candidates_;
  // The sent TU's hop amounts, refilled before each send_tu (which copies
  // them).
  std::vector<Amount> hop_amounts_;
};

}  // namespace splicer::routing
