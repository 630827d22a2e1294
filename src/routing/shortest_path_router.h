#pragma once

// Naive single-shortest-path atomic routing: the strawman of paper SS II-B.
// Transactions always take the one shortest path, which drains directional
// balances and produces exactly the local deadlock of Fig. 1 - the
// routing_deadlock tests and the deadlock_demo example are built on this.

#include <map>
#include <vector>

#include "routing/engine.h"
#include "routing/router.h"

namespace splicer::routing {

class ShortestPathRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "ShortestPath"; }

  void on_payment(Engine& engine, const pcn::Payment& payment) override;
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override;

 private:
  std::map<std::pair<NodeId, NodeId>, graph::Path> cache_;
  std::vector<Amount> hop_amounts_;  // the sent TU's schedule (send_tu copies it)
};

}  // namespace splicer::routing
