#include "routing/shortest_path_router.h"

#include "graph/shortest_path.h"
#include "routing/path_filter.h"

namespace splicer::routing {

void ShortestPathRouter::on_payment(Engine& engine, const pcn::Payment& payment) {
  const auto key = std::make_pair(payment.sender, payment.receiver);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto p = graph::shortest_path(engine.network().topology(), payment.sender,
                                  payment.receiver);
    if (!p || p->edges.empty()) {
      engine.fail_payment(payment.id, FailReason::kNoPath);
      return;
    }
    it = cache_.emplace(key, std::move(*p)).first;
  }
  // The strawman never re-plans, so a mutation obstructing its one cached
  // path fails the payment up front instead of burning locks on a prefix.
  if (const auto obstruction = path_obstruction(
          engine.network(), it->second, engine.config().hostile.timelock_budget)) {
    engine.fail_payment(payment.id, *obstruction);
    return;
  }
  // Views of the path cache and the hop-amount scratch: send_tu copies both.
  hop_amounts_.assign(it->second.edges.size(), payment.value);
  TransactionUnit tu;
  tu.payment = payment.id;
  tu.value = payment.value;
  tu.path = it->second;
  tu.hop_amounts = hop_amounts_;
  tu.deadline = payment.deadline;
  engine.send_tu(tu);
}

void ShortestPathRouter::on_tu_failed(Engine& engine, const TransactionUnit& tu,
                                      FailReason reason) {
  (void)reason;
  engine.fail_payment(tu.payment, FailReason::kInsufficientFunds);
}

}  // namespace splicer::routing
