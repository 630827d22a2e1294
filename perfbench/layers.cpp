#include "layers.h"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "graph/disjoint_paths.h"
#include "graph/generators.h"
#include "graph/max_flow.h"
#include "graph/shortest_path.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "routing/flash_router.h"
#include "sim/scheduler.h"

namespace perfbench {

namespace {

using namespace splicer;

/// Keeps the compiler from discarding a computed object.
void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  if (name == "fig7_engine" || name == "fig7_hostile_batched") {
    w.scenario = bench::small_scale_config();
    // Fig. 7's offered rate (60 payments/s) over a four times longer run.
    w.scenario.workload.payment_count = tiny ? 300 : 6000;
    w.scenario.workload.horizon_seconds = tiny ? 5.0 : 100.0;
    if (tiny) w.scenario.topology.nodes = 40;
    if (name == "fig7_hostile_batched") {
      // Batched settlement under churn and node faults; both rates sit
      // inside bench_fig_robustness's grid.
      auto& engine = w.schemes.engine;
      engine.settlement_epoch_s = 0.010;
      engine.hostile.churn_rate = 2.0;
      engine.hostile.fault_rate = 0.5;
      std::uint64_t state = seed;
      engine.hostile.seed = common::splitmix64(state);  // independent of the payments
    }
  } else if (name == "fig8_graph") {
    w.scenario = bench::large_scale_config();
    w.scenario.workload.payment_count = 3000;
    if (tiny) {
      w.scenario.topology.nodes = 300;
      w.scenario.placement.candidate_count = 12;
      w.scenario.workload.payment_count = 300;
      w.scenario.workload.horizon_seconds = 6.0;
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.scenario.seed = 42;  // the figure benches' default network
  w.payment_seed = seed;
  return w;
}

routing::Scenario prepare(const Workload& workload) {
  auto scenario = routing::prepare_scenario(workload.scenario);
  scenario.workload_rng = common::Rng(workload.payment_seed);
  const auto source = pcn::make_traffic_source(scenario.clients, scenario.workload,
                                               scenario.workload_rng);
  scenario.payments = pcn::drain(*source);
  return scenario;
}

namespace {

class NullSink final : public sim::EventSink {
 public:
  void handle_event(const sim::EngineEvent& /*event*/) override { ++handled; }
  std::uint64_t handled = 0;
};

}  // namespace

double scheduler_push_pop_ns(std::uint64_t events, Tracer& tracer) {
  // Scheduled in batches, so the heap is at most kBatch events deep.
  constexpr std::size_t kBatch = 4096;
  std::vector<double> delays(kBatch);
  common::Rng rng(1);
  for (auto& d : delays) d = rng.uniform01();

  sim::Scheduler scheduler;
  NullSink sink;
  scheduler.set_sink(&sink);
  const double ms = timed_ms(tracer, "sim.push_pop", [&] {
    for (std::uint64_t done = 0; done < events;) {
      const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, events - done));
      for (std::size_t i = 0; i < n; ++i) {
        static_cast<void>(scheduler.after(
            delays[i], sim::EngineEvent{.kind = sim::EngineEvent::Kind::kAttemptHop, .a = i}));
      }
      scheduler.run();
      done += n;
    }
  });
  if (sink.handled != events) throw std::logic_error("sim.push_pop: events lost");
  return events > 0 ? ms * 1e6 / static_cast<double>(events) : 0.0;
}

GraphReplay replay_graph_queries(const routing::Scenario& scenario, Tracer& tracer) {
  struct Query {
    pcn::NodeId from;
    pcn::NodeId to;
    double tokens;  // the pair's first payment value
  };
  std::vector<Query> queries;
  std::set<std::pair<pcn::NodeId, pcn::NodeId>> seen;
  for (const auto& p : scenario.payments) {
    if (seen.emplace(p.sender, p.receiver).second) {
      queries.push_back({p.sender, p.receiver, common::to_tokens(p.value)});
    }
  }

  const auto& g = scenario.raw.topology();
  const auto forward = scenario.raw.forward_balances_tokens();
  const auto backward = scenario.raw.backward_balances_tokens();
  // The parameters the routers use under run_scheme.
  const std::size_t spider_k = routing::RateProtocolConfig{}.k_paths;
  const routing::FlashRouter::Config flash;

  GraphReplay r;
  r.queries = queries.size();
  if (queries.empty()) return r;
  const double per_query_us = 1e3 / static_cast<double>(queries.size());
  r.select_paths_us = per_query_us * timed_ms(tracer, "graph.select_paths", [&] {
    for (const auto& q : queries) {
      const auto paths = graph::select_paths(g, q.from, q.to, spider_k,
                                             graph::PathType::kEdgeDisjointShortest);
      keep(&paths);
    }
  });
  r.disjoint_shortest_us = per_query_us * timed_ms(tracer, "graph.disjoint_shortest", [&] {
    for (const auto& q : queries) {
      const auto paths = graph::edge_disjoint_shortest_paths(g, q.from, q.to,
                                                             flash.mice_path_count);
      keep(&paths);
    }
  });
  r.max_flow_us = per_query_us * timed_ms(tracer, "graph.max_flow", [&] {
    graph::MaxFlowOptions options;
    options.forward_capacity = &forward;
    options.backward_capacity = &backward;
    options.max_paths = flash.max_flow_paths;
    for (const auto& q : queries) {
      options.flow_limit = q.tokens;
      const auto flow = graph::max_flow(g, q.from, q.to, options);
      keep(&flow);
    }
  });
  r.shortest_path_us = per_query_us * timed_ms(tracer, "graph.shortest_path", [&] {
    for (const auto& q : queries) {
      const auto path = graph::shortest_path(g, q.from, q.to);
      keep(&path);
    }
  });
  return r;
}

double source_next_ns(const routing::Scenario& scenario, Tracer& tracer) {
  constexpr int kDrains = 50;
  std::uint64_t pulled = 0;
  const double ms = timed_ms(tracer, "pcn.source_drain", [&] {
    for (int i = 0; i < kDrains; ++i) {
      const auto source = scenario.make_source();
      while (const auto payment = source->next()) {
        keep(&*payment);
        ++pulled;
      }
    }
  });
  return pulled > 0 ? ms * 1e6 / static_cast<double>(pulled) : 0.0;
}

double network_copy_ms(const routing::Scenario& scenario, Tracer& tracer) {
  constexpr int kRepeats = 9;
  // run_scheme copies the multi-star substrate for Splicer, the single-star
  // one for A2L and the raw one for the other four schemes.
  const pcn::Network* substrates[] = {
      &scenario.multi_star.network, &scenario.raw, &scenario.raw,
      &scenario.raw, &scenario.single_star.network, &scenario.raw};
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) {
    samples.push_back(timed_ms(tracer, "pcn.network_copy", [&] {
      for (const auto* network : substrates) {
        const pcn::Network copy = *network;
        keep(&copy);
      }
    }));
  }
  return common::median(std::move(samples));
}

SetupReplay replay_setup(const Workload& w, const routing::Scenario& scenario,
                         Tracer& tracer) {
  const auto& config = w.scenario;
  constexpr int kReplays = 3;
  std::vector<double> generate, fund, instance_ms, solve, transform, workload;
  bool matches = true;
  for (int rep = 0; rep < kReplays; ++rep) {
    // The steps of prepare(): routing::prepare_scenario's for a
    // Watts-Strogatz topology, drawing from one RNG in the same order, then
    // the payment stream from its own seed.
    const auto span = tracer.span("setup_replay");
    common::Rng rng(config.seed);
    graph::Graph g(0);
    generate.push_back(timed_ms(tracer, "graph.watts_strogatz", [&] {
      g = graph::watts_strogatz(config.topology.nodes, config.topology.ws_degree,
                                config.topology.ws_beta, rng);
    }));
    std::optional<pcn::Network> raw;
    fund.push_back(timed_ms(tracer, "pcn.with_sampled_funds", [&] {
      raw.emplace(pcn::Network::with_sampled_funds(std::move(g),
                                                   config.topology.fund_scale, rng));
    }));
    placement::PlacementInstance instance;
    instance_ms.push_back(timed_ms(tracer, "placement.build_instance_by_degree", [&] {
      instance = placement::build_instance_by_degree(
          raw->topology(), config.placement.candidate_count, config.placement.omega);
    }));
    const bool exact =
        config.placement.prefer_exact && config.placement.candidate_count <= 14;
    placement::PlacementPlan plan;
    solve.push_back(timed_ms(
        tracer, exact ? "placement.solve_exhaustive" : "placement.solve_approx", [&] {
          plan = exact ? placement::solve_exhaustive(instance).plan
                       : placement::solve_approx(instance).plan;
        }));
    std::optional<placement::TransformResult> multi_star;
    std::optional<placement::TransformResult> single_star;
    transform.push_back(timed_ms(tracer, "placement.transform", [&] {
      multi_star.emplace(placement::build_multi_star(*raw, instance, plan));
      single_star.emplace(placement::build_single_star(*raw));
    }));
    std::vector<pcn::NodeId> clients;
    for (pcn::NodeId v = 0; v < raw->node_count(); ++v) {
      if (!multi_star->is_hub[v] && v != single_star->hubs.front()) clients.push_back(v);
    }
    std::vector<pcn::Payment> payments;
    workload.push_back(timed_ms(tracer, "pcn.workload", [&] {
      const auto source =
          pcn::make_traffic_source(clients, config.workload, common::Rng(w.payment_seed));
      payments = pcn::drain(*source);
    }));

    const auto same_payment = [](const pcn::Payment& a, const pcn::Payment& b) {
      return a.id == b.id && a.sender == b.sender && a.receiver == b.receiver &&
             a.value == b.value && a.arrival_time == b.arrival_time;
    };
    matches = matches && multi_star->hubs == scenario.multi_star.hubs &&
              single_star->hubs == scenario.single_star.hubs &&
              clients == scenario.clients &&
              std::equal(payments.begin(), payments.end(), scenario.payments.begin(),
                         scenario.payments.end(), same_payment);
  }
  SetupReplay r;
  r.generate_ms = common::median(std::move(generate));
  r.fund_ms = common::median(std::move(fund));
  r.instance_ms = common::median(std::move(instance_ms));
  r.solve_ms = common::median(std::move(solve));
  r.transform_ms = common::median(std::move(transform));
  r.workload_ms = common::median(std::move(workload));
  r.matches = matches;
  return r;
}

}  // namespace perfbench
