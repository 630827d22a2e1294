#pragma once

// The benchmark's workloads and the per-layer replays of its traced
// invocation. Each replay re-drives one module (sim, graph, pcn,
// placement) through its public functions on the workload's own inputs,
// inside a span named after the call.

#include <cstdint>
#include <string>

#include "routing/experiment.h"
#include "trace.h"

namespace perfbench {

struct Workload {
  /// scenario.seed (topology, funds, placement) is fixed, so every seed
  /// runs on the same network and the graph-layer replays see one input.
  /// A random network per seed also spread fig8_graph's Splicer TSR and
  /// throughput by 5-8% between seeds, against ~3% with the network fixed.
  splicer::routing::ScenarioConfig scenario;
  splicer::routing::SchemeConfig schemes;
  /// Seeds the payment stream (Poisson arrivals, endpoints, values).
  std::uint64_t payment_seed = 42;
};

/// The named workload (fig7_engine, fig8_graph or fig7_hostile_batched)
/// with its payment and mutation streams seeded from `seed`. `tiny` shrinks
/// it to smoke-test size. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     bool tiny);

/// routing::prepare_scenario, then the payment stream re-drawn from
/// workload.payment_seed.
[[nodiscard]] splicer::routing::Scenario prepare(const Workload& workload);

/// Schedules and drains `events` typed events through a sim::Scheduler
/// with a no-op sink; ns per event (one push plus one pop).
[[nodiscard]] double scheduler_push_pop_ns(std::uint64_t events, Tracer& tracer);

struct GraphReplay {
  std::size_t queries = 0;            // distinct sender/receiver pairs
  double select_paths_us = 0.0;       // Spider pair set-up, per query
  double disjoint_shortest_us = 0.0;  // Flash mice paths, per query
  double max_flow_us = 0.0;           // Flash elephant max-flow, per query
  double shortest_path_us = 0.0;      // ShortestPath, per query
};

/// Replays the workload's distinct pairs (first occurrence order) on the
/// raw topology, one pass per query kind.
[[nodiscard]] GraphReplay replay_graph_queries(const splicer::routing::Scenario& scenario,
                                               Tracer& tracer);

/// ns per TrafficSource::next() while draining Scenario::make_source().
[[nodiscard]] double source_next_ns(const splicer::routing::Scenario& scenario,
                                    Tracer& tracer);

/// Median ms to copy the six substrates one pass of run_scheme copies.
[[nodiscard]] double network_copy_ms(const splicer::routing::Scenario& scenario,
                                     Tracer& tracer);

struct SetupReplay {
  double generate_ms = 0.0;   // graph::watts_strogatz
  double fund_ms = 0.0;       // pcn::Network::with_sampled_funds
  double instance_ms = 0.0;   // placement::build_instance_by_degree
  double solve_ms = 0.0;      // solve_exhaustive or solve_approx
  double transform_ms = 0.0;  // build_multi_star + build_single_star
  double workload_ms = 0.0;   // make_traffic_source + drain
  /// The replay reproduced the scenario's hubs, clients and payments.
  bool matches = false;
};

/// Re-runs prepare()'s steps one by one (median of a few replays).
[[nodiscard]] SetupReplay replay_setup(const Workload& workload,
                                       const splicer::routing::Scenario& scenario,
                                       Tracer& tracer);

}  // namespace perfbench
