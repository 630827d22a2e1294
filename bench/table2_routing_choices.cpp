// Reproduces paper Table II: the influence of routing choices on Splicer's
// TSR at both network scales.
//   * path type:  KSP / Heuristic / EDW / EDS   (expect EDW best)
//   * path number: 1 / 3 / 5 / 7                (expect peak at 5)
//   * scheduling: FIFO / LIFO / SPF / EDF        (expect LIFO best)
//
// Usage: bench_table2_routing_choices [--threads N]

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

using namespace splicer;

namespace {

/// Placement with a richer hub mesh (small omega) so that multi-path
/// choices between hubs are meaningful, and tightened channel funds plus a
/// heavier offered load so that the trunk mesh actually binds - with slack
/// capacity every path choice looks alike, which is not what Table II
/// measures.
routing::ScenarioConfig scale_config(bool large) {
  auto config = large ? bench::large_scale_config() : bench::small_scale_config();
  config.placement.omega = 0.01;  // management-heavy -> more hubs
  config.placement.candidate_count = large ? 30 : 12;
  config.topology.fund_scale = 0.35;
  config.workload.payment_count = bench::scaled(large ? 5000 : 3000);
  config.workload.value_scale = 1.5;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Table II: routing choices in Splicer (TSR) ===\n"
            << (bench::fast_mode() ? "(fast mode: quarter workload)\n" : "");

  // Every row is an independent Splicer run over its scale's scenario, so
  // the whole table is one task grid (scales x rows) through the parallel
  // runner; rows land at fixed indices, so any --threads prints the same
  // table.
  std::vector<routing::SchemeTask> tasks;
  std::vector<std::pair<const char*, std::string>> rows;  // choice, setting
  const auto add_row = [&](const char* choice, std::string setting,
                           const routing::SchemeConfig& config) {
    tasks.push_back({routing::Scheme::kSplicer, config, {}});
    rows.emplace_back(choice, std::move(setting));
  };
  // Path type (k = 5).
  for (const auto type :
       {graph::PathType::kShortest, graph::PathType::kHeuristic,
        graph::PathType::kEdgeDisjointWidest,
        graph::PathType::kEdgeDisjointShortest}) {
    routing::SchemeConfig config;
    config.protocol.path_type = type;
    add_row("path type", graph::to_string(type), config);
  }
  // Path number (EDW).
  for (const std::size_t k : {1u, 3u, 5u, 7u}) {
    routing::SchemeConfig config;
    config.protocol.k_paths = k;
    add_row("path number", std::to_string(k), config);
  }
  // Queue scheduling algorithm. Source gating is disabled here so that
  // congestion actually reaches the in-network waiting queues whose
  // service order the paper compares.
  for (const auto policy :
       {routing::SchedulingPolicy::kFifo, routing::SchedulingPolicy::kLifo,
        routing::SchedulingPolicy::kSpf, routing::SchedulingPolicy::kEdf}) {
    routing::SchemeConfig config;
    config.engine.policy = policy;
    config.protocol.source_gating = false;
    // A wider marking threshold lets the queue ORDER matter (with a tight
    // T, marking aborts queued TUs before the policy can differentiate).
    config.engine.queue_delay_threshold_s = 1.2;
    add_row("scheduling", routing::to_string(policy), config);
  }

  std::vector<routing::Scenario> scenarios;
  for (const bool large : {false, true}) {
    scenarios.push_back(routing::prepare_scenario(scale_config(large)));
    std::cout << "\n[" << (large ? "Large" : "Small") << " scale: "
              << scenarios.back().multi_star.hubs.size() << " hubs]\n";
  }
  routing::ParallelRunner runner({bench::thread_count(argc, argv), 1});
  const auto results = runner.run_prepared(scenarios, tasks);

  common::Table table({"scale", "choice", "setting", "TSR"});
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto row = table.add_row();
      table.set(row, 0, s == 0 ? "Small" : "Large");
      table.set(row, 1, rows[t].first);
      table.set(row, 2, rows[t].second);
      table.set(row, 3, common::format_percent(results[s][t].first().tsr()));
    }
  }
  bench::emit("Table II: routing choices", table, "table2_routing_choices");
  return 0;
}
