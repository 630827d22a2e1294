// splicer_cli - command-line front end for the Splicer reproduction.
//
//   splicer_cli compare  [--nodes N] [--payments N] [--seed S] [--tau MS]
//                        [--fund-scale X] [--value-scale X] [--scale-free]
//                        [--threads N] [--trials K] [--settlement-epoch MS]
//                        [--workload synthetic|trace|bursty|hotspot]
//                        [--trace-file CSV] [--streaming] [--no-retain]
//                        [--burst-period S] [--burst-amplitude A]
//                        [--shift-interval S] [--shards N]
//                        [--fault-rate R] [--churn-rate R] [--fee-policy R]
//                        [--timelock-budget N]
//       run all six schemes on one shared scenario and print the comparison;
//       simulations fan out over N worker threads (0 = all hardware
//       threads) and, with K > 1, repeat over K derived-seed workloads and
//       report mean +/- 95% CI. --settlement-epoch > 0 batches engine
//       settlements per (channel, direction) per epoch (0 = exact per-hop).
//       --workload picks the traffic source (trace replays a
//       time,sender,receiver,amount CSV); --streaming makes every engine
//       run pull payments lazily instead of materialising the workload
//       AND evicts resolved payment states (the retention contract: a
//       streaming run holds O(concurrency) states, see the "resident"
//       column); --no-retain forces eviction for materialised runs too.
//       --shards > 1 runs each simulation on N engine shards with
//       barrier-synchronised cross-shard mailboxes (deterministic for a
//       fixed N; see README "Parallelism"); requires --trials 1, and
//       --threads then caps the shard workers instead of the scheme fan-out.
//       The hostile-world knobs (all default off; see README "Hostile-world
//       scenarios") inject Poisson faults/churn/policy rewrites:
//       --fault-rate/--churn-rate/--fee-policy are events per second and
//       --timelock-budget bounds admissible path timelock depth
//
//   splicer_cli place    [--nodes N] [--candidates N] [--omega W] [--seed S]
//                        [--solver exhaustive|approx|milp|descent]
//       solve one placement instance and print the plan + costs
//
//   splicer_cli workflow [--value TOKENS] [--kmg N] [--seed S]
//       trace one encrypted payment workflow (Fig. 3) step by step
//
//   splicer_cli topology [--nodes N] [--seed S] [--scale-free]
//       print topology statistics for the generated PCN

#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common/table.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "placement/milp_solver.h"
#include "routing/experiment.h"
#include "routing/parallel_experiment.h"
#include "routing/sharded_engine.h"
#include "splicer/workflow.h"

using namespace splicer;

namespace {

/// Minimal --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }

  [[nodiscard]] std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  [[nodiscard]] double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  [[nodiscard]] std::string str(const std::string& key, std::string fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Warns when a trace replay dropped rows: strict-mode replays otherwise
/// shrink the workload silently at the CLI level. Streaming scenarios never
/// materialise the trace, so a probe source is drained just for the count.
void warn_trace_skips(const routing::Scenario& scenario) {
  if (scenario.workload.kind != pcn::WorkloadKind::kTrace) return;
  std::size_t skipped = scenario.trace_rows_skipped;
  if (scenario.workload.streaming) {
    // Iterate without storing: skipped_ is counted by next(), and a
    // multi-million-row trace must not be materialised just for the count.
    const auto probe = scenario.make_source();
    while (probe->next()) {
    }
    if (const auto* trace =
            dynamic_cast<const pcn::TraceSource*>(probe.get())) {
      skipped = trace->rows_skipped();
    }
  }
  if (skipped > 0) {
    std::cout << "warning: trace replay skipped " << skipped
              << " row(s) (malformed, unmappable endpoint, or self-pay)\n";
  }
}

routing::ScenarioConfig scenario_from(const Args& args) {
  routing::ScenarioConfig config;
  config.seed = args.u64("seed", 42);
  config.topology.nodes = args.u64("nodes", 100);
  config.topology.fund_scale = args.real("fund-scale", 1.0);
  config.topology.scale_free = args.flag("scale-free");
  config.placement.candidate_count =
      args.u64("candidates", config.topology.nodes >= 1000 ? 30 : 10);
  config.placement.prefer_exact = config.topology.nodes < 1000;
  config.placement.omega = args.real("omega", 0.1);
  config.workload.payment_count = args.u64("payments", 1500);
  config.workload.horizon_seconds = args.real("horizon", 25.0);
  config.workload.value_scale = args.real("value-scale", 1.0);
  config.workload.kind = pcn::workload_kind_from(args.str("workload", "synthetic"));
  config.workload.trace_file = args.str("trace-file", "");
  config.workload.streaming = args.flag("streaming");
  config.workload.burst_period_s = args.real("burst-period", 10.0);
  config.workload.burst_amplitude = args.real("burst-amplitude", 0.8);
  config.workload.hotspot_shift_interval_s = args.real("shift-interval", 8.0);
  config.workload.validate();
  return config;
}

int cmd_compare(const Args& args) {
  const auto config = scenario_from(args);
  const std::size_t threads = args.u64("threads", 0);
  const std::size_t trials = std::max<std::uint64_t>(1, args.u64("trials", 1));
  const auto shards =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(1, args.u64("shards", 1)));
  if (shards > 1 && trials > 1) {
    std::cerr << "error: --shards parallelises inside one simulation and "
                 "--trials across simulations; combine at most one of them "
                 "(run --shards with --trials 1)\n";
    return 1;
  }

  std::cout << "preparing scenario: " << config.topology.nodes << " nodes, ";
  if (config.workload.kind == pcn::WorkloadKind::kTrace) {
    std::cout << "trace " << config.workload.trace_file;
  } else {
    std::cout << config.workload.payment_count << " payments";
  }
  std::cout << ", workload " << pcn::to_string(config.workload.kind)
            << (config.workload.streaming ? " (streaming)" : "") << ", seed "
            << config.seed;
  if (trials > 1) std::cout << ", " << trials << " trials";
  std::cout << "\n";

  routing::SchemeConfig scheme_config;
  scheme_config.protocol.tau_s = args.real("tau", 200.0) / 1000.0;
  scheme_config.engine.settlement_epoch_s =
      args.real("settlement-epoch", 0.0) / 1000.0;
  // Retention contract: streaming runs evict resolved payment states (the
  // unbounded-run memory model); --no-retain forces eviction for
  // materialised runs too. Metrics are identical either way.
  scheme_config.engine.retain_resolved =
      !args.flag("no-retain") && !config.workload.streaming;
  // Hostile-world scenario pack: Poisson fault/churn/policy mutation
  // streams. All default off, in which case the run is byte-identical to
  // a benign one (no mutators are built at all).
  auto& hostile = scheme_config.engine.hostile;
  hostile.fault_rate = args.real("fault-rate", 0.0);
  hostile.churn_rate = args.real("churn-rate", 0.0);
  hostile.fee_policy_rate = args.real("fee-policy", 0.0);
  hostile.timelock_budget = static_cast<std::uint32_t>(args.u64(
      "timelock-budget", pcn::HostileConfig::kUnboundedTimelock));
  hostile.validate();
  if (hostile.any_mutation_active() ||
      hostile.timelock_budget != pcn::HostileConfig::kUnboundedTimelock) {
    std::cout << "hostile: fault-rate " << hostile.fault_rate
              << "/s, churn-rate " << hostile.churn_rate << "/s, fee-policy "
              << hostile.fee_policy_rate << "/s, timelock-budget ";
    if (hostile.timelock_budget == pcn::HostileConfig::kUnboundedTimelock) {
      std::cout << "unbounded";
    } else {
      std::cout << hostile.timelock_budget;
    }
    std::cout << "\n";
  }
  std::vector<routing::SchemeTask> tasks;
  for (const auto scheme :
       {routing::Scheme::kSplicer, routing::Scheme::kSpider,
        routing::Scheme::kFlash, routing::Scheme::kLandmark,
        routing::Scheme::kA2l, routing::Scheme::kShortestPath}) {
    tasks.push_back({scheme, scheme_config, {}});
  }

  routing::ParallelRunner runner({threads, trials});
  std::vector<routing::TaskResult> results;
  if (trials == 1) {
    // Prepare once, report the placement, and share the scenario across
    // every scheme task. (With trials > 1 each trial places its own
    // derived-seed scenario, so there is no single hub count to report and
    // the runner prepares them all itself.)
    std::vector<routing::Scenario> prepared;
    prepared.push_back(routing::prepare_scenario(config));
    std::cout << "placed " << prepared.front().multi_star.hubs.size()
              << " smooth nodes; " << prepared.front().clients.size()
              << " clients\n";
    warn_trace_skips(prepared.front());
    std::cout << "\n";
    if (shards > 1) {
      // Intra-simulation parallelism: each scheme runs once across N
      // engine shards (schemes stay sequential so the shard workers own
      // the machine); metrics land in the same trial-0 slot the table
      // below reads.
      results.resize(tasks.size());
      std::uint64_t crossings = 0;
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        routing::ShardedEngineConfig sharded;
        sharded.shards = shards;
        sharded.threads = threads;
        results[t].trials.push_back(routing::run_scheme_sharded(
            prepared.front(), tasks[t].scheme, tasks[t].config, sharded));
        crossings += results[t].trials.back().cross_shard_messages;
      }
      std::cout << "sharded: " << shards << " shards, "
                << crossings << " cross-shard TU handoffs/results\n";
    } else {
      results = runner.run_prepared(prepared, tasks).front();
    }
  } else {
    if (config.workload.kind == pcn::WorkloadKind::kTrace) {
      // Derived-seed trials re-place their own topologies but replay the
      // same trace file; probe the base-seed scenario once so dropped rows
      // still warn. This pays one extra prepare_scenario (the exact skip
      // count needs the scenario's real client set for strict-mode range
      // checks) — 1/K of the preparation work the runner does anyway.
      warn_trace_skips(routing::prepare_scenario(config));
    }
    std::cout << "\n";
    results = runner.run({config}, tasks).front();
  }

  if (trials == 1) {
    common::Table table({"scheme", "TSR", "throughput", "avg delay (ms)",
                         "TUs sent", "TUs marked", "messages", "peak buf",
                         "resident", "evicted"});
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto& m = results[t].first();
      const auto row = table.add_row();
      table.set(row, 0, tasks[t].name());
      table.set(row, 1, common::format_percent(m.tsr()));
      table.set(row, 2, common::format_percent(m.normalized_throughput()));
      table.set(row, 3, m.average_delay_s() * 1000.0, 1);
      table.set(row, 4, static_cast<std::int64_t>(m.tus_sent));
      table.set(row, 5, static_cast<std::int64_t>(m.tus_marked));
      table.set(row, 6, static_cast<std::int64_t>(m.messages.total()));
      table.set(row, 7, static_cast<std::int64_t>(m.peak_payment_buffer));
      table.set(row, 8, static_cast<std::int64_t>(m.peak_resident_states));
      table.set(row, 9, static_cast<std::int64_t>(m.states_evicted));
    }
    std::cout << table.render();
    return 0;
  }

  // Mean +/- the 95% confidence half-width over the derived-seed trials.
  const auto pm = [](const common::RunningStats& s, int precision) {
    return common::format_double(s.mean(), precision) + " +/- " +
           common::format_double(common::ci95_half_width(s), precision);
  };
  common::Table table({"scheme", "TSR (%)", "throughput (%)",
                       "avg delay (ms)", "messages"});
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto& cell = results[t];
    const auto row = table.add_row();
    table.set(row, 0, tasks[t].name());
    common::RunningStats tsr_pct, thr_pct, delay_ms;
    for (const auto& m : cell.trials) {
      tsr_pct.add(m.tsr() * 100.0);
      thr_pct.add(m.normalized_throughput() * 100.0);
      delay_ms.add(m.average_delay_s() * 1000.0);
    }
    table.set(row, 1, pm(tsr_pct, 1));
    table.set(row, 2, pm(thr_pct, 1));
    table.set(row, 3, pm(delay_ms, 1));
    table.set(row, 4, pm(cell.messages, 0));
  }
  std::cout << table.render();
  return 0;
}

int cmd_place(const Args& args) {
  common::Rng rng(args.u64("seed", 42));
  const std::size_t nodes = args.u64("nodes", 100);
  const auto g = args.flag("scale-free")
                     ? graph::preferential_attachment(nodes, 4, rng)
                     : graph::watts_strogatz(nodes, 8, 0.15, rng);
  const auto instance = placement::build_instance_by_degree(
      g, args.u64("candidates", 10), args.real("omega", 0.1));

  const std::string solver = args.str("solver", "approx");
  placement::PlacementPlan plan;
  if (solver == "exhaustive") {
    plan = placement::solve_exhaustive(instance).plan;
  } else if (solver == "milp") {
    const auto result = placement::solve_milp(instance);
    std::cout << "MILP: " << result.variables << " vars, " << result.constraints
              << " constraints, " << result.stats.nodes_explored
              << " B&B nodes, status " << lp::to_string(result.status) << "\n";
    plan = result.plan;
  } else if (solver == "descent") {
    plan = placement::solve_greedy_descent(instance).plan;
  } else {
    plan = placement::solve_approx(instance).plan;
  }

  const auto costs = placement::balance_cost(instance, plan);
  std::cout << "solver: " << solver << "\nhubs (" << plan.hub_count() << "):";
  for (std::size_t n = 0; n < instance.candidate_count(); ++n) {
    if (plan.placed[n]) std::cout << " " << instance.candidates[n];
  }
  std::cout << "\nC_B = " << costs.balance << "  (C_M = " << costs.management
            << ", C_S = " << costs.synchronization << ", omega = "
            << instance.omega << ")\n";
  // Per-hub client counts.
  std::map<std::size_t, std::size_t> load;
  for (const auto a : plan.assignment) ++load[a];
  for (const auto& [hub, clients] : load) {
    std::cout << "  hub " << instance.candidates[hub] << " manages " << clients
              << " clients\n";
  }
  return 0;
}

int cmd_workflow(const Args& args) {
  common::Rng rng(args.u64("seed", 42));
  crypto::KeyManagementGroup kmg(args.u64("kmg", 5), rng.fork());
  core::PaymentWorkflow workflow(kmg, rng);
  core::PaymentDemand demand{1, 2, common::tokens(args.real("value", 13.25))};
  const auto result = workflow.execute(demand);
  for (const auto& line : result.trace) std::cout << line << "\n";
  std::cout << "TUs: " << result.tu_count << ", messages: " << result.messages
            << ", result: " << (result.success ? "SUCCESS" : "FAILURE") << "\n";
  return result.success ? 0 : 1;
}

int cmd_topology(const Args& args) {
  common::Rng rng(args.u64("seed", 42));
  const std::size_t nodes = args.u64("nodes", 100);
  const auto g = args.flag("scale-free")
                     ? graph::preferential_attachment(nodes, 4, rng)
                     : graph::watts_strogatz(nodes, 8, 0.15, rng);
  const auto stats = graph::degree_stats(g);
  std::cout << "nodes: " << g.node_count() << "\nchannels: " << g.edge_count()
            << "\ndegree: mean " << stats.mean << ", min " << stats.min
            << ", max " << stats.max
            << "\nconnected: " << (graph::is_connected(g) ? "yes" : "no")
            << "\nclustering: " << graph::average_clustering(g);
  if (nodes <= 2000) {
    std::cout << "\nmean hops: " << graph::HopMatrix(g).mean_hops();
  }
  std::cout << "\n";
  return 0;
}

void usage() {
  std::cout << "usage: splicer_cli <compare|place|workflow|topology> [--key value ...]\n"
               "  compare   run all routing schemes on one scenario\n"
               "  place     solve a hub-placement instance\n"
               "  workflow  trace one encrypted payment (Fig. 3)\n"
               "  topology  PCN topology statistics\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  // Invalid configs (bad --tau, --settlement-epoch, workload knobs...) throw
  // from their validate(); report them instead of aborting.
  try {
    if (command == "compare") return cmd_compare(args);
    if (command == "place") return cmd_place(args);
    if (command == "workflow") return cmd_workflow(args);
    if (command == "topology") return cmd_topology(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
  return 2;
}
