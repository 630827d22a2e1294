// Hostile-world robustness sweep: how the six schemes degrade as node
// faults, channel churn and adversarial fee/timelock policies ramp up.
//
// Three panels over one shared scenario (paper-style comparison setup —
// every scheme sees the identical topology, placement and workload):
//   (a) TSR vs node fault rate (Poisson failures, exponential downtime)
//   (b) TSR vs channel churn rate (close/reopen storms with TU refunds)
//   (c) TSR vs fee/timelock policy rate (per-edge policy perturbations)
//
// The zero-rate column of every panel runs the exact benign engine paths
// (no mutators constructed, no extra RNG draws), so it doubles as a live
// cross-check against the frozen fig7 numbers. Besides the tables, a
// machine-readable BENCH_fig_robustness.json records per-cell TSR plus the
// deadlock witnesses (resident TUs and wedged queue value at run end, both
// asserted zero here — a wedge is a bench failure, not a data point).
//
// Usage: bench_fig_robustness [--threads N] [--settlement-epoch MS]
//                             [--json PATH]

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"

namespace {

using namespace splicer;

struct Cell {
  std::string scheme;
  std::string mutation;  // panel key: fault | churn | policy
  double rate = 0.0;
  routing::EngineMetrics metrics;
};

void write_json(const std::string& path, bool fast, double settlement_epoch_s,
                const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_fig_robustness: cannot write " << path << "\n";
    return;
  }
  char buf[512];
  out << "{\n";
  out << "  \"bench\": \"fig_robustness\",\n";
  out << "  \"fast\": " << (fast ? "true" : "false") << ",\n";
  out << "  \"settlement_epoch_s\": " << settlement_epoch_s << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"scheme\": \"%s\", \"mutation\": \"%s\", \"rate\": %.3f, "
        "\"tsr\": %.6f, \"mutation_events\": %llu, "
        "\"tus_failed\": %llu, \"resident_tus_at_end\": %llu, "
        "\"wedged_queue_value\": %lld}%s\n",
        c.scheme.c_str(), c.mutation.c_str(), c.rate, c.metrics.tsr(),
        static_cast<unsigned long long>(c.metrics.mutation_events),
        static_cast<unsigned long long>(c.metrics.tus_failed),
        static_cast<unsigned long long>(c.metrics.resident_tus_at_end),
        static_cast<long long>(c.metrics.wedged_queue_value),
        i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "(json: " << path << ")\n";
}

/// One panel: a (rate × scheme) task grid over the shared scenario.
/// `configure` stamps the swept hostile knob(s) into the engine config.
template <typename Configure>
std::vector<Cell> run_panel(routing::ParallelRunner& runner,
                            const routing::ScenarioConfig& scenario,
                            const routing::SchemeConfig& base,
                            const std::string& panel_title,
                            const std::string& csv_name,
                            const std::string& mutation_key,
                            const std::vector<double>& rates,
                            Configure&& configure) {
  const auto schemes = routing::comparison_schemes();
  std::vector<routing::SchemeTask> tasks;
  for (const double rate : rates) {
    routing::SchemeConfig config = base;
    configure(config.engine.hostile, rate);
    for (const auto scheme : schemes) {
      tasks.push_back({scheme, config,
                       std::string(routing::to_string(scheme)) + " " +
                           mutation_key + "=" + common::format_double(rate, 2)});
    }
  }
  const auto results = runner.run({scenario}, tasks).front();

  std::vector<std::string> header{mutation_key + "/s"};
  for (const auto s : schemes) header.emplace_back(routing::to_string(s));
  common::Table table(header);
  std::vector<Cell> cells;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const auto row = table.add_row();
    table.set(row, 0, common::format_double(rates[r], 2));
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const auto& m = results[r * schemes.size() + i].first();
      table.set(row, i + 1, common::format_percent(m.tsr()));
      if (m.resident_tus_at_end != 0 || m.wedged_queue_value != 0) {
        std::cerr << "bench_fig_robustness: wedged liquidity under "
                  << routing::to_string(schemes[i]) << " " << mutation_key
                  << "=" << rates[r] << " (resident=" << m.resident_tus_at_end
                  << ", wedged_value=" << m.wedged_queue_value << ")\n";
        std::exit(1);
      }
      cells.push_back(Cell{routing::to_string(schemes[i]), mutation_key,
                           rates[r], m});
    }
  }
  splicer::bench::emit(panel_title, table, csv_name);
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splicer;

  const std::size_t threads = bench::thread_count(argc, argv);
  const double epoch_s = bench::settlement_epoch_s(argc, argv);
  std::string json_path = "BENCH_fig_robustness.json";
  if (const char* env = std::getenv("SPLICER_BENCH_JSON")) json_path = env;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  const routing::ScenarioConfig scenario = bench::small_scale_config();
  routing::SchemeConfig base;
  base.engine.settlement_epoch_s = epoch_s;

  routing::ParallelRunner runner({threads, 1});

  // Per-second Poisson rates over the ~25 s workload horizon; the zero
  // column is the benign reference (identical to the fig7 engine paths).
  const std::vector<double> rates = bench::fast_mode()
                                        ? std::vector<double>{0.0, 0.5, 2.0}
                                        : std::vector<double>{0.0, 0.25, 0.5,
                                                              1.0, 2.0, 4.0};

  std::vector<Cell> cells;
  auto fault = run_panel(
      runner, scenario, base, "Robustness (a) TSR vs node fault rate",
      "robustness_a_fault_rate", "fault", rates,
      [](pcn::HostileConfig& hostile, double rate) {
        hostile.fault_rate = rate;
        hostile.mean_down_s = 0.5;
      });
  cells.insert(cells.end(), fault.begin(), fault.end());

  auto churn = run_panel(
      runner, scenario, base, "Robustness (b) TSR vs channel churn rate",
      "robustness_b_churn_rate", "churn", rates,
      [](pcn::HostileConfig& hostile, double rate) {
        hostile.churn_rate = rate;
        hostile.mean_closed_s = 0.5;
      });
  cells.insert(cells.end(), churn.begin(), churn.end());

  auto policy = run_panel(
      runner, scenario, base,
      "Robustness (c) TSR vs fee/timelock policy rate",
      "robustness_c_policy_rate", "policy", rates,
      [](pcn::HostileConfig& hostile, double rate) {
        hostile.fee_policy_rate = rate;
        hostile.timelock_rate = rate;
        hostile.timelock_max = 4;
        hostile.timelock_budget = 24;
      });
  cells.insert(cells.end(), policy.begin(), policy.end());

  write_json(json_path, bench::fast_mode(), epoch_s, cells);
  return 0;
}
