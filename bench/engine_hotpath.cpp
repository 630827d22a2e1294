// Engine hot-path microbench: drives the fixed Fig. 7 workload through all
// six schemes on a single thread and reports scheduler-event throughput —
// events/sec, ns/event, a peak-RSS proxy and the raw event count — as a
// table and as machine-readable BENCH_engine_hotpath.json. CI archives the
// JSON on every run so the perf trajectory of the event loop is recorded
// over time (compare `events_per_sec` across commits on the same machine).
//
// A second section sweeps the sharded engine over 1/2/4/8 shards on a
// heavier workload (4x payments) and reports, per shard count, aggregate
// events/sec across all six schemes plus two speedups: `measured` (wall
// clock on this machine — bounded by its core count) and `projected`
// (total events over the BSP critical path, i.e. the speedup the partition
// admits once one core per shard is available). Both land in the JSON under
// "shard_sweep" and are archived by CI.
//
// Usage: bench_engine_hotpath [--fast] [--repeat K] [--settlement-epoch MS]
//                             [--json PATH] [--no-sweep]
//   --fast        quarter-size workload (same as SPLICER_BENCH_FAST=1)
//   --repeat K    run each scheme K times, report the best wall time
//                 (default 3; metrics are identical across repeats)
//   --json PATH   JSON output path (default: BENCH_engine_hotpath.json,
//                 or $SPLICER_BENCH_JSON)
//   --no-sweep    skip the shard-scaling sweep

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "routing/experiment.h"
#include "routing/sharded_engine.h"

namespace {

using namespace splicer;

/// Peak resident-set proxy in KiB: VmHWM from /proc/self/status where
/// available (Linux), 0 elsewhere. Process-wide high-water mark, so scheme
/// rows are cumulative — the per-run signal is the delta between rows.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

struct SchemeResult {
  std::string name;
  double best_wall_s = 0.0;
  routing::EngineMetrics metrics;
  long rss_after_kib = 0;

  [[nodiscard]] double events_per_sec() const {
    return best_wall_s > 0
               ? static_cast<double>(metrics.scheduler_events) / best_wall_s
               : 0.0;
  }
  [[nodiscard]] double ns_per_event() const {
    return metrics.scheduler_events > 0
               ? best_wall_s * 1e9 /
                     static_cast<double>(metrics.scheduler_events)
               : 0.0;
  }
};

struct SweepPoint {
  std::uint32_t shards = 1;
  double wall_s = 0.0;              // summed best-of walls, all six schemes
  std::uint64_t events = 0;         // summed scheduler events
  std::uint64_t critical_path = 0;  // summed BSP critical-path events

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  /// Speedup the partition admits with one core per shard: total events
  /// over the busiest-shard-per-window sum (stragglers included).
  [[nodiscard]] double projected_speedup() const {
    return critical_path > 0
               ? static_cast<double>(events) / static_cast<double>(critical_path)
               : 1.0;
  }
};

void write_json(const std::string& path, const std::string& workload,
                bool fast, std::size_t repeat, double settlement_epoch_s,
                std::size_t payments,
                const std::vector<SchemeResult>& results,
                std::size_t sweep_payments,
                const std::vector<SweepPoint>& sweep) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_engine_hotpath: cannot write " << path << "\n";
    return;
  }
  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  for (const auto& r : results) {
    total_events += r.metrics.scheduler_events;
    total_wall += r.best_wall_s;
  }
  char buf[512];
  out << "{\n";
  out << "  \"bench\": \"engine_hotpath\",\n";
  out << "  \"workload\": \"" << workload << "\",\n";
  out << "  \"fast\": " << (fast ? "true" : "false") << ",\n";
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"settlement_epoch_s\": " << settlement_epoch_s << ",\n";
  out << "  \"payments\": " << payments << ",\n";
  out << "  \"schemes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"scheme\": \"%s\", \"wall_s\": %.6f, "
                  "\"scheduler_events\": %llu, \"events_per_sec\": %.0f, "
                  "\"ns_per_event\": %.1f, \"peak_rss_kib\": %ld, "
                  "\"tsr\": %.6f}%s\n",
                  r.name.c_str(), r.best_wall_s,
                  static_cast<unsigned long long>(r.metrics.scheduler_events),
                  r.events_per_sec(), r.ns_per_event(), r.rss_after_kib,
                  r.metrics.tsr(), i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"total\": {\"scheduler_events\": %llu, \"wall_s\": %.6f, "
                "\"events_per_sec\": %.0f}",
                static_cast<unsigned long long>(total_events), total_wall,
                total_wall > 0
                    ? static_cast<double>(total_events) / total_wall
                    : 0.0);
  out << buf;
  if (!sweep.empty()) {
    const double base_eps = sweep.front().events_per_sec();
    out << ",\n  \"shard_sweep\": {\n";
    out << "    \"payments\": " << sweep_payments << ",\n";
    out << "    \"schemes_per_point\": 6,\n";
    out << "    \"points\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      std::snprintf(
          buf, sizeof(buf),
          "      {\"shards\": %u, \"wall_s\": %.6f, "
          "\"scheduler_events\": %llu, \"events_per_sec\": %.0f, "
          "\"measured_speedup\": %.3f, \"projected_speedup\": %.3f}%s\n",
          p.shards, p.wall_s, static_cast<unsigned long long>(p.events),
          p.events_per_sec(),
          base_eps > 0 ? p.events_per_sec() / base_eps : 0.0,
          p.projected_speedup(), i + 1 < sweep.size() ? "," : "");
      out << buf;
    }
    out << "    ]\n";
    out << "  }\n";
  } else {
    out << "\n";
  }
  out << "}\n";
  std::cout << "(json: " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeat = 3;
  bool run_sweep = true;
  std::string json_path;
  if (const char* env = std::getenv("SPLICER_BENCH_JSON")) json_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      setenv("SPLICER_BENCH_FAST", "1", 1);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max<std::size_t>(1, std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      run_sweep = false;
    }
  }
  if (json_path.empty()) json_path = "BENCH_engine_hotpath.json";

  const double epoch_s = bench::settlement_epoch_s(argc, argv);
  auto config = bench::small_scale_config();
  const auto scenario = routing::prepare_scenario(config);

  routing::SchemeConfig scheme_config;
  scheme_config.engine.settlement_epoch_s = epoch_s;

  // All six schemes, not just the figure-comparison five: the hot path must
  // stay fast for every router's event mix (ShortestPath = atomic HTLCs).
  const std::vector<routing::Scheme> schemes{
      routing::Scheme::kSplicer,   routing::Scheme::kSpider,
      routing::Scheme::kFlash,     routing::Scheme::kLandmark,
      routing::Scheme::kA2l,       routing::Scheme::kShortestPath};

  std::vector<SchemeResult> results;
  for (const auto scheme : schemes) {
    SchemeResult result;
    result.name = routing::to_string(scheme);
    result.best_wall_s = std::numeric_limits<double>::infinity();
    for (std::size_t rep = 0; rep < repeat; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      result.metrics = routing::run_scheme(scenario, scheme, scheme_config);
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      result.best_wall_s = std::min(result.best_wall_s, wall.count());
    }
    result.rss_after_kib = peak_rss_kib();
    results.push_back(std::move(result));
  }

  common::Table table({"scheme", "wall_s", "events", "events/s", "ns/event",
                       "peak_rss_kib", "tsr"});
  for (const auto& r : results) {
    const auto row = table.add_row();
    table.set(row, 0, r.name);
    table.set(row, 1, common::format_double(r.best_wall_s, 4));
    table.set(row, 2, std::to_string(r.metrics.scheduler_events));
    table.set(row, 3, common::format_double(r.events_per_sec(), 0));
    table.set(row, 4, common::format_double(r.ns_per_event(), 1));
    table.set(row, 5, std::to_string(r.rss_after_kib));
    table.set(row, 6, common::format_percent(r.metrics.tsr()));
  }
  bench::emit("Engine hot path (Fig. 7 workload, 1 thread, best of " +
                  std::to_string(repeat) + ")",
              table, "engine_hotpath");

  // ---- shard-scaling sweep -------------------------------------------------
  // Heavier workload (4x payments, same horizon) so each barrier window
  // carries enough events to amortise coordination; every shard count runs
  // all six schemes through run_scheme_sharded with default threading
  // (min(shards, cores)). On a machine with fewer cores than shards the
  // measured column saturates at the core count while the projected column
  // (events / BSP critical path) still reports the partition's scalability.
  std::vector<SweepPoint> sweep;
  std::size_t sweep_payments = 0;
  if (run_sweep) {
    auto sweep_config = config;
    sweep_config.workload.payment_count *= 4;
    const auto sweep_scenario = routing::prepare_scenario(sweep_config);
    sweep_payments = sweep_config.workload.payment_count;
    const std::size_t sweep_repeat = bench::fast_mode() ? 1 : 2;
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      SweepPoint point;
      point.shards = shards;
      for (const auto scheme : schemes) {
        double best_wall = std::numeric_limits<double>::infinity();
        routing::EngineMetrics metrics;
        for (std::size_t rep = 0; rep < sweep_repeat; ++rep) {
          routing::ShardedEngineConfig sharded;
          sharded.shards = shards;
          const auto start = std::chrono::steady_clock::now();
          metrics = routing::run_scheme_sharded(sweep_scenario, scheme,
                                                scheme_config, sharded);
          const std::chrono::duration<double> wall =
              std::chrono::steady_clock::now() - start;
          best_wall = std::min(best_wall, wall.count());
        }
        point.wall_s += best_wall;
        point.events += metrics.scheduler_events;
        point.critical_path += metrics.shard_critical_path_events;
      }
      sweep.push_back(point);
    }

    common::Table sweep_table({"shards", "wall_s", "events", "events/s",
                               "measured_x", "projected_x"});
    const double base_eps = sweep.front().events_per_sec();
    for (const auto& p : sweep) {
      const auto row = sweep_table.add_row();
      sweep_table.set(row, 0, std::to_string(p.shards));
      sweep_table.set(row, 1, common::format_double(p.wall_s, 4));
      sweep_table.set(row, 2, std::to_string(p.events));
      sweep_table.set(row, 3, common::format_double(p.events_per_sec(), 0));
      sweep_table.set(row, 4, common::format_double(
                                  base_eps > 0 ? p.events_per_sec() / base_eps
                                               : 0.0,
                                  2));
      sweep_table.set(row, 5, common::format_double(p.projected_speedup(), 2));
    }
    bench::emit("Shard scaling (4x Fig. 7 workload, all six schemes, " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    " cores)",
                sweep_table, "engine_hotpath_shards");
  }

  write_json(json_path, "fig7_small_scale", bench::fast_mode(), repeat,
             epoch_s, scenario.payments.size(), results, sweep_payments,
             sweep);
  return 0;
}
