// Engine hot-path microbench: drives the fixed Fig. 7 workload through all
// six schemes on a single thread and reports scheduler-event throughput —
// events/sec, ns/event, a peak-RSS proxy and the raw event count — as a
// table and as machine-readable BENCH_engine_hotpath.json. CI archives the
// JSON on every run so the perf trajectory of the event loop is recorded
// over time (compare `events_per_sec` across commits on the same machine).
//
// Usage: bench_engine_hotpath [--fast] [--repeat K] [--settlement-epoch MS]
//                             [--json PATH]
//   --fast        quarter-size workload (same as SPLICER_BENCH_FAST=1)
//   --repeat K    run each scheme K times, report the best wall time
//                 (default 3; metrics are identical across repeats)
//   --json PATH   JSON output path (default: BENCH_engine_hotpath.json,
//                 or $SPLICER_BENCH_JSON)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "routing/experiment.h"

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

void write_json(const std::string& path, const std::string& workload,
                bool fast, std::size_t repeat, double settlement_epoch_s,
                std::size_t payments,
                const std::vector<SchemeResult>& results) {
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
                "\"events_per_sec\": %.0f}\n",
                static_cast<unsigned long long>(total_events), total_wall,
                total_wall > 0
                    ? static_cast<double>(total_events) / total_wall
                    : 0.0);
  out << buf;
  out << "}\n";
  std::cout << "(json: " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeat = 3;
  std::string json_path;
  if (const char* env = std::getenv("SPLICER_BENCH_JSON")) json_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      setenv("SPLICER_BENCH_FAST", "1", 1);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max<std::size_t>(1, std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (json_path.empty()) json_path = "BENCH_engine_hotpath.json";

  const double epoch_s = bench::settlement_epoch_s(argc, argv);
  const auto config = bench::small_scale_config();
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

  write_json(json_path, "fig7_small_scale", bench::fast_mode(), repeat,
             epoch_s, scenario.payments.size(), results);
  return 0;
}
