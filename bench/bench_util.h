#pragma once

// Shared helpers for the figure/table reproduction benches.
//
// Every bench accepts `--threads N` (0 = one worker per hardware thread,
// the default) to size the parallel experiment runner.
//
// Environment knobs:
//   SPLICER_BENCH_FAST=1          quarter-size workloads (smoke runs / CI)
//   SPLICER_BENCH_SEED=N          override the base seed (default 42)
//   SPLICER_BENCH_CSV=dir         also write each table as CSV into `dir`
//   SPLICER_BENCH_THREADS=N       default for --threads
//   SPLICER_BENCH_SETTLE_EPOCH_MS=X  default for --settlement-epoch
//   SPLICER_BENCH_TRIALS=K        default for --trials (mean +/- 95% CI)
//   SPLICER_BENCH_WORKLOAD=KIND   synthetic|trace|bursty|hotspot
//   SPLICER_BENCH_TRACE=path      trace CSV for SPLICER_BENCH_WORKLOAD=trace
//   SPLICER_BENCH_STREAMING=1     engines pull payments lazily (no
//                                 materialised workload vector)
//   SPLICER_BENCH_NO_RETAIN=1     evict resolved payment states (the
//                                 retention contract; metrics unchanged,
//                                 peak_resident_states stays bounded)

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/table.h"
#include "routing/experiment.h"
#include "routing/parallel_experiment.h"

namespace splicer::bench {

inline bool fast_mode() {
  const char* v = std::getenv("SPLICER_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

/// Worker count for the parallel runner: --threads N beats
/// SPLICER_BENCH_THREADS beats 0 (= all hardware threads).
inline std::size_t thread_count(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  const char* v = std::getenv("SPLICER_BENCH_THREADS");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 0;
}

inline std::uint64_t base_seed() {
  const char* v = std::getenv("SPLICER_BENCH_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 42;
}

/// Batched-settlement epoch in seconds: `--settlement-epoch MS` beats
/// SPLICER_BENCH_SETTLE_EPOCH_MS beats 0 (= exact per-hop settlement).
inline double settlement_epoch_s(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--settlement-epoch") == 0) {
      return std::strtod(argv[i + 1], nullptr) / 1000.0;
    }
  }
  const char* v = std::getenv("SPLICER_BENCH_SETTLE_EPOCH_MS");
  return v != nullptr ? std::strtod(v, nullptr) / 1000.0 : 0.0;
}

/// Trial count: `--trials K` beats SPLICER_BENCH_TRIALS beats 1. With
/// K > 1 the figure tables print mean +/- 95% CI over derived-seed trials.
inline std::size_t trial_count(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0) {
      return std::max<std::size_t>(1, std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  const char* v = std::getenv("SPLICER_BENCH_TRIALS");
  return v != nullptr ? std::max<std::size_t>(1, std::strtoull(v, nullptr, 10))
                      : 1;
}

/// Retention contract: `--no-retain` (or SPLICER_BENCH_NO_RETAIN=1) makes
/// every engine run evict resolved payment states. Default keeps them (the
/// CI byte-identity path; reported metrics are identical either way).
inline bool retain_resolved(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-retain") == 0) return false;
  }
  const char* v = std::getenv("SPLICER_BENCH_NO_RETAIN");
  return v == nullptr || v[0] != '1';
}

/// Scales a payment count down in fast mode.
inline std::size_t scaled(std::size_t n) { return fast_mode() ? n / 4 : n; }

/// Applies the SPLICER_BENCH_WORKLOAD / _TRACE / _STREAMING overrides so
/// every figure bench can replay traces or run the bursty/hotspot
/// generators without recompiling. No env set = untouched config (the CI
/// byte-identity path).
inline void apply_workload_env(routing::ScenarioConfig& config) {
  if (const char* kind = std::getenv("SPLICER_BENCH_WORKLOAD")) {
    config.workload.kind = pcn::workload_kind_from(kind);
  }
  if (const char* trace = std::getenv("SPLICER_BENCH_TRACE")) {
    config.workload.trace_file = trace;
  }
  if (const char* streaming = std::getenv("SPLICER_BENCH_STREAMING")) {
    config.workload.streaming = streaming[0] == '1';
  }
}

/// Prints a titled table and optionally mirrors it to CSV.
inline void emit(const std::string& title, const common::Table& table,
                 const std::string& csv_name) {
  std::cout << "\n## " << title << "\n\n" << table.render();
  if (const char* dir = std::getenv("SPLICER_BENCH_CSV")) {
    const std::string path = std::string(dir) + "/" + csv_name + ".csv";
    table.write_csv(path);
    std::cout << "(csv: " << path << ")\n";
  }
}

/// Small-scale scenario defaults (paper: 100 nodes).
inline routing::ScenarioConfig small_scale_config() {
  routing::ScenarioConfig config;
  config.seed = base_seed();
  config.topology.nodes = 100;
  config.placement.candidate_count = 10;
  config.placement.omega = 0.1;
  config.workload.payment_count = scaled(1500);
  config.workload.horizon_seconds = 25.0;
  apply_workload_env(config);
  return config;
}

/// Large-scale scenario defaults (paper: 3000 nodes). The offered load
/// grows with the client population, which is what stresses single-hub
/// and source-routing schemes at scale.
inline routing::ScenarioConfig large_scale_config() {
  routing::ScenarioConfig config;
  config.seed = base_seed();
  config.topology.nodes = 3000;
  config.placement.candidate_count = 30;
  config.placement.prefer_exact = false;  // double greedy (paper Alg. 1)
  config.placement.omega = 0.1;
  config.workload.payment_count = scaled(3000);
  config.workload.horizon_seconds = 18.0;
  apply_workload_env(config);
  return config;
}

}  // namespace splicer::bench
