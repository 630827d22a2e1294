#pragma once

// Parallel experiment execution for the Figs. 7/8/9 evaluation harness.
//
// The sequential harness (experiment.h) runs five schemes × many sweep
// points × (optionally) many seeds strictly one after another. All of that
// work is independent: a (scenario, trial, scheme) triple fully determines
// one simulation. ParallelRunner fans those triples across a fixed-shard
// ThreadPool and merges the per-shard metrics back in submission order, so
//
//   * the result for every (scenario, task, trial) lands at a fixed index —
//     thread interleaving never changes what is reported where; and
//   * every simulation derives its RNG seeds deterministically from
//     (base seed, scenario index, scheme, trial) — an N-thread run is
//     bit-identical to a 1-thread run of the same request.
//
// Trial 0 uses the caller's seeds untouched, which makes ParallelRunner a
// drop-in replacement for the sequential prepare_scenario()/run_scheme()
// loop: same numbers, just computed cores-wide. Trials >= 1 get derived
// seeds for confidence intervals across independent workloads.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "routing/experiment.h"

namespace splicer::routing {

/// Deterministic seed derivation: folds each component into the base seed
/// with splitmix64 steps. Stable across platforms (see common/rng.h).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t scenario_idx,
                                        std::uint64_t scheme_tag,
                                        std::uint64_t trial) noexcept;

/// One scheme execution request; `label` names the table column/row (useful
/// when the same scheme runs under several protocol configs, e.g. the tau
/// sweep or the rate-control ablation). Empty label = to_string(scheme).
struct SchemeTask {
  Scheme scheme = Scheme::kSplicer;
  SchemeConfig config;
  std::string label;

  [[nodiscard]] const char* name() const noexcept {
    return label.empty() ? to_string(scheme) : label.c_str();
  }
};

/// Metrics for one (scenario, task) cell, merged across trials.
struct TaskResult {
  std::vector<EngineMetrics> trials;  // indexed by trial
  common::RunningStats tsr;
  common::RunningStats throughput;
  common::RunningStats delay_s;
  common::RunningStats messages;

  /// Trial-0 metrics: bit-identical to the sequential single-run path.
  [[nodiscard]] const EngineMetrics& first() const { return trials.front(); }
};

struct ParallelRunnerConfig {
  /// Worker threads, capped at the simulations of each call; 0 = one per
  /// hardware thread.
  std::size_t threads = 0;
  std::size_t trials = 1;   // independent derived-seed repetitions
};

class ParallelRunner {
 public:
  explicit ParallelRunner(ParallelRunnerConfig config = {});

  /// Runs every (scenario × trial × task) simulation across the pool.
  /// Phase 1 prepares each (scenario, trial) once — a prepared Scenario is
  /// shared read-only by all scheme tasks, so every scheme still sees the
  /// identical topology/placement/workload (the paper's comparison setup).
  /// Phase 2 runs the scheme simulations. Result[s][t] merges the trials
  /// for scenarios[s] under tasks[t].
  [[nodiscard]] std::vector<std::vector<TaskResult>> run(
      const std::vector<ScenarioConfig>& scenarios,
      const std::vector<SchemeTask>& tasks);

  /// Convenience: one scenario, plain scheme list, default configs.
  [[nodiscard]] std::vector<TaskResult> run(const ScenarioConfig& scenario,
                                            const std::vector<Scheme>& schemes);

  /// Runs the task grid over scenarios the caller prepared (and may have
  /// inspected: hub counts, client sets, ...). Single trial per cell — a
  /// prepared Scenario pins its workload, so repetitions would be copies;
  /// task configs are used verbatim.
  [[nodiscard]] std::vector<std::vector<TaskResult>> run_prepared(
      const std::vector<Scenario>& scenarios,
      const std::vector<SchemeTask>& tasks);

  [[nodiscard]] const ParallelRunnerConfig& config() const noexcept {
    return config_;
  }

 private:
  ParallelRunnerConfig config_;
};

/// Scheme tasks for the five comparison schemes under one shared config.
[[nodiscard]] std::vector<SchemeTask> comparison_tasks(SchemeConfig config = {});

}  // namespace splicer::routing
