#include "routing/parallel_experiment.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "sim/thread_pool.h"

namespace splicer::routing {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t scenario_idx,
                          std::uint64_t scheme_tag, std::uint64_t trial) noexcept {
  // Hash-combine chain: fully mix before absorbing each component, so that
  // nearby (scenario, scheme, trial) triples land far apart.
  std::uint64_t state = base;
  state = common::splitmix64(state) ^ scenario_idx;
  state = common::splitmix64(state) ^ scheme_tag;
  state = common::splitmix64(state) ^ trial;
  return common::splitmix64(state);
}

ParallelRunner::ParallelRunner(ParallelRunnerConfig config)
    : config_(config) {
  if (config_.trials == 0) config_.trials = 1;
}

std::vector<std::vector<TaskResult>> ParallelRunner::run(
    const std::vector<ScenarioConfig>& scenarios,
    const std::vector<SchemeTask>& tasks) {
  const std::size_t S = scenarios.size();
  const std::size_t K = config_.trials;
  const std::size_t T = tasks.size();

  // No more workers than simulations (0 still means one per hardware
  // thread): results land at fixed indices, so the count changes no
  // output, and a huge thread count never asks the host for threads it
  // cannot spawn.
  sim::ThreadPool pool(std::min(config_.threads, S * K * T));

  // Phase 1: prepare each (scenario, trial) workload once. Trial 0 keeps
  // the caller's seed so results match the sequential path exactly; later
  // trials re-derive the scenario seed (scheme_tag 0: the workload must be
  // shared by every scheme within a trial).
  std::vector<ScenarioConfig> configs(S * K);
  // optional<>: Scenario has no default constructor (Network requires funds).
  std::vector<std::optional<Scenario>> prepared(S * K);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t k = 0; k < K; ++k) {
      ScenarioConfig config = scenarios[s];
      if (k > 0) config.seed = derive_seed(scenarios[s].seed, s, 0, k);
      configs[s * K + k] = std::move(config);
    }
  }
  pool.parallel_for(S * K, [&](std::size_t i) {
    prepared[i] = prepare_scenario(configs[i]);
  });

  // Phase 2: every (scenario, trial, task) simulation, one shard task each.
  // Results land at fixed indices, so merge order is independent of thread
  // interleaving. Trial 0 keeps the caller's engine seed (sequential
  // parity); later trials derive it per scheme so repetitions are
  // independent on the engine side too.
  std::vector<EngineMetrics> raw(S * K * T);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t t = 0; t < T; ++t) {
        const std::size_t index = (s * K + k) * T + t;
        // Explicit wrap: the pinning key is the dense task index, folded
        // onto the worker ring (submit_to itself rejects out-of-range).
        pool.submit_to(index % pool.thread_count(), [&, s, k, t, index] {
          SchemeConfig config = tasks[t].config;
          if (k > 0) {
            config.engine.seed = derive_seed(
                scenarios[s].seed, s,
                static_cast<std::uint64_t>(tasks[t].scheme) + 1, k);
          }
          raw[index] = run_scheme(*prepared[s * K + k], tasks[t].scheme, config);
        });
      }
    }
  }
  pool.wait();
  prepared.clear();  // scenarios can be large (3000-node networks)

  // Merge: aggregate the per-shard metrics into per-(scenario, task) stats.
  std::vector<std::vector<TaskResult>> results(S);
  for (std::size_t s = 0; s < S; ++s) {
    results[s].resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      TaskResult& cell = results[s][t];
      cell.trials.reserve(K);
      for (std::size_t k = 0; k < K; ++k) {
        EngineMetrics& m = raw[(s * K + k) * T + t];
        cell.tsr.add(m.tsr());
        cell.throughput.add(m.normalized_throughput());
        cell.delay_s.add(m.average_delay_s());
        cell.messages.add(static_cast<double>(m.messages.total()));
        cell.trials.push_back(std::move(m));
      }
    }
  }
  return results;
}

std::vector<TaskResult> ParallelRunner::run(const ScenarioConfig& scenario,
                                            const std::vector<Scheme>& schemes) {
  std::vector<SchemeTask> tasks;
  tasks.reserve(schemes.size());
  for (const auto scheme : schemes) tasks.push_back({scheme, {}, {}});
  auto grid = run(std::vector<ScenarioConfig>{scenario}, tasks);
  return std::move(grid.front());
}

std::vector<std::vector<TaskResult>> ParallelRunner::run_prepared(
    const std::vector<Scenario>& scenarios, const std::vector<SchemeTask>& tasks) {
  const std::size_t S = scenarios.size();
  const std::size_t T = tasks.size();

  sim::ThreadPool pool(std::min(config_.threads, S * T));  // see run()
  std::vector<EngineMetrics> raw(S * T);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t index = s * T + t;
      pool.submit_to(index % pool.thread_count(), [&, s, t, index] {
        raw[index] = run_scheme(scenarios[s], tasks[t].scheme, tasks[t].config);
      });
    }
  }
  pool.wait();

  std::vector<std::vector<TaskResult>> results(S);
  for (std::size_t s = 0; s < S; ++s) {
    results[s].resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      TaskResult& cell = results[s][t];
      EngineMetrics& m = raw[s * T + t];
      cell.tsr.add(m.tsr());
      cell.throughput.add(m.normalized_throughput());
      cell.delay_s.add(m.average_delay_s());
      cell.messages.add(static_cast<double>(m.messages.total()));
      cell.trials.push_back(std::move(m));
    }
  }
  return results;
}

std::vector<SchemeTask> comparison_tasks(SchemeConfig config) {
  std::vector<SchemeTask> tasks;
  for (const auto scheme : comparison_schemes()) {
    tasks.push_back({scheme, config, {}});
  }
  return tasks;
}

}  // namespace splicer::routing
