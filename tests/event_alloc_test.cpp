// Run-time allocation gate for the event path.
//
// This binary replaces the global operator new with a counting one and
// runs all six schemes at the Fig. 7 smoke scale (100 nodes, 375 payments)
// through run_scheme, in three engine configs. Allocations per scheduler
// event, summed over the six runs, must stay at or under the bounds below.
// What is left is per-run set-up (network copy, router tables, slab and
// heap growth) and the first touch of each payment pair (path queries and
// the growth of the flat path and pair tables); a TU's dispatch, hops,
// settle or refund, and release allocate nothing once the route slots have
// grown, and neither do the routers' per-payment maps (dense id windows).
//
// Allocations / scheduler events, six schemes summed (GCC 12, libstdc++):
//   config                TUs owning routes         engine-owned routes
//   exact                 116372 / 121467 = 0.958   23896 / 121467 = 0.197
//   batched 10 ms         232436 /  55747 = 4.169   23776 /  55747 = 0.426
//   batched + hostile     230191 /  56869 = 4.048   23852 /  56869 = 0.419
// and after the rate routers' per-pair state went flat (pooled demand
// FIFOs, one path store, no per-pair path copies) and the per-payment
// router maps moved to DenseIdMap:
//   exact                 13647 / 121467 = 0.112
//   batched 10 ms         13526 /  55747 = 0.243
//   batched + hostile     13602 /  56869 = 0.239
// Per scheme, before -> after (exact / batched / hostile):
//   Splicer    5227 -> 870     5265 -> 908     5294 -> 934
//   Spider    11903 -> 6385   11802 -> 6283   11777 -> 6257
//   Landmark    859 -> 485      804 -> 430      820 -> 450
//   Flash, A2L and ShortestPath unchanged.
// The event counts are equal: the event stream did not change.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "routing/experiment.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every unaligned form, so that no block a sanitizer runtime's own
// operator new hands out reaches this file's operator delete, or back. The
// deletes stay out of line: inlined into a caller here, GCC would pair the
// free() with the allocation it sees and warn (-Wmismatched-new-delete).
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace splicer::routing {
namespace {

/// bench_fig7_small_scale's scenario under SPLICER_BENCH_FAST=1.
ScenarioConfig fig7_smoke() {
  ScenarioConfig config;
  config.seed = 42;
  config.topology.nodes = 100;
  config.placement.candidate_count = 10;
  config.placement.omega = 0.1;
  config.workload.payment_count = 1500 / 4;
  config.workload.horizon_seconds = 25.0;
  return config;
}

/// Allocations per event allowed, a little above the flat-state counts in
/// the table above.
constexpr double kExactBound = 0.13;
constexpr double kBatchedBound = 0.28;
constexpr double kHostileBound = 0.28;

struct AllocCount {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_event() const {
    return static_cast<double>(allocations) / static_cast<double>(events);
  }
};

/// Runs every scheme once under `config`, counting operator new calls
/// inside each run_scheme call only (set-up of the shared scenario is
/// outside the window).
AllocCount count_runs(const Scenario& scenario, const SchemeConfig& config,
                      const char* label) {
  AllocCount total;
  std::vector<Scheme> schemes = comparison_schemes();
  schemes.push_back(Scheme::kShortestPath);
  for (const Scheme scheme : schemes) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const EngineMetrics m = run_scheme(scenario, scheme, config);
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    std::cout << label << " " << to_string(scheme) << ": " << allocations
              << " allocations, " << m.scheduler_events << " events\n";
    total.allocations += allocations;
    total.events += m.scheduler_events;
  }
  std::cout << label << " total: " << total.allocations << " allocations / "
            << total.events << " events = " << total.per_event() << "\n";
  return total;
}

/// Prepared once for the three configs, outside every counting window.
const Scenario& smoke_scenario() {
  static const Scenario scenario = prepare_scenario(fig7_smoke());
  return scenario;
}

TEST(EventAllocGate, ExactSettlement) {
  const AllocCount count = count_runs(smoke_scenario(), SchemeConfig{}, "exact");
  EXPECT_GT(count.events, 0u);
  EXPECT_LE(count.per_event(), kExactBound);
}

TEST(EventAllocGate, BatchedSettlement) {
  SchemeConfig config;
  config.engine.settlement_epoch_s = 0.010;
  const AllocCount count = count_runs(smoke_scenario(), config, "batched");
  EXPECT_GT(count.events, 0u);
  EXPECT_LE(count.per_event(), kBatchedBound);
}

TEST(EventAllocGate, BatchedUnderChurnAndFaults) {
  SchemeConfig config;
  config.engine.settlement_epoch_s = 0.010;
  config.engine.hostile.churn_rate = 2.0;
  config.engine.hostile.fault_rate = 0.5;
  const AllocCount count = count_runs(smoke_scenario(), config, "hostile");
  EXPECT_GT(count.events, 0u);
  EXPECT_LE(count.per_event(), kHostileBound);
}

}  // namespace
}  // namespace splicer::routing
