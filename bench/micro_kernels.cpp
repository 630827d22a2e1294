// Micro-benchmarks (google-benchmark) for the computational kernels behind
// the reproduction: graph algorithms, the LP/MILP solver, the supermodular
// double greedy, crypto primitives and the routing engine event loop.

#include <benchmark/benchmark.h>

#include "crypto/elgamal.h"
#include "crypto/shamir.h"
#include "graph/disjoint_paths.h"
#include "graph/generators.h"
#include "graph/max_flow.h"
#include "graph/shortest_path.h"
#include "graph/yen.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/milp_solver.h"
#include "routing/experiment.h"

namespace {

using namespace splicer;

graph::Graph make_graph(std::size_t n) {
  common::Rng rng(1);
  auto g = graph::watts_strogatz(n, 8, 0.15, rng);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_capacity(e, rng.uniform(10.0, 1000.0));
  }
  return g;
}

void BM_WattsStrogatz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    common::Rng rng(7);
    benchmark::DoNotOptimize(graph::watts_strogatz(n, 8, 0.15, rng));
  }
}
BENCHMARK(BM_WattsStrogatz)->Arg(100)->Arg(1000)->Arg(3000);

void BM_Dijkstra(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(g, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(100)->Arg(1000)->Arg(3000);

void BM_YenK5(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::yen_ksp(g, 0, static_cast<graph::NodeId>(g.node_count() / 2), 5));
  }
}
BENCHMARK(BM_YenK5)->Arg(100)->Arg(500);

void BM_EdgeDisjointWidest(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::edge_disjoint_widest_paths(
        g, 0, static_cast<graph::NodeId>(g.node_count() / 2), 5));
  }
}
BENCHMARK(BM_EdgeDisjointWidest)->Arg(100)->Arg(1000)->Arg(3000);

void BM_MaxFlow(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  graph::MaxFlowOptions options;
  options.flow_limit = 500.0;
  options.max_paths = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow(
        g, 0, static_cast<graph::NodeId>(g.node_count() / 2), options));
  }
}
BENCHMARK(BM_MaxFlow)->Arg(100)->Arg(1000)->Arg(3000);

void BM_PlacementMilp(benchmark::State& state) {
  common::Rng rng(2);
  const auto g = graph::watts_strogatz(
      static_cast<std::size_t>(state.range(0)), 4, 0.2, rng);
  const auto instance =
      placement::build_instance_by_degree(g, static_cast<std::size_t>(state.range(1)), 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::solve_milp(instance));
  }
}
BENCHMARK(BM_PlacementMilp)->Args({12, 3})->Args({16, 4})->Unit(benchmark::kMillisecond);

void BM_PlacementDoubleGreedy(benchmark::State& state) {
  common::Rng rng(3);
  const auto g = graph::watts_strogatz(
      static_cast<std::size_t>(state.range(0)), 8, 0.15, rng);
  const auto instance = placement::build_instance_by_degree(
      g, static_cast<std::size_t>(state.range(1)), 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::solve_approx(instance));
  }
}
BENCHMARK(BM_PlacementDoubleGreedy)
    ->Args({100, 10})
    ->Args({1000, 30})
    ->Args({3000, 30})
    ->Unit(benchmark::kMillisecond);

void BM_ElGamalRoundTrip(benchmark::State& state) {
  common::Rng rng(4);
  const auto kp = crypto::generate_keypair(rng);
  const crypto::Bytes payload(64, 0xab);
  for (auto _ : state) {
    const auto ct = crypto::encrypt(kp.public_key, payload, rng);
    crypto::Bytes out;
    benchmark::DoNotOptimize(crypto::decrypt(kp.secret_key, ct, out));
  }
}
BENCHMARK(BM_ElGamalRoundTrip);

void BM_ShamirSplitReconstruct(benchmark::State& state) {
  common::Rng rng(5);
  for (auto _ : state) {
    const auto shares = crypto::split_secret(123456789, 5, 3, rng);
    benchmark::DoNotOptimize(
        crypto::reconstruct_secret({shares[0], shares[1], shares[2]}));
  }
}
BENCHMARK(BM_ShamirSplitReconstruct);

void BM_SplicerSimulation(benchmark::State& state) {
  routing::ScenarioConfig config;
  config.seed = 42;
  config.topology.nodes = static_cast<std::size_t>(state.range(0));
  config.placement.candidate_count = config.topology.nodes >= 1000 ? 30 : 10;
  config.placement.prefer_exact = config.topology.nodes < 1000;
  config.workload.payment_count = 500;
  config.workload.horizon_seconds = 8.0;
  const auto scenario = routing::prepare_scenario(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::run_scheme(scenario, routing::Scheme::kSplicer));
  }
  state.SetItemsProcessed(state.iterations() * 500);  // payments per iter
}
BENCHMARK(BM_SplicerSimulation)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
