// Batched-settlement ablation on the Fig. 7 workload: the same five-scheme
// comparison, swept over the settlement epoch. Epoch 0 is the exact per-hop
// engine (one scheduler event per hop settle/refund); epoch > 0 coalesces
// all settle/refund work per (channel, direction) into one flush event per
// epoch. The table reports scheduler events processed and wall-clock per
// sweep point, so the event-count reduction and speedup are measured on
// exactly the workload the acceptance figures use.
//
// Usage: bench_settlement_batching [--threads N]
//   (the sweep itself runs each configuration single-threaded so the
//    wall-clock column is comparable; --threads is accepted for interface
//    parity with the other benches and ignored)
// "peak resident" is the most PaymentStates any scheme held at once;
// resolved states are evicted, so it stays at the concurrency level.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace splicer;
  (void)bench::thread_count(argc, argv);

  std::cout << "=== Batched settlement: Fig. 7 workload, epoch sweep ===\n"
            << (bench::fast_mode() ? "(fast mode: quarter workload)\n" : "");

  const auto scenario = routing::prepare_scenario(bench::small_scale_config());
  const auto schemes = routing::comparison_schemes();
  const std::vector<double> epochs_ms{0.0, 5.0, 10.0, 25.0, 50.0};

  common::Table table({"epoch (ms)", "events", "vs epoch 0", "flushes",
                       "coalesced ops", "wall (ms)", "speedup",
                       "Splicer TSR", "Splicer thr", "peak resident"});
  std::uint64_t baseline_events = 0;
  double baseline_wall_ms = 0.0;
  std::uint64_t default_epoch_events = 0;

  for (const double epoch_ms : epochs_ms) {
    routing::SchemeConfig config;
    config.engine.settlement_epoch_s = epoch_ms / 1000.0;

    std::uint64_t events = 0, flushes = 0, coalesced = 0;
    std::size_t peak_resident = 0;
    double splicer_tsr = 0.0, splicer_thr = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto scheme : schemes) {
      const auto m = routing::run_scheme(scenario, scheme, config);
      events += m.scheduler_events;
      flushes += m.settlement_flushes;
      coalesced += m.settlements_batched;
      peak_resident = std::max(peak_resident, m.peak_resident_states);
      if (scheme == routing::Scheme::kSplicer) {
        splicer_tsr = m.tsr();
        splicer_thr = m.normalized_throughput();
      }
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    if (epoch_ms == 0.0) {
      baseline_events = events;
      baseline_wall_ms = wall_ms;
    }
    if (epoch_ms == 10.0) default_epoch_events = events;

    const auto row = table.add_row();
    table.set(row, 0, common::format_double(epoch_ms, 0));
    table.set(row, 1, static_cast<std::int64_t>(events));
    table.set(row, 2,
              common::format_double(
                  static_cast<double>(baseline_events) /
                      static_cast<double>(events),
                  2) +
                  "x");
    table.set(row, 3, static_cast<std::int64_t>(flushes));
    table.set(row, 4, static_cast<std::int64_t>(coalesced));
    table.set(row, 5, wall_ms, 1);
    table.set(row, 6, common::format_double(baseline_wall_ms / wall_ms, 2) + "x");
    table.set(row, 7, common::format_percent(splicer_tsr));
    table.set(row, 8, common::format_percent(splicer_thr));
    table.set(row, 9, static_cast<std::int64_t>(peak_resident));
  }

  bench::emit("batched settlement vs per-hop settlement (Fig. 7 workload)",
              table, "settlement_batching");

  std::cout << "\nHeadline: epoch 10 ms processes "
            << common::format_double(static_cast<double>(baseline_events) /
                                         static_cast<double>(default_epoch_events),
                                     2)
            << "x fewer scheduler events than per-hop settlement.\n";
  return 0;
}
