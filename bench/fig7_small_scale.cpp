// Reproduces paper Fig. 7: Splicer vs Spider/Flash/Landmark/A2L on the
// small-scale network (100 nodes), four panels (see fig_common.h).
//
// Usage: bench_fig7_small_scale [--threads N] [--settlement-epoch MS]
//                               [--trials K]
//   --threads 0 (default) = all hardware threads
//   --settlement-epoch 0 (default) = exact per-hop settlement
//   --trials 1 (default) = single run; K > 1 = mean +/- 95% CI over
//                          derived-seed workloads

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace splicer;
  const double epoch_s = bench::settlement_epoch_s(argc, argv);
  const std::size_t trials = bench::trial_count(argc, argv);
  std::cout << "=== Fig. 7: small-scale network (100 nodes) ===\n"
            << (bench::fast_mode() ? "(fast mode: quarter workload)\n" : "");
  if (epoch_s > 0) {
    std::cout << "(batched settlement: epoch "
              << common::format_double(epoch_s * 1000, 1) << " ms)\n";
  }
  if (trials > 1) {
    std::cout << "(" << trials << " trials: mean +/- 95% CI)\n";
  }
  bench::run_figure("fig7", bench::small_scale_config(),
                    bench::thread_count(argc, argv), epoch_s, trials);
  return 0;
}
