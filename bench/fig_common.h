#pragma once

// The Fig. 7 / Fig. 8 sweep driver: both figures show the same four panels
// (TSR vs channel size, TSR vs transaction size, TSR vs update time,
// normalised throughput) at the two network scales, comparing the five
// schemes. One driver, two scale configs.
//
// All (sweep point × scheme) simulations fan out across the parallel
// runner; results are merged back in sweep order, so the tables are
// byte-identical to the old strictly-sequential driver's output.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"

namespace splicer::bench {

/// Formats one table cell: the exact single-run percentage when trials ==
/// 1 (the CI byte-identity path), mean +/- 95% CI over the derived-seed
/// trials otherwise.
inline std::string percent_cell(const common::RunningStats& stats,
                                double single_run, std::size_t trials) {
  if (trials <= 1) return common::format_percent(single_run);
  return common::format_percent(stats.mean()) + " +/- " +
         common::format_percent(common::ci95_half_width(stats));
}

inline void run_figure(const std::string& figure, routing::ScenarioConfig base,
                       std::size_t threads, double settlement_epoch_s = 0.0,
                       std::size_t trials = 1, bool retain_resolved = true) {
  using routing::Scheme;
  const auto schemes = routing::comparison_schemes();
  routing::ParallelRunner runner({threads, trials});

  // Engine config shared by every panel; settlement_epoch_s = 0 and
  // retain_resolved keep the exact legacy engine paths (byte-identical
  // tables — eviction changes memory, never metrics, but stays opt-in).
  routing::SchemeConfig base_scheme_config;
  base_scheme_config.engine.settlement_epoch_s = settlement_epoch_s;
  base_scheme_config.engine.retain_resolved = retain_resolved;

  const auto scheme_header = [&] {
    std::vector<std::string> header{"sweep"};
    for (const auto s : schemes) header.emplace_back(routing::to_string(s));
    return header;
  };

  // ---- (a) TSR vs channel size + (b) TSR vs transaction size ------------
  // One joint fan-out: the two panels sweep disjoint knobs over the same
  // scheme set, so their scenarios batch into a single parallel run.
  const std::vector<double> channel_scales{0.5, 1.0, 2.0, 4.0, 8.0};
  const std::vector<double> value_scales{0.25, 0.5, 1.0, 2.0, 4.0};
  {
    std::vector<routing::ScenarioConfig> scenarios;
    for (const double scale : channel_scales) {
      auto config = base;
      config.topology.fund_scale = scale;
      scenarios.push_back(config);
    }
    for (const double scale : value_scales) {
      auto config = base;
      config.workload.value_scale = scale;
      scenarios.push_back(config);
    }

    const auto results =
        runner.run(scenarios, routing::comparison_tasks(base_scheme_config));

    common::Table channel_table(scheme_header());
    for (std::size_t row_idx = 0; row_idx < channel_scales.size(); ++row_idx) {
      const auto row = channel_table.add_row();
      channel_table.set(row, 0,
                        "x" + common::format_double(channel_scales[row_idx], 1));
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        const auto& cell = results[row_idx][i];
        channel_table.set(row, i + 1,
                          percent_cell(cell.tsr, cell.first().tsr(), trials));
      }
    }
    emit(figure + "(a) TSR vs channel size (x mean 403 tokens)", channel_table,
         figure + "a_channel_size");

    common::Table value_table(scheme_header());
    for (std::size_t row_idx = 0; row_idx < value_scales.size(); ++row_idx) {
      const auto row = value_table.add_row();
      value_table.set(row, 0,
                      "x" + common::format_double(value_scales[row_idx], 2));
      const auto& point = results[channel_scales.size() + row_idx];
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        value_table.set(row, i + 1,
                        percent_cell(point[i].tsr, point[i].first().tsr(),
                                     trials));
      }
    }
    emit(figure + "(b) TSR vs transaction size (x credit-card mean 88)",
         value_table, figure + "b_txn_size");
  }

  // ---- (c) TSR vs update time + (d) normalised throughput ---------------
  // One scenario, a (tau × scheme) task grid.
  {
    const std::vector<double> taus{0.1, 0.2, 0.4, 0.7, 1.0};
    std::vector<routing::SchemeTask> tasks;
    for (const double tau : taus) {
      routing::SchemeConfig scheme_config = base_scheme_config;
      scheme_config.protocol.tau_s = tau;
      for (const auto scheme : schemes) {
        tasks.push_back({scheme, scheme_config,
                         std::string(routing::to_string(scheme)) + " tau=" +
                             common::format_double(tau, 1)});
      }
    }
    const auto results = runner.run({base}, tasks).front();

    common::Table tsr_table(scheme_header());
    common::Table thr_table(scheme_header());
    std::vector<double> splicer_tsr, best_other_tsr;
    std::vector<double> splicer_thr, best_other_thr;
    for (std::size_t tau_idx = 0; tau_idx < taus.size(); ++tau_idx) {
      const auto tsr_row = tsr_table.add_row();
      const auto thr_row = thr_table.add_row();
      const auto label = common::format_double(taus[tau_idx] * 1000, 0) + "ms";
      tsr_table.set(tsr_row, 0, label);
      thr_table.set(thr_row, 0, label);
      double other_best_tsr = 0.0, other_best_thr = 0.0;
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        const auto& cell = results[tau_idx * schemes.size() + i];
        const auto& m = cell.first();
        tsr_table.set(tsr_row, i + 1,
                      percent_cell(cell.tsr, m.tsr(), trials));
        thr_table.set(thr_row, i + 1,
                      percent_cell(cell.throughput, m.normalized_throughput(),
                                   trials));
        // Headline averages use the trial mean (== the single run at K=1).
        const double tsr = cell.tsr.mean();
        const double thr = cell.throughput.mean();
        if (schemes[i] == routing::Scheme::kSplicer) {
          splicer_tsr.push_back(tsr);
          splicer_thr.push_back(thr);
        } else {
          other_best_tsr = std::max(other_best_tsr, tsr);
          other_best_thr = std::max(other_best_thr, thr);
        }
      }
      best_other_tsr.push_back(other_best_tsr);
      best_other_thr.push_back(other_best_thr);
    }
    emit(figure + "(c) TSR vs update time tau", tsr_table,
         figure + "c_update_time");
    emit(figure + "(d) normalised throughput vs update time tau", thr_table,
         figure + "d_throughput");

    // Headline block (paper SS V-B: Splicer vs best-of-the-rest averages).
    double tsr_gain = 0.0, thr_gain = 0.0;
    for (std::size_t i = 0; i < splicer_tsr.size(); ++i) {
      tsr_gain += splicer_tsr[i] - best_other_tsr[i];
      thr_gain += splicer_thr[i] - best_other_thr[i];
    }
    tsr_gain /= static_cast<double>(splicer_tsr.size());
    thr_gain /= static_cast<double>(splicer_thr.size());
    std::cout << "\nHeadline (" << figure
              << "): Splicer vs best baseline, averaged over the tau sweep:\n"
              << "  TSR        " << common::format_double(tsr_gain * 100, 1)
              << " points higher\n"
              << "  throughput " << common::format_double(thr_gain * 100, 1)
              << " points higher\n";
  }
}

}  // namespace splicer::bench
