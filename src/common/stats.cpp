#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace splicer::common {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double student_t95(std::size_t df) noexcept {
  if (df == 0) return 0.0;
  // Two-sided 95% Student t quantiles for df = 1..30.
  static constexpr double kT95[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df <= 30) return kT95[df - 1];
  // Beyond the table: interpolate linearly in 1/df through the standard
  // df = 40, 60, 120, infinity anchors (the quantile is near-linear in
  // 1/df, the classic textbook interpolation rule). Continuous at df 30.
  struct Anchor {
    double inv_df;
    double t;
  };
  static constexpr Anchor kTail[] = {{1.0 / 30.0, 2.042},
                                     {1.0 / 40.0, 2.021},
                                     {1.0 / 60.0, 2.000},
                                     {1.0 / 120.0, 1.980},
                                     {0.0, 1.960}};
  const double x = 1.0 / static_cast<double>(df);
  for (std::size_t i = 1; i < std::size(kTail); ++i) {
    if (x >= kTail[i].inv_df) {
      const Anchor hi = kTail[i - 1];
      const Anchor lo = kTail[i];
      const double frac = (x - lo.inv_df) / (hi.inv_df - lo.inv_df);
      return lo.t + frac * (hi.t - lo.t);
    }
  }
  return 1.960;
}

double ci95_half_width(const RunningStats& stats) noexcept {
  if (stats.count() < 2) return 0.0;
  return student_t95(stats.count() - 1) * stats.stddev() /
         std::sqrt(static_cast<double>(stats.count()));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile q out of [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (const double v : values) s += v;
  return s / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (buckets == 0) throw std::invalid_argument("Histogram needs >= 1 bucket");
  if (!(lo < hi)) throw std::invalid_argument("Histogram needs lo < hi");
}

void Histogram::add(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bucket_lo(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const noexcept {
  return bucket_lo(i + 1);
}

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out << "[" << bucket_lo(i) << ", " << bucket_hi(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace splicer::common
