#pragma once

// Small statistics toolkit used by the evaluation harness: running moments,
// order statistics, and fixed-width histograms.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace splicer::common {

/// Welford running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided 95% Student t quantile for `df` degrees of freedom: the exact
/// table entry for df <= 30, then linear interpolation in 1/df through the
/// df = 40, 60, 120 and infinity (1.960) anchors — no 2.042 -> 1.96 jump
/// between df 30 and 31. 0 for df == 0.
[[nodiscard]] double student_t95(std::size_t df) noexcept;

/// Half-width of the 95% confidence interval of the mean: t * s / sqrt(n)
/// with the two-sided Student t quantile (student_t95) for n - 1 degrees
/// of freedom. 0 for fewer than two samples.
[[nodiscard]] double ci95_half_width(const RunningStats& stats) noexcept;

/// Percentile of a sample (linear interpolation between closest ranks).
/// q in [0, 1]. Copies and sorts; fine for evaluation-sized data.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median convenience wrapper.
[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; 0 for empty input.
[[nodiscard]] double mean_of(const std::vector<double>& values);

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// edge buckets. Used for degree/fund distribution sanity reports.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept;
  [[nodiscard]] double bucket_hi(std::size_t i) const noexcept;

  /// Multi-line ASCII rendering (for example programs).
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace splicer::common
