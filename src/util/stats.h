#pragma once

#include <cstdint>
#include <limits>
#include <vector>

/// Streaming statistics: running mean/variance, fixed-bin histograms and a
/// chi-squared statistic. Only the property and component tests use them;
/// no bench, tool or engine code does.
namespace fi::util {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets so totals always match the sample count.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  [[nodiscard]] std::size_t buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Smallest x with cumulative fraction >= q (q in [0,1]).
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Pearson chi-squared statistic for observed vs expected counts.
/// Used to test that `RandomSector()` really is capacity-proportional.
double chi_squared_statistic(const std::vector<std::uint64_t>& observed,
                             const std::vector<double>& expected);

}  // namespace fi::util
