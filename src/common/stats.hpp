// Statistics utilities: running moments, confidence intervals, and the
// statistical-fault-injection sample sizing of Leveugle et al. (DATE 2009)
// that the paper uses to justify batchSize = 130 (7% error margin at 90%
// confidence).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hbmvolt {

/// Welford running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merge another accumulator (parallel Welford / Chan et al.).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided z critical value for a given confidence level in (0, 1)
/// (e.g. 0.90 -> 1.645).  Uses the Acklam inverse-normal approximation.
[[nodiscard]] double z_critical(double confidence);

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0, 1)).
[[nodiscard]] double inverse_normal_cdf(double p);

struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
  double half_width = 0.0;
};

/// Normal-approximation CI for the mean of `stats` at `confidence`.
[[nodiscard]] ConfidenceInterval mean_confidence_interval(
    const RunningStats& stats, double confidence);

// --- Statistical fault injection sizing (Leveugle et al., DATE 2009) ----
//
// For estimating a proportion p over a population of N cells with error
// margin e at confidence c, the required number of trials is
//
//     n = N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p)))
//
// with t the two-sided normal critical value for c.  The paper instantiates
// this with the worst case p = 0.5 and obtains 130 runs for e = 7%, c = 90%.

struct SamplePlan {
  std::size_t runs = 0;
  double error_margin = 0.0;
  double confidence = 0.0;
};

/// Number of runs for a target error margin (worst-case p = 0.5 unless
/// given).  `population` may be huge (cell counts); pass 0 for "infinite".
[[nodiscard]] std::size_t required_runs(double error_margin, double confidence,
                                        std::uint64_t population = 0,
                                        double p = 0.5);

/// Error margin achieved by a given number of runs (inverse of the above).
[[nodiscard]] double achieved_error_margin(std::size_t runs, double confidence,
                                           std::uint64_t population = 0,
                                           double p = 0.5);

/// Simple fixed-width histogram over [lo, hi); out-of-range samples clamp
/// into the edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lower(std::size_t bin) const;
  [[nodiscard]] double bin_upper(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace hbmvolt
