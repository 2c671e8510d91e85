#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"

namespace hbmvolt {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nab = na + nb;
  mean_ += delta * nb / nab;
  m2_ += other.m2_ + delta * delta * na * nb / nab;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double inverse_normal_cdf(double p) {
  HBMVOLT_REQUIRE(p > 0.0 && p < 1.0, "probability must be in (0,1)");
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double z_critical(double confidence) {
  HBMVOLT_REQUIRE(confidence > 0.0 && confidence < 1.0,
                  "confidence must be in (0,1)");
  return inverse_normal_cdf(0.5 + confidence / 2.0);
}

ConfidenceInterval mean_confidence_interval(const RunningStats& stats,
                                            double confidence) {
  ConfidenceInterval ci;
  if (stats.count() == 0) return ci;
  const double z = z_critical(confidence);
  const double se =
      stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
  ci.half_width = z * se;
  ci.lower = stats.mean() - ci.half_width;
  ci.upper = stats.mean() + ci.half_width;
  return ci;
}

std::size_t required_runs(double error_margin, double confidence,
                          std::uint64_t population, double p) {
  HBMVOLT_REQUIRE(error_margin > 0.0, "error margin must be positive");
  const double t = z_critical(confidence);
  const double base = t * t * p * (1.0 - p) / (error_margin * error_margin);
  if (population == 0) {
    return static_cast<std::size_t>(std::ceil(base));
  }
  const auto big_n = static_cast<double>(population);
  const double n = big_n / (1.0 + error_margin * error_margin * (big_n - 1.0) /
                                      (t * t * p * (1.0 - p)));
  return static_cast<std::size_t>(std::ceil(n));
}

double achieved_error_margin(std::size_t runs, double confidence,
                             std::uint64_t population, double p) {
  HBMVOLT_REQUIRE(runs > 0, "runs must be positive");
  const double t = z_critical(confidence);
  const auto n = static_cast<double>(runs);
  if (population == 0) {
    return t * std::sqrt(p * (1.0 - p) / n);
  }
  const auto big_n = static_cast<double>(population);
  // Invert n = N / (1 + e^2 (N-1) / (t^2 p(1-p))) for e.
  const double e2 =
      (big_n / n - 1.0) * t * t * p * (1.0 - p) / (big_n - 1.0);
  return std::sqrt(std::max(e2, 0.0));
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  HBMVOLT_REQUIRE(bins > 0, "histogram needs at least one bin");
  HBMVOLT_REQUIRE(hi > lo, "histogram range must be non-empty");
}

void Histogram::add(double x) noexcept {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_lower(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_upper(std::size_t bin) const {
  return bin_lower(bin + 1);
}

}  // namespace hbmvolt
