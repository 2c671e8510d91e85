#include "telemetry/hdr_histogram.hpp"

#include <cmath>

#include "common/status.hpp"
#include "common/table.hpp"

namespace hbmvolt::telemetry {

HdrHistogram::HdrHistogram(std::uint64_t max_value) : max_value_(max_value) {
  HBMVOLT_REQUIRE(max_value_ >= kSubBucketCount,
                  "hdr histogram max_value below the linear region");
}

void HdrHistogram::record_n(std::uint64_t v, std::uint64_t n) {
  if (n == 0) return;
  count_ += n;
  sum_ += v * n;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  if (v > max_value_) {
    overflow_ += n;
    return;
  }
  const std::size_t index = index_of(v);
  if (index >= counts_.size()) counts_.resize(index + 1, 0);
  counts_[index] += n;
}

void HdrHistogram::merge(const HdrHistogram& other) {
  HBMVOLT_REQUIRE(max_value_ == other.max_value_,
                  "hdr histogram merge requires equal max_value");
  if (other.count_ == 0) return;
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  overflow_ += other.overflow_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

void HdrHistogram::clear() {
  counts_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  overflow_ = 0;
}

namespace {

/// Exact rank of quantile q among `count` (> 0) samples: ceil(q * count),
/// with q clamped to [0, 1] and the rank to [1, count].
std::uint64_t rank_of(double q, std::uint64_t count) {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  return rank;
}

}  // namespace

void HdrHistogram::values_at_ranks(const std::uint64_t* ranks,
                                   std::uint64_t* out, std::size_t n) const {
  // One cumulative walk answers every (ascending) rank.  Buckets below
  // min()'s hold nothing, so the walk starts at min()'s bucket.
  std::size_t k = 0;
  std::uint64_t cumulative = 0;
  for (std::size_t i = index_of(min_); i < counts_.size() && k < n; ++i) {
    cumulative += counts_[i];
    while (k < n && cumulative >= ranks[k]) {
      const std::uint64_t edge = value_at(i);
      out[k++] = edge < max_ ? edge : max_;
    }
  }
  // Ranks in the overflow region; the only honest point value there is
  // the observed maximum.
  for (; k < n; ++k) out[k] = max_;
}

std::uint64_t HdrHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const std::uint64_t rank = rank_of(q, count_);
  std::uint64_t value = 0;
  values_at_ranks(&rank, &value, 1);
  return value;
}

HdrHistogram::Quantiles HdrHistogram::quantiles() const {
  if (count_ == 0) return {};
  const std::uint64_t ranks[4] = {rank_of(0.50, count_), rank_of(0.90, count_),
                                  rank_of(0.99, count_),
                                  rank_of(0.999, count_)};
  std::uint64_t values[4];
  values_at_ranks(ranks, values, 4);
  return {values[0], values[1], values[2], values[3]};
}

std::string format_duration_ns(std::uint64_t ns) {
  const double v = static_cast<double>(ns);
  if (ns < 1000) return std::to_string(ns) + " ns";
  if (ns < 1000000) return format_double(v / 1e3, 2) + " us";
  if (ns < 1000000000) return format_double(v / 1e6, 2) + " ms";
  return format_double(v / 1e9, 2) + " s";
}

}  // namespace hbmvolt::telemetry
