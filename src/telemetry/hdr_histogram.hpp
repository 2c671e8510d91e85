// Mergeable log-linear (HDR-style) histogram for latency quantiles.
//
// A fixed-bucket histogram asks the caller to guess the interesting
// decades up front; this one covers [0, max_value] with bounded
// *relative* error instead.  Values below kSubBucketCount are
// counted exactly (linear region); every power-of-two octave above it is
// split into kSubBucketCount sub-buckets, so a bucket is never wider than
// 1/kSubBucketCount of its value (~3.1% at 32 sub-buckets).  Quantiles
// are exact-rank: the reported value is the upper edge of the bucket that
// holds the rank-th sample (clamped to the observed min/max), never an
// interpolation across buckets -- p999 of a bimodal latency distribution
// cannot land between the modes.
//
// Concurrency follows the repo-wide discipline: workers record into a
// private instance (plain integer adds, no atomics), and sync points
// merge those into the shared registry (MetricRegistry::hdr_family) in
// index order.  merge() is commutative and associative, so any grouping
// of per-thread histograms yields identical buckets -- pinned by
// tests/observability_test.cpp.

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace hbmvolt::telemetry {

class HdrHistogram {
 public:
  /// Sub-buckets per octave.  5 bits -> 32 sub-buckets -> worst-case
  /// relative bucket width 1/32.
  static constexpr unsigned kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBucketCount = 1ull << kSubBucketBits;
  /// Default ceiling: 2^40 ns (~18 minutes) -- far beyond any sane per-op
  /// latency.  Larger values land in the overflow bucket.
  static constexpr std::uint64_t kDefaultMaxValue = 1ull << 40;

  explicit HdrHistogram(std::uint64_t max_value = kDefaultMaxValue);

  void record(std::uint64_t v) { record_n(v, 1); }
  /// Folds n samples of value v in O(1) -- how a coalesced bulk run of n
  /// ops records its per-op latency (duration / n) without a loop.
  void record_n(std::uint64_t v, std::uint64_t n);

  /// Index-order bucket add.  Requires equal max_value.  Commutative and
  /// associative: any merge tree over the same samples gives the same
  /// buckets, which is what makes per-thread recording deterministic.
  void merge(const HdrHistogram& other);
  void clear();

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Smallest / largest recorded value (0 when empty).
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ > 0 ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  /// Samples above max_value(), counted but not bucketed.
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t max_value() const noexcept { return max_value_; }
  /// Raw bucket counts (index-aligned with index_of); for tests/merges.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

  /// Exact-rank quantile: the value at rank ceil(q * count) in the sorted
  /// sample sequence, rounded up to its bucket edge and clamped to
  /// [min(), max()].  q outside [0,1] is clamped; empty histogram -> 0.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  struct Quantiles {
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
  };
  [[nodiscard]] Quantiles quantiles() const;

  /// Bucket index of a value (pure; exposed for the property tests).
  [[nodiscard]] static std::size_t index_of(std::uint64_t v) noexcept {
    if (v < kSubBucketCount) return static_cast<std::size_t>(v);
    const unsigned exp =
        static_cast<unsigned>(std::bit_width(v)) - kSubBucketBits - 1;
    return ((static_cast<std::size_t>(exp) + 1) << kSubBucketBits) +
           static_cast<std::size_t>((v >> exp) - kSubBucketCount);
  }
  /// Largest value mapping to bucket `index` (the bucket's upper edge):
  /// value_at(index_of(v)) >= v, and reporting it can only round a
  /// quantile *up* within one bucket width.
  [[nodiscard]] static std::uint64_t value_at(std::size_t index) noexcept {
    if (index < kSubBucketCount) return index;
    const unsigned exp = static_cast<unsigned>(index >> kSubBucketBits) - 1;
    const std::uint64_t sub = index & (kSubBucketCount - 1);
    return ((kSubBucketCount + sub) << exp) + ((1ull << exp) - 1);
  }

 private:
  /// Values at `n` ascending ranks in [1, count()], as quantile() reports
  /// them; requires count() > 0.
  void values_at_ranks(const std::uint64_t* ranks, std::uint64_t* out,
                       std::size_t n) const;

  std::uint64_t max_value_;
  std::vector<std::uint64_t> counts_;  // grown lazily to the touched index
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
  std::uint64_t overflow_ = 0;
};

/// "1.234 us"-style rendering for nanosecond durations (dashboard + soak
/// summary).
[[nodiscard]] std::string format_duration_ns(std::uint64_t ns);

}  // namespace hbmvolt::telemetry
