// Deterministic weak-cell ordering for one pseudo-channel.
//
// Undervolting faults appear in a fixed order as voltage drops: the cell
// with the lowest "strength" fails first.  Every cell gets a pseudo-random
// strength key derived from the PC seed; cells inside a small set of
// *cluster windows* (bank/row regions, modelling the paper's observation
// that "most faults are clustered together in small regions") get their
// keys scaled down so they dominate the weak end of the order; and cells
// are partitioned by stuck-at polarity.  The stuck set at any voltage is
// the first K cells of each polarity's (key, cell) order -- monotone in
// voltage by construction.
//
// That order is never materialized.  Consumers need the *set* of the K
// weakest cells, not their ranks, so construction only groups each
// polarity's cells into buckets by the top bits of their key (one counting
// pass, one scatter pass), and weakest() selects on demand: every bucket
// below the one that straddles K, plus the smallest remaining cells of that
// bucket.  Keys are recomputed from the seed when a bucket is split, never
// stored.

#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_model.hpp"
#include "hbm/geometry.hpp"

namespace hbmvolt::faults {

/// A rectangular weak region: `row_count` consecutive rows of one bank.
struct ClusterWindow {
  unsigned bank = 0;
  std::uint64_t row_lo = 0;
  unsigned row_count = 1;
};

struct WeakCellConfig {
  /// Number of cluster windows per PC; 0 disables clustering (ablation).
  unsigned cluster_count = 6;
  /// Rows per cluster window.
  unsigned cluster_rows = 2;
  /// Key right-shift inside clusters: keys shrink by 2^shift, so cluster
  /// cells crowd the weak end of the order.
  unsigned cluster_key_shift = 5;
  /// Fraction of cells that are stuck-at-1 when they fail.
  double stuck_at_one_share = 0.5475;
};

class WeakCellOrder {
 public:
  WeakCellOrder(const hbm::HbmGeometry& geometry, std::uint64_t pc_seed,
                const WeakCellConfig& config);

  /// Number of cells of the given polarity.
  [[nodiscard]] std::uint64_t size(StuckPolarity polarity) const noexcept;

  /// Appends the `k` weakest cells of the given polarity to `out`, in no
  /// particular order (`k` is clamped to size()).  The result is exactly
  /// the set of the first `k` cells of the polarity's (key, cell) order.
  void weakest(StuckPolarity polarity, std::uint64_t k,
               std::vector<std::uint32_t>& out) const;

  [[nodiscard]] const std::vector<ClusterWindow>& clusters() const noexcept {
    return clusters_;
  }

  /// Whether a bit index lies inside any cluster window.
  [[nodiscard]] bool in_cluster(std::uint64_t bit) const noexcept {
    return beat_in_cluster_[bit / geometry_.bits_per_beat] != 0;
  }

  [[nodiscard]] std::uint64_t bits() const noexcept {
    return geometry_.bits_per_pc;
  }

  /// Top key bits that pick a cell's bucket within its polarity.
  static constexpr unsigned kBucketBits = 12;

 private:
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

  /// The cell's strength key (lower = weaker).
  [[nodiscard]] std::uint64_t key(std::uint64_t cell) const noexcept;

  hbm::HbmGeometry geometry_;
  std::vector<ClusterWindow> clusters_;
  std::uint64_t key_seed_ = 0;
  unsigned cluster_key_shift_ = 0;
  /// One flag per beat: cluster windows are whole rows, so a beat lies
  /// either entirely inside or entirely outside them.
  std::vector<std::uint8_t> beat_in_cluster_;
  /// Cells grouped by (polarity, bucket), ascending within a bucket.
  std::vector<std::uint32_t> cells_;
  /// Bucket `b` of polarity `p` (0 = stuck-at-0) spans cells_ from
  /// offsets_[p * kBuckets + b] to offsets_[p * kBuckets + b + 1].  64-bit
  /// because a PC may hold exactly 2^32 cells.
  std::vector<std::uint64_t> offsets_;
};

}  // namespace hbmvolt::faults
