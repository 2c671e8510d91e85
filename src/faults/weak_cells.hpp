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
// That order is never materialized.  Consumers need *sets* of cells by
// rank, not the ranks themselves, so an order groups each polarity's
// cells into buckets by the top bits of their key, and selects from the
// buckets on demand.  It has two states:
//
//   * prefix -- what construction leaves.  Construction hashes every cell
//     once, a chunk of beats at a time into a small cache-resident tag
//     buffer (vectorized where the host allows), counts all buckets from
//     the tags, and keeps only the cells of bucket 0 of each polarity:
//     about 2,000 of a default PC's 2^19 cells, enough for its stuck
//     counts down to 880 mV.  It sorts them by (key, cell) once, so any
//     rank range inside bucket 0 is a plain copy.  Besides those cells it
//     keeps the bucket offsets, so size() is exact from the start.
//   * grown -- after grow().  It hashes every cell again and scatters all
//     of them into their buckets, reusing the saved offsets.  With
//     kBucketBits = 10 the scatter writes 2 x 1024 streams, which stay in
//     cache.  It runs at most once per order: stuck counts only climb past
//     bucket 0 deep in the unsafe region, where they soon need most of
//     the buckets anyway.
//
// ranks() then selects: the cells of every bucket wholly inside a rank
// range, plus the matching cells of the (at most two) buckets that
// straddle its ends.  Keys are recomputed from the seed when a bucket
// other than bucket 0 is split, never stored.  A prefix order answers only ranks inside bucket
// 0; FaultInjector grows an order the first time a stuck count outgrows
// it.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
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

  /// Ranks below this bound are answerable now: the cell count of the
  /// polarity's bucket 0 until grow(), size() after it.
  [[nodiscard]] std::uint64_t reach(StuckPolarity polarity) const noexcept;

  [[nodiscard]] bool grown() const noexcept { return grown_; }

  /// Scatters every cell into its bucket, so ranks() answers any range.
  /// Hashes every cell again; does nothing once the order is grown.
  void grow();

  /// Appends the cells of ranks [lo, hi) of the given polarity's
  /// (key, cell) order to `out`, in no particular order.  Both ends are
  /// clamped to size(); an empty range appends nothing.  The clamped `hi`
  /// must not exceed reach().
  void ranks(StuckPolarity polarity, std::uint64_t lo, std::uint64_t hi,
             std::vector<std::uint32_t>& out) const;

  using RunVisitor = std::function<void(std::span<const std::uint32_t>)>;

  /// ranks() without the copy: calls `visit` with the same cells in a few
  /// non-empty runs (whole buckets straight from the order's storage).
  /// The runs are valid only during the call.
  void visit_ranks(StuckPolarity polarity, std::uint64_t lo, std::uint64_t hi,
                   const RunVisitor& visit) const;

  /// Appends the `k` weakest cells of the given polarity to `out`, in no
  /// particular order: ranks [0, k).
  void weakest(StuckPolarity polarity, std::uint64_t k,
               std::vector<std::uint32_t>& out) const {
    ranks(polarity, 0, k, out);
  }

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

  /// Top key bits that pick a cell's bucket within its polarity.  The
  /// selected sets do not depend on it; it only trades scatter locality
  /// (fewer, cache-resident streams) against the size of a split bucket.
  static constexpr unsigned kBucketBits = 10;

 private:
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

  /// The cell's strength key (lower = weaker).
  [[nodiscard]] std::uint64_t key(std::uint64_t cell) const noexcept;

  /// The hashing pass: tags every cell with its (polarity, bucket), a
  /// chunk of whole beats at a time, and calls visit(first_cell, tags,
  /// count) for each chunk, in ascending cell order.
  template <typename Visit>
  void for_each_tag_chunk(Visit&& visit) const;

  /// Appends the cells at positions [from, to) of the bucket `cells[0,
  /// n)` once it is ordered by (key, cell); not the whole bucket.
  void split_bucket(const std::uint32_t* cells, std::uint64_t n,
                    std::uint64_t from, std::uint64_t to,
                    std::vector<std::uint32_t>& out) const;

  hbm::HbmGeometry geometry_;
  std::vector<ClusterWindow> clusters_;
  std::uint64_t key_seed_ = 0;
  std::uint64_t polarity_seed_ = 0;
  /// Cells whose polarity hash falls below this are stuck-at-1.
  std::uint64_t share1_threshold_ = 0;
  unsigned cluster_key_shift_ = 0;
  /// One flag per beat: cluster windows are whole rows, so a beat lies
  /// either entirely inside or entirely outside them.
  std::vector<std::uint8_t> beat_in_cluster_;
  /// Grown: every cell, grouped by (polarity, bucket), ascending within a
  /// bucket except bucket 0.  Prefix: only bucket 0 of stuck-at-0, then
  /// bucket 0 of stuck-at-1.  Each bucket 0 is in (key, cell) order.
  std::unique_ptr<std::uint32_t[]> cells_;
  /// Bucket `b` of polarity `p` (0 = stuck-at-0) spans offsets_[p *
  /// kBuckets + b] to offsets_[p * kBuckets + b + 1] of the grown cells_;
  /// exact in both states.  64-bit because a PC may hold exactly 2^32
  /// cells.
  std::vector<std::uint64_t> offsets_;
  bool grown_ = false;
};

}  // namespace hbmvolt::faults
