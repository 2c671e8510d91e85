#include "faults/weak_cells.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace hbmvolt::faults {

WeakCellOrder::WeakCellOrder(const hbm::HbmGeometry& geometry,
                             std::uint64_t pc_seed,
                             const WeakCellConfig& config)
    : geometry_(geometry),
      key_seed_(mix_seed(pc_seed, 0x57E26)),
      cluster_key_shift_(config.cluster_key_shift) {
  HBMVOLT_REQUIRE(geometry_.bits_per_pc <= (1ull << 32),
                  "simulated PC capacity limited to 2^32 bits");
  const std::uint64_t n = geometry_.bits_per_pc;
  const std::uint64_t bits_per_beat = geometry_.bits_per_beat;
  const std::uint64_t beats = (n + bits_per_beat - 1) / bits_per_beat;

  // Place cluster windows and flag the beats they cover.
  Xoshiro256 cluster_rng(mix_seed(pc_seed, 0xC1057E2));
  const std::uint64_t rows = geometry_.rows_per_bank();
  for (unsigned i = 0; i < config.cluster_count; ++i) {
    ClusterWindow window;
    window.bank = static_cast<unsigned>(cluster_rng.bounded(geometry_.banks_per_pc));
    window.row_count = config.cluster_rows;
    const std::uint64_t max_lo =
        rows > window.row_count ? rows - window.row_count : 0;
    window.row_lo = cluster_rng.bounded(max_lo + 1);
    clusters_.push_back(window);
  }
  beat_in_cluster_.assign(beats, 0);
  for (std::uint64_t beat = 0; beat < beats; ++beat) {
    const auto loc = hbm::decompose_beat(geometry_, beat);
    for (const auto& window : clusters_) {
      if (loc.bank == window.bank && loc.row >= window.row_lo &&
          loc.row < window.row_lo + window.row_count) {
        beat_in_cluster_[beat] = 1;
        break;
      }
    }
  }

  // Group cells by (polarity, top key bits) with a counting sort: the
  // first pass sizes the buckets, the second scatters the cells, so each
  // bucket lists its cells in ascending order.
  const std::uint64_t polarity_seed = mix_seed(pc_seed, 0x9012A);
  const auto share1_threshold = static_cast<std::uint64_t>(
      config.stuck_at_one_share * 18446744073709551615.0);
  const auto for_each_bucketed = [&](auto&& fn) {
    for (std::uint64_t beat = 0; beat < beats; ++beat) {
      const unsigned shift = beat_in_cluster_[beat] ? cluster_key_shift_ : 0;
      const std::uint64_t end = std::min(n, (beat + 1) * bits_per_beat);
      for (std::uint64_t cell = beat * bits_per_beat; cell < end; ++cell) {
        const std::uint64_t key = splitmix64(key_seed_ ^ cell) >> shift;
        const bool stuck1 = splitmix64(polarity_seed ^ cell) < share1_threshold;
        fn((stuck1 ? kBuckets : 0) + (key >> (64 - kBucketBits)), cell);
      }
    }
  };

  offsets_.assign(2 * kBuckets + 1, 0);
  for_each_bucketed([&](std::size_t bucket, std::uint64_t) {
    ++offsets_[bucket + 1];
  });
  for (std::size_t b = 0; b < 2 * kBuckets; ++b) offsets_[b + 1] += offsets_[b];

  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  cells_.resize(static_cast<std::size_t>(n));
  for_each_bucketed([&](std::size_t bucket, std::uint64_t cell) {
    cells_[cursor[bucket]++] = static_cast<std::uint32_t>(cell);
  });
}

std::uint64_t WeakCellOrder::key(std::uint64_t cell) const noexcept {
  const std::uint64_t key = splitmix64(key_seed_ ^ cell);
  return in_cluster(cell) ? key >> cluster_key_shift_ : key;
}

std::uint64_t WeakCellOrder::size(StuckPolarity polarity) const noexcept {
  return polarity == StuckPolarity::kStuckAt1
             ? offsets_[2 * kBuckets] - offsets_[kBuckets]
             : offsets_[kBuckets];
}

void WeakCellOrder::weakest(StuckPolarity polarity, std::uint64_t k,
                            std::vector<std::uint32_t>& out) const {
  k = std::min(k, size(polarity));
  if (k == 0) return;
  const auto first =
      offsets_.begin() + (polarity == StuckPolarity::kStuckAt1 ? kBuckets : 0);
  const std::uint64_t target = *first + k;
  // The bucket holding rank k-1 ends at the first offset >= target; every
  // bucket before it lies wholly inside the prefix.
  const auto end = std::lower_bound(first + 1, first + kBuckets + 1, target);
  const std::uint64_t lo = *(end - 1);
  const std::uint64_t hi = *end;
  out.reserve(out.size() + static_cast<std::size_t>(k));
  out.insert(out.end(), cells_.begin() + static_cast<std::ptrdiff_t>(*first),
             cells_.begin() + static_cast<std::ptrdiff_t>(lo));

  // Split the straddled bucket: take its `target - lo` smallest cells by
  // (key, cell).
  struct Keyed {
    std::uint64_t key;
    std::uint32_t cell;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t i = lo; i < hi; ++i) {
    keyed.push_back({key(cells_[i]), cells_[i]});
  }
  const auto nth = keyed.begin() + static_cast<std::ptrdiff_t>(target - lo);
  std::nth_element(keyed.begin(), nth, keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     return a.key < b.key ||
                            (a.key == b.key && a.cell < b.cell);
                   });
  for (auto it = keyed.begin(); it != nth; ++it) out.push_back(it->cell);
}

}  // namespace hbmvolt::faults
