#include "faults/weak_cells.hpp"

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace hbmvolt::faults {
namespace {

// The two hashes per cell are integer-exact, so wider vector units give
// the same tags faster: on x86-64 the tagging loop is compiled for
// AVX-512 and AVX2 as well, and the loader picks the widest the host runs.
// Not under ThreadSanitizer: the clone resolver runs before the TSan
// runtime is up, and the process crashes at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define HBMVOLT_TAG_CLONES \
  __attribute__((         \
      target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define HBMVOLT_TAG_CLONES
#endif

/// Writes the bucket tag of every cell in [lo, hi): polarity in the top
/// tag bit, then the top `bucket_bits` of the key shifted right by
/// `shift`.
HBMVOLT_TAG_CLONES void tag_cells(std::uint16_t* tags, std::uint64_t lo,
                                  std::uint64_t hi, std::uint64_t key_seed,
                                  unsigned shift, std::uint64_t polarity_seed,
                                  std::uint64_t share1_threshold,
                                  unsigned bucket_bits) {
  const std::uint64_t stuck1_tag = std::uint64_t{1} << bucket_bits;
  for (std::uint64_t cell = lo; cell < hi; ++cell) {
    const std::uint64_t key = splitmix64(key_seed ^ cell) >> shift;
    const bool stuck1 = splitmix64(polarity_seed ^ cell) < share1_threshold;
    tags[cell] = static_cast<std::uint16_t>((stuck1 ? stuck1_tag : 0) +
                                            (key >> (64 - bucket_bits)));
  }
}

}  // namespace

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

  // Group cells by (polarity, top key bits) with a counting sort that
  // hashes every cell once.  The hashing pass only records each cell's
  // bucket tag: counting inside it (a read-modify-write of a random
  // bucket per cell) roughly doubled its time.  The buckets are sized
  // from the tags, and the cells scattered from them, so each bucket
  // lists its cells in ascending order.
  static_assert(2 * kBuckets <= 65536, "bucket tags are 16-bit");
  const std::uint64_t polarity_seed = mix_seed(pc_seed, 0x9012A);
  const auto share1_threshold = static_cast<std::uint64_t>(
      config.stuck_at_one_share * 18446744073709551615.0);
  // Both arrays are written in full before they are read, so neither is
  // zero-filled first.
  const auto tags = std::make_unique_for_overwrite<std::uint16_t[]>(n);
  for (std::uint64_t beat = 0; beat < beats; ++beat) {
    tag_cells(tags.get(), beat * bits_per_beat,
              std::min(n, (beat + 1) * bits_per_beat), key_seed_,
              beat_in_cluster_[beat] ? cluster_key_shift_ : 0, polarity_seed,
              share1_threshold, kBucketBits);
  }
  offsets_.assign(2 * kBuckets + 1, 0);
  for (std::uint64_t cell = 0; cell < n; ++cell) ++offsets_[tags[cell] + 1];
  for (std::size_t b = 0; b < 2 * kBuckets; ++b) offsets_[b + 1] += offsets_[b];

  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  cells_ = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  for (std::uint64_t cell = 0; cell < n; ++cell) {
    cells_[cursor[tags[cell]]++] = static_cast<std::uint32_t>(cell);
  }
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

void WeakCellOrder::ranks(StuckPolarity polarity, std::uint64_t lo,
                          std::uint64_t hi,
                          std::vector<std::uint32_t>& out) const {
  hi = std::min(hi, size(polarity));
  if (lo >= hi) return;
  const auto first =
      offsets_.begin() + (polarity == StuckPolarity::kStuckAt1 ? kBuckets : 0);
  const auto last = first + kBuckets;
  const std::uint64_t begin = *first + lo;
  const std::uint64_t end = *first + hi;
  out.reserve(out.size() + static_cast<std::size_t>(hi - lo));
  // The bucket holding position `begin` ends at the first offset past it;
  // the one holding `end - 1` ends at the first offset >= end.
  const auto lo_end = std::upper_bound(first + 1, last + 1, begin);
  const auto hi_end = std::lower_bound(lo_end, last + 1, end);
  if (lo_end == hi_end) {
    split_bucket(*(lo_end - 1), *lo_end, begin, end, out);
    return;
  }
  split_bucket(*(lo_end - 1), *lo_end, begin, *lo_end, out);
  // Buckets strictly between the two ends lie wholly inside the range.
  out.insert(out.end(), cells_.get() + *lo_end, cells_.get() + *(hi_end - 1));
  split_bucket(*(hi_end - 1), *hi_end, *(hi_end - 1), end, out);
}

void WeakCellOrder::split_bucket(std::uint64_t lo, std::uint64_t hi,
                                 std::uint64_t from, std::uint64_t to,
                                 std::vector<std::uint32_t>& out) const {
  if (from == lo && to == hi) {
    out.insert(out.end(), cells_.get() + lo, cells_.get() + hi);
    return;
  }
  // Partition the bucket by (key, cell) at the far end of the wanted
  // positions, then at the near end within the cells below it, and take
  // the cells between the two cuts.  Cutting the far end first keeps the
  // second cut small when the range sits at the weak end of a bucket.
  struct Keyed {
    std::uint64_t key;
    std::uint32_t cell;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t i = lo; i < hi; ++i) {
    keyed.push_back({key(cells_[i]), cells_[i]});
  }
  const auto by_key = [](const Keyed& a, const Keyed& b) {
    return a.key < b.key || (a.key == b.key && a.cell < b.cell);
  };
  const auto a = keyed.begin() + static_cast<std::ptrdiff_t>(from - lo);
  const auto b = keyed.begin() + static_cast<std::ptrdiff_t>(to - lo);
  if (to != hi) std::nth_element(keyed.begin(), b, keyed.end(), by_key);
  if (from != lo) std::nth_element(keyed.begin(), a, b, by_key);
  for (auto it = a; it != b; ++it) out.push_back(it->cell);
}

}  // namespace hbmvolt::faults
