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

/// Writes the bucket tag of every cell in [lo, hi) to tags[0, hi - lo):
/// polarity in the top tag bit, then the top `bucket_bits` of the key
/// shifted right by `shift`.
HBMVOLT_TAG_CLONES void tag_cells(std::uint16_t* tags, std::uint64_t lo,
                                  std::uint64_t hi, std::uint64_t key_seed,
                                  unsigned shift, std::uint64_t polarity_seed,
                                  std::uint64_t share1_threshold,
                                  unsigned bucket_bits) {
  const std::uint64_t stuck1_tag = std::uint64_t{1} << bucket_bits;
  for (std::uint64_t i = 0; i < hi - lo; ++i) {
    const std::uint64_t cell = lo + i;
    const std::uint64_t key = splitmix64(key_seed ^ cell) >> shift;
    const bool stuck1 = splitmix64(polarity_seed ^ cell) < share1_threshold;
    tags[i] = static_cast<std::uint16_t>((stuck1 ? stuck1_tag : 0) +
                                         (key >> (64 - bucket_bits)));
  }
}

/// A cell with its strength key, ordered by (key, cell): the order ranks
/// count in.
struct Keyed {
  std::uint64_t key;
  std::uint32_t cell;
};

bool by_key(const Keyed& a, const Keyed& b) {
  return a.key < b.key || (a.key == b.key && a.cell < b.cell);
}

/// Cells per chunk of the hashing pass (rounded to whole beats): the
/// chunk's 8 KiB of tags stay in L1 until they are counted or scattered.
constexpr std::uint64_t kChunkCells = 4096;

}  // namespace

template <typename Visit>
void WeakCellOrder::for_each_tag_chunk(Visit&& visit) const {
  const std::uint64_t n = geometry_.bits_per_pc;
  const std::uint64_t bits_per_beat = geometry_.bits_per_beat;
  const std::uint64_t beats = beat_in_cluster_.size();
  const std::uint64_t chunk_beats =
      std::max<std::uint64_t>(1, kChunkCells / bits_per_beat);
  const auto tags = std::make_unique_for_overwrite<std::uint16_t[]>(
      std::min(n, chunk_beats * bits_per_beat));
  for (std::uint64_t first_beat = 0; first_beat < beats;
       first_beat += chunk_beats) {
    const std::uint64_t first = first_beat * bits_per_beat;
    const std::uint64_t end_beat = std::min(beats, first_beat + chunk_beats);
    const std::uint64_t end = std::min(n, end_beat * bits_per_beat);
    // One tagging call per run of beats that share a key shift.
    for (std::uint64_t beat = first_beat; beat < end_beat;) {
      const std::uint8_t in_cluster = beat_in_cluster_[beat];
      std::uint64_t run_end = beat + 1;
      while (run_end < end_beat && beat_in_cluster_[run_end] == in_cluster) {
        ++run_end;
      }
      const std::uint64_t lo = beat * bits_per_beat;
      tag_cells(tags.get() + (lo - first), lo,
                std::min(n, run_end * bits_per_beat), key_seed_,
                in_cluster != 0 ? cluster_key_shift_ : 0, polarity_seed_,
                share1_threshold_, kBucketBits);
      beat = run_end;
    }
    visit(first, static_cast<const std::uint16_t*>(tags.get()), end - first);
  }
}

WeakCellOrder::WeakCellOrder(const hbm::HbmGeometry& geometry,
                             std::uint64_t pc_seed,
                             const WeakCellConfig& config)
    : geometry_(geometry),
      key_seed_(mix_seed(pc_seed, 0x57E26)),
      polarity_seed_(mix_seed(pc_seed, 0x9012A)),
      share1_threshold_(static_cast<std::uint64_t>(
          config.stuck_at_one_share * 18446744073709551615.0)),
      cluster_key_shift_(config.cluster_key_shift) {
  HBMVOLT_REQUIRE(geometry_.bits_per_pc <= (1ull << 32),
                  "simulated PC capacity limited to 2^32 bits");
  const std::uint64_t beats =
      (geometry_.bits_per_pc + geometry_.bits_per_beat - 1) /
      geometry_.bits_per_beat;

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

  // Count every (polarity, top key bits) bucket and collect the cells of
  // bucket 0 of each polarity.  Counting reads each chunk's
  // tags from L1 after the hashing loop wrote them: counting inside that
  // loop (a read-modify-write of a random bucket per cell) roughly doubled
  // its time.
  static_assert(2 * kBuckets <= 65536, "bucket tags are 16-bit");
  offsets_.assign(2 * kBuckets + 1, 0);
  std::uint64_t* const counts = offsets_.data() + 1;
  std::vector<std::uint32_t> bucket0[2];
  for_each_tag_chunk([&](std::uint64_t first, const std::uint16_t* tags,
                         std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint16_t tag = tags[i];
      ++counts[tag];
      if ((tag & (kBuckets - 1)) == 0) {
        bucket0[tag >> kBucketBits].push_back(
            static_cast<std::uint32_t>(first + i));
      }
    }
  });
  for (std::size_t b = 0; b < 2 * kBuckets; ++b) offsets_[b + 1] += offsets_[b];
  // Order each bucket 0 by (key, cell) once, so that any rank range inside
  // it is a plain copy: a PC's stuck counts sit there from its first
  // faulty step down to about 880 mV.
  cells_ = std::make_unique_for_overwrite<std::uint32_t[]>(
      bucket0[0].size() + bucket0[1].size());
  std::uint32_t* next = cells_.get();
  for (const auto& bucket : bucket0) {
    std::vector<Keyed> keyed;
    keyed.reserve(bucket.size());
    for (const std::uint32_t cell : bucket) keyed.push_back({key(cell), cell});
    std::sort(keyed.begin(), keyed.end(), by_key);
    for (const Keyed& k : keyed) *next++ = k.cell;
  }
}

void WeakCellOrder::grow() {
  if (grown_) return;
  // Scatter each chunk's cells by their tags, from the saved offsets, so
  // each bucket lists its cells in ascending order.  The array is written
  // in full before it is read, so it is not zero-filled.
  auto cells =
      std::make_unique_for_overwrite<std::uint32_t[]>(geometry_.bits_per_pc);
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for_each_tag_chunk([&](std::uint64_t first, const std::uint16_t* tags,
                         std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      cells[cursor[tags[i]]++] = static_cast<std::uint32_t>(first + i);
    }
  });
  // Each bucket 0 keeps the (key, cell) order the prefix gave it.
  const std::uint64_t reach0 = reach(StuckPolarity::kStuckAt0);
  const std::uint64_t reach1 = reach(StuckPolarity::kStuckAt1);
  std::copy(cells_.get(), cells_.get() + reach0, cells.get() + offsets_[0]);
  std::copy(cells_.get() + reach0, cells_.get() + reach0 + reach1,
            cells.get() + offsets_[kBuckets]);
  cells_ = std::move(cells);
  grown_ = true;
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

std::uint64_t WeakCellOrder::reach(StuckPolarity polarity) const noexcept {
  if (grown_) return size(polarity);
  const std::size_t b = polarity == StuckPolarity::kStuckAt1 ? kBuckets : 0;
  return offsets_[b + 1] - offsets_[b];
}

void WeakCellOrder::ranks(StuckPolarity polarity, std::uint64_t lo,
                          std::uint64_t hi,
                          std::vector<std::uint32_t>& out) const {
  const std::uint64_t end = std::min(hi, size(polarity));
  if (lo < end) out.reserve(out.size() + static_cast<std::size_t>(end - lo));
  visit_ranks(polarity, lo, hi, [&out](std::span<const std::uint32_t> run) {
    out.insert(out.end(), run.begin(), run.end());
  });
}

void WeakCellOrder::visit_ranks(StuckPolarity polarity, std::uint64_t lo,
                                std::uint64_t hi,
                                const RunVisitor& visit) const {
  hi = std::min(hi, size(polarity));
  if (lo >= hi) return;
  HBMVOLT_REQUIRE(hi <= reach(polarity),
                  "ranks past bucket 0 need a grown weak-cell order");
  // Cells [from, to) of cells_, as one run.
  const auto run = [&](std::uint64_t from, std::uint64_t to) {
    visit({cells_.get() + from, static_cast<std::size_t>(to - from)});
  };
  if (!grown_) {
    // Bucket 0 of stuck-at-1 follows bucket 0 of stuck-at-0.
    const std::uint64_t at =
        polarity == StuckPolarity::kStuckAt1 ? offsets_[1] : 0;
    run(at + lo, at + hi);
    return;
  }
  const auto first =
      offsets_.begin() + (polarity == StuckPolarity::kStuckAt1 ? kBuckets : 0);
  const auto last = first + kBuckets;
  const std::uint64_t begin = *first + lo;
  const std::uint64_t end = *first + hi;
  // Positions [from, to) of the bucket that ends at offset *bucket_end.
  std::vector<std::uint32_t> part;
  const auto split = [&](auto bucket_end, std::uint64_t from,
                         std::uint64_t to) {
    const std::uint64_t start = *(bucket_end - 1);
    // Bucket 0 is in (key, cell) order, and a whole bucket needs no order.
    if (bucket_end == first + 1 || (from == start && to == *bucket_end)) {
      run(from, to);
      return;
    }
    part.clear();
    split_bucket(cells_.get() + start, *bucket_end - start, from - start,
                 to - start, part);
    visit(part);
  };
  // The bucket holding position `begin` ends at the first offset past it;
  // the one holding `end - 1` ends at the first offset >= end.
  const auto lo_end = std::upper_bound(first + 1, last + 1, begin);
  const auto hi_end = std::lower_bound(lo_end, last + 1, end);
  if (lo_end == hi_end) {
    split(lo_end, begin, end);
    return;
  }
  split(lo_end, begin, *lo_end);
  // Buckets strictly between the two ends lie wholly inside the range.
  if (*lo_end < *(hi_end - 1)) run(*lo_end, *(hi_end - 1));
  split(hi_end, *(hi_end - 1), end);
}

void WeakCellOrder::split_bucket(const std::uint32_t* cells, std::uint64_t n,
                                 std::uint64_t from, std::uint64_t to,
                                 std::vector<std::uint32_t>& out) const {
  // Partition the bucket by (key, cell) at the far end of the wanted
  // positions, then at the near end within the cells below it, and take
  // the cells between the two cuts.  Cutting the far end first keeps the
  // second cut small when the range sits at the weak end of a bucket.
  std::vector<Keyed> keyed;
  keyed.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    keyed.push_back({key(cells[i]), cells[i]});
  }
  const auto a = keyed.begin() + static_cast<std::ptrdiff_t>(from);
  const auto b = keyed.begin() + static_cast<std::ptrdiff_t>(to);
  if (to != n) std::nth_element(keyed.begin(), b, keyed.end(), by_key);
  if (from != 0) std::nth_element(keyed.begin(), a, b, by_key);
  for (auto it = a; it != b; ++it) out.push_back(it->cell);
}

}  // namespace hbmvolt::faults
