// Backing store for one pseudo-channel's DRAM array.
//
// Stores the *written* value of every bit; voltage-induced stuck-at faults
// are applied as an overlay at read time (see faults/fault_overlay.hpp),
// which matches the physics: a stuck cell still receives writes, it just
// cannot hold the value, and recovers its last written data once the
// voltage is raised back above its failure point is not modelled -- the
// paper's tests always rewrite before reading.
//
// The backing store is lazily materialized: construction and scramble()
// only record the power-up seed, and the dense word vector is allocated
// and filled on first touch.  Guardband-only sweeps and small tests that
// never access a PC therefore pay nothing for it.  Lazy first touch
// mutates the array through const accessors, so concurrent access to one
// array must be externally serialized -- the parallel sweep engine already
// partitions work per PC (one worker per array at a time).

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "hbm/word_pattern.hpp"

namespace hbmvolt::hbm {

/// Flip counts from one bulk verify, split by direction, plus the number
/// of beats that had at least one differing bit.
struct RangeFlips {
  std::uint64_t flips_1to0 = 0;  // expected 1, observed 0
  std::uint64_t flips_0to1 = 0;  // expected 0, observed 1
  std::uint64_t mismatched_beats = 0;
};

/// Compares beat-aligned words against `pattern` with popcount-based flip
/// counting; `words` spans whole beats and words[0] is the first word of
/// `start_beat`.  When `diff_out` is non-null it receives OR-ed per-word
/// diffs (diff_out[0] = words[0]).  The words are compared as given: pass
/// an overlaid read (HbmStack::read_range_words) to verify what a read
/// observes, or MemoryArray::words() for the raw stored contents.
[[nodiscard]] RangeFlips compare_range(
    std::uint64_t start_beat, std::span<const std::uint64_t> words,
    const WordPattern& pattern, std::uint64_t* diff_out = nullptr) noexcept;

class MemoryArray {
 public:
  /// Creates an array of `bits` cells (must be a multiple of 256), whose
  /// contents on first touch are the power-up pattern derived from `seed`
  /// (real DRAM powers up with effectively random contents).
  MemoryArray(std::uint64_t bits, std::uint64_t seed);

  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::uint64_t beats() const noexcept { return bits_ / 256; }

  /// Whether the dense backing store has been allocated yet.
  [[nodiscard]] bool materialized() const noexcept { return !words_.empty(); }

  void write_beat(std::uint64_t beat, const Beat& data) noexcept;
  [[nodiscard]] Beat read_beat(std::uint64_t beat) const noexcept;

  /// Bit-granular accessors for tests and fault-map verification.
  void write_bit(std::uint64_t bit, bool value) noexcept;
  [[nodiscard]] bool read_bit(std::uint64_t bit) const noexcept;

  /// Re-randomizes contents (models a power cycle losing all data).  Lazy:
  /// releases the backing store and re-materializes on the next touch.
  void scramble(std::uint64_t seed);

  /// Fills the entire array with a repeating beat pattern.
  void fill(const Beat& pattern) noexcept;

  /// Bulk-fills a beat range with `pattern`, word by word.  A whole-array
  /// fill of an unmaterialized store skips the power-up scramble entirely
  /// (every word is overwritten anyway).
  void fill_range(std::uint64_t start_beat, std::uint64_t beats,
                  const WordPattern& pattern) noexcept;

  /// Bulk word copies for the beat-range engines: `first_word` indexes
  /// 64-bit words from the start of the array (beat * 4).  read_words is
  /// inline so a one-beat read copies four words without a memcpy call.
  void read_words(std::uint64_t first_word, std::uint64_t count,
                  std::uint64_t* out) const noexcept {
    std::memcpy(out, words().data() + first_word,
                count * sizeof(std::uint64_t));
  }
  void write_words(std::uint64_t first_word, std::uint64_t count,
                   const std::uint64_t* data) noexcept;

  /// Raw word view (read-only) for whole-array scans.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    ensure_materialized();
    return words_;
  }

 private:
  /// Allocates and scrambles the backing store if not yet done.
  void ensure_materialized() const;

  std::uint64_t bits_;
  std::uint64_t scramble_seed_;
  mutable std::vector<std::uint64_t> words_;  // empty until first touch
};

}  // namespace hbmvolt::hbm
