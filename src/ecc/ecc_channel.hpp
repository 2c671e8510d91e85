// ECC-protected view of one pseudo-channel.
//
// Carves the PC into a data region and a parity region.  Under SECDED
// each 256-bit data beat needs 4 check bytes (8 data beats per parity
// beat); under DECTED it needs 8 (4 data beats per parity beat, double
// the storage for double the correction reach).  Check bytes live in the
// same undervolted DRAM as the data, so they suffer stuck-at faults too
// -- matching how on-die/side-band ECC really behaves under voltage
// underscaling.
//
// The channel keeps a host-side shadow of the check bytes it wrote so
// that parity writes are atomic with data writes (no read-modify-write
// through faulty memory); reads always fetch the *stored* (possibly
// corrupted) check bytes.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "ecc/dected.hpp"
#include "ecc/secded.hpp"
#include "hbm/stack.hpp"

namespace hbmvolt::ecc {

/// Per-word codec deployed by an EccChannel.  The mitigation registry
/// (mitigate/scheme.hpp) maps scheme names onto these.
enum class WordCodec : unsigned {
  kSecded = 0,  // Hamming(72,64): 1 check byte/word, corrects 1, detects 2
  kDected = 1,  // BCH+parity(80,64): 2 check bytes/word, corrects 2, detects 3
};

[[nodiscard]] const char* to_string(WordCodec codec) noexcept;

struct EccStats {
  std::uint64_t words_read = 0;
  std::uint64_t words_clean = 0;
  std::uint64_t corrected_data = 0;   // single-bit data errors fixed
  std::uint64_t corrected_check = 0;  // check-bit errors (data intact)
  std::uint64_t uncorrectable = 0;    // detected multi-bit errors

  /// Residual word-error rate after correction.
  [[nodiscard]] double uncorrectable_rate() const noexcept {
    return words_read == 0 ? 0.0
                           : static_cast<double>(uncorrectable) /
                                 static_cast<double>(words_read);
  }

  /// Accounting invariant: every decoded word lands in exactly one bucket.
  [[nodiscard]] bool consistent() const noexcept {
    return words_read ==
           words_clean + corrected_data + corrected_check + uncorrectable;
  }
};

/// Result of one patrol-scrub pass over a beat (see scrub_beat).
struct ScrubOutcome {
  unsigned corrected_data = 0;   // data words repaired and written back
  unsigned corrected_check = 0;  // check-byte errors (parity rewritten)
  unsigned uncorrectable = 0;    // words the scrubber could not repair
  /// Whether the scrubber wrote anything back (data beat and/or parity).
  bool wrote_back = false;
};

class EccChannel {
 public:
  /// SECDED beats per parity beat: 8 data beats x 4 words x 1 check byte
  /// = 32 B.  (DECTED packs 4 data beats x 4 words x 2 check bytes into
  /// the same 32 B; see beats_per_parity_beat().)
  static constexpr std::uint64_t kBeatsPerParityBeat = 8;

  EccChannel(hbm::HbmStack& stack, unsigned pc_local,
             WordCodec codec = WordCodec::kSecded);

  /// Usable data beats (the parity region consumes 1/9 of the PC under
  /// SECDED, 1/5 under DECTED).
  [[nodiscard]] std::uint64_t data_beats() const noexcept {
    return data_beats_;
  }

  [[nodiscard]] WordCodec codec() const noexcept { return codec_; }

  /// Check bytes per 64-bit data word: 1 (SECDED) or 2 (DECTED).
  [[nodiscard]] unsigned check_bytes_per_word() const noexcept {
    return check_bytes_per_word_;
  }

  /// Data beats covered by one 32-byte parity beat: 8 (SECDED), 4 (DECTED).
  [[nodiscard]] std::uint64_t beats_per_parity_beat() const noexcept {
    return beats_per_parity_;
  }

  Status write_beat(std::uint64_t beat, const hbm::Beat& data);

  struct ReadOutcome {
    hbm::Beat data;
    /// Data words that needed correction in this beat.  Check-byte-only
    /// errors are counted in `corrected_check` instead: the data word was
    /// intact, and folding both into one count double-counted beats that
    /// had both a data and a check error (they reported two corrupted
    /// words when only one data word was repaired).
    unsigned corrected = 0;
    unsigned corrected_check = 0;  // check-byte errors (data intact)
    unsigned uncorrectable = 0;    // words lost in this beat
  };
  Result<ReadOutcome> read_beat(std::uint64_t beat);

  /// Patrol-scrub one beat: decode every word and *write back* the
  /// corrections -- read_beat's corrections are transient (the stored data
  /// stays corrupt), which lets independent single-bit upsets accumulate
  /// into uncorrectable words.  Repaired data words are rewritten to the
  /// array; a beat with any check-byte error gets its parity beat
  /// refreshed from the host-side shadow (repairing bit-rot in the parity
  /// region).  Stuck-at cells re-corrupt the written-back value on the
  /// next read, as on real hardware -- write-back targets *transient*
  /// corruption, the stuck cells are the retirement ladder's job.
  /// Scrub traffic is accounted in the ScrubOutcome only; it never inflates
  /// the demand-read EccStats.
  Result<ScrubOutcome> scrub_beat(std::uint64_t beat);

  // ---- Batched range engine ----
  // Bulk siblings of write_beat/read_beat/scrub_beat over contiguous beat
  // ranges, built on HbmStack's raw word-range ops and the table-driven
  // codecs (secded.hpp, dected.hpp).  Results and final memory state are
  // byte-identical to the equivalent per-beat call sequence in ascending
  // beat order; non-clean beats are reported as sparse events so callers
  // pay O(faults), not O(beats), for the exception bookkeeping.

  /// One non-clean beat from decode_range/scrub_range, in ascending beat
  /// order.  Clean beats produce no event -- the all-clean fast exit.
  struct RangeBeatEvent {
    std::uint64_t beat = 0;            // absolute ECC data-beat index
    std::uint8_t corrected = 0;        // data words repaired
    std::uint8_t corrected_check = 0;  // check-byte errors (data intact)
    std::uint8_t uncorrectable = 0;    // words lost
    bool wrote_back = false;           // scrub_range: repairs written back
  };

  /// Bulk encode+write of [start, start+count): data beats via one raw
  /// range write, then each touched parity beat once from the shadow.
  /// Final memory state identical to count write_beat calls.
  Status encode_range(std::uint64_t start, std::uint64_t count,
                      const hbm::Beat* data);

  /// Bulk decode of [start, start+count) into `out` (count beats).  A beat
  /// whose four recomputed check fields equal its stored check bytes is
  /// passed through untouched (the common case costs four table encodes
  /// and one packed compare, or under SECDED on a GFNI host one affine
  /// transform and one compare per beat pair, secded_gfni.hpp); everything
  /// else appends a RangeBeatEvent.
  Status decode_range(std::uint64_t start, std::uint64_t count,
                      hbm::Beat* out, std::vector<RangeBeatEvent>& events);

  /// Bulk patrol scrub of [start, start+count): per-beat semantics of
  /// scrub_beat, including the parity-group refresh -- when a beat's
  /// check bytes are rewritten from the shadow, later sibling beats in
  /// the same parity group decode against the *refreshed* (re-read, so
  /// overlay-corrupted exactly like a demand fetch) parity beat, matching
  /// the per-beat call sequence bit for bit.
  Status scrub_range(std::uint64_t start, std::uint64_t count,
                     std::vector<RangeBeatEvent>& events);

  [[nodiscard]] const EccStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = EccStats{}; }

  /// Host-side shadow of every written check byte (checkpoint seam).
  [[nodiscard]] const std::vector<std::uint8_t>& shadow_checks()
      const noexcept {
    return shadow_checks_;
  }
  /// Restores a checkpointed shadow + stats onto a freshly constructed
  /// channel of identical layout (fleet checkpoint/restore).
  void restore_state(const std::vector<std::uint8_t>& shadow,
                     const EccStats& stats);

  /// Physical beat that stores `beat`'s check bytes.  Exposed so retirement
  /// planners can tell whether a data beat's protection lives on a healthy
  /// row: a fault-free data beat whose parity row is retired still can't be
  /// served through ECC.
  [[nodiscard]] std::uint64_t parity_beat_of(std::uint64_t beat) const {
    return data_beats_padded_ + beat / beats_per_parity_;
  }

 private:
  /// Decodes one 64-bit word against its stored check bytes (`checks`
  /// points at check_bytes_per_word_ little-endian bytes).
  [[nodiscard]] DecodeResult decode_word(std::uint64_t word,
                                         const std::uint8_t* checks) const;
  /// Decodes one beat's four words against their check bytes: the decoded
  /// words and how many fell in each non-clean class.  The one decode
  /// tally every read and scrub path shares.
  [[nodiscard]] ReadOutcome decode_beat(const std::uint64_t* words,
                                        const std::uint8_t* checks) const;
  /// Folds one decoded beat into the demand-read EccStats.
  void tally(const ReadOutcome& got);
  /// Shadow check bytes of data beats [start, start + count).
  void encode_shadow(std::uint64_t start, std::uint64_t count,
                     const hbm::Beat* data);
  /// Rewrites the parity beat covering data beat `beat` from the shadow.
  Status write_parity(std::uint64_t beat);
  /// Reads the parity beats covering [start, start + count) into
  /// scratch_parity_; points at beat `start`'s check bytes there.
  Result<std::uint8_t*> read_parity_groups(std::uint64_t start,
                                           std::uint64_t count);
  /// Scrub write-back of a decoded beat: its words when a data word was
  /// corrected, its parity beat when a check byte was.
  Status write_back(std::uint64_t beat, const ReadOutcome& got);

  hbm::HbmStack& stack_;
  unsigned pc_local_;
  WordCodec codec_;
  unsigned check_bytes_per_word_ = 1;
  std::uint64_t beats_per_parity_ = kBeatsPerParityBeat;
  std::uint64_t data_beats_ = 0;         // exposed capacity
  std::uint64_t data_beats_padded_ = 0;  // rounded to parity granularity
  std::vector<std::uint8_t> shadow_checks_;  // 4 or 8 bytes per data beat
  EccStats stats_;
  // Reusable scratch for the range engine (parity words / scrub data),
  // so bulk calls allocate only on high-water growth.
  std::vector<std::uint64_t> scratch_parity_;
  std::vector<std::uint64_t> scratch_data_;
};

}  // namespace hbmvolt::ecc
