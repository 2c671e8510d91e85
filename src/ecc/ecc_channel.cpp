#include "ecc/ecc_channel.hpp"

#include <bit>
#include <cstring>

#include "ecc/secded_gfni.hpp"

namespace hbmvolt::ecc {

namespace {

// The packed clean tests load a beat's check bytes as one integer, word
// 0's bytes lowest, matching how parity beats are read as 64-bit words.
static_assert(std::endian::native == std::endian::little,
              "packed check-byte layout assumes a little-endian host");

/// One beat's clean test under SECDED: the four recomputed check bytes
/// against the four stored ones in a single 32-bit compare.
struct SecdedBeat {
  static constexpr unsigned kCheckBytes = 4;
  static bool clean(const std::uint64_t* words, const std::uint8_t* checks) {
    std::uint32_t stored;
    std::memcpy(&stored, checks, sizeof stored);
    const std::uint32_t expected =
        secded_encode(words[0]) |
        static_cast<std::uint32_t>(secded_encode(words[1])) << 8 |
        static_cast<std::uint32_t>(secded_encode(words[2])) << 16 |
        static_cast<std::uint32_t>(secded_encode(words[3])) << 24;
    return expected == stored;
  }
};

/// One beat's clean test under DECTED: four 16-bit check fields in a
/// single 64-bit compare, with each field's pad bit 15 masked off because
/// decode ignores it.
struct DectedBeat {
  static constexpr unsigned kCheckBytes = 8;
  static bool clean(const std::uint64_t* words, const std::uint8_t* checks) {
    std::uint64_t stored;
    std::memcpy(&stored, checks, sizeof stored);
    const std::uint64_t expected =
        dected_encode(words[0]) |
        static_cast<std::uint64_t>(dected_encode(words[1])) << 16 |
        static_cast<std::uint64_t>(dected_encode(words[2])) << 32 |
        static_cast<std::uint64_t>(dected_encode(words[3])) << 48;
    return expected == (stored & 0x7FFF7FFF7FFF7FFFull);
  }
};

/// Calls on_dirty(i, checks) for each beat i of `count` packed beats at
/// `words` that fails its clean test, in ascending order, stopping at the
/// first error it returns.  A parity beat holds exactly one group's check
/// bytes (beats_per_parity x kCheckBytes = 32), so consecutive data beats'
/// check bytes are contiguous across group boundaries and the loop only
/// strides a pointer: no per-beat division, no per-word codec branch.
template <class Codec, class OnDirty>
Status for_each_dirty_beat(const std::uint64_t* words,
                           const std::uint8_t* checks, std::uint64_t count,
                           OnDirty&& on_dirty) {
  for (std::uint64_t i = 0; i < count;
       ++i, words += 4, checks += Codec::kCheckBytes) {
    if (Codec::clean(words, checks)) continue;
    HBMVOLT_RETURN_IF_ERROR(on_dirty(i, checks));
  }
  return Status::ok();
}

#if HBMVOLT_SECDED_GFNI
/// The SECDED for_each_dirty_beat on the GFNI kernel: one affine transform
/// and one 64-bit compare per beat pair, an odd tail through the tables.
/// on_dirty(i) may refresh the parity group holding beat i + 1's check
/// bytes (scrub_range does), so the second beat of a pair is compared
/// against its stored bytes as they are after that call; its computed
/// bytes stay valid because on_dirty(i) touches only beat i's words.
template <class OnDirty>
HBMVOLT_TARGET_GFNI Status for_each_dirty_secded_gfni(
    const std::uint64_t* words, const std::uint8_t* checks,
    std::uint64_t count, OnDirty&& on_dirty) {
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const std::uint64_t expected = secded_encode_pair_gfni(words + i * 4);
    std::uint64_t stored;
    std::memcpy(&stored, checks + i * 4, sizeof stored);
    if (expected == stored) [[likely]] continue;
    if (static_cast<std::uint32_t>(expected ^ stored) != 0) {
      HBMVOLT_RETURN_IF_ERROR(on_dirty(i, checks + i * 4));
      std::memcpy(&stored, checks + i * 4, sizeof stored);
    }
    if ((expected ^ stored) >> 32 != 0) {
      HBMVOLT_RETURN_IF_ERROR(on_dirty(i + 1, checks + (i + 1) * 4));
    }
  }
  if (i < count && !SecdedBeat::clean(words + i * 4, checks + i * 4)) {
    return on_dirty(i, checks + i * 4);
  }
  return Status::ok();
}

/// SECDED check bytes of `count` packed beats into `checks`, two beats per
/// GFNI kernel call and an odd tail through the tables.
HBMVOLT_TARGET_GFNI void encode_secded_gfni(const std::uint64_t* words,
                                            std::uint64_t count,
                                            std::uint8_t* checks) {
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const std::uint64_t pair = secded_encode_pair_gfni(words + i * 4);
    std::memcpy(checks + i * 4, &pair, sizeof pair);
  }
  for (std::uint64_t w = i * 4; w < count * 4; ++w) {
    checks[w] = secded_encode(words[w]);
  }
}
#endif

/// for_each_dirty_beat with the codec, and for SECDED the kernel, chosen
/// once, outside the loop.
template <class OnDirty>
Status for_each_dirty_beat(WordCodec codec, const std::uint64_t* words,
                           const std::uint8_t* checks, std::uint64_t count,
                           OnDirty&& on_dirty) {
  if (codec == WordCodec::kDected) {
    return for_each_dirty_beat<DectedBeat>(words, checks, count, on_dirty);
  }
#if HBMVOLT_SECDED_GFNI
  if (secded_kernel() == SecdedKernel::kGfni) {
    return for_each_dirty_secded_gfni(words, checks, count, on_dirty);
  }
#endif
  return for_each_dirty_beat<SecdedBeat>(words, checks, count, on_dirty);
}

/// SECDED check bytes of `count` packed beats into `checks` (4 per beat,
/// word 0's first) on this process's kernel.
void encode_secded(const std::uint64_t* words, std::uint64_t count,
                   std::uint8_t* checks) {
#if HBMVOLT_SECDED_GFNI
  if (secded_kernel() == SecdedKernel::kGfni) {
    encode_secded_gfni(words, count, checks);
    return;
  }
#endif
  for (std::uint64_t w = 0; w < count * 4; ++w) {
    checks[w] = secded_encode(words[w]);
  }
}

/// The range event of one non-clean decoded beat.
EccChannel::RangeBeatEvent beat_event(std::uint64_t beat,
                                      const EccChannel::ReadOutcome& got,
                                      bool wrote_back) {
  return {beat, static_cast<std::uint8_t>(got.corrected),
          static_cast<std::uint8_t>(got.corrected_check),
          static_cast<std::uint8_t>(got.uncorrectable), wrote_back};
}

}  // namespace

const char* to_string(WordCodec codec) noexcept {
  switch (codec) {
    case WordCodec::kSecded:
      return "secded";
    case WordCodec::kDected:
      return "dected";
  }
  return "unknown";
}

EccChannel::EccChannel(hbm::HbmStack& stack, unsigned pc_local,
                       WordCodec codec)
    : stack_(stack), pc_local_(pc_local), codec_(codec) {
  check_bytes_per_word_ = codec_ == WordCodec::kDected ? 2 : 1;
  // Each 32-byte parity beat holds the check bytes of a full group of
  // data beats under either codec: 8 x 4 B (SECDED) or 4 x 8 B (DECTED).
  beats_per_parity_ = 32 / (4 * check_bytes_per_word_);
  const std::uint64_t total = stack_.geometry().beats_per_pc();
  // data + ceil(data/group) <= total, data a multiple of the group size.
  data_beats_padded_ = (total * beats_per_parity_ / (beats_per_parity_ + 1)) /
                       beats_per_parity_ * beats_per_parity_;
  HBMVOLT_REQUIRE(data_beats_padded_ > 0, "PC too small for ECC layout");
  data_beats_ = data_beats_padded_;
  shadow_checks_.assign(data_beats_ * 4 * check_bytes_per_word_, 0);
}

DecodeResult EccChannel::decode_word(std::uint64_t word,
                                     const std::uint8_t* checks) const {
  if (codec_ == WordCodec::kSecded) return secded_decode(word, checks[0]);
  return dected_decode(
      word, static_cast<std::uint16_t>(checks[0] |
                                       (static_cast<unsigned>(checks[1]) << 8)));
}

EccChannel::ReadOutcome EccChannel::decode_beat(
    const std::uint64_t* words, const std::uint8_t* checks) const {
  ReadOutcome got;
  for (unsigned w = 0; w < 4; ++w) {
    const DecodeResult decoded =
        decode_word(words[w], checks + w * check_bytes_per_word_);
    // Only kCorrectedData changes the word: an uncorrectable one comes
    // back as stored, so a scrub write-back leaves it for a later raise.
    got.data[w] = decoded.data;
    switch (decoded.status) {
      case DecodeStatus::kClean:
        break;
      case DecodeStatus::kCorrectedData:
        ++got.corrected;
        break;
      case DecodeStatus::kCorrectedCheck:
        // Data intact: counted as a check-byte event only, never folded
        // into `corrected` (a beat with both a data and a check error used
        // to report two corrected data words when only one was repaired).
        ++got.corrected_check;
        break;
      case DecodeStatus::kUncorrectable:
        ++got.uncorrectable;
        break;
    }
  }
  return got;
}

void EccChannel::tally(const ReadOutcome& got) {
  stats_.words_read += 4;
  stats_.words_clean +=
      4 - got.corrected - got.corrected_check - got.uncorrectable;
  stats_.corrected_data += got.corrected;
  stats_.corrected_check += got.corrected_check;
  stats_.uncorrectable += got.uncorrectable;
}

void EccChannel::encode_shadow(std::uint64_t start, std::uint64_t count,
                               const hbm::Beat* data) {
  static_assert(sizeof(hbm::Beat) == 32, "Beat must be 4 packed words");
  const auto* words = reinterpret_cast<const std::uint64_t*>(data);
  if (codec_ == WordCodec::kSecded) {
    encode_secded(words, count, shadow_checks_.data() + start * 4);
    return;
  }
  for (std::uint64_t w = 0; w < count * 4; ++w) {
    // Little-endian: the low check byte first, as decode_word reads it.
    const std::uint16_t check = dected_encode(words[w]);
    std::memcpy(shadow_checks_.data() + (start * 4 + w) * 2, &check, 2);
  }
}

Status EccChannel::write_parity(std::uint64_t beat) {
  hbm::Beat parity{};
  std::memcpy(parity.data(),
              shadow_checks_.data() + beat / beats_per_parity_ * 32, 32);
  return stack_.write_beat(pc_local_, parity_beat_of(beat), parity);
}

Result<std::uint8_t*> EccChannel::read_parity_groups(std::uint64_t start,
                                                     std::uint64_t count) {
  const std::uint64_t g0 = start / beats_per_parity_;
  const std::uint64_t groups = (start + count - 1) / beats_per_parity_ - g0 + 1;
  scratch_parity_.resize(groups * 4);
  HBMVOLT_RETURN_IF_ERROR(stack_.read_range_words(
      pc_local_, data_beats_padded_ + g0, groups, scratch_parity_.data()));
  // Beat `start`'s check bytes: its slot within the first parity beat.
  return reinterpret_cast<std::uint8_t*>(scratch_parity_.data()) +
         start % beats_per_parity_ * 4 * check_bytes_per_word_;
}

Status EccChannel::write_back(std::uint64_t beat, const ReadOutcome& got) {
  if (got.corrected > 0) {
    HBMVOLT_RETURN_IF_ERROR(stack_.write_beat(pc_local_, beat, got.data));
  }
  // A check-byte error refreshes the whole parity beat from the shadow,
  // which also repairs rot in the sibling data beats' check bytes.
  if (got.corrected_check > 0) return write_parity(beat);
  return Status::ok();
}

Status EccChannel::write_beat(std::uint64_t beat, const hbm::Beat& data) {
  if (beat >= data_beats_) {
    return out_of_range("ECC data beat out of range");
  }
  HBMVOLT_RETURN_IF_ERROR(stack_.write_beat(pc_local_, beat, data));
  encode_shadow(beat, 1, &data);
  // Write the full parity beat (32 check bytes covering one beat group)
  // from the shadow -- atomic with the data write, like the extra ECC
  // devices on a DIMM.
  return write_parity(beat);
}

Result<EccChannel::ReadOutcome> EccChannel::read_beat(std::uint64_t beat) {
  if (beat >= data_beats_) {
    return out_of_range("ECC data beat out of range");
  }
  auto data = stack_.read_beat(pc_local_, beat);
  if (!data.is_ok()) return data.status();
  // This beat's check bytes (4 or 8) fit inside one 64-bit word of the
  // parity beat; fetch just that word instead of the whole beat (the
  // demand-read hot path -- scrubbing still reads full parity beats).
  const unsigned cbw = check_bytes_per_word_;
  const std::uint64_t slot = beat % beats_per_parity_;
  const std::uint64_t byte_off = slot * 4 * cbw;
  auto parity_word = stack_.read_word(
      pc_local_, parity_beat_of(beat) * 4 + byte_off / 8);
  if (!parity_word.is_ok()) return parity_word.status();
  std::uint8_t check_bytes[8];
  const std::uint64_t raw = parity_word.value() >> ((byte_off % 8) * 8);
  for (unsigned b = 0; b < 4 * cbw; ++b) {
    check_bytes[b] = static_cast<std::uint8_t>(raw >> (b * 8));
  }
  const ReadOutcome got = decode_beat(data.value().data(), check_bytes);
  tally(got);
  return got;
}

Result<ScrubOutcome> EccChannel::scrub_beat(std::uint64_t beat) {
  if (beat >= data_beats_) {
    return out_of_range("ECC data beat out of range");
  }
  auto data = stack_.read_beat(pc_local_, beat);
  if (!data.is_ok()) return data.status();
  auto parity = stack_.read_beat(pc_local_, parity_beat_of(beat));
  if (!parity.is_ok()) return parity.status();
  const auto* checks =
      reinterpret_cast<const std::uint8_t*>(parity.value().data()) +
      (beat % beats_per_parity_) * 4 * check_bytes_per_word_;
  const ReadOutcome got = decode_beat(data.value().data(), checks);
  HBMVOLT_RETURN_IF_ERROR(write_back(beat, got));
  return ScrubOutcome{got.corrected, got.corrected_check, got.uncorrectable,
                      got.corrected + got.corrected_check > 0};
}

Status EccChannel::encode_range(std::uint64_t start, std::uint64_t count,
                                const hbm::Beat* data) {
  if (count == 0) return Status::ok();
  if (start >= data_beats_ || count > data_beats_ - start) {
    return out_of_range("ECC data beat range out of range");
  }
  HBMVOLT_RETURN_IF_ERROR(stack_.write_range_words(
      pc_local_, start, count,
      reinterpret_cast<const std::uint64_t*>(data)));
  encode_shadow(start, count, data);
  // Each touched parity beat once, from the updated shadow -- the same
  // final state as the per-beat path's repeated group rewrites.
  const std::uint64_t g0 = start / beats_per_parity_;
  const std::uint64_t g1 = (start + count - 1) / beats_per_parity_;
  const std::uint64_t groups = g1 - g0 + 1;
  scratch_parity_.resize(groups * 4);
  std::memcpy(scratch_parity_.data(), shadow_checks_.data() + g0 * 32,
              groups * 32);
  return stack_.write_range_words(pc_local_, data_beats_padded_ + g0, groups,
                                  scratch_parity_.data());
}

Status EccChannel::decode_range(std::uint64_t start, std::uint64_t count,
                                hbm::Beat* out,
                                std::vector<RangeBeatEvent>& events) {
  if (count == 0) return Status::ok();
  if (start >= data_beats_ || count > data_beats_ - start) {
    return out_of_range("ECC data beat range out of range");
  }
  HBMVOLT_RETURN_IF_ERROR(stack_.read_range_words(
      pc_local_, start, count, reinterpret_cast<std::uint64_t*>(out)));
  auto checks = read_parity_groups(start, count);
  if (!checks.is_ok()) return checks.status();
  std::uint64_t dirty = 0;
  HBMVOLT_RETURN_IF_ERROR(for_each_dirty_beat(
      codec_, reinterpret_cast<const std::uint64_t*>(out), checks.value(),
      count, [&](std::uint64_t i, const std::uint8_t* beat_checks) {
        const ReadOutcome got = decode_beat(out[i].data(), beat_checks);
        out[i] = got.data;
        tally(got);
        ++dirty;
        events.push_back(beat_event(start + i, got, false));
        return Status::ok();
      }));
  // Every beat not tallied above decoded clean.
  stats_.words_read += (count - dirty) * 4;
  stats_.words_clean += (count - dirty) * 4;
  return Status::ok();
}

Status EccChannel::scrub_range(std::uint64_t start, std::uint64_t count,
                               std::vector<RangeBeatEvent>& events) {
  if (count == 0) return Status::ok();
  if (start >= data_beats_ || count > data_beats_ - start) {
    return out_of_range("ECC data beat range out of range");
  }
  scratch_data_.resize(count * 4);
  HBMVOLT_RETURN_IF_ERROR(stack_.read_range_words(pc_local_, start, count,
                                                  scratch_data_.data()));
  auto checks = read_parity_groups(start, count);
  if (!checks.is_ok()) return checks.status();
  auto* parity_bytes = reinterpret_cast<std::uint8_t*>(scratch_parity_.data());
  return for_each_dirty_beat(
      codec_, scratch_data_.data(), checks.value(), count,
      [&](std::uint64_t i, const std::uint8_t* beat_checks) -> Status {
        const std::uint64_t beat = start + i;
        const ReadOutcome got =
            decode_beat(scratch_data_.data() + i * 4, beat_checks);
        HBMVOLT_RETURN_IF_ERROR(write_back(beat, got));
        if (got.corrected_check > 0) {
          // Re-read the refreshed parity beat through the stack so later
          // siblings in this group decode against the refreshed-and-
          // overlaid bytes, exactly like the per-beat path.
          auto reread = stack_.read_beat(pc_local_, parity_beat_of(beat));
          if (!reread.is_ok()) return reread.status();
          std::memcpy(parity_bytes + (beat / beats_per_parity_ -
                                      start / beats_per_parity_) * 32,
                      reread.value().data(), 32);
        }
        events.push_back(
            beat_event(beat, got, got.corrected + got.corrected_check > 0));
        return Status::ok();
      });
}

void EccChannel::restore_state(const std::vector<std::uint8_t>& shadow,
                               const EccStats& stats) {
  HBMVOLT_REQUIRE(shadow.size() == shadow_checks_.size(),
                  "shadow checkpoint layout mismatch");
  shadow_checks_ = shadow;
  stats_ = stats;
}

}  // namespace hbmvolt::ecc
