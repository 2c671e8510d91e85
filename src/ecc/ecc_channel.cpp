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

void EccChannel::encode_word(std::uint64_t word, std::uint8_t* checks) const {
  if (codec_ == WordCodec::kSecded) {
    checks[0] = secded_encode(word);
    return;
  }
  const std::uint16_t check = dected_encode(word);
  checks[0] = static_cast<std::uint8_t>(check);
  checks[1] = static_cast<std::uint8_t>(check >> 8);
}

Status EccChannel::write_beat(std::uint64_t beat, const hbm::Beat& data) {
  if (beat >= data_beats_) {
    return out_of_range("ECC data beat out of range");
  }
  HBMVOLT_RETURN_IF_ERROR(stack_.write_beat(pc_local_, beat, data));

  // Update the shadow check bytes for this beat.
  const unsigned cbw = check_bytes_per_word_;
  for (unsigned w = 0; w < 4; ++w) {
    encode_word(data[w], shadow_checks_.data() + (beat * 4 + w) * cbw);
  }

  // Write the full parity beat (32 check bytes covering one beat group)
  // from the shadow -- atomic with the data write, like the extra ECC
  // devices on a DIMM.
  const std::uint64_t group = beat / beats_per_parity_;
  hbm::Beat parity{};
  std::memcpy(parity.data(), shadow_checks_.data() + group * 32, 32);
  return stack_.write_beat(pc_local_, parity_beat_of(beat), parity);
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

  ReadOutcome outcome;
  for (unsigned w = 0; w < 4; ++w) {
    const DecodeResult decoded =
        decode_word(data.value()[w], check_bytes + w * cbw);
    outcome.data[w] = decoded.data;
    ++stats_.words_read;
    switch (decoded.status) {
      case DecodeStatus::kClean:
        ++stats_.words_clean;
        break;
      case DecodeStatus::kCorrectedData:
        ++stats_.corrected_data;
        ++outcome.corrected;
        break;
      case DecodeStatus::kCorrectedCheck:
        // Data intact: counted as a check-byte event only, never folded
        // into `corrected` (a beat with both a data and a check error used
        // to report two corrected data words when only one was repaired).
        ++stats_.corrected_check;
        ++outcome.corrected_check;
        break;
      case DecodeStatus::kUncorrectable:
        ++stats_.uncorrectable;
        ++outcome.uncorrectable;
        break;
    }
  }
  return outcome;
}

Result<ScrubOutcome> EccChannel::scrub_beat(std::uint64_t beat) {
  if (beat >= data_beats_) {
    return out_of_range("ECC data beat out of range");
  }
  auto data = stack_.read_beat(pc_local_, beat);
  if (!data.is_ok()) return data.status();
  auto parity = stack_.read_beat(pc_local_, parity_beat_of(beat));
  if (!parity.is_ok()) return parity.status();

  const unsigned cbw = check_bytes_per_word_;
  const auto* check_bytes =
      reinterpret_cast<const std::uint8_t*>(parity.value().data()) +
      (beat % beats_per_parity_) * 4 * cbw;

  ScrubOutcome outcome;
  hbm::Beat repaired = data.value();
  bool data_dirty = false;
  bool parity_dirty = false;
  for (unsigned w = 0; w < 4; ++w) {
    const DecodeResult decoded =
        decode_word(data.value()[w], check_bytes + w * cbw);
    switch (decoded.status) {
      case DecodeStatus::kClean:
        break;
      case DecodeStatus::kCorrectedData:
        ++outcome.corrected_data;
        repaired[w] = decoded.data;
        data_dirty = true;
        break;
      case DecodeStatus::kCorrectedCheck:
        ++outcome.corrected_check;
        parity_dirty = true;
        break;
      case DecodeStatus::kUncorrectable:
        // Nothing trustworthy to write back for this word; leave the
        // stored value alone so a later voltage raise can still recover it.
        ++outcome.uncorrectable;
        break;
    }
  }

  if (data_dirty) {
    HBMVOLT_RETURN_IF_ERROR(stack_.write_beat(pc_local_, beat, repaired));
  }
  if (parity_dirty) {
    // Refresh the whole parity beat from the host-side shadow; this also
    // repairs rot in the check bytes of the sibling data beats.
    const std::uint64_t group = beat / beats_per_parity_;
    hbm::Beat fresh{};
    std::memcpy(fresh.data(), shadow_checks_.data() + group * 32, 32);
    HBMVOLT_RETURN_IF_ERROR(
        stack_.write_beat(pc_local_, parity_beat_of(beat), fresh));
  }
  outcome.wrote_back = data_dirty || parity_dirty;
  return outcome;
}

Status EccChannel::encode_range(std::uint64_t start, std::uint64_t count,
                                const hbm::Beat* data) {
  if (count == 0) return Status::ok();
  if (start >= data_beats_ || count > data_beats_ - start) {
    return out_of_range("ECC data beat range out of range");
  }
  static_assert(sizeof(hbm::Beat) == 32, "Beat must be 4 packed words");
  HBMVOLT_RETURN_IF_ERROR(stack_.write_range_words(
      pc_local_, start, count,
      reinterpret_cast<const std::uint64_t*>(data)));
  if (codec_ == WordCodec::kSecded) {
    encode_secded(reinterpret_cast<const std::uint64_t*>(data), count,
                  shadow_checks_.data() + start * 4);
  } else {
    const unsigned cbw = check_bytes_per_word_;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t beat = start + i;
      for (unsigned w = 0; w < 4; ++w) {
        encode_word(data[i][w], shadow_checks_.data() + (beat * 4 + w) * cbw);
      }
    }
  }
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
  const std::uint64_t g0 = start / beats_per_parity_;
  const std::uint64_t g1 = (start + count - 1) / beats_per_parity_;
  scratch_parity_.resize((g1 - g0 + 1) * 4);
  HBMVOLT_RETURN_IF_ERROR(
      stack_.read_range_words(pc_local_, data_beats_padded_ + g0, g1 - g0 + 1,
                              scratch_parity_.data()));
  // Check bytes of beat `start`: its slot within the first parity beat.
  const unsigned cbw = check_bytes_per_word_;
  const auto* checks =
      reinterpret_cast<const std::uint8_t*>(scratch_parity_.data()) +
      (start - g0 * beats_per_parity_) * 4 * cbw;

  std::uint64_t corrected_data = 0;
  std::uint64_t corrected_check = 0;
  std::uint64_t uncorrectable = 0;
  HBMVOLT_RETURN_IF_ERROR(for_each_dirty_beat(
      codec_, reinterpret_cast<const std::uint64_t*>(out), checks, count,
      [&](std::uint64_t i, const std::uint8_t* beat_checks) {
        hbm::Beat& words = out[i];
        RangeBeatEvent event;
        event.beat = start + i;
        for (unsigned w = 0; w < 4; ++w) {
          const DecodeResult decoded =
              decode_word(words[w], beat_checks + w * cbw);
          words[w] = decoded.data;
          switch (decoded.status) {
            case DecodeStatus::kClean:
              break;
            case DecodeStatus::kCorrectedData:
              ++corrected_data;
              ++event.corrected;
              break;
            case DecodeStatus::kCorrectedCheck:
              ++corrected_check;
              ++event.corrected_check;
              break;
            case DecodeStatus::kUncorrectable:
              ++uncorrectable;
              ++event.uncorrectable;
              break;
          }
        }
        events.push_back(event);
        return Status::ok();
      }));
  // Every word not counted above decoded clean.
  stats_.words_read += count * 4;
  stats_.words_clean +=
      count * 4 - corrected_data - corrected_check - uncorrectable;
  stats_.corrected_data += corrected_data;
  stats_.corrected_check += corrected_check;
  stats_.uncorrectable += uncorrectable;
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
  const std::uint64_t g0 = start / beats_per_parity_;
  const std::uint64_t g1 = (start + count - 1) / beats_per_parity_;
  scratch_parity_.resize((g1 - g0 + 1) * 4);
  HBMVOLT_RETURN_IF_ERROR(
      stack_.read_range_words(pc_local_, data_beats_padded_ + g0, g1 - g0 + 1,
                              scratch_parity_.data()));
  auto* parity_bytes =
      reinterpret_cast<std::uint8_t*>(scratch_parity_.data());

  const unsigned cbw = check_bytes_per_word_;
  return for_each_dirty_beat(
      codec_, scratch_data_.data(),
      parity_bytes + (start - g0 * beats_per_parity_) * 4 * cbw, count,
      [&](std::uint64_t i, const std::uint8_t* checks) -> Status {
        const std::uint64_t beat = start + i;
        const std::uint64_t* words = scratch_data_.data() + i * 4;
        RangeBeatEvent event;
        event.beat = beat;
        hbm::Beat repaired{words[0], words[1], words[2], words[3]};
        bool data_dirty = false;
        bool parity_dirty = false;
        for (unsigned w = 0; w < 4; ++w) {
          const DecodeResult decoded = decode_word(words[w], checks + w * cbw);
          switch (decoded.status) {
            case DecodeStatus::kClean:
              break;
            case DecodeStatus::kCorrectedData:
              ++event.corrected;
              repaired[w] = decoded.data;
              data_dirty = true;
              break;
            case DecodeStatus::kCorrectedCheck:
              ++event.corrected_check;
              parity_dirty = true;
              break;
            case DecodeStatus::kUncorrectable:
              ++event.uncorrectable;
              break;
          }
        }
        if (data_dirty) {
          HBMVOLT_RETURN_IF_ERROR(
              stack_.write_beat(pc_local_, beat, repaired));
        }
        if (parity_dirty) {
          // Refresh the whole parity beat from the shadow, then re-read it
          // through the stack so later siblings in this group decode
          // against the refreshed-and-overlaid bytes, exactly like the
          // per-beat path.
          const std::uint64_t group = beat / beats_per_parity_;
          hbm::Beat fresh{};
          std::memcpy(fresh.data(), shadow_checks_.data() + group * 32, 32);
          HBMVOLT_RETURN_IF_ERROR(
              stack_.write_beat(pc_local_, parity_beat_of(beat), fresh));
          auto reread = stack_.read_beat(pc_local_, parity_beat_of(beat));
          if (!reread.is_ok()) return reread.status();
          std::memcpy(parity_bytes + (group - g0) * 32, reread.value().data(),
                      32);
        }
        event.wrote_back = data_dirty || parity_dirty;
        events.push_back(event);
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
