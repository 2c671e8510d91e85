#include "hbm/memory_array.hpp"

#include <bit>
#include <cstring>

#include "common/rng.hpp"

namespace hbmvolt::hbm {

MemoryArray::MemoryArray(std::uint64_t bits, std::uint64_t seed)
    : bits_(bits), scramble_seed_(seed) {
  HBMVOLT_REQUIRE(bits > 0 && bits % 256 == 0,
                  "array size must be a positive multiple of 256 bits");
}

void MemoryArray::ensure_materialized() const {
  if (!words_.empty()) return;
  words_.resize(bits_ / 64);
  Xoshiro256 rng(scramble_seed_);
  for (auto& word : words_) word = rng();
}

void MemoryArray::write_beat(std::uint64_t beat, const Beat& data) noexcept {
  ensure_materialized();
  const std::uint64_t w = beat * 4;
  words_[w] = data[0];
  words_[w + 1] = data[1];
  words_[w + 2] = data[2];
  words_[w + 3] = data[3];
}

Beat MemoryArray::read_beat(std::uint64_t beat) const noexcept {
  ensure_materialized();
  const std::uint64_t w = beat * 4;
  return Beat{words_[w], words_[w + 1], words_[w + 2], words_[w + 3]};
}

void MemoryArray::write_bit(std::uint64_t bit, bool value) noexcept {
  ensure_materialized();
  const std::uint64_t mask = 1ull << (bit % 64);
  if (value) {
    words_[bit / 64] |= mask;
  } else {
    words_[bit / 64] &= ~mask;
  }
}

bool MemoryArray::read_bit(std::uint64_t bit) const noexcept {
  ensure_materialized();
  return (words_[bit / 64] >> (bit % 64)) & 1ull;
}

void MemoryArray::write_words(std::uint64_t first_word, std::uint64_t count,
                              const std::uint64_t* data) noexcept {
  ensure_materialized();
  std::memcpy(words_.data() + first_word, data,
              count * sizeof(std::uint64_t));
}

void MemoryArray::scramble(std::uint64_t seed) {
  scramble_seed_ = seed;
  words_.clear();
  words_.shrink_to_fit();  // a powered-off stack holds no data
}

void MemoryArray::fill(const Beat& pattern) noexcept {
  fill_range(0, beats(), WordPattern::repeat(pattern));
}

void MemoryArray::fill_range(std::uint64_t start_beat, std::uint64_t beats,
                             const WordPattern& pattern) noexcept {
  if (words_.empty() && start_beat == 0 && beats == bits_ / 256) {
    words_.resize(bits_ / 64);  // whole-array fill: skip the scramble
  } else {
    ensure_materialized();
  }
  const std::uint64_t w0 = start_beat * 4;
  const std::uint64_t count = beats * 4;
  std::uint64_t* dst = words_.data() + w0;
  for (std::uint64_t i = 0; i < count; ++i) dst[i] = pattern.word(w0 + i);
}

RangeFlips compare_range(std::uint64_t start_beat,
                         std::span<const std::uint64_t> words,
                         const WordPattern& pattern,
                         std::uint64_t* diff_out) noexcept {
  RangeFlips out;
  const std::uint64_t w0 = start_beat * 4;
  for (std::uint64_t b = 0; b < words.size() / 4; ++b) {
    std::uint64_t any = 0;
    for (unsigned w = 0; w < 4; ++w) {
      const std::uint64_t i = b * 4 + w;
      const std::uint64_t expected = pattern.word(w0 + i);
      const std::uint64_t diff = words[i] ^ expected;
      out.flips_1to0 +=
          static_cast<unsigned>(std::popcount(diff & expected));
      out.flips_0to1 +=
          static_cast<unsigned>(std::popcount(diff & ~expected));
      any |= diff;
      if (diff_out != nullptr) diff_out[i] |= diff;
    }
    if (any != 0) ++out.mismatched_beats;
  }
  return out;
}

}  // namespace hbmvolt::hbm
