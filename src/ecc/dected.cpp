#include "ecc/dected.hpp"

#include <cstdlib>
#include <vector>

namespace hbmvolt::ecc {

namespace dected_detail {
namespace {

/// Flips codeword position p (0..78) in a working (data, check) pair.
/// Check positions land in the stored check bits, the parity bit at
/// stored bit 14.
void flip_position(unsigned p, std::uint64_t* data, std::uint16_t* check) {
  if (p >= kCheckBits && p < kCheckBits + kDataBits) {
    *data ^= 1ull << (p - kCheckBits);
  } else if (p < kCheckBits) {
    *check ^= static_cast<std::uint16_t>(1u << p);
  } else {
    *check ^= 0x4000;  // overall parity bit
  }
}

/// 2^14-entry syndrome table over every 1- and 2-position error pattern
/// among the 78 syndrome-bearing positions.  BCH designed distance 5
/// means no two such patterns share a syndrome; a collision here would
/// falsify the generator construction, so the build aborts on one.
std::vector<std::uint32_t> build_pattern_table() {
  std::vector<std::uint32_t> table(1u << kCheckBits, 0);
  for (unsigned p = 0; p < kPositions - 1; ++p) {
    const std::uint16_t syndrome = position_column(p);
    if (syndrome == 0 || table[syndrome] != 0) std::abort();
    table[syndrome] = kPatternSingle | p;
  }
  for (unsigned p = 0; p + 1 < kPositions - 1; ++p) {
    for (unsigned q = p + 1; q < kPositions - 1; ++q) {
      const std::uint16_t syndrome =
          static_cast<std::uint16_t>(position_column(p) ^ position_column(q));
      if (syndrome == 0 || table[syndrome] != 0) std::abort();
      table[syndrome] = kPatternPair | (p << 8) | q;
    }
  }
  return table;
}

}  // namespace

std::uint32_t pattern_for(std::uint16_t syndrome) noexcept {
  static const std::vector<std::uint32_t> table = build_pattern_table();
  return table[syndrome];
}

}  // namespace dected_detail

namespace {

using namespace dected_detail;

/// Applies a decoded error pattern and classifies the correction: any
/// flipped data bit makes the whole correction kCorrectedData.
DecodeResult corrected(std::uint64_t data, unsigned p1, bool has_p2,
                       unsigned p2) {
  std::uint16_t scratch = 0;
  bool touched_data = false;
  flip_position(p1, &data, &scratch);
  touched_data |= p1 >= kCheckBits && p1 < kCheckBits + kDataBits;
  if (has_p2) {
    flip_position(p2, &data, &scratch);
    touched_data |= p2 >= kCheckBits && p2 < kCheckBits + kDataBits;
  }
  return {data, touched_data ? DecodeStatus::kCorrectedData
                             : DecodeStatus::kCorrectedCheck};
}

}  // namespace

DecodeResult dected_decode(std::uint64_t data, std::uint16_t check) noexcept {
  // Linearity: the stored check bits differ from the recomputed ones in
  // the syndrome bits, and in overall parity exactly when an odd number
  // of live positions flipped.
  const unsigned e = dected_encode(data) ^ (check & 0x7FFFu);
  const std::uint16_t syndrome = static_cast<std::uint16_t>(e & kCheckMask);
  const bool odd_parity = (std::popcount(e) & 1) != 0;

  if (syndrome == 0) {
    if (!odd_parity) return {data, DecodeStatus::kClean};
    // Zero BCH syndrome with odd parity: the parity bit itself flipped
    // (three BCH-position errors summing to zero would be a weight-3
    // codeword, impossible at distance >= 5).
    return {data, DecodeStatus::kCorrectedCheck};
  }

  const std::uint32_t pattern = pattern_for(syndrome);
  const std::uint32_t kind = pattern & kPatternKindMask;
  if (odd_parity) {
    // An odd number of live-position errors.  A lone single-position
    // pattern is the only correctable case; a pair-pattern syndrome with
    // odd parity is two BCH errors plus the parity bit = three errors.
    if (kind != kPatternSingle) return {data, DecodeStatus::kUncorrectable};
    return corrected(data, pattern & 0xFF, false, 0);
  }
  // Even parity with a nonzero syndrome: either two BCH-position errors
  // (pair pattern) or one BCH-position error plus the parity bit.
  if (kind == kPatternPair) {
    return corrected(data, (pattern >> 8) & 0xFF, true, pattern & 0xFF);
  }
  if (kind == kPatternSingle) {
    return corrected(data, pattern & 0xFF, false, 0);
  }
  return {data, DecodeStatus::kUncorrectable};
}

std::uint16_t dected_encode_reference(std::uint64_t data) noexcept {
  // Long division of x^14 * m(x) by g(x), one message bit per step.
  std::uint32_t rem = 0;
  for (int i = 63; i >= 0; --i) {
    const unsigned feedback = ((rem >> (kCheckBits - 1)) ^
                               static_cast<unsigned>(data >> i)) &
                              1u;
    rem = (rem << 1) & kCheckMask;
    if (feedback != 0) rem ^= kGenerator & kCheckMask;
  }
  unsigned ones = std::popcount(data);
  ones += std::popcount(rem);
  return static_cast<std::uint16_t>(rem | ((ones & 1u) != 0 ? 0x4000 : 0));
}

DecodeResult dected_decode_reference(std::uint64_t data,
                                     std::uint16_t check) noexcept {
  // Syndrome by per-set-bit accumulation instead of the encode tables.
  std::uint16_t syndrome = static_cast<std::uint16_t>(check & kCheckMask);
  for (unsigned i = 0; i < kDataBits; ++i) {
    if ((data >> i) & 1u) syndrome ^= kRemainders[i];
  }
  unsigned ones = std::popcount(data);
  ones += std::popcount<unsigned>(check & 0x7FFFu);
  const bool odd_parity = (ones & 1u) != 0;

  if (syndrome == 0) {
    if (!odd_parity) return {data, DecodeStatus::kClean};
    return {data, DecodeStatus::kCorrectedCheck};
  }

  // Linear scan over all single- then two-position patterns.  A single
  // column matching with even parity means that position plus the parity
  // bit flipped; the parity bit carries no data so the fix is the same.
  for (unsigned p = 0; p < kPositions - 1; ++p) {
    if (position_column(p) != syndrome) continue;
    std::uint64_t fixed = data;
    std::uint16_t scratch = 0;
    flip_position(p, &fixed, &scratch);
    return {fixed, p >= kCheckBits && p < kCheckBits + kDataBits
                       ? DecodeStatus::kCorrectedData
                       : DecodeStatus::kCorrectedCheck};
  }
  if (!odd_parity) {
    for (unsigned p = 0; p + 1 < kPositions - 1; ++p) {
      for (unsigned q = p + 1; q < kPositions - 1; ++q) {
        if (static_cast<std::uint16_t>(position_column(p) ^
                                       position_column(q)) != syndrome) {
          continue;
        }
        std::uint64_t fixed = data;
        std::uint16_t scratch = 0;
        flip_position(p, &fixed, &scratch);
        flip_position(q, &fixed, &scratch);
        const bool touched_data =
            (p >= kCheckBits && p < kCheckBits + kDataBits) ||
            (q >= kCheckBits && q < kCheckBits + kDataBits);
        return {fixed, touched_data ? DecodeStatus::kCorrectedData
                                    : DecodeStatus::kCorrectedCheck};
      }
    }
  }
  return {data, DecodeStatus::kUncorrectable};
}

}  // namespace hbmvolt::ecc
