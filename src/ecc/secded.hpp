// SECDED Hamming(72,64) codec: single-error-correcting, double-error-
// detecting code over 64-bit words -- the standard DRAM-side ECC.
//
// The paper's related work (Salami et al., PDP'19 [57]; Chang et al. [12])
// mitigates undervolting faults with exactly this class of code; the
// ext_ecc_mitigation bench quantifies how much deeper SECDED lets the
// supply voltage go on this model.
//
// Construction: 8 check bits; check bit i covers the data bits whose
// 7-bit "code position" has bit i set, in the extended-Hamming layout
// (positions 1..71 skipping powers of two for data, overall parity as
// the 8th check bit).  Any single-bit error yields a nonzero syndrome
// with odd overall parity (correctable); any double-bit error yields a
// nonzero syndrome with even overall parity (detected, uncorrectable).
//
// The code is linear over GF(2): encode(a ^ b) == encode(a) ^ encode(b).
// So encode(data) is the XOR of eight per-byte entries from a constexpr
// 8 x 256 table (2 KB, built from the column masks below), and decoding
// needs one more XOR: e = encode(data) ^ check carries the 7-bit syndrome
// in its low bits and the overall parity mismatch as popcount(e) & 1.  A
// word is clean exactly when encode(data) == check, which lets the bulk
// decode loops (ecc_channel decode_range/scrub_range) test a whole beat
// with one packed compare; on GFNI hosts they evaluate the same tables two
// beats at a time (secded_gfni.hpp).  secded.cpp keeps the original
// per-set-bit walk as the reference implementation for equivalence tests.

#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace hbmvolt::ecc {

/// Result of decoding one 72-bit codeword.
enum class DecodeStatus : std::uint8_t {
  kClean = 0,          // syndrome zero: no error
  kCorrectedData,      // single-bit error in the data word, corrected
  kCorrectedCheck,     // single-bit error in the check bits, data intact
  kUncorrectable,      // double (or worse) error detected
};

struct DecodeResult {
  std::uint64_t data = 0;
  DecodeStatus status = DecodeStatus::kClean;
};

namespace detail {

constexpr bool is_power_of_two(unsigned x) { return (x & (x - 1)) == 0; }

/// Code position (1..71, skipping powers of two) of each data bit.
constexpr std::array<std::uint8_t, 64> make_positions() {
  std::array<std::uint8_t, 64> positions{};
  unsigned next = 0;
  for (unsigned position = 1; position <= 71 && next < 64; ++position) {
    if (!is_power_of_two(position)) {
      positions[next++] = static_cast<std::uint8_t>(position);
    }
  }
  return positions;
}

/// Inverse map: code position -> data bit index (0xFF for check bits).
constexpr std::array<std::uint8_t, 72> make_inverse() {
  std::array<std::uint8_t, 72> inverse{};
  for (auto& entry : inverse) entry = 0xFF;
  const auto positions = make_positions();
  for (unsigned d = 0; d < 64; ++d) {
    inverse[positions[d]] = static_cast<std::uint8_t>(d);
  }
  return inverse;
}

/// Column masks of the check matrix: kColumns[i] has bit d set iff
/// check bit i covers data bit d (code position of d has bit i set).
constexpr std::array<std::uint64_t, 7> make_columns() {
  std::array<std::uint64_t, 7> columns{};
  const auto positions = make_positions();
  for (unsigned d = 0; d < 64; ++d) {
    for (unsigned i = 0; i < 7; ++i) {
      if ((positions[d] >> i) & 1u) columns[i] |= 1ull << d;
    }
  }
  return columns;
}

constexpr auto kPositions = make_positions();
constexpr auto kInverse = make_inverse();
constexpr auto kColumns = make_columns();

/// Byte-sliced encode table: kEncodeTable[lane][v] is the full 8-bit
/// check byte of the data word whose only nonzero byte is v in byte lane
/// `lane`.  Built from the column masks by linearity: an entry is the
/// codeword of its lowest set bit XOR the entry without that bit.
constexpr std::array<std::array<std::uint8_t, 256>, 8> make_encode_table() {
  std::array<std::array<std::uint8_t, 256>, 8> table{};
  for (unsigned lane = 0; lane < 8; ++lane) {
    for (unsigned v = 1; v < 256; ++v) {
      const unsigned d = lane * 8 + static_cast<unsigned>(std::countr_zero(v));
      unsigned hamming = 0;
      for (unsigned i = 0; i < 7; ++i) {
        hamming |= static_cast<unsigned>((kColumns[i] >> d) & 1u) << i;
      }
      // The data bit itself plus its hamming bits, made even by the
      // overall parity bit.
      const unsigned overall = (std::popcount(hamming) & 1) != 0 ? 0x00 : 0x80;
      table[lane][v] = static_cast<std::uint8_t>(table[lane][v & (v - 1)] ^
                                                 hamming ^ overall);
    }
  }
  return table;
}

inline constexpr auto kEncodeTable = make_encode_table();

}  // namespace detail

/// Computes the 8 check bits for a 64-bit data word: the XOR of the
/// word's eight byte-lane table entries.
[[nodiscard]] inline std::uint8_t secded_encode(std::uint64_t data) noexcept {
  const auto& t = detail::kEncodeTable;
  return static_cast<std::uint8_t>(
      t[0][data & 0xFF] ^ t[1][(data >> 8) & 0xFF] ^
      t[2][(data >> 16) & 0xFF] ^ t[3][(data >> 24) & 0xFF] ^
      t[4][(data >> 32) & 0xFF] ^ t[5][(data >> 40) & 0xFF] ^
      t[6][(data >> 48) & 0xFF] ^ t[7][data >> 56]);
}

/// Decodes a (data, check) pair, correcting a single-bit error anywhere
/// in the 72-bit codeword.
[[nodiscard]] inline DecodeResult secded_decode(std::uint64_t data,
                                                std::uint8_t check) noexcept {
  DecodeResult result;
  result.data = data;

  // Linearity: the stored check differs from the recomputed one in the
  // syndrome bits, and in overall parity exactly when an odd number of
  // codeword bits flipped.
  const unsigned e = secded_encode(data) ^ check;
  const std::uint8_t syndrome = static_cast<std::uint8_t>(e & 0x7F);
  const bool parity_mismatch = (std::popcount(e) & 1) != 0;

  if (syndrome == 0 && !parity_mismatch) {
    result.status = DecodeStatus::kClean;
    return result;
  }
  if (!parity_mismatch) {
    // Nonzero syndrome with intact overall parity: >= 2 bit errors.
    result.status = DecodeStatus::kUncorrectable;
    return result;
  }
  if (syndrome == 0) {
    // The overall parity bit itself flipped; data is intact.
    result.status = DecodeStatus::kCorrectedCheck;
    return result;
  }
  if (syndrome < 72 && detail::kInverse[syndrome] != 0xFF) {
    result.data = data ^ (1ull << detail::kInverse[syndrome]);
    result.status = DecodeStatus::kCorrectedData;
    return result;
  }
  if (syndrome < 72 && detail::is_power_of_two(syndrome)) {
    // A Hamming check bit flipped; data is intact.
    result.status = DecodeStatus::kCorrectedCheck;
    return result;
  }
  // Syndrome points outside the codeword: multi-bit corruption.
  result.status = DecodeStatus::kUncorrectable;
  return result;
}

/// Reference codec (the original per-set-bit position walk), kept for
/// equivalence tests against the table-driven fast path above.
[[nodiscard]] std::uint8_t secded_encode_reference(
    std::uint64_t data) noexcept;
[[nodiscard]] DecodeResult secded_decode_reference(std::uint64_t data,
                                                   std::uint8_t check) noexcept;

}  // namespace hbmvolt::ecc
