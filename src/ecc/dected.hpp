// DECTED codec: double-error-correcting, triple-error-detecting code over
// 64-bit words -- the next rung up from SECDED in the mitigation zoo.
//
// Salami et al. (PDP'19) show the reachable V_min depends on how many
// stuck bits per codeword the deployed code absorbs; SECDED dies on the
// second stuck cell in a word, DECTED on the third.  The ext_mitigation
// bench family quantifies that trade against the doubled check storage.
//
// Construction: a shortened binary BCH code over GF(2^7) (primitive
// polynomial x^7 + x^3 + 1) with designed distance 5 -- generator
// g(x) = m1(x) * m3(x), degree 14 -- plus an overall parity bit, for
// minimum distance 6: any 1- or 2-bit error is corrected, any 3-bit
// error is detected.  The codeword has 79 live positions:
//
//   polynomial degrees  0..13   the 14 BCH check bits
//   polynomial degrees 14..77   the 64 data bits (data bit i at 14 + i)
//   position 78                 the overall parity bit
//
// Stored check bits are 16 (two bytes per word): bits [0,14) the BCH
// remainder, bit 14 the overall parity, bit 15 a pad that is always
// written zero and ignored on decode.
//
// The code is linear over GF(2), so encoding is table-driven exactly like
// secded.hpp: the 15 live check bits of a data word are the XOR of eight
// per-byte entries from a constexpr 8 x 256 table (4 KB, built from the
// x^{14+i} mod g(x) remainders).  On decode, e = encode(data) ^ (check &
// 0x7FFF) gives the 14-bit syndrome as e & kCheckMask and the overall
// parity mismatch as popcount(e) & 1; a word is clean exactly when
// encode(data) == (check & 0x7FFF).  Correction uses a lazily
// built 2^14-entry syndrome table enumerating every 1- and 2-position
// error pattern -- BCH distance >= 5 guarantees the patterns collide
// nowhere, which the table build asserts.  dected.cpp keeps the original
// long-division encoder and a linear-scan decoder as the reference pair
// for the exhaustive 0/1/2/3-bit flip equivalence tests.

#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "ecc/secded.hpp"  // DecodeStatus / DecodeResult

namespace hbmvolt::ecc {

namespace dected_detail {

/// GF(2^7) carry-less multiply modulo x^7 + x^3 + 1.
constexpr unsigned gf_mul(unsigned a, unsigned b) {
  unsigned r = 0;
  for (unsigned i = 0; i < 7; ++i) {
    if ((b >> i) & 1u) r ^= a << i;
  }
  for (int d = 12; d >= 7; --d) {
    if ((r >> d) & 1u) r ^= 0x89u << (d - 7);
  }
  return r;
}

/// Minimal polynomial of alpha^3: product of (x + alpha^{3*2^k}) over the
/// cyclotomic coset, degree 7 with coefficients in GF(2).
constexpr std::uint32_t make_m3() {
  unsigned coeffs[9] = {1, 0, 0, 0, 0, 0, 0, 0, 0};
  unsigned deg = 0;
  unsigned root = 8;  // alpha^3 = x^3
  for (unsigned k = 0; k < 7; ++k) {
    unsigned next[9] = {};
    for (unsigned i = 0; i <= deg; ++i) {
      next[i + 1] ^= coeffs[i];
      next[i] ^= gf_mul(coeffs[i], root);
    }
    ++deg;
    for (unsigned i = 0; i <= deg; ++i) coeffs[i] = next[i];
    root = gf_mul(root, root);
  }
  std::uint32_t m3 = 0;
  for (unsigned i = 0; i <= 7; ++i) m3 |= (coeffs[i] & 1u) << i;
  return m3;
}

/// Generator g(x) = m1(x) * m3(x): degree 14, GF(2) product of the
/// minimal polynomials of alpha (x^7 + x^3 + 1) and alpha^3.
constexpr std::uint32_t make_generator() {
  const std::uint32_t m3 = make_m3();
  std::uint32_t g = 0;
  for (unsigned i = 0; i < 8; ++i) {
    if ((0x89u >> i) & 1u) g ^= m3 << i;
  }
  return g;
}

inline constexpr std::uint32_t kGenerator = make_generator();
inline constexpr std::uint32_t kCheckMask = 0x3FFF;  // 14 BCH check bits
inline constexpr unsigned kCheckBits = 14;
inline constexpr unsigned kDataBits = 64;
/// Live codeword positions: 14 check + 64 data + 1 overall parity.
inline constexpr unsigned kPositions = 79;
inline constexpr unsigned kParityPos = 78;

/// x^{14+i} mod g(x) for each data bit i -- its syndrome column.
constexpr std::array<std::uint16_t, 64> make_remainders() {
  std::array<std::uint16_t, 64> r{};
  std::uint32_t cur = kGenerator & kCheckMask;  // x^14 mod g
  for (unsigned i = 0; i < 64; ++i) {
    r[i] = static_cast<std::uint16_t>(cur);
    cur <<= 1;
    if (cur & (1u << kCheckBits)) cur ^= kGenerator;
  }
  return r;
}

inline constexpr auto kRemainders = make_remainders();

/// Byte-sliced encode table: kEncodeTable[lane][v] holds the stored check
/// bits (BCH remainder in bits [0,14), overall parity at bit 14, pad bit
/// 15 zero) of the data word whose only nonzero byte is v in byte lane
/// `lane`.  Built by linearity: an entry is the codeword of its lowest set
/// bit XOR the entry without that bit.
constexpr std::array<std::array<std::uint16_t, 256>, 8> make_encode_table() {
  std::array<std::array<std::uint16_t, 256>, 8> table{};
  for (unsigned lane = 0; lane < 8; ++lane) {
    for (unsigned v = 1; v < 256; ++v) {
      const unsigned rem =
          kRemainders[lane * 8 + static_cast<unsigned>(std::countr_zero(v))];
      // The data bit itself plus its remainder bits, made even by the
      // overall parity bit.
      const unsigned overall = (std::popcount(rem) & 1) != 0 ? 0 : 0x4000;
      table[lane][v] = static_cast<std::uint16_t>(table[lane][v & (v - 1)] ^
                                                  rem ^ overall);
    }
  }
  return table;
}

inline constexpr auto kEncodeTable = make_encode_table();

/// Syndrome column of codeword position p (0..77; the parity bit has no
/// BCH column).  Check positions are unit vectors (x^p mod g = x^p).
[[nodiscard]] constexpr std::uint16_t position_column(unsigned p) noexcept {
  return p < kCheckBits ? static_cast<std::uint16_t>(1u << p)
                        : kRemainders[p - kCheckBits];
}

/// Syndrome-table lookup result, packed: kind in the top 2 bits
/// (0 = no pattern, 1 = single, 2 = pair), positions below.
[[nodiscard]] std::uint32_t pattern_for(std::uint16_t syndrome) noexcept;

inline constexpr std::uint32_t kPatternSingle = 1u << 30;
inline constexpr std::uint32_t kPatternPair = 2u << 30;
inline constexpr std::uint32_t kPatternKindMask = 3u << 30;

}  // namespace dected_detail

/// Computes the 16 stored check bits for a 64-bit data word: the XOR of
/// the word's eight byte-lane table entries.
[[nodiscard]] inline std::uint16_t dected_encode(std::uint64_t data) noexcept {
  const auto& t = dected_detail::kEncodeTable;
  return static_cast<std::uint16_t>(
      t[0][data & 0xFF] ^ t[1][(data >> 8) & 0xFF] ^
      t[2][(data >> 16) & 0xFF] ^ t[3][(data >> 24) & 0xFF] ^
      t[4][(data >> 32) & 0xFF] ^ t[5][(data >> 40) & 0xFF] ^
      t[6][(data >> 48) & 0xFF] ^ t[7][data >> 56]);
}

/// Decodes a (data, check) pair, correcting up to two bit errors anywhere
/// in the 79 live codeword positions and detecting any three.  Bit 15 of
/// `check` (the pad) is ignored.
[[nodiscard]] DecodeResult dected_decode(std::uint64_t data,
                                         std::uint16_t check) noexcept;

/// True when the received word has zero BCH syndrome and intact overall
/// parity, i.e. its recomputed check bits equal the stored ones with the
/// pad bit ignored.
[[nodiscard]] inline bool dected_clean(std::uint64_t data,
                                       std::uint16_t check) noexcept {
  return dected_encode(data) == (check & 0x7FFFu);
}

/// Reference codec: long-division encoder and linear-scan decoder (no
/// syndrome table), kept for the exhaustive flip equivalence tests.
[[nodiscard]] std::uint16_t dected_encode_reference(
    std::uint64_t data) noexcept;
[[nodiscard]] DecodeResult dected_decode_reference(
    std::uint64_t data, std::uint16_t check) noexcept;

}  // namespace hbmvolt::ecc
