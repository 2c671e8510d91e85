// SECDED check bytes of two beats per GFNI affine transform, and the
// once-per-process choice between this kernel and the byte tables.
//
// secded_encode (secded.hpp) XORs eight byte-lane table entries per word,
// 32 lookups per beat.  Each entry is a fixed GF(2)-linear map of one data
// byte: kEncodeTable[lane][v] = T_lane(v).  GFNI's gf2p8affineqb applies an
// 8x8 bit matrix to every byte of a 64-bit lane, with one matrix per lane,
// so the eight check bytes of a beat pair (eight words, 64 bytes) take:
//
//   1. one 64-byte load: qword k is word k (beat 0's words 0..3, then
//      beat 1's);
//   2. one vpermb byte transpose: byte k of qword lane j becomes byte j of
//      word k, so lane j holds byte lane j of all eight words;
//   3. one affine transform against kAffineMatrices, lane j's matrix being
//      T_j: byte k of lane j becomes T_j(byte j of word k);
//   4. an XOR fold of the eight lanes: byte k is then the XOR over j of
//      T_j(byte j of word k), which is secded_encode(word k).
//
// The folded qword is the pair's eight check bytes in stored order (word 0
// lowest), so a clean test is one 64-bit compare and an encode is one
// 8-byte store.  The result is bit-identical to the tables by construction:
// each matrix is built from the table's basis entries, and both sides are
// linear.
//
// The kernel is compiled with a function-level target attribute, so the
// build needs no ISA flag; secded_kernel() selects it once per process
// when the CPU reports all four features, and the table path remains the
// only one everywhere else.  DECTED and the per-beat read_beat/scrub_beat
// path always use the tables.

#pragma once

#include <array>
#include <cstdint>

#include "ecc/secded.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HBMVOLT_SECDED_GFNI 1
#define HBMVOLT_TARGET_GFNI \
  __attribute__((target("avx512f,avx512bw,avx512vbmi,gfni")))
#else
#define HBMVOLT_SECDED_GFNI 0
#endif

namespace hbmvolt::ecc {

/// Which kernel computes whole-beat SECDED check bytes in the bulk range
/// loops (EccChannel::encode_range, decode_range, scrub_range).
enum class SecdedKernel : unsigned {
  kTable = 0,  // byte-sliced encode tables, any host
  kGfni = 1,   // two beats per GF(2) affine transform (AVX-512 + GFNI)
};

[[nodiscard]] const char* to_string(SecdedKernel kernel) noexcept;

/// The first CPU feature the GFNI kernel needs ("avx512f", "avx512bw",
/// "avx512vbmi", "gfni") that this host lacks, or nullptr when it has all
/// four.  Non-x86-64 builds report "x86-64".
[[nodiscard]] const char* secded_gfni_missing_feature() noexcept;

/// The kernel of this process: kGfni exactly when no feature is missing.
/// Resolved on first call and fixed for the process lifetime.
[[nodiscard]] inline SecdedKernel secded_kernel() noexcept {
  static const SecdedKernel kernel = secded_gfni_missing_feature() == nullptr
                                         ? SecdedKernel::kGfni
                                         : SecdedKernel::kTable;
  return kernel;
}

namespace detail {

/// vpermb index of the 8x8 byte transpose: output byte 8j + k is input
/// byte 8k + j.
constexpr std::array<std::uint8_t, 64> make_transpose_index() {
  std::array<std::uint8_t, 64> index{};
  for (unsigned j = 0; j < 8; ++j) {
    for (unsigned k = 0; k < 8; ++k) {
      index[j * 8 + k] = static_cast<std::uint8_t>(k * 8 + j);
    }
  }
  return index;
}

/// gf2p8affineqb matrices, one per byte lane.  The instruction sets output
/// bit i of a byte x to parity(matrix.byte[7 - i] & x), so byte 7 - i of
/// lane j's matrix is the row of T_j for check bit i: bit m set iff
/// T_j(1 << m) has bit i set.
constexpr std::array<std::uint64_t, 8> make_affine_matrices() {
  std::array<std::uint64_t, 8> matrices{};
  for (unsigned lane = 0; lane < 8; ++lane) {
    for (unsigned i = 0; i < 8; ++i) {
      std::uint64_t row = 0;
      for (unsigned m = 0; m < 8; ++m) {
        row |= static_cast<std::uint64_t>(
                   (kEncodeTable[lane][1u << m] >> i) & 1u)
               << m;
      }
      matrices[lane] |= row << (8 * (7 - i));
    }
  }
  return matrices;
}

alignas(64) inline constexpr auto kTransposeIndex = make_transpose_index();
alignas(64) inline constexpr auto kAffineMatrices = make_affine_matrices();

}  // namespace detail

#if HBMVOLT_SECDED_GFNI
/// Check bytes of the eight words at `words` (two packed beats): byte k of
/// the result is secded_encode(words[k]).  Only call when secded_kernel()
/// is kGfni.
[[nodiscard]] HBMVOLT_TARGET_GFNI inline std::uint64_t
secded_encode_pair_gfni(const std::uint64_t* words) noexcept {
  // The maskz forms with all-ones masks compile to the plain instructions;
  // the unmasked intrinsics (and g++ 12's _mm512_castsi512_si256) merge
  // into _mm*_undefined_*, which g++ 12 reports as maybe-uninitialized.
  const __m512i transpose = _mm512_load_si512(detail::kTransposeIndex.data());
  const __m512i matrices = _mm512_load_si512(detail::kAffineMatrices.data());
  const __m512i lanes = _mm512_maskz_permutexvar_epi8(
      ~__mmask64{0}, transpose, _mm512_loadu_si512(words));
  const __m512i mapped = _mm512_gf2p8affine_epi64_epi8(lanes, matrices, 0);
  const __m256i half =
      _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xFF, mapped, 0),
                       _mm512_maskz_extracti64x4_epi64(0xFF, mapped, 1));
  const __m128i quarter = _mm_xor_si128(_mm256_castsi256_si128(half),
                                        _mm256_extracti128_si256(half, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(quarter) ^
                                    _mm_extract_epi64(quarter, 1));
}
#endif

}  // namespace hbmvolt::ecc
