// Reference SECDED codec: the per-set-bit position-XOR walk the fast
// table-driven header implementation replaced.  Kept verbatim so tests
// can prove the byte-sliced encode tables compute identical syndromes
// (and therefore identical encodes/decodes) over the whole input space
// they sample.

#include "ecc/secded.hpp"

namespace hbmvolt::ecc {
namespace {

std::uint8_t data_syndrome_reference(std::uint64_t data) noexcept {
  std::uint8_t syndrome = 0;
  while (data != 0) {
    const int bit = std::countr_zero(data);
    data &= data - 1;
    syndrome ^= detail::kPositions[static_cast<unsigned>(bit)];
  }
  return syndrome;
}

bool parity64(std::uint64_t x) noexcept { return std::popcount(x) & 1; }

}  // namespace

std::uint8_t secded_encode_reference(std::uint64_t data) noexcept {
  const std::uint8_t hamming = data_syndrome_reference(data) & 0x7F;
  const bool overall =
      parity64(data) ^ (std::popcount<unsigned>(hamming) & 1);
  return static_cast<std::uint8_t>(hamming | (overall ? 0x80 : 0x00));
}

DecodeResult secded_decode_reference(std::uint64_t data,
                                     std::uint8_t check) noexcept {
  DecodeResult result;
  result.data = data;

  const std::uint8_t syndrome = static_cast<std::uint8_t>(
      (data_syndrome_reference(data) ^ check) & 0x7F);
  const bool parity_mismatch =
      parity64(data) ^ (std::popcount<unsigned>(check) & 1);

  if (syndrome == 0 && !parity_mismatch) {
    result.status = DecodeStatus::kClean;
    return result;
  }
  if (!parity_mismatch) {
    result.status = DecodeStatus::kUncorrectable;
    return result;
  }
  if (syndrome == 0) {
    result.status = DecodeStatus::kCorrectedCheck;
    return result;
  }
  if (syndrome < 72 && detail::kInverse[syndrome] != 0xFF) {
    result.data = data ^ (1ull << detail::kInverse[syndrome]);
    result.status = DecodeStatus::kCorrectedData;
    return result;
  }
  if (syndrome < 72 && detail::is_power_of_two(syndrome)) {
    result.status = DecodeStatus::kCorrectedCheck;
    return result;
  }
  result.status = DecodeStatus::kUncorrectable;
  return result;
}

}  // namespace hbmvolt::ecc
