#include "ecc/secded_gfni.hpp"

namespace hbmvolt::ecc {

const char* to_string(SecdedKernel kernel) noexcept {
  switch (kernel) {
    case SecdedKernel::kTable:
      return "table";
    case SecdedKernel::kGfni:
      return "gfni";
  }
  return "unknown";
}

const char* secded_gfni_missing_feature() noexcept {
#if HBMVOLT_SECDED_GFNI
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) return "avx512f";
  if (!__builtin_cpu_supports("avx512bw")) return "avx512bw";
  if (!__builtin_cpu_supports("avx512vbmi")) return "avx512vbmi";
  if (!__builtin_cpu_supports("gfni")) return "gfni";
  return nullptr;
#else
  return "x86-64";
#endif
}

}  // namespace hbmvolt::ecc
