#include "serve/tenant.hpp"

namespace hbmvolt::serve {

const char* to_string(QosClass qos) noexcept {
  switch (qos) {
    case QosClass::kGuaranteed: return "guaranteed";
    case QosClass::kBestEffort: return "best_effort";
  }
  return "unknown";
}

const char* to_string(WorkloadMix mix) noexcept {
  switch (mix) {
    case WorkloadMix::kZipfian: return "zipfian";
    case WorkloadMix::kStreaming: return "streaming";
    case WorkloadMix::kPointerChase: return "pointer_chase";
    case WorkloadMix::kUniform: return "uniform";
  }
  return "unknown";
}

Result<QosClass> parse_qos(std::string_view text) {
  if (text == "guaranteed") return QosClass::kGuaranteed;
  if (text == "best_effort") return QosClass::kBestEffort;
  return invalid_argument("unknown QoS class '" + std::string(text) +
                          "' (accepted: guaranteed, best_effort)");
}

Result<WorkloadMix> parse_mix(std::string_view text) {
  if (text == "zipfian") return WorkloadMix::kZipfian;
  if (text == "streaming") return WorkloadMix::kStreaming;
  if (text == "pointer_chase") return WorkloadMix::kPointerChase;
  if (text == "uniform") return WorkloadMix::kUniform;
  return invalid_argument(
      "unknown workload mix '" + std::string(text) +
      "' (accepted: zipfian, streaming, pointer_chase, uniform)");
}

std::vector<TenantSpec> make_tenant_set(unsigned count,
                                        const std::vector<WorkloadMix>& mixes,
                                        std::uint64_t ops,
                                        std::uint64_t footprint_beats,
                                        std::uint64_t quota_per_epoch) {
  HBMVOLT_REQUIRE(count > 0 && !mixes.empty(), "tenant set needs members");
  std::vector<TenantSpec> tenants;
  tenants.reserve(count);
  for (unsigned t = 0; t < count; ++t) {
    TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(t);
    // Even slots guaranteed, odd best-effort: every mix appears in both
    // classes once count covers two cycles.
    spec.qos = (t % 2 == 0) ? QosClass::kGuaranteed : QosClass::kBestEffort;
    spec.mix = mixes[t % mixes.size()];
    spec.ops = ops;
    spec.footprint_beats = footprint_beats;
    spec.quota_per_epoch = quota_per_epoch;
    spec.burst_tokens = quota_per_epoch * 2;
    tenants.push_back(std::move(spec));
  }
  return tenants;
}

}  // namespace hbmvolt::serve
