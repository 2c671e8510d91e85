// Tenant model for the multi-tenant request plane (serve/plane.hpp).
//
// A tenant is one counter-seeded op stream with a QoS class, an admission
// quota, and a latency SLO.  Everything here is declarative: the specs
// below fully determine the tenant's demand (via the demand streams in
// workload/demand.hpp) and its admission treatment, so a fleet run is a
// pure function of (seed, tenant set, fleet config) -- the repo's usual
// reproducibility contract, extended to the request plane.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hbmvolt::serve {

/// Admission treatment under pressure.  Guaranteed tenants keep their
/// latency SLO through brownouts (slow device paths hedge to the journal
/// copy); best-effort tenants are degraded first -- served stale, then
/// shed -- whenever the fleet loses redundancy.
enum class QosClass : unsigned {
  kGuaranteed = 0,
  kBestEffort = 1,
};

/// Synthetic demand shape, mapped onto workload::DemandStream
/// (workload/demand.hpp): an arithmetic sweep or a generated trace.
enum class WorkloadMix : unsigned {
  kZipfian = 0,       // make_zipfian: YCSB-style skewed point accesses
  kStreaming = 1,     // DemandStream::sweep: sequential sweeps, no trace
  kPointerChase = 2,  // make_pointer_chase: dependent random reads
  kUniform = 3,       // make_uniform_random
};

[[nodiscard]] const char* to_string(QosClass qos) noexcept;
[[nodiscard]] const char* to_string(WorkloadMix mix) noexcept;
/// Parse "guaranteed" / "best_effort" (case-sensitive, exact).
[[nodiscard]] Result<QosClass> parse_qos(std::string_view text);
/// Parse "zipfian" / "streaming" / "pointer_chase" / "uniform".
[[nodiscard]] Result<WorkloadMix> parse_mix(std::string_view text);

struct TenantSpec {
  std::string name;
  QosClass qos = QosClass::kBestEffort;
  WorkloadMix mix = WorkloadMix::kUniform;
  /// Total demand, in beats (streaming rounds up to whole passes).
  std::uint64_t ops = 1 << 12;
  /// Virtual address-space size, in beats.
  std::uint64_t footprint_beats = 256;
  double write_fraction = 0.25;
  /// Zipfian skew exponent (kZipfian only; 0.99 is the YCSB classic).
  double zipf_theta = 0.99;
  /// Token-bucket refill per epoch barrier, in beats.  This is also the
  /// tenant's nominal offered load per epoch; a chaos tenant-surge
  /// multiplies the offer, not the refill.
  std::uint64_t quota_per_epoch = 256;
  /// Token-bucket capacity (unused quota accumulates up to this).
  std::uint64_t burst_tokens = 512;
  /// Queued requests older than this many epochs are shed at admission.
  std::uint64_t queue_deadline_epochs = 4;
  /// Escalation rounds a request may absorb before its deadline is
  /// blown (clamped to the plane's attempt budget, 4).
  unsigned deadline_attempts = 4;
  /// Per-request latency SLO in model nanoseconds (see the deterministic
  /// service-time model in runtime/fleet.hpp).  Checked against the
  /// tenant's p99; surfaced in health rows and serve_test.
  std::uint64_t slo_model_ns = 200'000;
};

/// Cumulative per-tenant accounting, folded at epoch barriers in slot
/// order (deterministic at any thread count).  All units are beats except
/// `deadline_hits`, `retries`, and `surges`, which count events.
struct TenantStats {
  std::uint64_t demand = 0;    // beats drawn from the tenant's trace
  std::uint64_t admitted = 0;  // beats past the token bucket
  std::uint64_t served_reads = 0;
  std::uint64_t served_writes = 0;
  std::uint64_t hedged = 0;        // beats answered via the journal hedge
  std::uint64_t stale_served = 0;  // brownout: journal copy, best-effort
  std::uint64_t shed_admission = 0;  // token bucket dry
  std::uint64_t shed_brownout = 0;   // brownout level 2: refused outright
  std::uint64_t shed_hot_shard = 0;  // hot-slot throttling
  std::uint64_t shed_queue = 0;      // queue depth / queue aging
  std::uint64_t shed_deadline = 0;   // dropped mid-serve, deadline blown
  std::uint64_t retries = 0;         // escalation rounds spent
  std::uint64_t deadline_hits = 0;   // requests whose deadline blew
  std::uint64_t surges = 0;          // chaos tenant-surge epochs

  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_admission + shed_brownout + shed_hot_shard + shed_queue +
           shed_deadline;
  }
};

/// Convenience tenant-set builder for soaks and tests: `count` tenants
/// named "t<i>", alternating guaranteed/best-effort, cycling through
/// `mixes`, each with `ops` beats of demand over `footprint_beats`.
[[nodiscard]] std::vector<TenantSpec> make_tenant_set(
    unsigned count, const std::vector<WorkloadMix>& mixes, std::uint64_t ops,
    std::uint64_t footprint_beats, std::uint64_t quota_per_epoch);

}  // namespace hbmvolt::serve
