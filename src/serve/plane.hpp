// RequestPlane: the multi-tenant request plane over the ServingFleet.
//
// The plane sits between a TenantSet (counter-seeded synthetic streams,
// serve/tenant.hpp) and the fleet's serving slots, implementing the
// runtime::RequestSource seam.  Its job is QoS under scarcity:
//
//  * Admission control.  Each tenant owns a token bucket refilled at
//    every epoch barrier (quota_per_epoch, capped at burst_tokens); a
//    chaos tenant-surge multiplies the epoch's *offer*, and demand beyond
//    the bucket is shed deterministically (shed.admission), never queued
//    unboundedly.
//  * Placement.  Tenant virtual beats map to (slot, logical) through a
//    pure hash of (seed, tenant, chunk), with consecutive same-direction
//    beats coalesced per chunk so streaming tenants keep the fleet's
//    range fast path.  Queues are depth-bounded (shed.queue), aged
//    (queue_deadline_epochs), and hot slots throttle best-effort traffic
//    (shed.hot_shard).
//  * Deadlines and retry budgets.  Requests carry an escalation-round
//    deadline (clamped to the shared retry budget of 4 attempts); each
//    slot holds a per-tenant retry slice sized from the beats placed on
//    it, so a fault storm cannot amplify retries fleet-wide.  Guaranteed
//    tenants hedge blown deadlines to the journal copy; best-effort
//    requests are shed (shed.deadline).
//  * Brownout ladder, coupled to the fleet's degradation ladder.  Level 1
//    (any device lost, parked beats, or a rebuild in flight): best-effort
//    reads may be served stale from the journal.  Level 2 (redundancy
//    exhausted: an unstriped device loss, a doubly-degraded stripe group,
//    or a loss with the spare pool dry): best-effort tenants are shed at
//    admission (shed.brownout) while guaranteed tenants keep their
//    latency SLO through the journal hedge.
//
// Determinism: every decision above is a pure function of (seed, tenant,
// epoch) plus barrier-time fleet state.  All admission runs serially at
// the barrier; workers only pop their own slot's queue.  Fleet and
// per-tenant fingerprints are therefore byte-identical at any thread
// count, chaos on or off (tests/serve_test.cpp).

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "runtime/fleet.hpp"
#include "serve/tenant.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "workload/demand.hpp"

namespace hbmvolt::chaos {
class ChaosInjector;
}  // namespace hbmvolt::chaos

namespace hbmvolt::serve {

struct PlaneConfig {
  std::vector<TenantSpec> tenants;
  std::uint64_t seed = 1;
  /// Placement granularity, in beats (clamped to the slot capacity).
  /// Consecutive tenant beats inside one chunk land on one slot, so this
  /// is also the maximal coalesced run a streaming tenant can issue.
  std::uint64_t chunk_beats = 64;
  /// Queue-depth backpressure: requests beyond this per-slot bound are
  /// shed at placement.
  std::uint64_t max_queue_per_slot = 64;
  /// A slot whose placed + backlogged beats exceed this multiple of the
  /// per-slot mean is "hot": best-effort placements onto it are shed.
  double hot_shard_factor = 4.0;
  /// Per-epoch retry slice per (slot, tenant), as a fraction of the beats
  /// placed there (minimum 2 rounds) -- the anti-amplification bound.
  double retry_budget_fraction = 0.10;
  /// Optional chaos injector polled once per (tenant, epoch) for
  /// tenant-surge storms (ChaosInjector::surge_tick).
  chaos::ChaosInjector* chaos = nullptr;
};

class RequestPlane : public runtime::RequestSource {
 public:
  explicit RequestPlane(PlaneConfig config);

  // ---- runtime::RequestSource (see the seam contract in fleet.hpp) ----
  void begin_epoch(const runtime::ServingFleet& fleet,
                   std::uint64_t epoch) override;
  const runtime::PlacedRequest* front(std::size_t slot) override;
  void complete(std::size_t slot, const runtime::PlacedRequest& request,
                runtime::ServeOutcome outcome, unsigned attempts,
                std::uint64_t model_ns) override;
  bool spend_retry(std::size_t slot, std::uint32_t tenant) override;
  void end_epoch(telemetry::EpochSample* sample) override;
  [[nodiscard]] bool exhausted() const override;
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override;
  void fill_health(runtime::HealthRegistry* health) const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;

  // ---- Introspection (tests, soak artifacts) ----
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return config_.tenants.size();
  }
  [[nodiscard]] const TenantSpec& spec(std::size_t tenant) const {
    return config_.tenants[tenant];
  }
  /// Cumulative per-tenant accounting as of the last barrier.
  [[nodiscard]] const TenantStats& stats(std::size_t tenant) const {
    return tenants_[tenant].stats;
  }
  /// Full model-latency distribution (model ns) as of the last barrier.
  [[nodiscard]] const telemetry::HdrHistogram& latency(
      std::size_t tenant) const {
    return tenants_[tenant].latency;
  }
  /// p99 of the tenant's model-latency distribution <= its SLO.
  [[nodiscard]] bool slo_met(std::size_t tenant) const;
  /// Brownout level applied at the last begin_epoch (0 / 1 / 2).
  [[nodiscard]] unsigned brownout_level() const noexcept { return brownout_; }
  /// tenants.json: one object per tenant with stats and quantiles.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Queued {
    runtime::PlacedRequest req;
    std::uint64_t born = 0;  // admission epoch, for queue aging
  };
  /// Per serving slot: the request queue plus slot-local scratch, folded
  /// serially at end_epoch.  Workers touch only their own slot.
  struct SlotState {
    std::deque<Queued> queue;
    /// front() handed the queue's front to the worker, which may have
    /// parked it mid-request: queue aging must not shed it.
    bool front_started = false;
    std::vector<std::uint64_t> retry_tokens;          // per tenant
    std::vector<TenantStats> scratch;                 // per tenant deltas
    std::vector<telemetry::HdrHistogram> latency;     // per tenant
  };
  struct TenantState {
    /// Tenant-virtual demand: an arithmetic sweep for kStreaming (no
    /// stored records, whatever `ops`), a stored trace for the other
    /// mixes.  `cursor` is the next record index either way.
    workload::DemandStream demand;
    std::uint64_t cursor = 0;
    std::uint64_t tokens = 0;
    TenantStats stats;
    telemetry::HdrHistogram latency;
  };

  void bind(const runtime::ServingFleet& fleet);
  [[nodiscard]] unsigned compute_brownout(
      const runtime::ServingFleet& fleet) const;

  PlaneConfig config_;
  std::vector<TenantState> tenants_;
  std::vector<SlotState> slots_;
  std::uint64_t capacity_ = 0;  // min slot capacity, placement modulus
  std::uint64_t chunk_ = 1;     // bound chunk size
  bool bound_ = false;
  unsigned brownout_ = 0;
  // Serial-side per-epoch deltas for the barrier sample.
  std::uint64_t epoch_admitted_ = 0;
  std::uint64_t epoch_shed_ = 0;
};

}  // namespace hbmvolt::serve
