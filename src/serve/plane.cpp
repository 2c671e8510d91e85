#include "serve/plane.hpp"

#include <algorithm>
#include <utility>

#include "chaos/chaos.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::serve {
namespace {

// Stream-split salts for the placement hashes (arbitrary, fixed).
constexpr std::uint64_t kTraceSalt = 0x7E4A47;
constexpr std::uint64_t kSlotSalt = 0x51A7;
constexpr std::uint64_t kChunkSalt = 0xBA5E;
constexpr std::uint64_t kFingerprintSalt = 0x7E57A11;
/// Request deadlines are clamped to the shared retry policy's attempt
/// budget (4).
constexpr unsigned kMaxAttempts = RetryPolicy{}.max_attempts;

workload::DemandStream make_demand(const TenantSpec& spec,
                                   std::uint64_t seed) {
  switch (spec.mix) {
    case WorkloadMix::kZipfian:
      return workload::DemandStream::replay(workload::make_zipfian(
          spec.footprint_beats, spec.ops, spec.zipf_theta, spec.write_fraction,
          seed));
    case WorkloadMix::kStreaming:
      return workload::DemandStream::sweep(
          spec.footprint_beats,
          std::max<std::uint64_t>(1, spec.ops / spec.footprint_beats));
    case WorkloadMix::kPointerChase:
      return workload::DemandStream::replay(workload::make_pointer_chase(
          spec.footprint_beats, spec.ops, seed));
    case WorkloadMix::kUniform:
      break;
  }
  return workload::DemandStream::replay(workload::make_uniform_random(
      spec.footprint_beats, spec.ops, spec.write_fraction, seed));
}

}  // namespace

RequestPlane::RequestPlane(PlaneConfig config) : config_(std::move(config)) {
  HBMVOLT_REQUIRE(!config_.tenants.empty(), "request plane needs tenants");
  tenants_.resize(config_.tenants.size());
  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    TenantSpec& spec = config_.tenants[t];
    HBMVOLT_REQUIRE(spec.footprint_beats > 0 && spec.ops > 0,
                    "tenant needs a footprint and demand");
    HBMVOLT_REQUIRE(spec.quota_per_epoch > 0, "tenant needs a quota");
    // Generators may round the demand (whole streaming passes, the
    // pointer-chase write pass); the spec keeps the realized size.
    tenants_[t].demand =
        make_demand(spec, stream_seed(config_.seed, kTraceSalt, t));
    spec.ops = tenants_[t].demand.size();
  }
}

void RequestPlane::bind(const runtime::ServingFleet& fleet) {
  const std::size_t slots = fleet.channels();
  HBMVOLT_REQUIRE(slots > 0, "request plane needs serving slots");
  capacity_ = fleet.channel(0).capacity();
  for (std::size_t i = 1; i < slots; ++i) {
    capacity_ = std::min(capacity_, fleet.channel(i).capacity());
  }
  HBMVOLT_REQUIRE(capacity_ > 0, "request plane needs slot capacity");
  chunk_ = std::clamp<std::uint64_t>(config_.chunk_beats, 1, capacity_);
  slots_.assign(slots, SlotState{});
  for (SlotState& slot : slots_) {
    slot.retry_tokens.assign(tenants_.size(), 0);
    slot.scratch.assign(tenants_.size(), TenantStats{});
    slot.latency.assign(tenants_.size(), telemetry::HdrHistogram{});
  }
  bound_ = true;
}

unsigned RequestPlane::compute_brownout(
    const runtime::ServingFleet& fleet) const {
  bool any_lost = false;
  std::uint64_t parked = 0;
  for (std::size_t i = 0; i < fleet.channels(); ++i) {
    const runtime::ReliableChannel& ch = fleet.channel(i);
    any_lost = any_lost || ch.device_lost();
    parked += ch.parked_count();
  }
  const bool striped = fleet.scheme() == mitigate::MitigationKind::kStripe;
  bool redundancy_gone = false;
  if (striped) {
    // A doubly-degraded group (or a loss with the spare pool dry) cannot
    // reconstruct: the fleet is down to journal serving for those beats.
    const unsigned width = std::max(1u, fleet.config().stripe_width);
    for (std::size_t g = 0; g < fleet.groups(); ++g) {
      unsigned lost = fleet.parity_channel(g).device_lost() ? 1u : 0u;
      const std::size_t begin = g * width;
      const std::size_t end =
          std::min<std::size_t>(begin + width, fleet.channels());
      for (std::size_t s = begin; s < end; ++s) {
        if (fleet.channel(s).device_lost()) ++lost;
      }
      if (lost >= 2) redundancy_gone = true;
    }
    if (any_lost && fleet.spares_left() == 0) redundancy_gone = true;
  } else {
    // No cross-PC redundancy: a lost device is already journal-only.
    redundancy_gone = any_lost;
  }
  if (redundancy_gone) return 2;
  if (any_lost || parked > 0) return 1;
  return 0;
}

void RequestPlane::begin_epoch(const runtime::ServingFleet& fleet,
                               std::uint64_t epoch) {
  if (!bound_) bind(fleet);
  brownout_ = compute_brownout(fleet);
  telemetry::Telemetry* tel = telemetry::Telemetry::active();

  // 1) Queue aging: anything admitted more than queue_deadline_epochs ago
  // has blown its queueing deadline -- shed it rather than serve a result
  // nobody is waiting for.  A request a worker already started (and
  // parked) resumes instead.
  for (SlotState& slot : slots_) {
    const auto aged = [&](const Queued& q) {
      const TenantSpec& spec = config_.tenants[q.req.tenant];
      if (q.born + spec.queue_deadline_epochs >= epoch) return false;
      tenants_[q.req.tenant].stats.shed_queue += q.req.count;
      epoch_shed_ += q.req.count;
      if (tel != nullptr) tel->count("serve.shed.queue", q.req.count);
      return true;
    };
    const auto from = slot.queue.begin() + (slot.front_started ? 1 : 0);
    slot.queue.erase(std::remove_if(from, slot.queue.end(), aged),
                     slot.queue.end());
  }

  // 2) Admission, tenant index order: refill the token bucket, poll the
  // chaos surge, and admit up to the bucket.  Shed demand (admission,
  // brownout) consumes trace records permanently -- the plane never
  // queues more than the bucket allows.
  struct Candidate {
    std::size_t slot = 0;
    Queued q;
  };
  std::vector<Candidate> cands;
  const std::uint64_t chunks_per_slot = std::max<std::uint64_t>(
      1, capacity_ / chunk_);
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    TenantState& ts = tenants_[t];
    const TenantSpec& spec = config_.tenants[t];
    ts.tokens = std::min(spec.burst_tokens, ts.tokens + spec.quota_per_epoch);
    if (ts.cursor >= ts.demand.size()) continue;
    std::uint64_t mult = 1;
    if (config_.chaos != nullptr) {
      mult = config_.chaos->surge_tick(t, epoch);
      if (mult > 1) {
        ++ts.stats.surges;
        if (tel != nullptr) tel->count("serve.surge");
      }
    }
    const std::uint64_t offer = std::min<std::uint64_t>(
        spec.quota_per_epoch * mult, ts.demand.size() - ts.cursor);
    ts.stats.demand += offer;
    if (brownout_ >= 2 && spec.qos == QosClass::kBestEffort) {
      ts.stats.shed_brownout += offer;
      epoch_shed_ += offer;
      if (tel != nullptr) tel->count("serve.shed.brownout", offer);
      ts.cursor += offer;
      continue;
    }
    const std::uint64_t admit = std::min(offer, ts.tokens);
    ts.tokens -= admit;
    ts.stats.admitted += admit;
    epoch_admitted_ += admit;
    if (admit < offer) {
      ts.stats.shed_admission += offer - admit;
      epoch_shed_ += offer - admit;
      if (tel != nullptr) tel->count("serve.shed.admission", offer - admit);
    }
    if (tel != nullptr && admit > 0) tel->count("serve.admitted", admit);

    // Place the admitted window: take each run of consecutive same-
    // direction beats from the demand stream, trim it at the chunk
    // boundary, then hash (tenant, chunk) to a slot and a chunk-aligned
    // base so a tenant's chunk always lands on one home.  No run inside a
    // chunk exceeds chunk_ records, which bounds the trace-backed scan.
    const std::uint64_t end = ts.cursor + admit;
    std::uint64_t i = ts.cursor;
    while (i < end) {
      const workload::DemandRun first =
          ts.demand.run(i, std::min(end - i, chunk_));
      const std::uint64_t chunk = first.beat / chunk_;
      const std::uint64_t run =
          std::min(first.count, chunk_ - first.beat % chunk_);
      const std::uint64_t key = (static_cast<std::uint64_t>(t) << 32) | chunk;
      runtime::PlacedRequest req;
      req.tenant = static_cast<std::uint32_t>(t);
      req.write = first.write;
      req.stale_ok = spec.qos == QosClass::kBestEffort && brownout_ >= 1;
      req.hedge = spec.qos == QosClass::kGuaranteed;
      req.logical = (stream_seed(config_.seed, kChunkSalt, key) %
                     chunks_per_slot) *
                        chunk_ +
                    first.beat % chunk_;
      req.count = static_cast<std::uint32_t>(run);
      req.payload = (static_cast<std::uint64_t>(t) << 40) | req.logical;
      req.deadline_attempts = std::min<unsigned>(spec.deadline_attempts,
                                                 kMaxAttempts);
      Candidate cand;
      cand.slot = static_cast<std::size_t>(
          stream_seed(config_.seed, kSlotSalt, key) % slots_.size());
      cand.q = Queued{req, epoch};
      cands.push_back(std::move(cand));
      i += run;
    }
    ts.cursor += offer;  // the shed tail is consumed, not deferred
  }

  // 3) Hot-shard detection over this epoch's placements plus the carried
  // backlog.  A slot far above the mean is a skew artifact (zipfian hot
  // chunks piling onto one home); best-effort traffic backs off it.
  std::vector<std::uint64_t> load(slots_.size(), 0);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    for (const Queued& q : slots_[s].queue) load[s] += q.req.count;
  }
  for (const Candidate& c : cands) load[c.slot] += c.q.req.count;
  std::uint64_t total = 0;
  for (std::uint64_t v : load) total += v;
  const double mean =
      static_cast<double>(total) / static_cast<double>(slots_.size());
  std::vector<char> hot(slots_.size(), 0);
  if (mean > 0.0) {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      hot[s] = static_cast<double>(load[s]) > config_.hot_shard_factor * mean &&
               load[s] > chunk_;
    }
  }

  // 4) Enqueue, placement order, under queue-depth backpressure.
  for (Candidate& c : cands) {
    TenantState& ts = tenants_[c.q.req.tenant];
    const TenantSpec& spec = config_.tenants[c.q.req.tenant];
    SlotState& slot = slots_[c.slot];
    if (hot[c.slot] != 0 && spec.qos == QosClass::kBestEffort) {
      ts.stats.shed_hot_shard += c.q.req.count;
      epoch_shed_ += c.q.req.count;
      if (tel != nullptr) tel->count("serve.shed.hot_shard", c.q.req.count);
      continue;
    }
    if (slot.queue.size() >= config_.max_queue_per_slot) {
      ts.stats.shed_queue += c.q.req.count;
      epoch_shed_ += c.q.req.count;
      if (tel != nullptr) tel->count("serve.shed.queue", c.q.req.count);
      continue;
    }
    slot.queue.push_back(std::move(c.q));
  }

  // 5) Per-(slot, tenant) retry slices for this epoch, sized from the
  // beats actually queued there: a storm can burn at most this fraction
  // in extra escalation rounds before workers stop retrying.
  for (SlotState& slot : slots_) {
    std::fill(slot.retry_tokens.begin(), slot.retry_tokens.end(), 0);
    for (const Queued& q : slot.queue) {
      slot.retry_tokens[q.req.tenant] += q.req.count;
    }
    for (std::uint64_t& tokens : slot.retry_tokens) {
      if (tokens == 0) continue;
      const auto slice = static_cast<std::uint64_t>(
          static_cast<double>(tokens) * config_.retry_budget_fraction);
      tokens = std::max<std::uint64_t>(2, slice + 1);
    }
  }
}

const runtime::PlacedRequest* RequestPlane::front(std::size_t slot) {
  SlotState& state = slots_[slot];
  if (state.queue.empty()) return nullptr;
  state.front_started = true;
  return &state.queue.front().req;
}

void RequestPlane::complete(std::size_t slot,
                            const runtime::PlacedRequest& request,
                            runtime::ServeOutcome outcome, unsigned attempts,
                            std::uint64_t model_ns) {
  SlotState& state = slots_[slot];
  HBMVOLT_REQUIRE(!state.queue.empty(), "complete() without a queued request");
  state.queue.pop_front();
  state.front_started = false;
  TenantStats& s = state.scratch[request.tenant];
  s.retries += attempts;
  if (attempts > request.deadline_attempts) ++s.deadline_hits;
  switch (outcome) {
    case runtime::ServeOutcome::kServed:
      (request.write ? s.served_writes : s.served_reads) += request.count;
      break;
    case runtime::ServeOutcome::kHedged:
      s.hedged += request.count;
      break;
    case runtime::ServeOutcome::kStale:
      s.stale_served += request.count;
      break;
    case runtime::ServeOutcome::kShed:
      s.shed_deadline += request.count;
      return;  // a shed request has no service latency
  }
  state.latency[request.tenant].record(model_ns);
}

bool RequestPlane::spend_retry(std::size_t slot, std::uint32_t tenant) {
  std::uint64_t& tokens = slots_[slot].retry_tokens[tenant];
  if (tokens == 0) return false;
  --tokens;
  return true;
}

void RequestPlane::end_epoch(telemetry::EpochSample* sample) {
  telemetry::Telemetry* tel = telemetry::Telemetry::active();
  telemetry::HdrFamily* family = nullptr;
  if (tel != nullptr) {
    family = &tel->metrics().hdr_family("serve.tenant_latency", "tenant",
                                        tenants_.size());
  }
  std::uint64_t admitted = epoch_admitted_;
  std::uint64_t shed = epoch_shed_;
  // Fold slot scratch in slot order -- the only place worker-side counts
  // meet the per-tenant totals, so the fold order is fixed regardless of
  // which thread served which slot.
  for (SlotState& slot : slots_) {
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      TenantStats& delta = slot.scratch[t];
      shed += delta.shed_deadline;
      if (tel != nullptr) {
        if (delta.hedged > 0) tel->count("serve.hedged", delta.hedged);
        if (delta.stale_served > 0) {
          tel->count("serve.stale", delta.stale_served);
        }
        if (delta.shed_deadline > 0) {
          tel->count("serve.shed.deadline", delta.shed_deadline);
        }
      }
      TenantStats& total = tenants_[t].stats;
      total.served_reads += delta.served_reads;
      total.served_writes += delta.served_writes;
      total.hedged += delta.hedged;
      total.stale_served += delta.stale_served;
      total.shed_deadline += delta.shed_deadline;
      total.retries += delta.retries;
      total.deadline_hits += delta.deadline_hits;
      delta = TenantStats{};
      telemetry::HdrHistogram& local = slot.latency[t];
      if (local.count() > 0) {
        tenants_[t].latency.merge(local);
        if (family != nullptr) family->merge_into(t, local);
        local.clear();
      }
    }
  }
  if (sample != nullptr) {
    sample->admitted = admitted;
    sample->shed = shed;
  }
  epoch_admitted_ = 0;
  epoch_shed_ = 0;
}

bool RequestPlane::exhausted() const {
  for (const TenantState& ts : tenants_) {
    if (ts.cursor < ts.demand.size()) return false;
  }
  for (const SlotState& slot : slots_) {
    if (!slot.queue.empty()) return false;
  }
  return true;
}

std::uint64_t RequestPlane::epochs_remaining_bound() const {
  // Every epoch consumes at least min(quota, remaining) records per
  // tenant (admitted or shed), and queued leftovers age out after
  // queue_deadline_epochs -- so the sum below is a true upper bound.
  std::uint64_t bound = 64;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantState& ts = tenants_[t];
    const TenantSpec& spec = config_.tenants[t];
    const std::uint64_t left =
        ts.demand.size() - std::min(ts.cursor, ts.demand.size());
    const std::uint64_t quota = std::max<std::uint64_t>(1, spec.quota_per_epoch);
    bound += (left + quota - 1) / quota + spec.queue_deadline_epochs + 2;
  }
  return bound;
}

bool RequestPlane::slo_met(std::size_t tenant) const {
  return tenants_[tenant].latency.quantiles().p99 <=
         config_.tenants[tenant].slo_model_ns;
}

void RequestPlane::fill_health(runtime::HealthRegistry* health) const {
  if (health == nullptr) return;
  std::vector<runtime::TenantHealth> rows;
  rows.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantSpec& spec = config_.tenants[t];
    const TenantStats& s = tenants_[t].stats;
    const telemetry::HdrHistogram::Quantiles q =
        tenants_[t].latency.quantiles();
    runtime::TenantHealth row;
    row.name = spec.name;
    row.qos = to_string(spec.qos);
    row.mix = to_string(spec.mix);
    row.demand = s.demand;
    row.admitted = s.admitted;
    row.served = s.served_reads + s.served_writes;
    row.hedged = s.hedged;
    row.stale = s.stale_served;
    row.shed = s.shed_total();
    row.shed_deadline = s.shed_deadline;
    row.retries = s.retries;
    row.surges = s.surges;
    row.p50_model_ns = q.p50;
    row.p99_model_ns = q.p99;
    row.slo_model_ns = spec.slo_model_ns;
    row.slo_ok = q.p99 <= spec.slo_model_ns;
    rows.push_back(std::move(row));
  }
  health->set_tenants(std::move(rows));
}

std::uint64_t RequestPlane::fingerprint() const {
  std::uint64_t fp = mix_seed(config_.seed, kFingerprintSalt);
  for (const TenantState& ts : tenants_) {
    const TenantStats& s = ts.stats;
    const std::uint64_t fields[] = {
        s.demand,         s.admitted,       s.served_reads, s.served_writes,
        s.hedged,         s.stale_served,   s.shed_admission,
        s.shed_brownout,  s.shed_hot_shard, s.shed_queue,   s.shed_deadline,
        s.retries,        s.deadline_hits,  s.surges,       ts.latency.count(),
        ts.latency.sum(), ts.latency.max()};
    for (std::uint64_t v : fields) fp = mix_seed(fp, v);
  }
  return fp;
}

std::string RequestPlane::to_json() const {
  using telemetry::json_quoted;
  std::string out = "{\"tenants\":[\n";
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantSpec& spec = config_.tenants[t];
    const TenantStats& s = tenants_[t].stats;
    const telemetry::HdrHistogram::Quantiles q =
        tenants_[t].latency.quantiles();
    if (t > 0) out += ",\n";
    out += "{\"name\":" + json_quoted(spec.name) +
           ",\"qos\":" + json_quoted(to_string(spec.qos)) +
           ",\"mix\":" + json_quoted(to_string(spec.mix)) +
           ",\"demand\":" + std::to_string(s.demand) +
           ",\"admitted\":" + std::to_string(s.admitted) +
           ",\"served_reads\":" + std::to_string(s.served_reads) +
           ",\"served_writes\":" + std::to_string(s.served_writes) +
           ",\"hedged\":" + std::to_string(s.hedged) +
           ",\"stale_served\":" + std::to_string(s.stale_served) +
           ",\"shed_admission\":" + std::to_string(s.shed_admission) +
           ",\"shed_brownout\":" + std::to_string(s.shed_brownout) +
           ",\"shed_hot_shard\":" + std::to_string(s.shed_hot_shard) +
           ",\"shed_queue\":" + std::to_string(s.shed_queue) +
           ",\"shed_deadline\":" + std::to_string(s.shed_deadline) +
           ",\"retries\":" + std::to_string(s.retries) +
           ",\"deadline_hits\":" + std::to_string(s.deadline_hits) +
           ",\"surges\":" + std::to_string(s.surges) +
           ",\"p50_model_ns\":" + std::to_string(q.p50) +
           ",\"p99_model_ns\":" + std::to_string(q.p99) +
           ",\"p999_model_ns\":" + std::to_string(q.p999) +
           ",\"slo_model_ns\":" + std::to_string(spec.slo_model_ns) +
           ",\"slo_ok\":" + (slo_met(t) ? "true" : "false") + "}";
  }
  out += "\n],\"fingerprint\":" + std::to_string(fingerprint()) + "}\n";
  return out;
}

}  // namespace hbmvolt::serve
