// Workloads `serve_stream` and `serve_tenants_storm`: a ServingFleet over
// all 32 pseudo-channels at 950 mV.
//
//  * serve_stream: bare fleet, SECDED, streaming_passes (one write sweep,
//    then read sweeps), kStreamSessions back-to-back fleets on one board.
//    No chaos, no plane, and never a storm_hook -- setting one pins the
//    fleet loop to per-op granularity.
//  * serve_tenants_storm: RequestPlane with 8 tenants over a stripe fleet,
//    chaos on (bit rot and whole-PC kills).  Sized so no beat is shed:
//    every shed counts as a failed operation.
//
// Set-up (timed as setup_s) builds the board, forces each PC's lazy fault
// overlay with one read_beat (timed per PC), generates the tenants, and
// constructs the fleets.  The timed calls are ServingFleet::run.  Untraced
// repetitions add one clock read per epoch in epoch_hook; traced ones
// install telemetry and, for the storm, wrap the plane and the storm hook
// in timing decorators that forward every call unchanged.

#include <optional>

#include "bench.hpp"
#include "chaos/chaos.hpp"
#include "runtime/fleet.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using namespace hbmvolt;

// serve_stream: back-to-back fleet sessions per repetition.
constexpr unsigned kStreamSessions = 16;

// serve_tenants_storm sizing: ~2000 epochs of 8 x 512 beats of demand.
constexpr unsigned kTenants = 8;
constexpr std::uint64_t kBeatsPerTenant = 1 << 20;
constexpr std::uint64_t kTenantFootprint = 2048;
constexpr std::uint64_t kTenantQuota = 512;
constexpr std::uint64_t kStormOpsPerEpoch = 2048;
// Six members plus parity per stripe group: 4 groups (one per worker) and
// 4 spare PCs, so whole-PC kills are rebuilt online without exhausting
// redundancy.
constexpr unsigned kStripeWidth = 6;
// Tenants wait out a fleet-wide voltage raise (the barrier parks every
// worker for an epoch) rather than have queued requests aged out.
constexpr std::uint64_t kQueueDeadlineEpochs = 64;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Per-slot (or per-PC) accumulator owned by one worker at a time: the
/// fleet hands each slot to exactly one worker per epoch, so no two
/// threads ever touch one entry between barriers.
struct alignas(64) WorkerTimes {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t requests = 0;
  std::uint64_t retry_granted = 0;
  std::uint64_t retry_denied = 0;
};

/// RequestSource decorator for the traced storm: forwards every call to
/// the plane unchanged and times the serial hooks per epoch and the
/// worker hooks per slot.
class TimedSource final : public runtime::RequestSource {
 public:
  explicit TimedSource(serve::RequestPlane& inner) : inner_(inner) {}

  void begin_epoch(const runtime::ServingFleet& fleet,
                   std::uint64_t epoch) override {
    if (slots_.size() < fleet.channels()) slots_.resize(fleet.channels());
    const Clock::time_point t0 = Clock::now();
    inner_.begin_epoch(fleet, epoch);
    fanout_start_ = Clock::now();
    begin_ms.push_back(ms_between(t0, fanout_start_));
  }
  const runtime::PlacedRequest* front(std::size_t slot) override {
    const Clock::time_point t0 = Clock::now();
    const runtime::PlacedRequest* request = inner_.front(slot);
    slots_[slot].ns += ns_between(t0, Clock::now());
    return request;
  }
  void complete(std::size_t slot, const runtime::PlacedRequest& request,
                runtime::ServeOutcome outcome, unsigned attempts,
                std::uint64_t model_ns) override {
    const Clock::time_point t0 = Clock::now();
    inner_.complete(slot, request, outcome, attempts, model_ns);
    slots_[slot].ns += ns_between(t0, Clock::now());
    ++slots_[slot].requests;
  }
  bool spend_retry(std::size_t slot, std::uint32_t tenant) override {
    const Clock::time_point t0 = Clock::now();
    const bool granted = inner_.spend_retry(slot, tenant);
    slots_[slot].ns += ns_between(t0, Clock::now());
    ++(granted ? slots_[slot].retry_granted : slots_[slot].retry_denied);
    return granted;
  }
  void end_epoch(telemetry::EpochSample* sample) override {
    end_start_ = Clock::now();
    fanout_ms.push_back(ms_between(fanout_start_, end_start_));
    inner_.end_epoch(sample);
  }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override {
    return inner_.epochs_remaining_bound();
  }
  void fill_health(runtime::HealthRegistry* health) const override {
    inner_.fill_health(health);
    end_ms.push_back(ms_between(end_start_, Clock::now()));
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    return inner_.fingerprint();
  }

  [[nodiscard]] WorkerTimes totals() const {
    WorkerTimes sum;
    for (const WorkerTimes& s : slots_) {
      sum.ns += s.ns;
      sum.requests += s.requests;
      sum.retry_granted += s.retry_granted;
      sum.retry_denied += s.retry_denied;
    }
    return sum;
  }

  std::vector<double> begin_ms;
  std::vector<double> fanout_ms;
  mutable std::vector<double> end_ms;  // end_epoch + fill_health

 private:
  serve::RequestPlane& inner_;
  std::vector<WorkerTimes> slots_;
  Clock::time_point fanout_start_;
  Clock::time_point end_start_;
};

struct EpochLog {
  Clock::time_point last;
  std::uint64_t served_prev = 0;  // cumulative channel beats, this session
  std::vector<double> ms;
  std::vector<int> voltage_mv;
  std::vector<std::uint64_t> served;  // channel beats served per epoch
};

std::uint64_t served_beats(const runtime::HealthRegistry& health) {
  std::uint64_t sum = 0;
  for (const runtime::PcHealth& pc : health.pcs()) sum += pc.reads + pc.writes;
  return sum;
}

/// Rail energy per served beat: each epoch's beats priced at that epoch's
/// supply.
double weighted_pj_per_beat(const board::Vcu128Board& board,
                            const EpochLog& log) {
  double pj = 0.0;
  double beats = 0.0;
  for (std::size_t e = 0; e < log.served.size(); ++e) {
    const double n = static_cast<double>(log.served[e]);
    pj += n * model_pj_per_beat(board, Millivolts{log.voltage_mv[e]});
    beats += n;
  }
  return beats > 0.0 ? pj / beats : 0.0;
}

void fold_channel_stats(const runtime::ServingFleet& fleet,
                        runtime::ChannelStats& sum) {
  const auto fold = [&sum](const runtime::ChannelStats& s) {
    sum.corrected_words += s.corrected_words;
    sum.uncorrectable_blocked += s.uncorrectable_blocked;
    sum.scrub_beats += s.scrub_beats;
    sum.scrub_blocks_skipped += s.scrub_blocks_skipped;
    sum.rows_retired += s.rows_retired;
    sum.journal_served_reads += s.journal_served_reads;
    sum.reconstructed_reads += s.reconstructed_reads;
    sum.rebuilt_beats += s.rebuilt_beats;
  };
  for (std::size_t i = 0; i < fleet.channels(); ++i) {
    fold(fleet.channel(i).stats());
  }
  for (std::size_t g = 0; g < fleet.groups(); ++g) {
    fold(fleet.parity_channel(g).stats());
  }
}

void add_channel_layers(const runtime::ChannelStats& sum,
                        std::map<std::string, double>& layers) {
  const double scrubbed_blocks =
      static_cast<double>(sum.scrub_beats) /
      static_cast<double>(runtime::ReliableChannel::kScrubBlockBeats);
  const double skipped = static_cast<double>(sum.scrub_blocks_skipped);
  layers["runtime.scrub_skip_frac"] =
      skipped + scrubbed_blocks > 0.0 ? skipped / (skipped + scrubbed_blocks)
                                      : 0.0;
  layers["runtime.journal_served_reads"] =
      static_cast<double>(sum.journal_served_reads);
  layers["runtime.reconstructed_reads"] =
      static_cast<double>(sum.reconstructed_reads);
  layers["runtime.rebuilt_beats"] = static_cast<double>(sum.rebuilt_beats);
  layers["runtime.rows_retired"] = static_cast<double>(sum.rows_retired);
  layers["ecc.corrected_words"] = static_cast<double>(sum.corrected_words);
  layers["ecc.uncorrectable_blocked"] =
      static_cast<double>(sum.uncorrectable_blocked);
}

void add_telemetry_layers(const telemetry::Telemetry& tel,
                          std::map<std::string, double>& layers) {
  for (const auto& family : tel.metrics().hdr_family_values()) {
    const char* prefix = family.name == "latency.read"    ? "runtime.read_ns"
                         : family.name == "latency.write" ? "runtime.write_ns"
                                                          : nullptr;
    if (prefix == nullptr) continue;
    layers[std::string(prefix) + "_p50"] =
        static_cast<double>(family.merged.q.p50);
    layers[std::string(prefix) + "_p99"] =
        static_cast<double>(family.merged.q.p99);
  }
  for (const auto& [name, value] : tel.metrics().counter_values()) {
    if (name.rfind("serve.", 0) == 0) {
      layers[name] = static_cast<double>(value);
    }
  }
}

enum class Shape { kStream, kStorm };

Rep run_serving(const Inputs& in, bool traced, Shape shape) {
  Rep rep;
  const bool storm = shape == Shape::kStorm;

  board::Vcu128Board board(board_config(in));
  if (const Status s = board.set_hbm_voltage(kServeVoltage); !s.is_ok()) {
    rep.violations.push_back("set_hbm_voltage: " + s.to_string());
    return rep;
  }

  // Force every PC's lazy overlay build, one timed read each.
  std::vector<double> overlay_ms;
  const unsigned per_stack = board.geometry().pcs_per_stack();
  for (unsigned pc = 0; pc < board.geometry().total_pcs(); ++pc) {
    const Clock::time_point t0 = Clock::now();
    auto beat = board.stack(pc / per_stack).read_beat(pc % per_stack, 0);
    overlay_ms.push_back(ms_between(t0, Clock::now()));
    if (!beat.is_ok()) {
      rep.violations.push_back("overlay read: " + beat.status().to_string());
      return rep;
    }
  }

  std::optional<chaos::ChaosInjector> injector;
  std::optional<serve::RequestPlane> plane;
  std::optional<TimedSource> timed_source;
  double tenant_gen_ms = 0.0;
  if (storm) {
    // Per (PC, op tick), over ~6.3M ticks a run: ~630 bit-rot events and
    // ~0.6 whole-PC kills (more kills land a second loss in a group that is
    // still rebuilding, which browns out and sheds best-effort tenants).  Left out: tenant surges (the token bucket
    // refills exactly the nominal offer, so a surge always sheds at
    // admission) and weak-cell bursts (each rebuilds a PC overlay mid-run,
    // ~0.17 s CPU and ~12 MB, so a Poisson burst count swings the run's
    // cost by 10-20% from seed to seed).
    chaos::ChaosConfig chaos_config;
    chaos_config.seed = in.chaos_seed;
    chaos_config.bit_rot_rate = 1e-4;
    chaos_config.pc_kill_rate = 1e-7;
    injector.emplace(board, chaos_config);

    const Clock::time_point t0 = Clock::now();
    serve::PlaneConfig plane_config;
    plane_config.tenants = serve::make_tenant_set(
        kTenants,
        {serve::WorkloadMix::kZipfian, serve::WorkloadMix::kStreaming,
         serve::WorkloadMix::kPointerChase, serve::WorkloadMix::kUniform},
        kBeatsPerTenant, kTenantFootprint, kTenantQuota);
    for (serve::TenantSpec& spec : plane_config.tenants) {
      spec.queue_deadline_epochs = kQueueDeadlineEpochs;
    }
    plane_config.seed = in.plane_seed;
    // Headroom for the zipfian tenants' hot chunks: demand stays within
    // what the queues and hot-shard throttle accept.
    plane_config.max_queue_per_slot = 4096;
    plane_config.hot_shard_factor = 8.0;
    plane.emplace(std::move(plane_config));
    tenant_gen_ms = ms_between(t0, Clock::now());
  }

  // Traced-run instrumentation (storm hook timing, per PC).
  std::vector<WorkerTimes> tick_times(traced ? board.geometry().total_pcs()
                                             : 0);
  std::optional<telemetry::Telemetry> tel;
  if (traced) tel.emplace();
  EpochLog log;
  runtime::ChannelStats channel_sum;
  runtime::FleetReport total;
  double fleet_build_ms = 0.0;
  std::uint64_t fp = 0;
  std::uint64_t data_fp = 0;

  // The stream serves kStreamSessions back-to-back fleets on the same
  // board (a long-lived server's sessions); the storm is one fleet.
  const unsigned sessions = storm ? 1 : kStreamSessions;
  for (unsigned session = 0; session < sessions; ++session) {
    runtime::FleetConfig config;
    config.threads = in.workers;
    config.seed = in.fleet_seed + session;
    if (storm) {
      config.scheme = mitigate::MitigationKind::kStripe;
      config.stripe_width = kStripeWidth;
      config.rebuild_beats_per_epoch = 512;
      config.ops_per_epoch = kStormOpsPerEpoch;
      config.channel.spare_fraction = 0.25;
      if (traced) {
        timed_source.emplace(*plane);
        config.source = &*timed_source;
        config.storm_hook = [&injector, &tick_times](unsigned pc,
                                                     std::uint64_t tick) {
          const Clock::time_point t0 = Clock::now();
          const bool fired = injector->storm_tick(pc, tick);
          tick_times[pc].ns += ns_between(t0, Clock::now());
          ++tick_times[pc].calls;
          return fired;
        };
      } else {
        config.source = &*plane;
        config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
          return injector->storm_tick(pc, tick);
        };
      }
    } else {
      config.scheme = mitigate::MitigationKind::kSecded;
      config.streaming_passes = kStreamPasses;
      config.ops_per_epoch = kStreamOpsPerEpoch;
    }
    config.epoch_hook = [&log](const runtime::EpochStatus& status) {
      const Clock::time_point now = Clock::now();
      log.ms.push_back(ms_between(log.last, now));
      log.last = now;
      const std::uint64_t served = served_beats(*status.health);
      log.voltage_mv.push_back(status.voltage.value);
      log.served.push_back(served - log.served_prev);
      log.served_prev = served;
    };

    const Clock::time_point f0 = Clock::now();
    runtime::ServingFleet fleet(board, std::move(config));
    fleet_build_ms += ms_between(f0, Clock::now());

    std::optional<telemetry::ScopedTelemetry> scoped;
    if (traced) scoped.emplace(*tel);
    const double c0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    log.last = t0;
    log.served_prev = 0;
    auto result = fleet.run();
    const Clock::time_point t1 = Clock::now();
    const double c1 = process_cpu_s();
    scoped.reset();
    rep.run_s += seconds_between(t0, t1);
    rep.run_cpu_s += c1 - c0;

    if (!result.is_ok()) {
      rep.violations.push_back("fleet run failed: " +
                               result.status().to_string());
      return rep;
    }
    const runtime::FleetReport& report = result.value();
    if (report.corrupt_reads != 0) {
      rep.violations.push_back(std::to_string(report.corrupt_reads) +
                               " corrupt reads");
    }
    if (report.halted) rep.violations.push_back("fleet halted");
    total.ops += report.ops;
    total.corrupt_reads += report.corrupt_reads;
    total.escalated_reads += report.escalated_reads;
    total.epochs += report.epochs;
    total.raises += report.raises;
    total.final_voltage = report.final_voltage;
    total.tenant_fingerprint = report.tenant_fingerprint;
    fp = mix_seed(fp, report.fingerprint);
    data_fp = mix_seed(data_fp, report.data_fingerprint);
    if (traced) fold_channel_stats(fleet, channel_sum);
  }
  rep.setup_s =
      seconds_between(in.setup_start, Clock::now()) - rep.run_s;

  const runtime::FleetReport& report = total;
  rep.beats = report.ops;
  rep.epoch_ms = log.ms;
  rep.attempted = report.ops;
  rep.failed = report.corrupt_reads;
  rep.fingerprints = {{"fleet", fp},
                      {"data", data_fp},
                      {"tenant", report.tenant_fingerprint}};
  rep.simulated = {
      {"pj_per_beat", weighted_pj_per_beat(board, log)},
      {"final_voltage_mv", static_cast<double>(report.final_voltage.value)},
      {"epochs", static_cast<double>(report.epochs)},
  };

  double shed_frac = 0.0;
  double guaranteed_p99_us = 0.0;
  if (storm) {
    std::uint64_t demand = 0;
    std::uint64_t shed = 0;
    std::uint64_t worst_p99 = 0;
    for (std::size_t t = 0; t < plane->tenant_count(); ++t) {
      const serve::TenantStats& stats = plane->stats(t);
      demand += stats.demand;
      shed += stats.shed_total();
      if (plane->spec(t).qos == serve::QosClass::kGuaranteed) {
        worst_p99 = std::max(worst_p99, plane->latency(t).quantiles().p99);
      }
    }
    shed_frac = demand > 0 ? static_cast<double>(shed) /
                                 static_cast<double>(demand)
                           : 0.0;
    guaranteed_p99_us = static_cast<double>(worst_p99) / 1e3;
    rep.attempted = demand;
    rep.failed = shed + report.corrupt_reads;
    rep.simulated.emplace_back("shed_frac", shed_frac);
    rep.simulated.emplace_back("guaranteed_p99_model_us", guaranteed_p99_us);
  }

  if (!traced) return rep;

  std::map<std::string, double>& layers = rep.layers;
  layers["faults.overlay_build_ms"] = 0.0;
  for (const double ms : overlay_ms) layers["faults.overlay_build_ms"] += ms;
  layers["faults.overlay_build_ms_max"] =
      *std::max_element(overlay_ms.begin(), overlay_ms.end());
  layers["runtime.fleet_build_ms"] = fleet_build_ms;
  layers["workload.tenant_gen_ms"] = tenant_gen_ms;
  layers["runtime.escalated_reads"] =
      static_cast<double>(report.escalated_reads);
  layers["runtime.fleet.raise"] = static_cast<double>(report.raises);
  add_channel_layers(channel_sum, layers);
  add_telemetry_layers(*tel, layers);
  if (storm) {
    layers["serve.shed_frac"] = shed_frac;
    layers["serve.guaranteed_p99_model_us"] = guaranteed_p99_us;
    const TimedSource& ts = *timed_source;
    layers["serve.begin_epoch_ms_p50"] = median(ts.begin_ms);
    layers["serve.end_epoch_ms_p50"] = median(ts.end_ms);
    layers["runtime.fanout_ms_p50"] = median(ts.fanout_ms);
    std::vector<double> barrier_ms;
    for (std::size_t e = 0; e < log.ms.size() && e < ts.fanout_ms.size();
         ++e) {
      barrier_ms.push_back(log.ms[e] - ts.fanout_ms[e]);
    }
    layers["runtime.barrier_ms_p50"] = median(barrier_ms);
    const WorkerTimes worker = ts.totals();
    layers["serve.worker_ns_per_request"] =
        worker.requests > 0 ? static_cast<double>(worker.ns) /
                                  static_cast<double>(worker.requests)
                            : 0.0;
    layers["serve.retry_granted"] = static_cast<double>(worker.retry_granted);
    layers["serve.retry_denied"] = static_cast<double>(worker.retry_denied);

    std::uint64_t tick_ns = 0;
    std::uint64_t ticks = 0;
    for (const WorkerTimes& t : tick_times) {
      tick_ns += t.ns;
      ticks += t.calls;
    }
    layers["chaos.storm_ticks"] = static_cast<double>(ticks);
    layers["chaos.storm_tick_ns"] =
        ticks > 0 ? static_cast<double>(tick_ns) / static_cast<double>(ticks)
                  : 0.0;
    const std::pair<const char*, chaos::FaultKind> kinds[] = {
        {"chaos.injected.bit_rot", chaos::FaultKind::kBitRot},
        {"chaos.injected.weak_cell_burst", chaos::FaultKind::kWeakCellBurst},
        {"chaos.injected.pc_kill", chaos::FaultKind::kPcKill},
        {"chaos.injected.tenant_surge", chaos::FaultKind::kTenantSurge},
    };
    for (const auto& [name, kind] : kinds) {
      layers[name] = static_cast<double>(injector->injected(kind));
    }
  }
  return rep;
}

}  // namespace

Rep run_serve_stream(const Inputs& in, bool traced) {
  return run_serving(in, traced, Shape::kStream);
}

Rep run_serve_tenants_storm(const Inputs& in, bool traced) {
  return run_serving(in, traced, Shape::kStorm);
}

}  // namespace perfbench
