// Multi-tenant request plane: admission control, deadlines, retry
// budgets, and brownout shedding over the ServingFleet.
//
// The headline claims pinned here:
//
//  * Accounting conservation: every beat of tenant demand ends up in
//    exactly one bucket (served / hedged / stale / shed.*) -- nothing is
//    silently dropped.
//  * Determinism: fleet and tenant fingerprints are byte-identical at
//    any thread count, chaos on or off.
//  * QoS under a whole-PC kill at 950 mV: guaranteed tenants keep their
//    model-latency SLO with zero corrupt reads (journal hedge), while
//    best-effort tenants show nonzero brownout shed.
//  * Retry budgets are a hard per-(slot, tenant) bound, so fault storms
//    cannot amplify retries.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "runtime/fleet.hpp"
#include "runtime/health.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"

namespace hbmvolt {
namespace {

using serve::PlaneConfig;
using serve::QosClass;
using serve::RequestPlane;
using serve::TenantSpec;
using serve::TenantStats;
using serve::WorkloadMix;

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

PlaneConfig plane_config(std::uint64_t seed) {
  PlaneConfig config;
  config.tenants = serve::make_tenant_set(
      4,
      {WorkloadMix::kZipfian, WorkloadMix::kStreaming,
       WorkloadMix::kPointerChase, WorkloadMix::kUniform},
      /*ops=*/1500, /*footprint_beats=*/256, /*quota_per_epoch=*/128);
  config.seed = seed;
  config.chunk_beats = 16;
  return config;
}

runtime::FleetConfig fleet_config(RequestPlane& plane, unsigned threads,
                                  std::uint64_t seed) {
  runtime::FleetConfig config;
  config.scheme = mitigate::MitigationKind::kSecded;
  config.ops_per_epoch = 64;
  config.seed = seed;
  config.threads = threads;
  config.source = &plane;
  return config;
}

// ---------------------------------------------------------------------------
// Tenant model
// ---------------------------------------------------------------------------

TEST(TenantTest, ParseQosAndMixNameAcceptedValues) {
  EXPECT_EQ(serve::parse_qos("guaranteed").value(), QosClass::kGuaranteed);
  EXPECT_EQ(serve::parse_qos("best_effort").value(), QosClass::kBestEffort);
  const auto bad_qos = serve::parse_qos("gold");
  ASSERT_FALSE(bad_qos.is_ok());
  EXPECT_NE(bad_qos.status().message().find("guaranteed"), std::string::npos);

  EXPECT_EQ(serve::parse_mix("zipfian").value(), WorkloadMix::kZipfian);
  EXPECT_EQ(serve::parse_mix("pointer_chase").value(),
            WorkloadMix::kPointerChase);
  const auto bad_mix = serve::parse_mix("random");
  ASSERT_FALSE(bad_mix.is_ok());
  EXPECT_NE(bad_mix.status().message().find("streaming"), std::string::npos);
}

TEST(TenantTest, MakeTenantSetAlternatesQosAndCyclesMixes) {
  const std::vector<TenantSpec> set = serve::make_tenant_set(
      4, {WorkloadMix::kZipfian, WorkloadMix::kUniform}, 1024, 128, 64);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set[0].qos, QosClass::kGuaranteed);
  EXPECT_EQ(set[1].qos, QosClass::kBestEffort);
  EXPECT_EQ(set[2].qos, QosClass::kGuaranteed);
  EXPECT_EQ(set[0].mix, WorkloadMix::kZipfian);
  EXPECT_EQ(set[1].mix, WorkloadMix::kUniform);
  EXPECT_EQ(set[2].mix, WorkloadMix::kZipfian);
  EXPECT_EQ(set[3].name, "t3");
  EXPECT_EQ(set[0].burst_tokens, 128u);
}

// ---------------------------------------------------------------------------
// Accounting conservation
// ---------------------------------------------------------------------------

TEST(RequestPlaneTest, ServesEveryMixToCompletionWithConservedAccounting) {
  board::Vcu128Board board(tiny_board());
  RequestPlane plane(plane_config(11));
  runtime::FleetConfig config = fleet_config(plane, 1, 11);
  config.pcs = {0, 1, 2, 3, 4, 5, 6, 7};
  runtime::ServingFleet fleet(board, config);

  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const runtime::FleetReport& report = result.value();

  EXPECT_EQ(report.corrupt_reads, 0u);
  EXPECT_TRUE(plane.exhausted());
  EXPECT_NE(report.tenant_fingerprint, 0u);
  EXPECT_NE(report.fingerprint, 0u);

  for (std::size_t t = 0; t < plane.tenant_count(); ++t) {
    const TenantStats& s = plane.stats(t);
    // The generators may round the demand; the spec records the realized
    // trace size, and by completion every record was offered exactly once.
    EXPECT_EQ(s.demand, plane.spec(t).ops) << "tenant " << t;
    // Demand splits into admitted + admission-time sheds...
    EXPECT_EQ(s.demand, s.admitted + s.shed_admission + s.shed_brownout)
        << "tenant " << t;
    // ...and every admitted beat lands in exactly one outcome bucket.
    EXPECT_EQ(s.admitted, s.served_reads + s.served_writes + s.hedged +
                              s.stale_served + s.shed_hot_shard +
                              s.shed_queue + s.shed_deadline)
        << "tenant " << t;
    EXPECT_GT(s.served_reads + s.served_writes, 0u) << "tenant " << t;
    EXPECT_GT(plane.latency(t).count(), 0u) << "tenant " << t;
  }

  // The source mode appends the shed-rate burn alert to the defaults.
  bool found = false;
  for (const telemetry::AlertRule& rule : fleet.alerts().rules()) {
    found = found || rule.name == "shed_burn";
  }
  EXPECT_TRUE(found) << "source mode must install the shed_burn rule";
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(RequestPlaneTest, FingerprintsInvariantAcrossThreadsAndChaos) {
  struct Run {
    std::uint64_t fleet_fp = 0;
    std::uint64_t tenant_fp = 0;
  };
  const auto run_once = [](unsigned threads, bool with_chaos) {
    board::Vcu128Board board(tiny_board());
    chaos::ChaosConfig chaos_config;
    chaos_config.seed = 404;
    if (with_chaos) {
      chaos_config.bit_rot_rate = 5e-4;
      chaos_config.pc_kill_rate = 2e-4;
      chaos_config.tenant_surge_rate = 0.05;
      chaos_config.surge_multiplier = 4;
    }
    chaos::ChaosInjector injector(board, chaos_config);
    PlaneConfig pc = plane_config(21);
    pc.chaos = &injector;
    RequestPlane plane(pc);
    runtime::FleetConfig config = fleet_config(plane, threads, 21);
    if (with_chaos) {
      config.storm_hook = [&injector](unsigned pc_global, std::uint64_t tick) {
        return injector.storm_tick(pc_global, tick);
      };
    }
    runtime::ServingFleet fleet(board, config);
    auto result = fleet.run();
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().corrupt_reads, 0u);
    return Run{result.value().fingerprint, result.value().tenant_fingerprint};
  };

  for (const bool with_chaos : {false, true}) {
    const Run serial = run_once(1, with_chaos);
    const Run parallel = run_once(4, with_chaos);
    EXPECT_EQ(serial.fleet_fp, parallel.fleet_fp)
        << "chaos=" << with_chaos << ": fleet fingerprint diverged";
    EXPECT_EQ(serial.tenant_fp, parallel.tenant_fp)
        << "chaos=" << with_chaos << ": tenant fingerprint diverged";
    EXPECT_NE(serial.tenant_fp, 0u);
  }
}

// ---------------------------------------------------------------------------
// Brownout QoS: whole-PC kill at 950 mV
// ---------------------------------------------------------------------------

TEST(RequestPlaneTest, KillAt950KeepsGuaranteedSloAndShedsBestEffort) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());

  PlaneConfig pc = plane_config(42);
  RequestPlane plane(pc);
  runtime::FleetConfig config = fleet_config(plane, 1, 42);
  config.pcs = {0, 1, 2, 3};
  // Kill global PC 0 from its own worker a few requests in -- the same
  // PC-local mutation discipline as ChaosInjector::storm_tick.
  config.storm_hook = [&board](unsigned pc_global, std::uint64_t tick) {
    if (pc_global == 0 && tick == 5) {
      const hbm::PcId id = hbm::PcId::from_global(board.geometry(), 0);
      board.stack(id.stack).kill_pc(id.index);
    }
    return false;
  };
  runtime::ServingFleet fleet(board, config);

  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const runtime::FleetReport& report = result.value();

  // The headline invariant survives the kill.
  EXPECT_EQ(report.corrupt_reads, 0u);
  // An unstriped device loss means no silicon redundancy: level 2.
  EXPECT_EQ(plane.brownout_level(), 2u);

  std::uint64_t guaranteed_hedged = 0;
  std::uint64_t best_effort_brownout_shed = 0;
  for (std::size_t t = 0; t < plane.tenant_count(); ++t) {
    const TenantStats& s = plane.stats(t);
    if (plane.spec(t).qos == QosClass::kGuaranteed) {
      guaranteed_hedged += s.hedged;
      // Guaranteed tenants are never brownout-shed and keep their SLO:
      // the journal hedge replaces the lost device's slow path.
      EXPECT_EQ(s.shed_brownout, 0u) << "tenant " << t;
      EXPECT_TRUE(plane.slo_met(t))
          << "tenant " << t << " p99 " << plane.latency(t).quantiles().p99
          << " over SLO " << plane.spec(t).slo_model_ns;
    } else {
      best_effort_brownout_shed += s.shed_brownout;
    }
  }
  EXPECT_GT(guaranteed_hedged, 0u)
      << "guaranteed traffic on the dead slot must hedge to the journal";
  EXPECT_GT(best_effort_brownout_shed, 0u)
      << "best-effort demand must shed during the level-2 brownout";
}

// ---------------------------------------------------------------------------
// Tenant-surge storms
// ---------------------------------------------------------------------------

TEST(RequestPlaneTest, TenantSurgeShedsExcessAtAdmission) {
  board::Vcu128Board board(tiny_board());
  chaos::ChaosConfig chaos_config;
  chaos_config.tenant_surge_rate = 1.0;  // every (tenant, epoch) surges
  chaos_config.surge_multiplier = 4;
  chaos::ChaosInjector injector(board, chaos_config);

  PlaneConfig pc = plane_config(7);
  for (TenantSpec& spec : pc.tenants) {
    spec.burst_tokens = spec.quota_per_epoch;  // no burst headroom
  }
  pc.chaos = &injector;
  RequestPlane plane(pc);
  runtime::FleetConfig config = fleet_config(plane, 1, 7);
  runtime::ServingFleet fleet(board, config);

  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().corrupt_reads, 0u);
  EXPECT_GT(injector.injected(chaos::FaultKind::kTenantSurge), 0u);

  for (std::size_t t = 0; t < plane.tenant_count(); ++t) {
    const TenantStats& s = plane.stats(t);
    EXPECT_GT(s.surges, 0u) << "tenant " << t;
    // A 4x surge against a bucket with no burst headroom must shed.
    EXPECT_GT(s.shed_admission, 0u) << "tenant " << t;
    EXPECT_EQ(s.demand, s.admitted + s.shed_admission + s.shed_brownout)
        << "tenant " << t;
  }
}

// ---------------------------------------------------------------------------
// Retry budgets
// ---------------------------------------------------------------------------

TEST(RequestPlaneTest, RetryBudgetIsABoundedPerSlotSlice) {
  board::Vcu128Board board(tiny_board());
  PlaneConfig pc;
  TenantSpec spec;
  spec.name = "t0";
  spec.mix = WorkloadMix::kUniform;
  spec.ops = 1024;
  spec.footprint_beats = 256;
  spec.quota_per_epoch = 256;
  spec.burst_tokens = 256;
  pc.tenants = {spec};
  pc.seed = 3;
  pc.chunk_beats = 16;
  pc.retry_budget_fraction = 0.10;
  RequestPlane plane(pc);

  // A bare fleet binds the plane's geometry; no run() needed to probe
  // the serial admission step directly.
  runtime::FleetConfig config;
  config.seed = 3;
  runtime::ServingFleet fleet(board, config);
  plane.begin_epoch(fleet, 1);

  bool probed = false;
  for (std::size_t slot = 0; slot < fleet.channels(); ++slot) {
    if (plane.front(slot) == nullptr) continue;
    probed = true;
    std::uint64_t spends = 0;
    while (plane.spend_retry(slot, 0)) ++spends;
    // The slice is max(2, ~10% of the beats queued on the slot): a storm
    // can never burn more escalation rounds than that here.
    EXPECT_GE(spends, 2u) << "slot " << slot;
    EXPECT_LE(spends, 256 / 10 + 2) << "slot " << slot;
    EXPECT_FALSE(plane.spend_retry(slot, 0)) << "budget must stay dry";
  }
  EXPECT_TRUE(probed) << "admission must have queued work somewhere";
}

// ---------------------------------------------------------------------------
// Observability surfaces
// ---------------------------------------------------------------------------

TEST(RequestPlaneTest, HealthDashboardAndJsonExposeTenantRows) {
  board::Vcu128Board board(tiny_board());
  RequestPlane plane(plane_config(5));
  runtime::FleetConfig config = fleet_config(plane, 2, 5);
  config.pcs = {0, 1, 2, 3};
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const std::vector<runtime::TenantHealth>& rows = fleet.health().tenants();
  ASSERT_EQ(rows.size(), plane.tenant_count());
  EXPECT_EQ(rows[0].name, "t0");
  EXPECT_EQ(rows[0].qos, "guaranteed");
  EXPECT_EQ(rows[1].qos, "best_effort");
  EXPECT_GT(rows[0].served, 0u);

  const std::string json = fleet.health().to_json();
  EXPECT_NE(json.find("\"tenants\":["), std::string::npos);
  EXPECT_NE(json.find("\"slo_ok\""), std::string::npos);

  const std::string dashboard = runtime::render_dashboard(fleet.health());
  EXPECT_NE(dashboard.find("tenant"), std::string::npos);
  EXPECT_NE(dashboard.find("t0"), std::string::npos);

  const std::string plane_json = plane.to_json();
  EXPECT_NE(plane_json.find("\"qos\""), std::string::npos);
  EXPECT_NE(plane_json.find("\"fingerprint\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// One worker: accounting, storm ticks, and the placed-request seam
// ---------------------------------------------------------------------------

chaos::ChaosConfig rot_and_burst_chaos() {
  chaos::ChaosConfig config;
  config.seed = 404;
  config.weak_burst_rate = 1e-4;
  config.bit_rot_rate = 1e-3;
  config.burst_cells = 4;
  return config;
}

PlaneConfig probe_plane() {
  PlaneConfig config = plane_config(21);
  for (TenantSpec& spec : config.tenants) spec.ops = 4000;
  return config;
}

/// Forwards to a RequestPlane and counts complete() calls per slot.
class CountingSource : public runtime::RequestSource {
 public:
  explicit CountingSource(RequestPlane& plane) : plane_(plane) {}

  void begin_epoch(const runtime::ServingFleet& fleet,
                   std::uint64_t epoch) override {
    if (completed.empty()) completed.assign(fleet.channels(), 0);
    plane_.begin_epoch(fleet, epoch);
  }
  const runtime::PlacedRequest* front(std::size_t slot) override {
    return plane_.front(slot);
  }
  void complete(std::size_t slot, const runtime::PlacedRequest& request,
                runtime::ServeOutcome outcome, unsigned attempts,
                std::uint64_t model_ns) override {
    ++completed[slot];
    plane_.complete(slot, request, outcome, attempts, model_ns);
  }
  bool spend_retry(std::size_t slot, std::uint32_t tenant) override {
    return plane_.spend_retry(slot, tenant);
  }
  void end_epoch(telemetry::EpochSample* sample) override {
    plane_.end_epoch(sample);
  }
  [[nodiscard]] bool exhausted() const override { return plane_.exhausted(); }
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override {
    return plane_.epochs_remaining_bound();
  }
  void fill_health(runtime::HealthRegistry* health) const override {
    plane_.fill_health(health);
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    return plane_.fingerprint();
  }

  /// Requests completed per slot (one entry per serving slot).
  std::vector<std::uint64_t> completed;

 private:
  RequestPlane& plane_;
};

TEST(FleetWorkerTest, ParkedRequestsResumeWithoutRecountingServedBeats) {
  // Bit rot and weak-cell bursts at 910 mV drive requests onto global
  // rungs mid-request.  A parked request resumes at the beat it parked
  // on, so no beat is counted twice: reads + writes never exceed ops
  // (shed requests serve fewer beats than they count).
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{910}).is_ok());
  chaos::ChaosInjector injector(board, rot_and_burst_chaos());
  RequestPlane plane(probe_plane());
  runtime::FleetConfig config = fleet_config(plane, 1, 21);
  config.storm_hook = [&injector](unsigned pc_global, std::uint64_t tick) {
    return injector.storm_tick(pc_global, tick);
  };
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const runtime::FleetReport& report = result.value();
  EXPECT_EQ(report.corrupt_reads, 0u);
  EXPECT_GT(report.raises + report.power_cycles, 0u)
      << "the probe must park requests on a global rung";
  EXPECT_LE(report.reads + report.writes, report.ops);

  // The built-in streams serve every op exactly once.
  for (const unsigned passes : {0u, 2u}) {
    board::Vcu128Board builtin_board(tiny_board());
    ASSERT_TRUE(builtin_board.set_hbm_voltage(Millivolts{910}).is_ok());
    chaos::ChaosInjector builtin_injector(builtin_board, rot_and_burst_chaos());
    runtime::FleetConfig builtin;
    builtin.ops_per_pc = 1024;
    builtin.ops_per_epoch = 64;
    builtin.streaming_passes = passes;
    builtin.seed = 21;
    builtin.storm_hook = [&builtin_injector](unsigned pc_global,
                                             std::uint64_t tick) {
      return builtin_injector.storm_tick(pc_global, tick);
    };
    runtime::ServingFleet builtin_fleet(builtin_board, builtin);
    auto builtin_result = builtin_fleet.run();
    ASSERT_TRUE(builtin_result.is_ok())
        << builtin_result.status().to_string();
    const runtime::FleetReport& r = builtin_result.value();
    EXPECT_GT(r.raises + r.power_cycles, 0u) << "passes=" << passes;
    EXPECT_EQ(r.reads + r.writes, r.ops) << "passes=" << passes;
    EXPECT_EQ(r.corrupt_reads, 0u) << "passes=" << passes;
  }
}

/// Every tick the storm hook sees, per global PC, in call order.
using TickLog = std::map<unsigned, std::vector<std::uint64_t>>;

TEST(FleetWorkerTest, StormHookTicksOncePerOpOrRequest) {
  // Built-in streams tick once per served op; the plane once per request.
  // Requests parked on a global rung (bit rot at 910 mV forces some) keep
  // their tick: every PC's ticks are exactly 0, 1, 2, ... with no repeat.
  const auto check_ticks = [](const TickLog& log, unsigned pc,
                              std::uint64_t expected) {
    const auto it = log.find(pc);
    const std::size_t seen = it == log.end() ? 0 : it->second.size();
    ASSERT_EQ(seen, expected) << "pc " << pc;
    for (std::uint64_t k = 0; k < expected; ++k) {
      ASSERT_EQ(it->second[k], k) << "pc " << pc << " ticked out of order";
    }
  };

  {
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{910}).is_ok());
    chaos::ChaosInjector injector(board, rot_and_burst_chaos());
    TickLog log;
    runtime::FleetConfig config;
    config.pcs = {0, 1, 2, 3, 4, 5, 6, 7};
    config.ops_per_pc = 1024;
    config.ops_per_epoch = 64;
    config.seed = 21;
    config.storm_hook = [&](unsigned pc_global, std::uint64_t tick) {
      log[pc_global].push_back(tick);
      return injector.storm_tick(pc_global, tick);
    };
    runtime::ServingFleet fleet(board, config);
    auto result = fleet.run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_GT(result.value().raises + result.value().power_cycles, 0u);
    for (const unsigned pc : config.pcs) check_ticks(log, pc, 1024);
  }

  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{910}).is_ok());
  chaos::ChaosInjector injector(board, rot_and_burst_chaos());
  RequestPlane plane(probe_plane());
  CountingSource source(plane);
  TickLog log;
  runtime::FleetConfig config = fleet_config(plane, 1, 21);
  config.source = &source;
  config.storm_hook = [&](unsigned pc_global, std::uint64_t tick) {
    log[pc_global].push_back(tick);
    return injector.storm_tick(pc_global, tick);
  };
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(result.value().raises + result.value().power_cycles, 0u);
  for (std::size_t slot = 0; slot < fleet.channels(); ++slot) {
    check_ticks(log, fleet.config().pcs[slot], source.completed[slot]);
  }
}

TEST(FleetWorkerTest, RestoreRejectsAnExternalSource) {
  // A RequestSource's queues are not part of a FleetCheckpoint, so a
  // plane-driven fleet cannot resume from one.
  board::Vcu128Board board(tiny_board());
  RequestPlane plane(plane_config(3));
  runtime::FleetConfig config = fleet_config(plane, 1, 3);
  config.pcs = {0, 1, 2, 3};
  runtime::ServingFleet fleet(board, config);
  const runtime::FleetCheckpoint ck = fleet.checkpoint();
  const Status restored = fleet.restore(ck);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
      << restored.to_string();
}

TEST(FleetWorkerTest, RestoreRejectsMalformedCheckpoints) {
  // A checkpoint that does not fit the fleet it is restored onto is
  // refused with invalid_argument before the board is touched: the fresh
  // board keeps its nominal voltage.
  runtime::FleetConfig config;
  config.scheme = mitigate::MitigationKind::kStripe;
  config.stripe_width = 4;  // 6 groups of 4 + parity, 2 spares
  config.ops_per_pc = 256;
  config.ops_per_epoch = 64;
  config.halt_after_epochs = 1;
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  runtime::ServingFleet fleet(board, config);
  ASSERT_TRUE(fleet.run().is_ok());
  const runtime::FleetCheckpoint good = fleet.checkpoint();
  ASSERT_EQ(good.groups.size(), 6u);

  const auto restore = [&](const runtime::FleetCheckpoint& ck) {
    board::Vcu128Board fresh(tiny_board());
    const int nominal = fresh.hbm_voltage().value;
    runtime::ServingFleet resumed(fresh, config);
    const Status restored = resumed.restore(ck);
    if (!restored.is_ok()) {
      EXPECT_EQ(fresh.hbm_voltage().value, nominal) << restored.to_string();
    }
    return restored;
  };
  EXPECT_TRUE(restore(good).is_ok());

  std::vector<std::pair<const char*, runtime::FleetCheckpoint>> bad;
  bad.emplace_back("burst_extras empty", good);
  bad.back().second.burst_extras.clear();
  bad.emplace_back("killed PC out of range", good);
  bad.back().second.killed_pcs.push_back(1u << 20);
  bad.emplace_back("spare_next past the pool", good);
  bad.back().second.spare_next = fleet.spares_left() + 1;
  bad.emplace_back("rebuilding another group's member", good);
  bad.back().second.groups[0].rebuilding = config.stripe_width;
  bad.emplace_back("rebuilding out of range", good);
  bad.back().second.groups[5].rebuilding = 1000;
  // Rebuild targets index the channel list: serving slots, then parity.
  bad.emplace_back("rebuilding past the channel list", good);
  bad.back().second.groups[5].rebuilding = good.channels.size();
  bad.emplace_back("rebuilding another group's parity", good);
  bad.back().second.groups[0].rebuilding = good.slots.size() + 1;
  // The first rebuild step would declare the target whole without
  // copying the rest of its journal.
  bad.emplace_back("rebuild cursor at the target's capacity", good);
  bad.back().second.groups[0].rebuilding = 0;
  bad.back().second.groups[0].rebuild_cursor = good.channels[0].journal.size();
  bad.emplace_back("last PC's array words short", good);
  bad.back().second.array_words.back().pop_back();
  // Channel checkpoints are vetted before the board is touched too, the
  // parity channels' (after the serving slots in `channels`) as well.
  const std::size_t parity = good.slots.size();
  bad.emplace_back("journal short", good);
  bad.back().second.channels[0].journal.pop_back();
  bad.emplace_back("live map short", good);
  runtime::BitVec& live = bad.back().second.channels[1].live;
  live.assign(live.size() - 1, false);
  bad.emplace_back("parity remap short", good);
  bad.back().second.channels[parity].remap.pop_back();
  bad.emplace_back("clean-block map long", good);
  runtime::BitVec& clean = bad.back().second.channels[2].clean_blocks;
  clean.assign(clean.size() + 1, false);
  bad.emplace_back("channel PC off the board", good);
  bad.back().second.channels[3].pc_global = 1u << 20;
  bad.emplace_back("scrub cursor past capacity", good);
  bad.back().second.channels[parity + 1].scrub_cursor =
      good.channels[parity + 1].journal.size();
  bad.emplace_back("spare cursor past the spare pool", good);
  bad.back().second.channels[4].spare_cursor =
      good.channels[4].spares.size() + 1;
  // A built-in request past its slot would abort in the worker.
  bad.emplace_back("pending request past capacity", good);
  runtime::PlacedRequest& pending = bad.back().second.slots[0].pending;
  pending.count = 4;
  pending.logical = good.channels[0].journal.size() - 2;
  // Progress that does not fit the pending request: the worker would
  // start that far into a fresh request and skip the beats before it.
  bad.emplace_back("progress with no pending request", good);
  bad.back().second.slots[1].pending.count = 0;
  bad.back().second.slots[1].flight.done = 3;
  bad.emplace_back("progress at the request's end", good);
  bad.back().second.slots[2].pending.count = 4;
  bad.back().second.slots[2].pending.logical = 0;
  bad.back().second.slots[2].flight.done = 4;
  for (const auto& [what, ck] : bad) {
    EXPECT_EQ(restore(ck).code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST(FleetWorkerTest, UnboundedStreamingPassesStoreNoTrace) {
  // 2^32 - 1 sweeps per PC: a stored trace would need terabytes, the
  // arithmetic sweep stores two integers.  The fleet builds, serves two
  // epochs, halts, and checkpoints its record cursors.
  board::Vcu128Board board(tiny_board());
  runtime::FleetConfig config;
  config.streaming_passes = std::numeric_limits<unsigned>::max();
  config.halt_after_epochs = 2;
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const runtime::FleetReport& report = result.value();
  EXPECT_TRUE(report.halted);
  EXPECT_EQ(report.epochs, 2u);
  EXPECT_EQ(report.ops, fleet.channels() * 2 * config.ops_per_epoch);
  EXPECT_EQ(report.corrupt_reads, 0u);
  const runtime::FleetCheckpoint ck = fleet.checkpoint();
  ASSERT_EQ(ck.slots.size(), fleet.channels());
  for (const runtime::FleetCheckpoint::Slot& slot : ck.slots) {
    EXPECT_EQ(slot.next_record, 2 * config.ops_per_epoch);
  }
}

TEST(FleetWorkerTest, UnboundedStreamingTenantStoresNoTrace) {
  // 2^40 beats of streaming demand: the plane keeps the sweep arithmetic
  // (whole passes of the footprint) and admits from it epoch by epoch.
  board::Vcu128Board board(tiny_board());
  PlaneConfig plane_config;
  plane_config.tenants = serve::make_tenant_set(
      1, {WorkloadMix::kStreaming}, /*ops=*/1ull << 40,
      /*footprint_beats=*/1000, /*quota_per_epoch=*/128);
  plane_config.chunk_beats = 16;
  RequestPlane plane(plane_config);
  EXPECT_EQ(plane.spec(0).ops, (1ull << 40) / 1000 * 1000);
  runtime::FleetConfig config = fleet_config(plane, 1, 5);
  config.ops_per_epoch = 1024;  // every admitted beat is served
  config.halt_after_epochs = 2;
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().halted);
  EXPECT_EQ(plane.stats(0).admitted, 2 * 128u);
  EXPECT_EQ(result.value().writes, 2 * 128u);  // still the write pass
  EXPECT_EQ(fleet.checkpoint().slots.size(), fleet.channels());
}

TEST(FleetWorkerTest, CheckpointWithAParkedMultiBeatRequestResumes) {
  // With no storm hook the built-in streams issue multi-beat runs, so a
  // raise at 920 mV parks a request part-way through.  The checkpoint
  // carries how far it got: a resume that restarted the request, or
  // skipped ahead, would serve different beats and move the fingerprint.
  for (const unsigned passes : {2u, 4u}) {
    runtime::FleetConfig config;
    config.streaming_passes = passes;
    config.ops_per_epoch = 64;
    config.seed = 21;
    std::uint64_t reference_fp = 0;
    {
      board::Vcu128Board board(tiny_board());
      ASSERT_TRUE(board.set_hbm_voltage(Millivolts{920}).is_ok());
      runtime::ServingFleet fleet(board, config);
      auto result = fleet.run();
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      EXPECT_GT(result.value().raises, 0u) << "passes=" << passes;
      EXPECT_EQ(result.value().corrupt_reads, 0u) << "passes=" << passes;
      reference_fp = result.value().fingerprint;
    }

    // Step one epoch at a time until a halt leaves some slot part-way
    // through a request.
    runtime::FleetCheckpoint parked;
    bool captured = false;
    {
      board::Vcu128Board board(tiny_board());
      ASSERT_TRUE(board.set_hbm_voltage(Millivolts{920}).is_ok());
      runtime::FleetConfig stepping = config;
      stepping.halt_after_epochs = 1;  // re-armed every run() call
      runtime::ServingFleet fleet(board, stepping);
      while (!captured) {
        auto result = fleet.run();
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        if (!result.value().halted) break;
        runtime::FleetCheckpoint ck = fleet.checkpoint();
        for (const runtime::FleetCheckpoint::Slot& slot : ck.slots) {
          captured = captured || slot.flight.done > 0;
        }
        if (captured) parked = std::move(ck);
      }
    }
    ASSERT_TRUE(captured) << "passes=" << passes
                          << ": no halt caught a request part-way through";

    board::Vcu128Board board(tiny_board());
    runtime::ServingFleet fleet(board, config);
    ASSERT_TRUE(fleet.restore(parked).is_ok());
    auto resumed = fleet.run();
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed.value().fingerprint, reference_fp)
        << "passes=" << passes;
    EXPECT_EQ(resumed.value().corrupt_reads, 0u) << "passes=" << passes;
  }
}

/// Places one request at `logical` on slot 0, then reports exhaustion.
class OnePlacedRequest : public runtime::RequestSource {
 public:
  OnePlacedRequest(std::uint64_t logical, std::uint64_t count) {
    request_.logical = logical;
    request_.count = count;
  }
  void begin_epoch(const runtime::ServingFleet&, std::uint64_t) override {}
  const runtime::PlacedRequest* front(std::size_t slot) override {
    return slot == 0 && !done_ ? &request_ : nullptr;
  }
  void complete(std::size_t, const runtime::PlacedRequest&,
                runtime::ServeOutcome, unsigned, std::uint64_t) override {
    done_ = true;
  }
  bool spend_retry(std::size_t, std::uint32_t) override { return true; }
  void end_epoch(telemetry::EpochSample*) override {}
  [[nodiscard]] bool exhausted() const override { return done_; }
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override {
    return 1;
  }
  void fill_health(runtime::HealthRegistry*) const override {}
  [[nodiscard]] std::uint64_t fingerprint() const override { return 1; }

 private:
  runtime::PlacedRequest request_;
  bool done_ = false;
};

TEST(FleetWorkerDeathTest, PlacedRequestBoundCheckDoesNotWrap) {
  // logical + count wraps to 0 here; the bound check must still refuse.
  const auto serve_one = [](std::uint64_t logical, std::uint64_t count) {
    board::Vcu128Board board(tiny_board());
    OnePlacedRequest source(logical, count);
    runtime::FleetConfig config;
    config.pcs = {0};
    config.source = &source;
    runtime::ServingFleet fleet(board, config);
    (void)fleet.run();
  };
  EXPECT_DEATH(serve_one(std::numeric_limits<std::uint64_t>::max() - 1, 2),
               "placed request outside slot capacity");
  EXPECT_DEATH(serve_one(0, 0), "placed request outside slot capacity");
}

}  // namespace
}  // namespace hbmvolt
