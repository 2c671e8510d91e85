// Fleet health plane suite: HDR histogram properties, labeled metric
// families, the burn-rate alert engine, and the per-PC health registry
// with its dashboard rendering.
//
// The properties pinned here are the ones the observability layer leans
// on: HDR quantiles over-report by at most one bucket width (~1/32
// relative), merge is grouping-invariant (what makes per-thread latency
// recording deterministic), alert event streams are a pure function of
// the epoch sample sequence (thread-count invariant on a real fleet),
// and the dashboard/health.json renderings are byte-stable goldens.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "runtime/fleet.hpp"
#include "runtime/health.hpp"
#include "runtime/reliable_channel.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace hbmvolt {
namespace {

using telemetry::AlertEngine;
using telemetry::AlertRule;
using telemetry::AlertSignal;
using telemetry::EpochRing;
using telemetry::EpochSample;
using telemetry::HdrHistogram;
using telemetry::MetricRegistry;

// Deterministic value stream spanning the linear region, several octaves,
// and the far tail (splitmix-style, no <random>).
std::vector<std::uint64_t> sample_values(std::size_t n) {
  std::vector<std::uint64_t> values;
  values.reserve(n);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    // Mix magnitudes: every third value small, every seventh huge.
    if (i % 3 == 0) {
      values.push_back(z % 64);
    } else if (i % 7 == 0) {
      values.push_back(z % (1ull << 30));
    } else {
      values.push_back(z % 100000);
    }
  }
  return values;
}

// ---------------------------------------------------------------------------
// HdrHistogram properties
// ---------------------------------------------------------------------------

TEST(HdrHistogramTest, BucketEdgeIsTightUpperBound) {
  // value_at(index_of(v)) >= v, and never more than one bucket width
  // above: width 1 in the linear region, <= v/32 beyond it.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 2048; ++v) probes.push_back(v);
  for (unsigned bit = 11; bit < 40; ++bit) {
    probes.push_back((1ull << bit) - 1);
    probes.push_back(1ull << bit);
    probes.push_back((1ull << bit) + 1);
  }
  for (std::uint64_t v : sample_values(512)) probes.push_back(v);
  for (std::uint64_t v : probes) {
    const std::uint64_t edge = HdrHistogram::value_at(HdrHistogram::index_of(v));
    ASSERT_GE(edge, v) << "value " << v;
    const std::uint64_t width =
        std::max<std::uint64_t>(1, v / HdrHistogram::kSubBucketCount);
    ASSERT_LE(edge - v, width) << "value " << v;
  }
}

TEST(HdrHistogramTest, BucketIndicesAreMonotone) {
  // index_of is non-decreasing, so quantile's cumulative walk visits
  // values in order.
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < (1ull << 16); ++v) {
    const std::size_t index = HdrHistogram::index_of(v);
    ASSERT_GE(index, prev) << "value " << v;
    prev = index;
  }
}

TEST(HdrHistogramTest, QuantileBracketsExactRank) {
  const std::vector<std::uint64_t> values = sample_values(5000);
  HdrHistogram h;
  for (std::uint64_t v : values) h.record(v);

  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    if (rank < 1) rank = 1;
    const std::uint64_t exact = sorted[rank - 1];
    const std::uint64_t got = h.quantile(q);
    // Never under the exact rank value; over by at most one bucket width
    // (and clamped to the observed max).
    ASSERT_GE(got, exact) << "q=" << q;
    const std::uint64_t width =
        std::max<std::uint64_t>(1, exact / HdrHistogram::kSubBucketCount);
    ASSERT_LE(got, std::min(exact + width, sorted.back())) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(1.0), sorted.back());
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());
}

// quantiles() answers its four ranks in one walk that starts at min()'s
// bucket; every value must equal a full bucket walk from index 0 at that
// rank, including ranks that land in the overflow region.
TEST(HdrHistogramTest, QuantilesMatchFullBucketWalk) {
  const auto reference = [](const HdrHistogram& h, double q) {
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(h.count())));
    if (rank < 1) rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      cumulative += h.counts()[i];
      if (cumulative >= rank) {
        return std::min(HdrHistogram::value_at(i), h.max());
      }
    }
    return h.max();
  };
  const std::vector<std::uint64_t> values = sample_values(3000);
  HdrHistogram shifted(1 << 20);
  HdrHistogram merged(1 << 20);
  for (std::size_t i = 0; i < values.size(); ++i) {
    shifted.record(values[i] + 5000);
    HdrHistogram one(1 << 20);
    one.record_n(values[i] * 3 + 900, 1 + i % 3);
    merged.merge(one);
  }
  for (int i = 0; i < 40; ++i) merged.record((1 << 20) + i);  // overflow
  for (const HdrHistogram* h : {&shifted, &merged}) {
    const HdrHistogram::Quantiles q = h->quantiles();
    EXPECT_EQ(q.p50, reference(*h, 0.50));
    EXPECT_EQ(q.p90, reference(*h, 0.90));
    EXPECT_EQ(q.p99, reference(*h, 0.99));
    EXPECT_EQ(q.p999, reference(*h, 0.999));
    for (double p : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h->quantile(p), reference(*h, p)) << "q=" << p;
    }
  }
  EXPECT_EQ(merged.quantiles().p999, merged.max()) << "rank in overflow";
  const HdrHistogram::Quantiles empty = HdrHistogram().quantiles();
  EXPECT_EQ(empty.p50 + empty.p90 + empty.p99 + empty.p999, 0u);
}

TEST(HdrHistogramTest, MergeIsGroupingInvariant) {
  // Any partition of the samples into per-thread histograms merges to the
  // same buckets -- the determinism claim behind per-worker recording.
  const std::vector<std::uint64_t> values = sample_values(4000);
  HdrHistogram all;
  for (std::uint64_t v : values) all.record(v);

  for (std::size_t parts : {2u, 3u, 7u}) {
    std::vector<HdrHistogram> shards(parts);
    for (std::size_t i = 0; i < values.size(); ++i) {
      shards[i % parts].record(values[i]);
    }
    // Left fold and a nested (tree-ish) fold.
    HdrHistogram left;
    for (const HdrHistogram& s : shards) left.merge(s);
    HdrHistogram tree;
    HdrHistogram tail;
    tree.merge(shards[0]);
    for (std::size_t i = 1; i < parts; ++i) tail.merge(shards[i]);
    tree.merge(tail);

    for (const HdrHistogram* merged : {&left, &tree}) {
      EXPECT_EQ(merged->counts(), all.counts()) << parts << " shards";
      EXPECT_EQ(merged->count(), all.count());
      EXPECT_EQ(merged->sum(), all.sum());
      EXPECT_EQ(merged->min(), all.min());
      EXPECT_EQ(merged->max(), all.max());
      EXPECT_EQ(merged->quantile(0.999), all.quantile(0.999));
    }
  }
}

TEST(HdrHistogramTest, RecordNMatchesRepeatedRecord) {
  HdrHistogram bulk;
  HdrHistogram loop;
  bulk.record_n(77, 100);
  bulk.record_n(1234, 3);
  for (int i = 0; i < 100; ++i) loop.record(77);
  for (int i = 0; i < 3; ++i) loop.record(1234);
  EXPECT_EQ(bulk.counts(), loop.counts());
  EXPECT_EQ(bulk.count(), loop.count());
  EXPECT_EQ(bulk.sum(), loop.sum());
}

TEST(HdrHistogramTest, OverflowCountsButDoesNotBucket) {
  HdrHistogram h(1 << 10);
  h.record(100);
  h.record((1 << 10) + 1);  // above max_value
  h.record(1ull << 20);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.max(), 1ull << 20);
  // Ranks landing in the overflow region report the observed max; low
  // ranks report the bucket upper edge of the in-range sample (100 lands
  // in the [100,101] bucket).
  EXPECT_EQ(h.quantile(1.0), 1ull << 20);
  EXPECT_EQ(h.quantile(0.01), 101u);
}

TEST(HdrHistogramTest, EmptyAndClear) {
  HdrHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.record(42);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

// ---------------------------------------------------------------------------
// Labeled metric families
// ---------------------------------------------------------------------------

TEST(MetricFamilyTest, SlotsAreIndependentAndTotalled) {
  MetricRegistry registry;
  auto& family = registry.counter_family("runtime.reads", "pc", 4);
  family.at(0).add(5);
  family.at(3).add(7);
  const auto snapshots = registry.counter_family_values();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].name, "runtime.reads");
  EXPECT_EQ(snapshots[0].label_key, "pc");
  EXPECT_EQ(snapshots[0].values, (std::vector<std::uint64_t>{5, 0, 0, 7}));
  EXPECT_EQ(snapshots[0].total, 12u);
  EXPECT_EQ(telemetry::family_slot_name("runtime.reads", "pc", 3),
            "runtime.reads{pc=3}");
}

TEST(MetricFamilyTest, GaugeFamilyExportsOnlyTouchedSlots) {
  MetricRegistry registry;
  auto& family = registry.gauge_family("runtime.spares_free", "pc", 3);
  family.at(1).set(0);  // legitimately zero -- must still export
  const auto snapshots = registry.gauge_family_values();
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_EQ(snapshots[0].slots.size(), 1u);
  EXPECT_EQ(snapshots[0].slots[0].first, 1u);
  EXPECT_EQ(snapshots[0].slots[0].second.value, 0);
}

TEST(MetricFamilyTest, HdrFamilyMergesSlotsInIndexOrder) {
  MetricRegistry registry;
  auto& family = registry.hdr_family("latency.read", "pc", 2);
  HdrHistogram local;
  local.record(100);
  local.record(300);
  family.merge_into(0, local);
  HdrHistogram other;
  other.record(200);
  family.merge_into(1, other);

  const auto snapshots = registry.hdr_family_values();
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_EQ(snapshots[0].slots.size(), 2u);
  EXPECT_EQ(snapshots[0].slots[0].second.count, 2u);
  EXPECT_EQ(snapshots[0].slots[1].second.count, 1u);
  EXPECT_EQ(snapshots[0].merged.count, 3u);
  EXPECT_EQ(snapshots[0].merged.sum, 600u);
}

TEST(MetricFamilyDeathTest, ShapeMismatchAborts) {
  MetricRegistry registry;
  registry.counter_family("runtime.reads", "pc", 4);
  EXPECT_DEATH(registry.counter_family("runtime.reads", "pc", 8),
               "different label key or slots");
  registry.hdr_family("latency.read", "pc", 4);
  EXPECT_DEATH(registry.hdr_family("latency.read", "pc", 4, 1 << 20),
               "different shape");
}

// ---------------------------------------------------------------------------
// Epoch ring + alert engine
// ---------------------------------------------------------------------------

EpochSample sample(std::uint64_t epoch, std::uint64_t reads,
                   std::uint64_t corrected, std::uint64_t journal = 0) {
  EpochSample s;
  s.epoch = epoch;
  s.reads = reads;
  s.corrected = corrected;
  s.journal_served = journal;
  return s;
}

TEST(EpochRingTest, KeepsNewestSamplesAfterWraparound) {
  EpochRing ring(4);
  for (std::uint64_t e = 0; e < 6; ++e) ring.push(sample(e, 100, 0));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 6u);
  EXPECT_EQ(ring.recent(0).epoch, 5u);
  EXPECT_EQ(ring.recent(3).epoch, 2u);
}

AlertRule test_rule() {
  // Fires at 4x SLO on one epoch AND 2x over four epochs.
  return {"corrected_burn", AlertSignal::kCorrectedRate,
          /*slo=*/0.01,     /*fast_epochs=*/1,
          /*fast_burn=*/4.0, /*slow_epochs=*/4,
          /*slow_burn=*/2.0};
}

TEST(AlertEngineTest, OneEpochSpikeIsFilteredBySlowWindow) {
  AlertEngine engine({test_rule()});
  for (std::uint64_t e = 0; e < 3; ++e) engine.tick(sample(e, 1000, 0));
  engine.tick(sample(3, 1000, 50));  // 5% corrected: fast 5x, slow 1.25x
  EXPECT_FALSE(engine.firing("corrected_burn"));
  EXPECT_TRUE(engine.events().empty());
}

TEST(AlertEngineTest, SustainedBurnFiresOnceAndResolvesOnce) {
  AlertEngine engine({test_rule()});
  for (std::uint64_t e = 0; e < 4; ++e) engine.tick(sample(e, 1000, 50));
  EXPECT_TRUE(engine.firing("corrected_burn"));
  // Still firing: no duplicate events while the state holds.
  engine.tick(sample(4, 1000, 50));
  // Recovery: fast window drops to zero.
  engine.tick(sample(5, 1000, 0));
  EXPECT_FALSE(engine.firing("corrected_burn"));

  ASSERT_EQ(engine.events().size(), 2u);
  EXPECT_TRUE(engine.events()[0].firing);
  EXPECT_FALSE(engine.events()[1].firing);
  EXPECT_GE(engine.events()[0].fast_burn, 4.0);

  const std::string jsonl = engine.to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"rule\":\"corrected_burn\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"firing\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"firing\":false"), std::string::npos);
}

TEST(AlertEngineTest, EdgesEmitCountersIntoActiveTelemetry) {
  telemetry::Telemetry instance;
  telemetry::ScopedTelemetry scope(instance);
  AlertEngine engine({test_rule()});
  for (std::uint64_t e = 0; e < 4; ++e) engine.tick(sample(e, 1000, 50));
  engine.tick(sample(4, 1000, 0));

  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
  for (const auto& [name, value] : instance.metrics().counter_values()) {
    if (name == "alert.corrected_burn.fired") fired = value;
    if (name == "alert.corrected_burn.resolved") resolved = value;
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(resolved, 1u);
}

TEST(AlertEngineTest, JournalServedSignalUsesJournalNumerator) {
  AlertRule rule{"journal_served", AlertSignal::kJournalServedRate, 0.01,
                 1,                4.0,
                 1,                4.0};
  AlertEngine engine({rule});
  engine.tick(sample(0, 1000, 500, /*journal=*/0));
  EXPECT_FALSE(engine.firing("journal_served"));
  engine.tick(sample(1, 1000, 0, /*journal=*/50));
  EXPECT_TRUE(engine.firing("journal_served"));
}

// ---------------------------------------------------------------------------
// Health registry + dashboard goldens
// ---------------------------------------------------------------------------

runtime::PcHealth crafted_health(unsigned pc) {
  runtime::PcHealth h;
  h.pc = pc;
  h.voltage_mv = 950;
  h.last_rung = pc == 1 ? runtime::LadderRung::kRaiseVoltage
                        : runtime::LadderRung::kCorrect;
  h.last_rung_op = pc == 1 ? 2048 : 0;
  h.burn_fraction = pc == 1 ? 1.5 : 0.0;
  h.budget_burns = pc;
  h.spares_free = 14 - pc;
  h.parked_beats = pc;
  h.scrub_lag_beats = 34;
  h.reads = 3000 + pc;
  h.writes = 1000;
  h.corrected = 19 * pc;
  h.uncorrectable_blocked = 0;
  h.journal_served = pc;
  h.reconstructed = 7 * pc;
  h.scheme = pc == 1 ? "stripe" : "secded";
  h.stripe = pc == 1 ? "rebuilding" : "-";
  return h;
}

TEST(HealthRegistryTest, JsonGolden) {
  runtime::HealthRegistry health;
  health.reset(2);
  health.set(0, crafted_health(0));
  health.set(1, crafted_health(1));

  const std::string expected =
      "{\"epoch\":0,\"pcs\":[\n"
      "{\"pc\":0,\"voltage_mv\":950,\"last_rung\":\"correct\","
      "\"last_rung_op\":0,\"burn_fraction\":0,\"budget_burns\":0,"
      "\"spares_free\":14,\"parked_beats\":0,\"scrub_lag_beats\":34,"
      "\"reads\":3000,\"writes\":1000,\"corrected\":0,"
      "\"uncorrectable_blocked\":0,\"journal_served\":0,"
      "\"reconstructed\":0,\"scheme\":\"secded\",\"stripe\":\"-\"},\n"
      "{\"pc\":1,\"voltage_mv\":950,\"last_rung\":\"raise_voltage\","
      "\"last_rung_op\":2048,\"burn_fraction\":1.5,\"budget_burns\":1,"
      "\"spares_free\":13,\"parked_beats\":1,\"scrub_lag_beats\":34,"
      "\"reads\":3001,\"writes\":1000,\"corrected\":19,"
      "\"uncorrectable_blocked\":0,\"journal_served\":1,"
      "\"reconstructed\":7,\"scheme\":\"stripe\","
      "\"stripe\":\"rebuilding\"}\n"
      "]}\n";
  EXPECT_EQ(health.to_json(), expected);
}

TEST(HealthRegistryTest, DashboardGolden) {
  runtime::HealthRegistry health;
  health.reset(2);
  health.set(0, crafted_health(0));
  health.set(1, crafted_health(1));

  MetricRegistry metrics;
  auto& family = metrics.hdr_family("latency.read", "pc", 2);
  HdrHistogram local;
  local.record_n(100, 10);
  family.merge_into(0, local);

  AlertEngine alerts({test_rule()});
  alerts.tick(sample(0, 1000, 0));

  const std::string expected =
      "fleet health @ epoch 0\n"
      "+----+-----+--------+------------+---------------+------+-------+"
      "--------+--------+-----------+-------+------+-----+------+-------+\n"
      "| pc | mV  | scheme | stripe     | rung          | burn | burns |"
      " spares | parked | scrub-lag | reads | corr | unc | jrnl | recon |\n"
      "+----+-----+--------+------------+---------------+------+-------+"
      "--------+--------+-----------+-------+------+-----+------+-------+\n"
      "| 0  | 950 | secded | -          | correct       | 0    | 0     |"
      " 14     | 0      | 34        | 3000  | 0    | 0   | 0    | 0     |\n"
      "| 1  | 950 | stripe | rebuilding | raise_voltage | 1.5  | 1     |"
      " 13     | 1      | 34        | 3001  | 19   | 0   | 1    | 7     |\n"
      "+----+-----+--------+------------+---------------+------+-------+"
      "--------+--------+-----------+-------+------+-----+------+-------+\n"
      "latency read  p50 100 ns  p99 100 ns  p999 100 ns  max 100 ns  "
      "(n=10)\n"
      "alert corrected_burn  ok (fast 0x / slow 0x)\n";
  EXPECT_EQ(runtime::render_dashboard(health, &alerts, &metrics), expected);
}

// ---------------------------------------------------------------------------
// Fleet integration: latency recording, alert/health determinism
// ---------------------------------------------------------------------------

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

// Advances a fixed step on every read, so op durations are a pure
// function of how many clock reads the op performs -- identical ops get
// identical latencies at any wall speed.
class TickClock final : public telemetry::Clock {
 public:
  std::uint64_t now_ns() override { return now_ += 10; }

 private:
  std::uint64_t now_ = 0;
};

TEST(LatencyRecordingTest, DeterministicQuantilesUnderManualClock) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{1200}).is_ok());

  TickClock clock;
  telemetry::Telemetry instance({}, &clock);
  telemetry::ScopedTelemetry scope(instance);

  runtime::ReliableChannel channel(board, 0, {});
  constexpr std::uint64_t kOps = 16;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(channel.write(i, runtime::make_payload(1, 0, i)).is_ok());
  }
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(channel.read(i).is_ok());
  }
  channel.flush_telemetry();

  bool saw_read = false;
  bool saw_write = false;
  for (const auto& family : instance.metrics().hdr_family_values()) {
    if (family.name != "latency.read" && family.name != "latency.write") {
      continue;
    }
    (family.name == "latency.read" ? saw_read : saw_write) = true;
    EXPECT_EQ(family.merged.count, kOps);
    ASSERT_EQ(family.slots.size(), 1u);
    EXPECT_EQ(family.slots[0].first, 0u);  // the served PC's global index
    // Identical ops on a fault-free channel take identical tick counts,
    // so the distribution is a single spike: every quantile reports it.
    EXPECT_GT(family.merged.min, 0u);
    EXPECT_EQ(family.merged.min, family.merged.max);
    EXPECT_EQ(family.merged.q.p50, family.merged.q.p999);
    EXPECT_EQ(family.merged.q.p999, family.merged.max);
  }
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_write);
}

chaos::ChaosConfig storm_chaos() {
  chaos::ChaosConfig config;
  config.seed = 404;
  config.weak_burst_rate = 1e-4;
  config.bit_rot_rate = 1e-3;
  config.burst_cells = 4;
  return config;
}

struct StormObservations {
  std::uint64_t fingerprint = 0;
  std::string alerts_jsonl;
  std::string health_json;
  std::uint64_t epochs_hooked = 0;
};

StormObservations run_storm(unsigned threads, bool with_telemetry) {
  board::Vcu128Board board(tiny_board());
  EXPECT_TRUE(board.set_hbm_voltage(Millivolts{940}).is_ok());
  chaos::ChaosInjector injector(board, storm_chaos());

  runtime::FleetConfig config;
  config.ops_per_pc = 2048;
  config.ops_per_epoch = 512;
  config.seed = 101;
  config.threads = threads;
  config.channel.spare_fraction = 0.25;
  config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
    return injector.storm_tick(pc, tick);
  };

  StormObservations out;
  config.epoch_hook = [&out](const runtime::EpochStatus& status) {
    EXPECT_NE(status.health, nullptr);
    EXPECT_NE(status.alerts, nullptr);
    ++out.epochs_hooked;
  };

  telemetry::Telemetry instance;
  std::optional<telemetry::ScopedTelemetry> scope;
  if (with_telemetry) scope.emplace(instance);

  runtime::ServingFleet fleet(board, config);
  auto report = fleet.run();
  EXPECT_TRUE(report.is_ok()) << report.status().to_string();
  if (report.is_ok()) out.fingerprint = report.value().fingerprint;
  out.alerts_jsonl = fleet.alerts().to_jsonl();
  out.health_json = fleet.health().to_json();
  return out;
}

TEST(FleetObservabilityTest, AlertsAndHealthAreThreadCountInvariant) {
  const StormObservations serial = run_storm(1, true);
  const StormObservations parallel = run_storm(4, true);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.alerts_jsonl, parallel.alerts_jsonl);
  EXPECT_EQ(serial.health_json, parallel.health_json);
  EXPECT_GT(serial.epochs_hooked, 0u);
  EXPECT_EQ(serial.epochs_hooked, parallel.epochs_hooked);
}

TEST(FleetObservabilityTest, TelemetryDoesNotPerturbFingerprintOrHealth) {
  const StormObservations with = run_storm(4, true);
  const StormObservations without = run_storm(4, false);
  EXPECT_EQ(with.fingerprint, without.fingerprint);
  EXPECT_EQ(with.alerts_jsonl, without.alerts_jsonl);
  EXPECT_EQ(with.health_json, without.health_json);
}

}  // namespace
}  // namespace hbmvolt
