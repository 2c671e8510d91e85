// Robustness suite: retry layer, NACK-vs-PEC accounting, deterministic
// chaos injection, campaign checkpoint/resume, and graceful degradation.
//
// The headline invariant pinned here: under any all-transient chaos
// schedule, the campaign's figures are byte-identical to the fault-free
// run (at threads = 1 and threads = 4), and a campaign killed after step
// N resumes from checkpoint.json to byte-identical final artifacts.
// Persistent faults must instead degrade gracefully -- structured errors
// plus partial artifacts, never a process death.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "common/json.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/voltage_sweep.hpp"

namespace hbmvolt {
namespace {

namespace fs = std::filesystem;

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

core::CampaignConfig fast_campaign() {
  core::CampaignConfig config;
  config.reliability.sweep = {Millivolts{1200}, Millivolts{800}, 20};
  config.reliability.batch_size = 1;
  config.power.sweep = {Millivolts{1200}, Millivolts{850}, 50};
  config.power.samples = 2;
  config.power.traffic_beats = 4;
  config.dry_run = true;
  return config;
}

/// All transient fault kinds at a rate high enough that a tiny campaign
/// still crosses every injection site several times.
chaos::ChaosConfig all_transient(std::uint64_t seed) {
  chaos::ChaosConfig config;
  config.seed = seed;
  config.pmbus_nack_rate = 0.2;
  config.wire_corrupt_rate = 0.2;
  config.axi_fail_rate = 0.1;
  config.spurious_crash_rate = 0.2;
  return config;
}

/// Everything an artifact diff compares, as in-memory strings.
struct Figures {
  std::string fig2, fig4, fig5, fig6, headline;
};

std::string headline_text(const core::HeadlineNumbers& h) {
  char buffer[256];
  std::ostringstream out;
  const auto field = [&](const char* name, double value) {
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g\n", name, value);
    out << buffer;
  };
  out << "v_min_mv=" << h.guardband.v_min.value << "\n";
  out << "v_first_fault_mv=" << h.guardband.v_first_fault.value << "\n";
  out << "v_critical_mv=" << h.guardband.v_critical.value << "\n";
  out << "crash_observed=" << (h.guardband.crash_observed ? 1 : 0) << "\n";
  field("guardband_fraction", h.guardband.guardband_fraction);
  field("savings_at_vmin", h.savings_at_vmin);
  field("savings_at_850mv", h.savings_at_850mv);
  field("idle_fraction", h.idle_fraction);
  field("alpha_drop_at_850mv", h.alpha_drop_at_850mv);
  return out.str();
}

Figures figures_of(const core::CampaignResult& result,
                   const core::CampaignConfig& config) {
  return {core::to_csv_fig2(result.power),
          core::to_csv_fig4(result.fault_map),
          core::to_csv_fig5(result.fault_map),
          core::to_csv_fig6(result.tradeoff_points, config.tradeoff),
          headline_text(result.headline)};
}

void expect_figures_equal(const Figures& actual, const Figures& expected,
                          const std::string& label) {
  EXPECT_EQ(actual.fig2, expected.fig2) << label << ": fig2 diverged";
  EXPECT_EQ(actual.fig4, expected.fig4) << label << ": fig4 diverged";
  EXPECT_EQ(actual.fig5, expected.fig5) << label << ": fig5 diverged";
  EXPECT_EQ(actual.fig6, expected.fig6) << label << ": fig6 diverged";
  EXPECT_EQ(actual.headline, expected.headline)
      << label << ": headline diverged";
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fresh scratch directory under the build tree.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("chaos_test_tmp") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Retry layer
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, ClassifiesStatusCodes) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.retryable(not_found("nack")));
  EXPECT_TRUE(policy.retryable(data_loss("pec")));
  EXPECT_TRUE(policy.retryable(unavailable("dropout")));
  EXPECT_FALSE(policy.retryable(invalid_argument("bug")));
  EXPECT_FALSE(policy.retryable(Status::ok()));

  policy.retry_nack = false;
  EXPECT_FALSE(policy.retryable(not_found("nack")));
  EXPECT_TRUE(policy.retryable(data_loss("pec")));
}

TEST(RetryPolicyTest, BackoffDoublesAndCaps) {
  RetryPolicy policy;
  policy.backoff_start_us = 50;
  policy.backoff_cap_us = 300;
  EXPECT_EQ(policy.backoff_us(1), 50u);
  EXPECT_EQ(policy.backoff_us(2), 100u);
  EXPECT_EQ(policy.backoff_us(3), 200u);
  EXPECT_EQ(policy.backoff_us(4), 300u);  // capped
  EXPECT_EQ(policy.backoff_us(20), 300u);
}

TEST(RetryTest, RecoversAfterTransientFailures) {
  RetryPolicy policy;
  unsigned calls = 0;
  const Status status = retry_status(policy, "test.op", [&]() -> Status {
    return ++calls < 3 ? unavailable("transient") : Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(calls, 3u);
}

TEST(RetryTest, ExhaustsAttemptBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  unsigned calls = 0;
  const Status status = retry_status(policy, "test.op", [&]() -> Status {
    ++calls;
    return not_found("always");
  });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 3u);
}

TEST(RetryTest, DoesNotRetryProgrammingErrors) {
  RetryPolicy policy;
  unsigned calls = 0;
  const Status status = retry_status(policy, "test.op", [&]() -> Status {
    ++calls;
    return invalid_argument("caller bug");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, ResultFlavorReturnsValueAfterRecovery) {
  RetryPolicy policy;
  unsigned calls = 0;
  const Result<int> result =
      retry_result(policy, "test.op", [&]() -> Result<int> {
        if (++calls < 2) return data_loss("corrupt");
        return 42;
      });
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(calls, 2u);
}

// ---------------------------------------------------------------------------
// Bus accounting: NACK (kNotFound) vs PEC mismatch (kDataLoss)
// ---------------------------------------------------------------------------

TEST(BusAccountingTest, NackAndPecErrorsCountSeparately) {
  board::Vcu128Board board(tiny_board());
  pmbus::Bus& bus = board.bus();
  const std::uint64_t nacks_before = bus.nack_count();
  const std::uint64_t pec_before = bus.pec_error_count();

  // One-shot injected NACK: the driver's retry absorbs it.
  bool nacked = false;
  bus.set_transaction_hook([&](std::uint8_t, std::uint8_t) -> Status {
    if (nacked) return Status::ok();
    nacked = true;
    return not_found("injected NACK");
  });
  auto vout = board.regulator().read_vout();
  bus.set_transaction_hook(nullptr);
  ASSERT_TRUE(vout.is_ok()) << vout.status().to_string();
  EXPECT_EQ(bus.nack_count(), nacks_before + 1);
  EXPECT_EQ(bus.pec_error_count(), pec_before);

  // One-shot wire flip: PEC catches it, and it lands in the *other*
  // counter -- the transfer happened but arrived corrupt.
  bool corrupted = false;
  bus.set_wire_corruptor([&](std::vector<std::uint8_t>& frame) {
    if (corrupted || frame.empty()) return;
    corrupted = true;
    frame[0] ^= 0x01;
  });
  vout = board.regulator().read_vout();
  bus.set_wire_corruptor(nullptr);
  ASSERT_TRUE(vout.is_ok()) << vout.status().to_string();
  EXPECT_EQ(bus.nack_count(), nacks_before + 1);
  EXPECT_EQ(bus.pec_error_count(), pec_before + 1);
}

TEST(BusAccountingTest, RetryPolicyCanTreatNackAndPecDifferently) {
  board::Vcu128Board board(tiny_board());
  // A policy that retries PEC errors but not NACKs: the injected NACK
  // must surface immediately as kNotFound.
  RetryPolicy policy;
  policy.retry_nack = false;
  board.regulator().set_retry_policy(policy);
  board.bus().set_transaction_hook(
      [](std::uint8_t, std::uint8_t) -> Status {
        return not_found("injected NACK");
      });
  const auto vout = board.regulator().read_vout();
  board.bus().set_transaction_hook(nullptr);
  EXPECT_EQ(vout.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// ChaosSchedule determinism
// ---------------------------------------------------------------------------

TEST(ChaosScheduleTest, SameSeedSameDecisions) {
  chaos::ChaosConfig config = all_transient(7);
  const chaos::ChaosSchedule a(config);
  const chaos::ChaosSchedule b(config);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(a.fires(chaos::FaultKind::kPmbusNack, i, 0, 0),
              b.fires(chaos::FaultKind::kPmbusNack, i, 0, 0));
    EXPECT_EQ(a.draw(chaos::FaultKind::kWireCorrupt, i, 8, 0),
              b.draw(chaos::FaultKind::kWireCorrupt, i, 8, 0));
  }
}

TEST(ChaosScheduleTest, SeedChangesSchedule) {
  const chaos::ChaosSchedule a(all_transient(1));
  const chaos::ChaosSchedule b(all_transient(2));
  unsigned diffs = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    if (a.fires(chaos::FaultKind::kPmbusNack, i, 0, 0) !=
        b.fires(chaos::FaultKind::kPmbusNack, i, 0, 0)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
}

TEST(ChaosScheduleTest, ZeroRateNeverFires) {
  const chaos::ChaosSchedule schedule(chaos::ChaosConfig{});
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_FALSE(schedule.fires(chaos::FaultKind::kPmbusNack, i, 0, 0));
  }
}

TEST(ChaosScheduleTest, RateScalesFireFrequency) {
  chaos::ChaosConfig config;
  config.pmbus_nack_rate = 0.25;
  const chaos::ChaosSchedule schedule(config);
  unsigned fires = 0;
  const unsigned kTrials = 4000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    if (schedule.fires(chaos::FaultKind::kPmbusNack, i, 0, 0)) ++fires;
  }
  const double observed = static_cast<double>(fires) / kTrials;
  EXPECT_NEAR(observed, 0.25, 0.05);
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------------

/// A checkpoint for the tiny board: two reliability rows (one crashed)
/// and two power series.
core::CampaignCheckpoint sample_checkpoint() {
  core::CampaignCheckpoint ckpt(tiny_board().geometry);
  ckpt.fingerprint = 0xDEADBEEFCAFE1234ull;
  ckpt.reliability_done = true;
  ckpt.power_snapshot_seq = 17;
  ckpt.fault_map.record(Millivolts{1200}, 0, {1000, 3, 5, 500, 500});
  ckpt.fault_map.record(Millivolts{1200}, 1, {1000, 0, 0, 500, 500});
  ckpt.fault_map.record_crash(Millivolts{800});
  // Awkward doubles a decimal round-trip would perturb.
  ckpt.power.push_back({0, 0.0, {Millivolts{1200}}, {Watts{1.0 / 3.0}}});
  ckpt.power.push_back({32,
                        1.0,
                        {Millivolts{1200}, Millivolts{1150}},
                        {Watts{6.02214076e23}, Watts{-0.0}}});
  return ckpt;
}

/// `text` with the first `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "no " << from << " to replace";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

void expect_refused(const std::string& text, const std::string& label) {
  EXPECT_EQ(core::checkpoint_from_json(text, tiny_board().geometry)
                .status()
                .code(),
            StatusCode::kDataLoss)
      << label;
}

TEST(CheckpointTest, JsonRoundTripIsExact) {
  const core::CampaignCheckpoint ckpt = sample_checkpoint();
  const std::string text = core::checkpoint_to_json(ckpt);
  auto parsed = core::checkpoint_from_json(text, tiny_board().geometry);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const core::CampaignCheckpoint& back = parsed.value();

  EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(back.reliability_done, ckpt.reliability_done);
  EXPECT_EQ(back.power_snapshot_seq, ckpt.power_snapshot_seq);
  ASSERT_EQ(back.fault_map.voltages().size(), 2u);
  const faults::PcFaultRecord pc0 =
      back.fault_map.pc_record(Millivolts{1200}, 0);
  EXPECT_EQ(pc0.flips_1to0, 3u);
  EXPECT_EQ(pc0.flips_0to1, 5u);
  EXPECT_FALSE(back.fault_map.at(Millivolts{1200})->crashed);
  EXPECT_TRUE(back.fault_map.at(Millivolts{800})->crashed);
  ASSERT_EQ(back.power.size(), 2u);
  EXPECT_EQ(back.power[1].ports, 32u);
  EXPECT_EQ(back.power[1].utilization, 1.0);
  // Bit-exact doubles: serialize again and compare text.
  EXPECT_EQ(core::checkpoint_to_json(back), text);
}

TEST(CheckpointTest, WriterMatchesAFreshEncodeAtEverySave) {
  // A campaign's saves in order: reliability rows still growing, the save
  // that sets reliability_done, then power rows.  Each must equal a fresh
  // encode, whatever the writer kept from the saves before it.
  core::CampaignCheckpoint ckpt = sample_checkpoint();
  ckpt.reliability_done = false;
  core::CheckpointWriter writer;
  EXPECT_EQ(writer.encode(ckpt), core::checkpoint_to_json(ckpt));
  ckpt.fault_map.record(Millivolts{1000}, 0, {1000, 1, 2, 500, 500});
  EXPECT_EQ(writer.encode(ckpt), core::checkpoint_to_json(ckpt));
  ckpt.reliability_done = true;
  EXPECT_EQ(writer.encode(ckpt), core::checkpoint_to_json(ckpt));
  for (int mv = 1100; mv >= 1000; mv -= 50) {
    ckpt.power[1].voltages.push_back(Millivolts{mv});
    ckpt.power[1].power.push_back(Watts{mv / 7.0});
    ckpt.power_snapshot_seq += 1000;
    EXPECT_EQ(writer.encode(ckpt), core::checkpoint_to_json(ckpt)) << mv;
  }
}

TEST(CheckpointTest, LoadMissingFileIsNotFound) {
  const auto loaded = core::load_checkpoint(
      "chaos_test_tmp/does_not_exist.json", tiny_board().geometry);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, MalformedTextIsDataLoss) {
  expect_refused("not json", "not json");
  expect_refused("{\"version\": 99}", "version 99");
  const std::string text = core::checkpoint_to_json(sample_checkpoint());
  expect_refused(replaced(text, "cafe1234\"", "cafe12345\""),
                 "17-digit fingerprint");
}

TEST(CheckpointTest, RowNotCoveringEveryPcIsDataLoss) {
  // A row must hold one record per PC of the board it resumes on; an
  // extra or a missing record would index past the map or shift PCs.
  const std::string text = core::checkpoint_to_json(sample_checkpoint());
  expect_refused(replaced(text, "\"pcs\": [", "\"pcs\": [[1, 0, 0, 0, 0], "),
                 "33 records");
  expect_refused(replaced(text, "\"pcs\": [[1000, 3, 5, 500, 500], ",
                          "\"pcs\": ["),
                 "31 records");
  hbm::HbmGeometry half = tiny_board().geometry;
  half.channels_per_stack /= 2;
  core::CampaignCheckpoint other(half);
  other.fault_map.record_crash(Millivolts{800});
  expect_refused(core::checkpoint_to_json(other), "16-PC checkpoint");
}

TEST(CheckpointTest, NegativeOrNonIntegerNumberIsDataLoss) {
  const std::string text = core::checkpoint_to_json(sample_checkpoint());
  expect_refused(replaced(text, "\"power_snapshot_seq\": 17",
                          "\"power_snapshot_seq\": -5"),
                 "negative sequence number");
  expect_refused(replaced(text, "[1000, 3, 5,", "[1e30, 3, 5,"),
                 "1e30 counter");
  expect_refused(replaced(text, "[1000, 3, 5,", "[1000, 3.5, 5,"),
                 "fractional counter");
  expect_refused(replaced(text, "[1000, 3, 5,", "[1000, -3, 5,"),
                 "negative counter");
  expect_refused(replaced(text, "{\"mv\": 800,", "{\"mv\": -800,"),
                 "negative reliability voltage");
  expect_refused(replaced(text, "{\"mv\": 1150,", "{\"mv\": 1150.5,"),
                 "fractional power voltage");
  expect_refused(replaced(text, "\"ports\": 32", "\"ports\": -32"),
                 "negative port count");
  expect_refused(replaced(text, "\"version\": 1", "\"version\": 1.0"),
                 "fractional version");
}

TEST(CheckpointTest, RepeatedVoltageIsDataLoss) {
  const std::string text = core::checkpoint_to_json(sample_checkpoint());
  expect_refused(replaced(text, "{\"mv\": 800,", "{\"mv\": 1200,"),
                 "repeated reliability voltage");
  expect_refused(replaced(text, "{\"mv\": 1150,", "{\"mv\": 1200,"),
                 "repeated voltage within a power series");
}

TEST(CheckpointTest, SaveIsAtomicViaRename) {
  const fs::path dir = scratch_dir("ckpt_atomic");
  const std::string path = (dir / "checkpoint.json").string();
  core::CampaignCheckpoint ckpt(tiny_board().geometry);
  ckpt.fingerprint = 42;
  ASSERT_TRUE(core::save_checkpoint(ckpt, path).is_ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto loaded = core::load_checkpoint(path, tiny_board().geometry);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().fingerprint, 42u);
}

// ---------------------------------------------------------------------------
// Chaos equivalence: transient faults never change the figures
// ---------------------------------------------------------------------------

class ChaosEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, fast_campaign());
    auto run = campaign.run();
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    baseline_ = new Figures(figures_of(run.value(), fast_campaign()));
  }

  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
  }

  /// Runs a chaotic campaign on a fresh board and checks its figures
  /// byte-match the fault-free baseline.  Returns the result for extra
  /// assertions.
  static core::CampaignResult check_equivalent(
      const chaos::ChaosConfig& chaos, unsigned threads,
      const std::string& label) {
    board::Vcu128Board board(tiny_board());
    core::CampaignConfig config = fast_campaign();
    config.chaos = chaos;
    config.threads = threads;
    config.telemetry.enabled = true;
    core::Campaign campaign(board, config);
    auto run = campaign.run();
    EXPECT_TRUE(run.is_ok()) << label << ": " << run.status().to_string();
    if (!run.is_ok()) {
      return core::CampaignResult{
          {}, {}, faults::FaultMap(board.geometry()), {}, {}, {}, {}, {},
          false};
    }
    EXPECT_TRUE(run.value().errors.empty())
        << label << ": unexpected degradation";
    expect_figures_equal(figures_of(run.value(), config), *baseline_, label);
    return std::move(run).value();
  }

  static Figures* baseline_;
};

Figures* ChaosEquivalenceTest::baseline_ = nullptr;

TEST_F(ChaosEquivalenceTest, PmbusNacksAreFigureNeutral) {
  chaos::ChaosConfig config;
  config.pmbus_nack_rate = 0.2;
  const auto result = check_equivalent(config, 1, "pmbus_nack");
  EXPECT_NE(result.telemetry_summary.find("chaos.injected.pmbus_nack"),
            std::string::npos)
      << "schedule never fired; the test proved nothing";
}

TEST_F(ChaosEquivalenceTest, WireCorruptionIsFigureNeutral) {
  chaos::ChaosConfig config;
  config.wire_corrupt_rate = 0.2;
  const auto result = check_equivalent(config, 1, "wire_corrupt");
  EXPECT_NE(result.telemetry_summary.find("chaos.injected.wire_corrupt"),
            std::string::npos);
}

TEST_F(ChaosEquivalenceTest, AxiDispatchFailuresAreFigureNeutral) {
  chaos::ChaosConfig config;
  config.axi_fail_rate = 0.1;
  const auto result = check_equivalent(config, 1, "axi_fail");
  EXPECT_NE(result.telemetry_summary.find("chaos.injected.axi_fail"),
            std::string::npos);
}

TEST_F(ChaosEquivalenceTest, SpuriousCrashesAreFigureNeutral) {
  chaos::ChaosConfig config;
  config.spurious_crash_rate = 0.2;
  const auto result = check_equivalent(config, 1, "spurious_crash");
  EXPECT_NE(result.telemetry_summary.find("chaos.injected.spurious_crash"),
            std::string::npos);
  EXPECT_NE(result.telemetry_summary.find("sweep.spurious_crashes_recovered"),
            std::string::npos)
      << "the watchdog never exercised a recovery";
}

TEST_F(ChaosEquivalenceTest, AllKindsAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 0xFEEDull}) {
    const auto result = check_equivalent(
        all_transient(seed), 1, "all_kinds seed=" + std::to_string(seed));
    EXPECT_NE(result.telemetry_summary.find("chaos.injected.total"),
              std::string::npos);
  }
}

TEST_F(ChaosEquivalenceTest, AllKindsAtFourThreads) {
  const auto result =
      check_equivalent(all_transient(3), 4, "all_kinds threads=4");
  // By 860 mV every tiny PC's stuck counts outgrow the weakest bucket
  // of its weak-cell order, so pool workers grow orders while the others
  // run their pattern tests: the ThreadSanitizer lane covers the growth.
  EXPECT_NE(result.telemetry_summary.find("faults.order_scatter"),
            std::string::npos);
}

TEST_F(ChaosEquivalenceTest, InaDropoutsAreValueNeutralOnBusReads) {
  // The campaign's power phase uses the snapshot path (no INA bus reads),
  // so dropouts are exercised directly on measure_power: retried reads
  // must reproduce the clean board's exact value sequence, because the
  // injection aborts the transaction *before* the monitor advances.
  std::vector<Watts> clean;
  {
    board::Vcu128Board board(tiny_board());
    for (int i = 0; i < 20; ++i) {
      auto p = board.measure_power();
      ASSERT_TRUE(p.is_ok());
      clean.push_back(p.value());
    }
  }
  board::Vcu128Board board(tiny_board());
  chaos::ChaosConfig config;
  config.ina_dropout_rate = 0.3;
  chaos::ChaosInjector injector(board, config);
  for (int i = 0; i < 20; ++i) {
    auto p = board.measure_power();
    ASSERT_TRUE(p.is_ok()) << p.status().to_string();
    EXPECT_EQ(p.value().value, clean[static_cast<std::size_t>(i)].value)
        << "reading " << i << " diverged";
  }
  EXPECT_GT(injector.injected(chaos::FaultKind::kInaDropout), 0u);
}

// ---------------------------------------------------------------------------
// Crash watchdog
// ---------------------------------------------------------------------------

TEST(CrashWatchdogTest, SpuriousCrashRecoversViaPowerCycle) {
  board::Vcu128Board board(tiny_board());
  board.stack(0).force_crash();
  ASSERT_FALSE(board.responding());

  core::VoltageSweep sweep(board, {Millivolts{1200}, Millivolts{1200}, 10},
                           core::CrashPolicy::kStop);
  unsigned body_runs = 0;
  const Status status = sweep.run([&](Millivolts) { ++body_runs; }, nullptr);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(body_runs, 1u) << "the recovered step must still be measured";
  EXPECT_TRUE(board.responding());
}

TEST(CrashWatchdogTest, PowerCycleRetriesNackDuringRecovery) {
  // Satellite regression: a NACK in the middle of power_cycle's PMBus
  // sequence must be retried, not abort the recovery.
  board::Vcu128Board board(tiny_board());
  board.stack(1).force_crash();

  unsigned txns = 0;
  board.bus().set_transaction_hook([&](std::uint8_t, std::uint8_t) -> Status {
    // NACK the first and third transactions of the recovery sequence.
    ++txns;
    if (txns == 1 || txns == 3) return not_found("injected NACK");
    return Status::ok();
  });
  const Status status = board.power_cycle();
  board.bus().set_transaction_hook(nullptr);

  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_TRUE(board.responding());
  EXPECT_EQ(board.hbm_voltage().value,
            board.config().regulator_config.vout_default.value)
      << "recovery must re-apply the nominal setpoint through the full "
         "PMBus path";
}

// ---------------------------------------------------------------------------
// Kill + resume
// ---------------------------------------------------------------------------

core::CampaignConfig artifact_campaign(const fs::path& dir) {
  core::CampaignConfig config = fast_campaign();
  config.dry_run = false;
  config.output_dir = dir.string();
  return config;
}

void expect_artifacts_match(const fs::path& actual, const fs::path& expected,
                            const std::string& label) {
  for (const char* name :
       {"fig2.csv", "fig4.csv", "fig5.csv", "fig6.csv", "summary.txt"}) {
    EXPECT_EQ(read_file(actual / name), read_file(expected / name))
        << label << ": " << name << " diverged";
  }
}

class ResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clean_dir_ = new fs::path(scratch_dir("clean"));
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, artifact_campaign(*clean_dir_));
    auto run = campaign.run();
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    ASSERT_FALSE(run.value().halted);
    // A clean finish removes its own checkpoint.
    EXPECT_FALSE(fs::exists(*clean_dir_ / "checkpoint.json"));
    clean_result_ = new core::CampaignResult(std::move(run).value());
  }

  static void TearDownTestSuite() {
    delete clean_dir_;
    clean_dir_ = nullptr;
    delete clean_result_;
    clean_result_ = nullptr;
  }

  /// Halts a campaign after `halt_after` steps and checks the returned
  /// partial result: the rows measured so far, exactly as the clean run
  /// measured them, with the series utilizations and the normalization
  /// reference derived as a finished power sweep derives them.
  static void check_halted_result(unsigned halt_after,
                                  std::size_t expected_voltages,
                                  std::size_t expected_power_rows,
                                  const std::string& label) {
    core::CampaignConfig config = artifact_campaign(scratch_dir(label));
    config.halt_after_steps = halt_after;
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, config);
    auto run = campaign.run();
    ASSERT_TRUE(run.is_ok()) << label << ": " << run.status().to_string();
    const core::CampaignResult& halted = run.value();
    ASSERT_TRUE(halted.halted) << label;
    const core::CampaignResult& clean = *clean_result_;

    const std::vector<Millivolts> voltages = halted.fault_map.voltages();
    EXPECT_EQ(voltages.size(), expected_voltages) << label;
    for (const Millivolts v : voltages) {
      const faults::VoltageObservation* got = halted.fault_map.at(v);
      const faults::VoltageObservation* want = clean.fault_map.at(v);
      ASSERT_NE(want, nullptr) << label << ": " << v.value << " mV";
      EXPECT_EQ(got->crashed, want->crashed) << label << ": " << v.value;
      ASSERT_EQ(got->pcs.size(), want->pcs.size()) << label;
      for (std::size_t pc = 0; pc < got->pcs.size(); ++pc) {
        const faults::PcFaultRecord& a = got->pcs[pc];
        const faults::PcFaultRecord& b = want->pcs[pc];
        EXPECT_TRUE(a.bits_tested == b.bits_tested &&
                    a.flips_1to0 == b.flips_1to0 &&
                    a.flips_0to1 == b.flips_0to1 &&
                    a.bits_tested_ones == b.bits_tested_ones &&
                    a.bits_tested_zeros == b.bits_tested_zeros)
            << label << ": PC " << pc << " at " << v.value << " mV";
      }
    }

    const double total_pcs = board.geometry().total_pcs();
    std::size_t power_rows = 0;
    const core::PowerSeries* max_series = nullptr;
    for (const core::PowerSeries& series : halted.power.series) {
      EXPECT_EQ(series.utilization, series.ports / total_pcs) << label;
      const core::PowerSeries* want = nullptr;
      for (const core::PowerSeries& s : clean.power.series) {
        if (s.ports == series.ports) want = &s;
      }
      ASSERT_NE(want, nullptr) << label << ": ports " << series.ports;
      ASSERT_EQ(series.voltages.size(), series.power.size()) << label;
      ASSERT_LE(series.voltages.size(), want->voltages.size()) << label;
      for (std::size_t i = 0; i < series.voltages.size(); ++i) {
        EXPECT_EQ(series.voltages[i], want->voltages[i]) << label;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(series.power[i].value),
                  std::bit_cast<std::uint64_t>(want->power[i].value))
            << label << ": ports " << series.ports << " row " << i;
      }
      power_rows += series.voltages.size();
      if (max_series == nullptr || series.ports > max_series->ports) {
        max_series = &series;
      }
    }
    EXPECT_EQ(power_rows, expected_power_rows) << label;

    const Millivolts v_nom = board.config().regulator_config.vout_default;
    EXPECT_EQ(halted.power.v_nom, v_nom) << label;
    const Watts reference =
        max_series == nullptr
            ? Watts{0.0}
            : max_series->power_at(v_nom).value_or(Watts{0.0});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(halted.power.reference.value),
              std::bit_cast<std::uint64_t>(reference.value))
        << label;
  }

  /// Kills a campaign after `halt_after` steps, then resumes it on a
  /// fresh board and diffs the final artifacts against the clean run.
  static void check_kill_resume(unsigned halt_after,
                                const chaos::ChaosConfig& chaos,
                                const std::string& label) {
    const fs::path dir = scratch_dir(label);
    core::CampaignConfig config = artifact_campaign(dir);
    config.chaos = chaos;
    {
      config.halt_after_steps = halt_after;
      board::Vcu128Board board(tiny_board());
      core::Campaign campaign(board, config);
      auto run = campaign.run();
      ASSERT_TRUE(run.is_ok()) << label << ": " << run.status().to_string();
      EXPECT_TRUE(run.value().halted);
      EXPECT_TRUE(fs::exists(dir / "checkpoint.json"))
          << label << ": halt must leave the checkpoint behind";
      EXPECT_FALSE(fs::exists(dir / "fig2.csv"))
          << label << ": a halted run must not write artifacts";
    }
    {
      // The resumed process: fresh board, same config, no halt.
      config.halt_after_steps = 0;
      board::Vcu128Board board(tiny_board());
      core::Campaign campaign(board, config);
      auto run = campaign.run();
      ASSERT_TRUE(run.is_ok()) << label << ": " << run.status().to_string();
      EXPECT_FALSE(run.value().halted);
    }
    EXPECT_FALSE(fs::exists(dir / "checkpoint.json"))
        << label << ": a completed resume must clear the checkpoint";
    expect_artifacts_match(dir, *clean_dir_, label);
  }

  static fs::path* clean_dir_;
  static core::CampaignResult* clean_result_;
};

fs::path* ResumeTest::clean_dir_ = nullptr;
core::CampaignResult* ResumeTest::clean_result_ = nullptr;

TEST_F(ResumeTest, HaltedResultHoldsTheMeasuredPrefix) {
  // Step 5 halts inside the reliability phase (no power row yet); step 24
  // halts three rows into the power phase's first series, after all 21
  // reliability steps.
  check_halted_result(5, 5, 0, "halted_reliability");
  check_halted_result(24, 21, 3, "halted_power");
}

TEST_F(ResumeTest, KillDuringReliabilityPhaseResumesByteIdentical) {
  check_kill_resume(5, chaos::ChaosConfig{}, "kill_reliability");
}

TEST_F(ResumeTest, KillDuringPowerPhaseResumesByteIdentical) {
  // The reliability sweep has 21 steps (1200 -> 800 by 20), so step 24
  // lands inside the power phase.
  check_kill_resume(24, chaos::ChaosConfig{}, "kill_power");
}

TEST_F(ResumeTest, KillAndResumeUnderTransientChaos) {
  // The resumed process rebuilds its injector, so its fault schedule
  // differs from the uninterrupted run's -- which is exactly the point:
  // transients are figure-neutral under *any* schedule.
  check_kill_resume(7, all_transient(11), "kill_chaos");
}

TEST_F(ResumeTest, FingerprintMismatchStartsFresh) {
  const fs::path dir = scratch_dir("stale_ckpt");
  core::CampaignCheckpoint stale(tiny_board().geometry);
  stale.fingerprint = 0x1234;  // no real config hashes to this
  stale.reliability_done = true;
  stale.fault_map.record_crash(Millivolts{1200});
  ASSERT_TRUE(
      core::save_checkpoint(stale, (dir / "checkpoint.json").string())
          .is_ok());

  board::Vcu128Board board(tiny_board());
  core::Campaign campaign(board, artifact_campaign(dir));
  auto run = campaign.run();
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  expect_artifacts_match(dir, *clean_dir_, "stale_ckpt");
}

TEST_F(ResumeTest, MalformedCheckpointStartsFresh) {
  // Parseable checkpoints the campaign cannot resume from: a row with one
  // record too many, a repeated voltage, a negative counter.  Each must be
  // refused as unreadable, so the re-run starts fresh and still matches.
  const fs::path halted = scratch_dir("malformed_source");
  {
    core::CampaignConfig config = artifact_campaign(halted);
    config.halt_after_steps = 2;
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, config);
    ASSERT_TRUE(campaign.run().is_ok());
  }
  const std::string text = read_file(halted / "checkpoint.json");
  const std::string corruptions[][3] = {
      {"extra_record", "\"pcs\": [", "\"pcs\": [[1, 0, 0, 0, 0], "},
      {"repeated_voltage", "{\"mv\": 1180,", "{\"mv\": 1200,"},
      {"negative_counter", "[32768, 0, 0,", "[32768, -1, 0,"},
  };
  for (const auto& [name, from, to] : corruptions) {
    const fs::path dir = scratch_dir("malformed_" + name);
    {
      std::ofstream out(dir / "checkpoint.json", std::ios::binary);
      out << replaced(text, from, to);
    }
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, artifact_campaign(dir));
    auto run = campaign.run();
    ASSERT_TRUE(run.is_ok()) << name << ": " << run.status().to_string();
    EXPECT_FALSE(fs::exists(dir / "checkpoint.json")) << name;
    expect_artifacts_match(dir, *clean_dir_, name);
  }
}

TEST_F(ResumeTest, FailedSavesAreCountedAndFigureNeutral) {
  // A directory where the tmp file goes makes every save fail, the one
  // that marks the reliability phase done included: the run must still
  // finish with the clean run's artifacts, and count each failure.
  const fs::path dir = scratch_dir("ckpt_unwritable");
  fs::create_directories(dir / "checkpoint.json.tmp");
  core::CampaignConfig config = artifact_campaign(dir);
  config.telemetry.enabled = true;
  board::Vcu128Board board(tiny_board());
  core::Campaign campaign(board, config);
  auto run = campaign.run();
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  EXPECT_TRUE(run.value().errors.empty());
  EXPECT_FALSE(fs::exists(dir / "checkpoint.json"));
  expect_artifacts_match(dir, *clean_dir_, "ckpt_unwritable");

  // One save per sweep step, plus the one that sets reliability_done.
  const std::uint64_t saves =
      core::sweep_grid(config.reliability.sweep).size() +
      core::sweep_grid(config.power.sweep).size() *
          config.power.port_counts.size() +
      1;
  auto manifest = json::parse(read_file(dir / "manifest.json"));
  ASSERT_TRUE(manifest.is_ok()) << manifest.status().to_string();
  const json::Value* metrics = manifest.value().find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("checkpoint.writes"), nullptr)
      << "no save can have succeeded";
  const json::Value* failures = metrics->find("checkpoint.write_failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(failures->integer), saves);
}

TEST_F(ResumeTest, CheckpointDisabledWritesNoFile) {
  const fs::path dir = scratch_dir("no_ckpt");
  core::CampaignConfig config = artifact_campaign(dir);
  config.checkpoint = false;
  board::Vcu128Board board(tiny_board());
  core::Campaign campaign(board, config);
  auto run = campaign.run();
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  EXPECT_FALSE(fs::exists(dir / "checkpoint.json"));
  expect_artifacts_match(dir, *clean_dir_, "no_ckpt");
}

// ---------------------------------------------------------------------------
// Checkpoint loader fuzz
// ---------------------------------------------------------------------------

/// Field-by-field equality of two checkpoints, doubles by bit pattern.
void expect_same_checkpoint(const core::CampaignCheckpoint& a,
                            const core::CampaignCheckpoint& b,
                            const std::string& label) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label;
  EXPECT_EQ(a.reliability_done, b.reliability_done) << label;
  EXPECT_EQ(a.power_snapshot_seq, b.power_snapshot_seq) << label;
  const std::vector<Millivolts> voltages = a.fault_map.voltages();
  ASSERT_EQ(voltages, b.fault_map.voltages()) << label;
  for (const Millivolts v : voltages) {
    const faults::VoltageObservation& x = *a.fault_map.at(v);
    const faults::VoltageObservation& y = *b.fault_map.at(v);
    EXPECT_EQ(x.crashed, y.crashed) << label << ": " << v.value << " mV";
    ASSERT_EQ(x.pcs.size(), y.pcs.size()) << label;
    for (std::size_t pc = 0; pc < x.pcs.size(); ++pc) {
      EXPECT_TRUE(x.pcs[pc].bits_tested == y.pcs[pc].bits_tested &&
                  x.pcs[pc].flips_1to0 == y.pcs[pc].flips_1to0 &&
                  x.pcs[pc].flips_0to1 == y.pcs[pc].flips_0to1 &&
                  x.pcs[pc].bits_tested_ones == y.pcs[pc].bits_tested_ones &&
                  x.pcs[pc].bits_tested_zeros == y.pcs[pc].bits_tested_zeros)
          << label << ": PC " << pc << " at " << v.value << " mV";
    }
  }
  ASSERT_EQ(a.power.size(), b.power.size()) << label;
  for (std::size_t i = 0; i < a.power.size(); ++i) {
    EXPECT_EQ(a.power[i].ports, b.power[i].ports) << label;
    EXPECT_EQ(a.power[i].utilization, b.power[i].utilization) << label;
    EXPECT_EQ(a.power[i].voltages, b.power[i].voltages) << label;
    ASSERT_EQ(a.power[i].power.size(), b.power[i].power.size()) << label;
    for (std::size_t r = 0; r < a.power[i].power.size(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power[i].power[r].value),
                std::bit_cast<std::uint64_t>(b.power[i].power[r].value))
          << label << ": series " << i << " row " << r;
    }
  }
}

TEST(CheckpointFuzzTest, MutatedCheckpointsLoadOrAreRefused) {
  // Seed text: a real checkpoint halted three rows into the power phase,
  // so both sections and every field kind are present.  A 100 mV
  // reliability step keeps it to five rows, so each parse is short.
  const fs::path dir = scratch_dir("fuzz_source");
  {
    core::CampaignConfig config = artifact_campaign(dir);
    config.reliability.sweep.step_mv = 100;
    config.halt_after_steps = 8;
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, config);
    ASSERT_TRUE(campaign.run().is_ok());
  }
  const std::string seed = read_file(dir / "checkpoint.json");
  ASSERT_FALSE(seed.empty());
  const hbm::HbmGeometry geometry = tiny_board().geometry;

  // Bytes a flip writes: JSON structure, number and hex characters, and a
  // few that are never valid.
  static constexpr char kAlphabet[] = "{}[]\",:-+.eE0123456789abcdefAF \n\t";
  Xoshiro256 rng(0xF022C4E7);
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.bounded(bound));
  };
  constexpr unsigned kMutants = 4000;
  unsigned accepted = 0;
  for (unsigned i = 0; i < kMutants; ++i) {
    std::string text = seed;
    switch (i % 5) {
      case 0: {  // a digit rewritten: counters, voltages and hex change
        std::size_t at = pick(text.size());
        while (text[at] < '0' || text[at] > '9') at = (at + 1) % text.size();
        text[at] = static_cast<char>('0' + pick(10));
        break;
      }
      case 1:  // one to four byte flips
        for (std::size_t n = 1 + pick(4); n > 0; --n) {
          text[pick(text.size())] =
              rng.bernoulli(0.5)
                  ? kAlphabet[pick(sizeof(kAlphabet) - 1)]
                  : static_cast<char>(rng.bounded(256));
        }
        break;
      case 2:  // truncation
        text.resize(pick(text.size()));
        break;
      case 3: {  // splice: a prefix joined to a suffix from elsewhere
        const std::size_t cut = pick(text.size());
        text = text.substr(0, cut) + seed.substr(pick(seed.size()));
        break;
      }
      default: {  // a copied span inserted at a random point
        const std::size_t from = pick(seed.size());
        const std::size_t length = 1 + pick(std::min<std::size_t>(
                                           64, seed.size() - from));
        text.insert(pick(text.size() + 1), seed.substr(from, length));
        break;
      }
    }
    const std::string label = "mutant " + std::to_string(i);
    auto loaded = core::checkpoint_from_json(text, geometry);
    if (!loaded.is_ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << label;
      continue;
    }
    ++accepted;
    const std::string first = core::checkpoint_to_json(loaded.value());
    auto reloaded = core::checkpoint_from_json(first, geometry);
    ASSERT_TRUE(reloaded.is_ok())
        << label << ": " << reloaded.status().to_string();
    expect_same_checkpoint(reloaded.value(), loaded.value(), label);
    EXPECT_EQ(core::checkpoint_to_json(reloaded.value()), first) << label;
  }
  // Both outcomes must occur, or the mutations proved nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

// ---------------------------------------------------------------------------
// Persistent faults: graceful degradation
// ---------------------------------------------------------------------------

TEST(DegradationTest, DeadRegulatorYieldsPartialArtifactsNotAbort) {
  const fs::path dir = scratch_dir("dead_regulator");
  board::Vcu128Board board(tiny_board());
  core::CampaignConfig config = artifact_campaign(dir);
  // Enough budget for a few sweep steps (2 transactions per setpoint),
  // then the regulator NACKs forever and retries exhaust.
  config.chaos.regulator_dies_after = 20;

  core::Campaign campaign(board, config);
  auto run = campaign.run();
  ASSERT_TRUE(run.is_ok())
      << "a persistent fault must degrade, not fail the run: "
      << run.status().to_string();
  const core::CampaignResult& result = run.value();
  EXPECT_FALSE(result.halted);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors.front().find("reliability:"), std::string::npos);

  // Partial artifacts exist, the summary carries the structured error,
  // and the checkpoint survives for a later retry.
  EXPECT_TRUE(fs::exists(dir / "fig4.csv"));
  EXPECT_TRUE(fs::exists(dir / "summary.txt"));
  const std::string summary = read_file(dir / "summary.txt");
  EXPECT_NE(summary.find("errors\n------"), std::string::npos);
  EXPECT_NE(summary.find("reliability:"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir / "checkpoint.json"));
  // The measured prefix is real data: some voltage rows were recorded.
  EXPECT_FALSE(result.fault_map.voltages().empty());
}

TEST(DegradationTest, DeadMonitorExhaustsMeasurePowerRetries) {
  board::Vcu128Board board(tiny_board());
  chaos::ChaosConfig config;
  config.monitor_dies_after = 0;
  chaos::ChaosInjector injector(board, config);
  const auto power = board.measure_power();
  EXPECT_EQ(power.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(injector.injected(chaos::FaultKind::kInaDropout), 0u);
}

// ---------------------------------------------------------------------------
// Injector lifecycle
// ---------------------------------------------------------------------------

TEST(ChaosInjectorTest, DestructorUninstallsHooks) {
  board::Vcu128Board board(tiny_board());
  {
    chaos::ChaosInjector injector(board, all_transient(5));
  }
  // With the injector gone, the board behaves cleanly: a full power cycle
  // and a bus read succeed without a single injected fault showing up in
  // the counters.
  const std::uint64_t nacks = board.bus().nack_count();
  const std::uint64_t pec_errors = board.bus().pec_error_count();
  ASSERT_TRUE(board.power_cycle().is_ok());
  ASSERT_TRUE(board.regulator().read_vout().is_ok());
  EXPECT_EQ(board.bus().nack_count(), nacks);
  EXPECT_EQ(board.bus().pec_error_count(), pec_errors);
}

}  // namespace
}  // namespace hbmvolt
