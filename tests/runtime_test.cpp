// Resilient-runtime suite: error budgets, patrol scrubbing, and the
// online degradation ladder (correct -> retire -> raise -> power-cycle).
//
// The headline invariant pinned here: a ReliableChannel NEVER returns
// corrupt data.  Under stuck-at faults, bit rot, weak-cell bursts, and
// chaos crashes it serves correct bytes, consumes spares, raises the
// supply, or power-cycles and restores from the journal -- and the whole
// fleet soak is byte-reproducible from (seed, config) at any thread
// count.
//
// Voltages come from the test_tiny board's deterministic fault
// population on weak PC 4: at 950 mV every stuck cell sits in a distinct
// SECDED codeword (all correctable); at 930 mV two words carry two stuck
// bits each (uncorrectable on an unlucky payload), which is what forces
// the ladder past rung 0.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "runtime/error_budget.hpp"
#include "runtime/fleet.hpp"
#include "runtime/reliable_channel.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace hbmvolt {
namespace {

using runtime::ErrorBudget;
using runtime::ErrorBudgetConfig;
using runtime::BudgetVerdict;
using runtime::FleetConfig;
using runtime::LadderRung;
using runtime::ReliableChannel;
using runtime::ReliableChannelConfig;
using runtime::ServingFleet;

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

constexpr unsigned kWeakPc = 4;  // deepest fault population on test_tiny

// ---------------------------------------------------------------------------
// Error budget
// ---------------------------------------------------------------------------

TEST(ErrorBudgetTest, HealthyWindowRollsOverSilently) {
  ErrorBudgetConfig config;
  config.window_words = 100;
  config.corrected_slo = 0.05;
  ErrorBudget budget(config);
  // Two windows at 4% corrected: under SLO, so both roll over healthy.
  for (int window = 0; window < 2; ++window) {
    for (int batch = 0; batch < 25; ++batch) {
      EXPECT_EQ(budget.record(4, batch % 25 < 1 ? 4 : 0, 0),
                BudgetVerdict::kHealthy);
    }
  }
  EXPECT_FALSE(budget.burned());
  EXPECT_EQ(budget.windows_completed(), 2u);
  EXPECT_EQ(budget.burns(), 0u);
  EXPECT_EQ(budget.window_words(), 0u);  // fresh window after rollover
}

TEST(ErrorBudgetTest, CorrectedRateOverSloBurnsAtWindowClose) {
  ErrorBudgetConfig config;
  config.window_words = 100;
  config.corrected_slo = 0.05;
  ErrorBudget budget(config);
  // 10% corrected: healthy until the window completes, then a burn.
  for (int batch = 0; batch < 24; ++batch) {
    EXPECT_EQ(budget.record(4, batch % 10 == 0 ? 2 : 0, 0),
              BudgetVerdict::kHealthy);
  }
  EXPECT_EQ(budget.record(4, 2, 0), BudgetVerdict::kCorrectedBurn);
  EXPECT_TRUE(budget.burned());
  // Latched until the ladder consumes it.
  EXPECT_EQ(budget.record(4, 0, 0), BudgetVerdict::kCorrectedBurn);
  budget.reset();
  EXPECT_FALSE(budget.burned());
  EXPECT_EQ(budget.record(4, 0, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.burns(), 1u);
}

TEST(ErrorBudgetTest, UncorrectableBurnsImmediately) {
  ErrorBudget budget(ErrorBudgetConfig{});  // tolerance 0
  EXPECT_EQ(budget.record(4, 0, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.record(4, 1, 1), BudgetVerdict::kUncorrectableBurn);
  EXPECT_TRUE(budget.burned());

  ErrorBudgetConfig tolerant;
  tolerant.uncorrectable_tolerance = 2;
  ErrorBudget lax(tolerant);
  EXPECT_EQ(lax.record(4, 0, 2), BudgetVerdict::kHealthy);
  EXPECT_EQ(lax.record(4, 0, 1), BudgetVerdict::kUncorrectableBurn);
}

TEST(ErrorBudgetTest, WindowEdgeCountsCorrectedInExactlyOneWindow) {
  ErrorBudgetConfig config;
  config.window_words = 100;
  config.corrected_slo = 0.05;
  ErrorBudget budget(config);

  // A batch straddling the window edge is judged entirely in the window
  // it closes: 96 clean words, then 8 words carrying 5 corrections ->
  // rate 5/104 < 0.05, healthy rollover.
  EXPECT_EQ(budget.record(96, 0, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.record(8, 5, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.windows_completed(), 1u);
  EXPECT_EQ(budget.window_words(), 0u);
  EXPECT_EQ(budget.window_corrected(), 0u);

  // ...and none of those 5 corrections leak into the next window: 4
  // corrections over the next 100 words is 0.04, healthy -- it would be
  // 9/100 > SLO (a burn) if the edge batch were double-counted.
  EXPECT_EQ(budget.record(99, 4, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.record(1, 0, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.windows_completed(), 2u);
  EXPECT_EQ(budget.burns(), 0u);

  // The same straddling batch with one more correction tips the closing
  // window over the SLO: the burn lands in that window, exactly once.
  ErrorBudget hot(config);
  EXPECT_EQ(hot.record(96, 0, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(hot.record(8, 6, 0), BudgetVerdict::kCorrectedBurn);
  EXPECT_EQ(hot.burns(), 1u);
  hot.reset();
  // Post-reset accounting restarts from an empty window.
  EXPECT_EQ(hot.record(100, 0, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(hot.burns(), 1u);
}

TEST(ErrorBudgetTest, ExactWindowBoundaryBatchClosesOneWindow) {
  ErrorBudgetConfig config;
  config.window_words = 100;
  config.corrected_slo = 0.05;
  ErrorBudget budget(config);
  // Exactly at the SLO on exactly one window's worth of words: healthy
  // (the budget is "allowed", not "strictly under").
  EXPECT_EQ(budget.record(100, 5, 0), BudgetVerdict::kHealthy);
  EXPECT_EQ(budget.windows_completed(), 1u);
  EXPECT_EQ(budget.window_words(), 0u);
  // One word over the SLO in the next exact-boundary batch burns once.
  EXPECT_EQ(budget.record(100, 6, 0), BudgetVerdict::kCorrectedBurn);
  EXPECT_EQ(budget.windows_completed(), 2u);
  EXPECT_EQ(budget.burns(), 1u);
}

TEST(ErrorBudgetTest, RecordCleanMatchesPerWordReferenceAcrossEdges) {
  ErrorBudgetConfig config;
  config.window_words = 64;
  config.corrected_slo = 0.1;
  ErrorBudget fast(config);
  ErrorBudget reference(config);
  // Accumulate some corrections short of the edge, then a clean bulk run
  // that crosses several window boundaries.
  for (int i = 0; i < 5; ++i) {
    fast.record(1, 1, 0);
    reference.record(1, 1, 0);
  }
  fast.record_clean(200);
  for (int i = 0; i < 200; ++i) reference.record(1, 0, 0);
  EXPECT_EQ(fast.window_words(), reference.window_words());
  EXPECT_EQ(fast.window_corrected(), reference.window_corrected());
  EXPECT_EQ(fast.windows_completed(), reference.windows_completed());
  EXPECT_EQ(fast.burns(), reference.burns());
  EXPECT_EQ(fast.verdict(), reference.verdict());

  // The clean chunk that completes a window may still burn it on
  // *previously* accumulated corrections -- the edge belongs to the
  // window being closed.
  ErrorBudgetConfig small;
  small.window_words = 10;
  small.corrected_slo = 0.2;
  ErrorBudget budget(small);
  EXPECT_EQ(budget.record(5, 3, 0), BudgetVerdict::kHealthy);
  budget.record_clean(5);  // closes the window at 3/10 > 0.2
  EXPECT_TRUE(budget.burned());
  EXPECT_EQ(budget.verdict(), BudgetVerdict::kCorrectedBurn);
  EXPECT_EQ(budget.burns(), 1u);
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

TEST(PayloadTest, DeterministicPerSeedPcAndOp) {
  const hbm::Beat a = runtime::make_payload(7, 3, 41);
  EXPECT_EQ(a, runtime::make_payload(7, 3, 41));
  EXPECT_NE(a, runtime::make_payload(8, 3, 41));
  EXPECT_NE(a, runtime::make_payload(7, 4, 41));
  EXPECT_NE(a, runtime::make_payload(7, 3, 42));
}

// The worker's run compare: one compare over the run, a per-beat count
// only on a difference.  Every count equals the per-beat loop's.
TEST(MismatchCountTest, RunCompareMatchesPerBeatLoop) {
  constexpr std::uint64_t kRun = 512;
  std::vector<hbm::Beat> want(kRun);
  for (std::uint64_t k = 0; k < kRun; ++k) {
    want[k] = runtime::make_payload(11, 2, k);
  }
  const auto per_beat = [&](const std::vector<hbm::Beat>& got) {
    std::uint64_t n = 0;
    for (std::uint64_t k = 0; k < kRun; ++k) n += got[k] != want[k];
    return n;
  };
  const std::vector<std::vector<std::uint64_t>> cases = {
      {}, {0}, {kRun / 2}, {kRun - 1}, {0, 200, kRun - 1}};
  for (const auto& flipped : cases) {
    std::vector<hbm::Beat> got = want;
    for (const std::uint64_t k : flipped) got[k][k % 4] ^= 1ull << (k % 64);
    EXPECT_EQ(runtime::count_mismatched_beats(got.data(), want.data(), kRun),
              per_beat(got))
        << flipped.size() << " flipped beats";
    EXPECT_EQ(runtime::count_mismatched_beats(got.data(), want.data(), kRun),
              flipped.size());
  }
  // A one-beat run and an empty run.
  hbm::Beat one = want[0];
  EXPECT_EQ(runtime::count_mismatched_beats(&one, want.data(), 1), 0u);
  one[3] ^= 1;
  EXPECT_EQ(runtime::count_mismatched_beats(&one, want.data(), 1), 1u);
  EXPECT_EQ(runtime::count_mismatched_beats(&one, want.data(), 0), 0u);
}

// ---------------------------------------------------------------------------
// ReliableChannel: rung 0 (correct + scrub)
// ---------------------------------------------------------------------------

TEST(ReliableChannelTest, CleanServeAtNominalNeverEscalates) {
  board::Vcu128Board board(tiny_board());
  ReliableChannel channel(board, 0);
  const auto trace = workload::make_uniform_random(
      channel.capacity(), 1024, 0.25, 11);
  auto report = channel.serve_trace(trace);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().ops, 1024u);
  EXPECT_EQ(report.value().corrupt_reads, 0u);
  EXPECT_EQ(report.value().escalated_reads, 0u);
  EXPECT_EQ(channel.stats().corrected_words, 0u);
  EXPECT_EQ(channel.stats().uncorrectable_blocked, 0u);
  EXPECT_TRUE(channel.ladder_trace().empty());
  // The implicit patrol scrubber ran and found nothing to repair.
  EXPECT_GT(channel.stats().scrub_beats, 0u);
  EXPECT_EQ(channel.stats().scrub_writebacks, 0u);
}

TEST(ReliableChannelTest, EccAbsorbsSingleBitStuckCellsAt950) {
  // At 950 mV PC 4 has stuck cells, but every one lands in a distinct
  // codeword: rung 0 alone must serve indefinitely.  The budget and
  // retirement knobs are opened wide to isolate the pure ECC path.
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  ReliableChannelConfig config;
  config.budget.corrected_slo = 1.0;
  config.retire_threshold = 1u << 20;
  ReliableChannel channel(board, kWeakPc, config);
  const auto trace = workload::make_uniform_random(
      channel.capacity(), 4096, 0.25, 13);
  auto report = channel.serve_trace(trace);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().corrupt_reads, 0u);
  EXPECT_EQ(report.value().escalated_reads, 0u);
  EXPECT_GT(channel.stats().corrected_words, 0u);
  EXPECT_EQ(channel.stats().uncorrectable_blocked, 0u);
  EXPECT_TRUE(channel.ladder_trace().empty());
  EXPECT_EQ(board.hbm_voltage().value, 950);
}

TEST(ReliableChannelTest, ScrubRepairsBitRotInPlace) {
  board::Vcu128Board board(tiny_board());
  ReliableChannelConfig config;
  config.scrub_interval_ops = 0;  // manual scrubbing only
  ReliableChannel channel(board, 0, config);
  const std::uint64_t data_seed = 99;
  for (std::uint64_t beat = 0; beat < channel.capacity(); ++beat) {
    ASSERT_TRUE(
        channel.write(beat, runtime::make_payload(data_seed, 0, beat))
            .is_ok());
  }
  // Rot one stored data bit behind the channel's back (logical beat 5 is
  // physically beat 5 -- the remap starts out as the identity).
  const hbm::PcId pc = hbm::PcId::from_global(board.geometry(), 0);
  hbm::MemoryArray& array = board.stack(pc.stack).array(pc.index);
  const std::uint64_t bit = 5 * 256 + 17;
  const bool original = array.read_bit(bit);
  array.write_bit(bit, !original);

  // A full patrol pass finds it, corrects it, and writes the fix back.
  const std::uint64_t slices =
      channel.capacity() / config.scrub_batch_beats + 1;
  for (std::uint64_t i = 0; i < slices; ++i) {
    ASSERT_TRUE(channel.scrub_slices(1).is_ok());
  }
  EXPECT_GE(channel.stats().scrub_corrected, 1u);
  EXPECT_GE(channel.stats().scrub_writebacks, 1u);
  EXPECT_EQ(channel.stats().scrub_uncorrectable, 0u);
  EXPECT_EQ(array.read_bit(bit), original) << "correction not written back";

  // A second pass is clean: the rot is gone, not just masked per-read.
  const std::uint64_t corrected_before = channel.stats().scrub_corrected;
  for (std::uint64_t i = 0; i < slices; ++i) {
    ASSERT_TRUE(channel.scrub_slices(1).is_ok());
  }
  EXPECT_EQ(channel.stats().scrub_corrected, corrected_before);

  auto got = channel.read(5);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), channel.journal_beat(5));
}

// ---------------------------------------------------------------------------
// ReliableChannel: rung 1 (retire) and the upper rungs
// ---------------------------------------------------------------------------

TEST(ReliableChannelTest, BudgetBurnRetiresHotRowsBeforeDataLoss) {
  // A tight corrected-SLO at 950 mV burns on correction volume alone;
  // the ladder's answer is rung 1: retire the rows the corrections
  // cluster on, without a single uncorrectable word ever appearing.
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  ReliableChannelConfig config;
  config.budget.window_words = 512;
  config.budget.corrected_slo = 0.001;
  config.spare_fraction = 0.25;
  ReliableChannel channel(board, kWeakPc, config);
  const auto trace = workload::make_uniform_random(
      channel.capacity(), 4096, 0.25, 17);
  auto report = channel.serve_trace(trace);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().corrupt_reads, 0u);
  EXPECT_EQ(channel.stats().uncorrectable_blocked, 0u);
  EXPECT_GT(channel.stats().rows_retired, 0u);
  EXPECT_GT(channel.stats().beats_migrated, 0u);
  bool saw_retire = false;
  for (const auto& event : channel.ladder_trace()) {
    if (event.rung == LadderRung::kRetire) saw_retire = true;
  }
  EXPECT_TRUE(saw_retire);
  // Retirement moved traffic off the weak rows: the tail of the run
  // corrects less than the head did.
  EXPECT_GT(channel.budget().windows_completed(), 0u);
}

TEST(ReliableChannelTest, LadderEscapesUncorrectableWordsAt930) {
  // 930 mV on PC 4: two codewords carry two stuck bits each, so demand
  // reads hit genuine uncorrectable words.  The contract: no corrupt
  // data is ever delivered, and the ladder (retire, then raise when a
  // migration read is itself uncorrectable) works the channel back to a
  // voltage it can serve from.
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{930}).is_ok());
  ReliableChannelConfig config;
  config.spare_fraction = 0.25;
  ReliableChannel channel(board, kWeakPc, config);
  const auto trace = workload::make_uniform_random(
      channel.capacity(), 4096, 0.25, 19);
  auto report = channel.serve_trace(trace);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().ops, 4096u);
  EXPECT_EQ(report.value().corrupt_reads, 0u);
  // Write-verify catches the armed words at write time, so escalations
  // fire proactively -- demand reads may never even see a refusal.
  const auto& stats = channel.stats();
  EXPECT_GT(stats.verify_caught + stats.uncorrectable_blocked, 0u);
  EXPECT_FALSE(channel.ladder_trace().empty());
  EXPECT_GT(stats.rows_retired + stats.raises + stats.power_cycles, 0u);
  EXPECT_GE(board.hbm_voltage().value, 930);

  // Every live beat is still readable and matches the journal.
  for (std::uint64_t beat = 0; beat < channel.capacity(); ++beat) {
    if (!channel.journal_live(beat)) continue;
    auto got = channel.read(beat);
    ASSERT_TRUE(got.is_ok()) << "beat " << beat << ": "
                             << got.status().to_string();
    EXPECT_EQ(got.value(), channel.journal_beat(beat));
  }
}

TEST(ReliableChannelTest, PowerCycleRestoreRebuildsFromJournal) {
  board::Vcu128Board board(tiny_board());
  ReliableChannel channel(board, 0);
  for (std::uint64_t beat = 0; beat < channel.capacity(); ++beat) {
    ASSERT_TRUE(
        channel.write(beat, runtime::make_payload(3, 0, beat)).is_ok());
  }
  ASSERT_TRUE(board.power_cycle().is_ok());  // scrambles the arrays
  ASSERT_TRUE(channel.restore_after_power_cycle().is_ok());
  EXPECT_EQ(channel.stats().power_cycles, 1u);
  ASSERT_FALSE(channel.ladder_trace().empty());
  EXPECT_EQ(channel.ladder_trace().back().rung, LadderRung::kPowerCycle);
  for (std::uint64_t beat = 0; beat < channel.capacity(); ++beat) {
    auto got = channel.read(beat);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), channel.journal_beat(beat));
  }
}

TEST(ReliableChannelTest, OnlineReRetirementAfterWeakCellBurst) {
  // A mid-run burst makes cells stuck at EVERY voltage, including
  // nominal -- raising cannot wash these out, so the channel must retire
  // its way around them (falling back to the journal when a migration
  // read is uncorrectable even at nominal).
  board::Vcu128Board board(tiny_board());
  ReliableChannelConfig config;
  config.spare_fraction = 0.25;
  ReliableChannel channel(board, 0, config);
  const auto warmup = workload::make_uniform_random(
      channel.capacity(), 1024, 0.25, 23);
  ASSERT_TRUE(channel.serve_trace(warmup).is_ok());

  board.injector().add_burst(0, 64, 64);  // dense enough to pair up

  const auto after = workload::make_uniform_random(
      channel.capacity(), 4096, 0.25, 29);
  auto report = channel.serve_trace(after);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().corrupt_reads, 0u);
  EXPECT_GT(channel.stats().rows_retired, 0u);
  // With 128 burst cells in 224 data words, some words pair up even at
  // nominal; those migrations must come from the journal.
  EXPECT_GT(channel.stats().journal_migrations, 0u);
}

TEST(ReliableChannelTest, TelemetryCountersFlowAtSyncPoints) {
  telemetry::Telemetry telemetry;
  telemetry::ScopedTelemetry scope(telemetry);
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  ReliableChannelConfig config;
  config.budget.window_words = 512;
  config.budget.corrected_slo = 0.001;
  config.spare_fraction = 0.25;
  ReliableChannel channel(board, kWeakPc, config);
  const auto trace = workload::make_uniform_random(
      channel.capacity(), 2048, 0.25, 31);
  ASSERT_TRUE(channel.serve_trace(trace).is_ok());
  const std::string summary = telemetry.summary();
  EXPECT_NE(summary.find("runtime.reads"), std::string::npos);
  EXPECT_NE(summary.find("runtime.corrected_words"), std::string::npos);
  EXPECT_NE(summary.find("scrub.beats"), std::string::npos);
  EXPECT_NE(summary.find("runtime.ladder.retire"), std::string::npos);
  EXPECT_NE(summary.find("runtime.spares_free"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet: determinism and the chaos soak
// ---------------------------------------------------------------------------

FleetConfig storm_fleet(std::vector<unsigned> pcs, std::uint64_t ops_per_pc,
                        unsigned threads) {
  FleetConfig config;
  config.pcs = std::move(pcs);
  config.ops_per_pc = ops_per_pc;
  config.ops_per_epoch = 512;
  config.seed = 101;
  config.threads = threads;
  config.channel.spare_fraction = 0.25;
  return config;
}

chaos::ChaosConfig storm_chaos() {
  chaos::ChaosConfig config;
  config.seed = 404;
  config.weak_burst_rate = 1e-4;
  config.bit_rot_rate = 1e-3;
  config.burst_cells = 4;
  return config;
}

runtime::FleetReport run_storm_fleet(const std::vector<unsigned>& pcs,
                                     std::uint64_t ops_per_pc,
                                     unsigned threads, Millivolts start) {
  board::Vcu128Board board(tiny_board());
  EXPECT_TRUE(board.set_hbm_voltage(start).is_ok());
  chaos::ChaosInjector injector(board, storm_chaos());
  FleetConfig config = storm_fleet(pcs, ops_per_pc, threads);
  config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
    return injector.storm_tick(pc, tick);
  };
  ServingFleet fleet(board, config);
  auto report = fleet.run();
  EXPECT_TRUE(report.is_ok()) << report.status().to_string();
  return report.is_ok() ? report.value() : runtime::FleetReport{};
}

TEST(FleetTest, FingerprintIsThreadCountInvariant) {
  const std::vector<unsigned> pcs = {0, kWeakPc, 5, 18};
  const auto serial = run_storm_fleet(pcs, 2048, 1, Millivolts{940});
  const auto parallel = run_storm_fleet(pcs, 2048, 4, Millivolts{940});
  const auto replay = run_storm_fleet(pcs, 2048, 1, Millivolts{940});
  EXPECT_EQ(serial.corrupt_reads, 0u);
  EXPECT_EQ(parallel.corrupt_reads, 0u);
  EXPECT_NE(serial.fingerprint, 0u);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint)
      << "threads=1 vs threads=4 diverged";
  EXPECT_EQ(serial.fingerprint, replay.fingerprint)
      << "same-seed replay diverged";
  EXPECT_EQ(serial.final_voltage.value, parallel.final_voltage.value);
  EXPECT_EQ(serial.ops, 4u * 2048u);
}

TEST(FleetTest, ChaosSoakMillionBeatsZeroCorruption) {
  // The PR's acceptance soak: every PC on the board, undervolted into
  // weak-PC fault territory, with chaos fault storms (weak-cell bursts +
  // bit rot) landing throughout -- over 10^6 served beats and not one
  // corrupt read.  Ladder escalations land in telemetry.
  telemetry::Telemetry telemetry;
  telemetry::ScopedTelemetry scope(telemetry);
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  chaos::ChaosInjector injector(board, storm_chaos());
  FleetConfig config = storm_fleet({}, 1u << 15, 4);
  config.ops_per_epoch = 2048;
  config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
    return injector.storm_tick(pc, tick);
  };
  ServingFleet fleet(board, config);
  auto report = fleet.run();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const runtime::FleetReport& r = report.value();
  EXPECT_GE(r.ops, 1'000'000u);
  EXPECT_EQ(r.corrupt_reads, 0u);
  EXPECT_GT(r.escalated_reads, 0u);
  EXPECT_GT(injector.injected(chaos::FaultKind::kWeakCellBurst), 0u);
  EXPECT_GT(injector.injected(chaos::FaultKind::kBitRot), 0u);

  std::uint64_t ladder_events = 0;
  for (std::size_t i = 0; i < fleet.channels(); ++i) {
    ladder_events += fleet.channel(i).ladder_trace().size();
  }
  EXPECT_GT(ladder_events, 0u);

  const std::string summary = telemetry.summary();
  EXPECT_NE(summary.find("runtime.reads"), std::string::npos);
  EXPECT_NE(summary.find("scrub.beats"), std::string::npos);
  EXPECT_NE(summary.find("chaos.injected.weak_cell_burst"),
            std::string::npos);
  EXPECT_NE(summary.find("chaos.injected.bit_rot"), std::string::npos);
  EXPECT_NE(summary.find("runtime.ladder."), std::string::npos);
}

}  // namespace
}  // namespace hbmvolt
