// Cross-PC RAIM erasure stripe: whole-pseudo-channel death, on-the-fly
// XOR reconstruction, online rebuild onto spare PCs, and the checkpoint
// seam that makes a mid-rebuild kill+resume byte-identical.

#include <gtest/gtest.h>

#include <string>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "mitigate/scheme.hpp"
#include "runtime/fleet.hpp"

namespace hbmvolt {
namespace {

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

runtime::FleetConfig stripe_fleet(std::uint64_t ops_per_pc,
                                  unsigned threads, std::uint64_t seed) {
  runtime::FleetConfig config;
  config.scheme = mitigate::MitigationKind::kStripe;
  config.stripe_width = 4;
  config.rebuild_beats_per_epoch = 8;
  config.ops_per_pc = ops_per_pc;
  config.ops_per_epoch = 64;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// Kills global PC `victim` when PC `trigger` (default: the victim
/// itself) reaches op tick `when`.  The trigger must share the victim's
/// worker -- the same PC-local mutation discipline as
/// ChaosInjector::storm_tick, with a deterministic schedule the tests can
/// reason about.
runtime::FleetConfig with_kill(runtime::FleetConfig config,
                               board::Vcu128Board& board, unsigned victim,
                               std::uint64_t when,
                               unsigned trigger = ~0u) {
  if (trigger == ~0u) trigger = victim;
  config.storm_hook = [&board, victim, when, trigger](unsigned pc,
                                                      std::uint64_t tick) {
    if (pc == trigger && tick == when) {
      const hbm::PcId id = hbm::PcId::from_global(board.geometry(), victim);
      board.stack(id.stack).kill_pc(id.index);
    }
    return false;
  };
  return config;
}

TEST(StripeTest, TopologyCarvesGroupsParityAndSpares) {
  board::Vcu128Board board(tiny_board());
  // test_tiny has 32 PCs: width 4 -> 6 groups (24 serving), 6 parity,
  // 2 spares.
  runtime::ServingFleet fleet(board, stripe_fleet(64, 1, 9));
  EXPECT_EQ(fleet.channels(), 24u);
  EXPECT_EQ(fleet.groups(), 6u);
  EXPECT_EQ(fleet.spares_left(), 2u);
  EXPECT_EQ(fleet.scheme(), mitigate::MitigationKind::kStripe);
}

TEST(StripeTest, WholePcDeathIsSurvivedAndRebuiltOnline) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  runtime::FleetConfig config =
      with_kill(stripe_fleet(2048, 1, 42), board, /*victim=*/0,
                /*when=*/70);
  runtime::ServingFleet fleet(board, config);
  const unsigned original_pc = fleet.channel(0).pc_global();

  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const runtime::FleetReport& report = result.value();

  // The headline invariant holds through a whole-PC death.
  EXPECT_EQ(report.corrupt_reads, 0u);
  // Reads of the dead PC were served by XOR reconstruction...
  EXPECT_GT(report.reconstructed_reads, 0u);
  EXPECT_GT(fleet.channel(0).stats().reconstructed_reads, 0u);
  // ...while the rebuild copied the journal onto an adopted spare.
  EXPECT_GT(report.rebuilt_beats, 0u);
  EXPECT_FALSE(fleet.channel(0).device_lost());
  EXPECT_NE(fleet.channel(0).pc_global(), original_pc);
  EXPECT_EQ(fleet.spares_left(), 1u);
  // The stripe-rebuild rung was recorded on the victim's ladder.
  bool saw_rebuild_rung = false;
  for (const runtime::LadderEvent& event : fleet.channel(0).ladder_trace()) {
    saw_rebuild_rung |= event.rung == runtime::LadderRung::kStripeRebuild;
  }
  EXPECT_TRUE(saw_rebuild_rung);
}

TEST(StripeTest, ParityPcDeathIsRebuiltOnline) {
  // Group 0's parity PC (global PC 24: 24 serving PCs come first) dies
  // when member PC 0 reaches tick 70 -- both sit on group 0's worker.
  // Members keep serving from their own silicon, the barrier adopts a
  // spare for the parity channel, and the group rebuilds it online.
  std::uint64_t fingerprints[2] = {0, 0};
  const unsigned thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(std::to_string(thread_counts[run]) + " threads");
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    runtime::ServingFleet fleet(
        board, with_kill(stripe_fleet(2048, thread_counts[run], 42), board,
                         /*victim=*/24, /*when=*/70, /*trigger=*/0));
    const unsigned original_pc = fleet.parity_channel(0).pc_global();
    ASSERT_EQ(original_pc, 24u);
    auto result = fleet.run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().corrupt_reads, 0u);
    fingerprints[run] = result.value().fingerprint;

    const runtime::ReliableChannel& parity = fleet.parity_channel(0);
    EXPECT_FALSE(parity.device_lost());
    EXPECT_NE(parity.pc_global(), original_pc);
    EXPECT_GT(parity.stats().rebuilt_beats, 0u);
    EXPECT_EQ(fleet.spares_left(), 1u);
    bool saw_rebuild_rung = false;
    for (const runtime::LadderEvent& event : parity.ladder_trace()) {
      saw_rebuild_rung |= event.rung == runtime::LadderRung::kStripeRebuild;
    }
    EXPECT_TRUE(saw_rebuild_rung);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(StripeTest, FingerprintIsThreadCountInvariantThroughPcKill) {
  std::uint64_t fingerprints[2] = {0, 0};
  std::uint64_t data_fingerprints[2] = {0, 0};
  const unsigned thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    runtime::FleetConfig config = with_kill(
        stripe_fleet(2048, thread_counts[run], 42), board, 0, 70);
    runtime::ServingFleet fleet(board, config);
    auto result = fleet.run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().corrupt_reads, 0u);
    fingerprints[run] = result.value().fingerprint;
    data_fingerprints[run] = result.value().data_fingerprint;
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(data_fingerprints[0], data_fingerprints[1]);
}

TEST(StripeTest, DataFingerprintIsChaosInvariant) {
  // The data fold sees only what was served, not how: a run whose PC 0
  // dies (reads reconstructed, device rebuilt) must serve byte-identical
  // data to an undisturbed run of the same trace.
  std::uint64_t with_chaos = 0;
  std::uint64_t without_chaos = 0;
  {
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    runtime::ServingFleet fleet(
        board, with_kill(stripe_fleet(2048, 1, 42), board, 0, 70));
    auto result = fleet.run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_GT(result.value().reconstructed_reads, 0u);
    with_chaos = result.value().data_fingerprint;
  }
  {
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    runtime::FleetConfig config = stripe_fleet(2048, 1, 42);
    // A storm hook (that never fires) keeps the serving path per-op, so
    // the two runs serve identical op sequences.
    config.storm_hook = [](unsigned, std::uint64_t) { return false; };
    runtime::ServingFleet fleet(board, config);
    auto result = fleet.run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_EQ(result.value().reconstructed_reads, 0u);
    without_chaos = result.value().data_fingerprint;
  }
  EXPECT_EQ(with_chaos, without_chaos);
}

TEST(StripeTest, ChaosPcKillStormCompletesWithZeroCorruptReads) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());

  chaos::ChaosConfig chaos_config;
  chaos_config.seed = 1313;
  chaos_config.pc_kill_rate = 2e-4;
  chaos_config.weak_burst_rate = 1e-4;
  chaos_config.burst_cells = 4;
  chaos::ChaosInjector injector(board, chaos_config);

  runtime::FleetConfig config = stripe_fleet(2048, 4, 7);
  config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
    return injector.storm_tick(pc, tick);
  };
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().corrupt_reads, 0u);
  EXPECT_GT(injector.injected(chaos::FaultKind::kPcKill), 0u);
}

TEST(StripeTest, CheckpointMidRebuildResumesByteIdentically) {
  // Two victims, both killed when PC 0 reaches tick 70: member PC 0 and
  // group 0's parity PC (global PC 24).
  struct Case {
    const char* name;
    unsigned victim;
    bool parity;  // the victim is group 0's parity channel
  };
  for (const Case& c : {Case{"member", 0, false}, Case{"parity", 24, true}}) {
    SCOPED_TRACE(c.name);
    const auto target = [&c](const runtime::ServingFleet& fleet)
        -> const runtime::ReliableChannel& {
      return c.parity ? fleet.parity_channel(0) : fleet.channel(0);
    };
    const auto config = [&c](board::Vcu128Board& board) {
      return with_kill(stripe_fleet(2048, 1, 42), board, c.victim, 70,
                       /*trigger=*/0);
    };

    // Reference: the uninterrupted run.
    std::uint64_t reference_fp = 0;
    std::uint64_t reference_epochs = 0;
    {
      board::Vcu128Board board(tiny_board());
      ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
      runtime::ServingFleet fleet(board, config(board));
      auto result = fleet.run();
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      reference_fp = result.value().fingerprint;
      reference_epochs = result.value().epochs;
    }

    // Step the same run one epoch at a time until a checkpoint catches
    // the group 0 rebuild in flight (the victim's channel adopted a spare
    // but is not whole yet), then "kill" the process: all that survives
    // is the FleetCheckpoint.  Every halted report must already carry the
    // stripe counts a completed run reports.
    runtime::FleetCheckpoint mid_rebuild;
    bool captured = false;
    std::uint64_t halted_rebuilt = 0;
    {
      board::Vcu128Board board(tiny_board());
      ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
      runtime::FleetConfig stepping = config(board);
      stepping.halt_after_epochs = 1;  // re-armed every run() call
      runtime::ServingFleet fleet(board, stepping);
      for (;;) {
        auto result = fleet.run();
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        const runtime::FleetReport& report = result.value();
        if (!report.halted) break;
        std::uint64_t reconstructed = 0;
        std::uint64_t rebuilt = 0;
        for (std::size_t i = 0; i < fleet.channels(); ++i) {
          reconstructed += fleet.channel(i).stats().reconstructed_reads;
          rebuilt += fleet.channel(i).stats().rebuilt_beats;
        }
        for (std::size_t g = 0; g < fleet.groups(); ++g) {
          rebuilt += fleet.parity_channel(g).stats().rebuilt_beats;
        }
        ASSERT_EQ(report.reconstructed_reads, reconstructed)
            << "epoch " << report.epochs;
        ASSERT_EQ(report.rebuilt_beats, rebuilt) << "epoch " << report.epochs;
        halted_rebuilt = report.rebuilt_beats;
        const runtime::ReliableChannel& ch = target(fleet);
        if (!captured && ch.device_lost() && ch.pc_global() != c.victim) {
          runtime::FleetCheckpoint ck = fleet.checkpoint();
          if (ck.groups[0].rebuild_cursor > 0 &&
              ck.groups[0].rebuild_cursor < ch.capacity()) {
            mid_rebuild = std::move(ck);
            captured = true;
          }
        }
      }
    }
    ASSERT_TRUE(captured) << "no epoch caught the rebuild mid-flight";
    EXPECT_GT(halted_rebuilt, 0u);

    // Resume on a fresh board + fleet and run to completion.
    board::Vcu128Board board(tiny_board());
    runtime::ServingFleet fleet(board, config(board));
    ASSERT_TRUE(fleet.restore(mid_rebuild).is_ok());
    auto resumed = fleet.run();
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed.value().fingerprint, reference_fp);
    EXPECT_EQ(resumed.value().epochs, reference_epochs);
    EXPECT_EQ(resumed.value().corrupt_reads, 0u);
    EXPECT_FALSE(target(fleet).device_lost());
  }
}

TEST(StripeTest, NonStripeSchemesSurvivePcKillFromTheJournal) {
  // Without a stripe, a killed PC degrades to journal-backed serving:
  // still zero corrupt reads, no reconstruction, no rebuild.
  for (const auto scheme : {mitigate::MitigationKind::kSecded,
                            mitigate::MitigationKind::kDected}) {
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    runtime::FleetConfig config =
        with_kill(stripe_fleet(1024, 1, 11), board, 0, 70);
    config.scheme = scheme;
    runtime::ServingFleet fleet(board, config);
    auto result = fleet.run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().corrupt_reads, 0u);
    EXPECT_EQ(result.value().reconstructed_reads, 0u);
    EXPECT_EQ(result.value().rebuilt_beats, 0u);
    EXPECT_TRUE(fleet.channel(0).device_lost());
    EXPECT_GT(fleet.channel(0).stats().journal_served_reads, 0u);
  }
}

}  // namespace
}  // namespace hbmvolt
