// Golden-figure regression suite: a fixed-seed campaign must reproduce
// the checked-in fig2/fig4/fig5 CSVs and headline numbers exactly,
// byte for byte.  Any intentional change to the model's numerics shows up
// here as a diff against tests/golden/ and must be reviewed by
// regenerating the goldens:
//
//   cmake --build build -j
//   HBMVOLT_REGEN_GOLDEN=1 ./build/tests/golden_test
//   git diff tests/golden/   # review, then commit
//
// The campaign runs on the serial reference path (threads = 1);
// tests/parallel_test.cpp separately proves every thread count matches
// that path, so together the suites pin the parallel engine's output.
//
// fleet_fingerprints.txt pins the serving stack the same way: one row per
// (scheme, source, chaos, threads) cell of a small ServingFleet matrix,
// plus one halt -> checkpoint -> restore row per scheme, each carrying the
// fleet, data and tenant fingerprints and the served op counts.
// channel_serve.txt pins ReliableChannel::serve_trace: one row per
// (PC, voltage, traffic) case with the report counters, the channel
// stats, a ladder-trace digest and a journal digest.
// checkpoint_fingerprints.txt pins the campaign's checkpoint.json: one row
// per halt step of the artifact campaign, with the file's size and digest.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "runtime/fleet.hpp"
#include "serve/plane.hpp"
#include "workload/trace.hpp"

#ifndef HBMVOLT_GOLDEN_DIR
#error "HBMVOLT_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace hbmvolt {
namespace {

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

/// Canonical headline serialization at full double precision (%.17g
/// round-trips IEEE doubles exactly), so golden comparison pins every bit.
std::string headline_text(const core::HeadlineNumbers& h) {
  char buffer[128];
  std::ostringstream out;
  const auto field = [&](const char* name, double value) {
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g\n", name, value);
    out << buffer;
  };
  out << "v_nom_mv=" << h.guardband.v_nom.value << "\n";
  out << "v_min_mv=" << h.guardband.v_min.value << "\n";
  out << "v_first_fault_mv=" << h.guardband.v_first_fault.value << "\n";
  out << "v_critical_mv=" << h.guardband.v_critical.value << "\n";
  out << "crash_observed=" << (h.guardband.crash_observed ? 1 : 0) << "\n";
  field("guardband_fraction", h.guardband.guardband_fraction);
  field("savings_at_vmin", h.savings_at_vmin);
  field("savings_at_850mv", h.savings_at_850mv);
  field("idle_fraction", h.idle_fraction);
  field("alpha_drop_at_850mv", h.alpha_drop_at_850mv);
  out << "better_stack=" << h.stack_variation.better_stack << "\n";
  field("stack_average_gap", h.stack_variation.average_gap);
  out << "stack_samples=" << h.stack_variation.samples << "\n";
  out << "first_1to0_mv="
      << (h.pattern_variation.first_1to0
              ? h.pattern_variation.first_1to0->value
              : -1)
      << "\n";
  out << "first_0to1_mv="
      << (h.pattern_variation.first_0to1
              ? h.pattern_variation.first_0to1->value
              : -1)
      << "\n";
  field("average_0to1_excess", h.pattern_variation.average_0to1_excess);
  out << "pattern_samples=" << h.pattern_variation.samples << "\n";
  return out.str();
}

/// Compares `actual` against the golden file, or rewrites the golden
/// when HBMVOLT_REGEN_GOLDEN is set in the environment.
void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(HBMVOLT_GOLDEN_DIR) + "/" + name;
  if (std::getenv("HBMVOLT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "write failed: " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " -- run with HBMVOLT_REGEN_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  // EXPECT_EQ on the whole string: a failure prints the first diverging
  // bytes, and the regen command above produces the reviewable diff.
  EXPECT_EQ(actual, expected.str()) << "golden mismatch: " << name;
}

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    board::Vcu128Board board(tiny_board());
    core::Campaign campaign(board, fast_campaign());
    auto run = campaign.run();
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    result_ = new core::CampaignResult(std::move(run).value());
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static void check(const std::string& name, const std::string& actual) {
    check_golden(name, actual);
  }

  static core::CampaignResult* result_;
};

core::CampaignResult* GoldenTest::result_ = nullptr;

TEST_F(GoldenTest, Fig2PowerCsvMatches) {
  check("fig2.csv", core::to_csv_fig2(result_->power));
}

TEST_F(GoldenTest, Fig4FaultRateCsvMatches) {
  check("fig4.csv", core::to_csv_fig4(result_->fault_map));
}

TEST_F(GoldenTest, Fig5PerPcCsvMatches) {
  check("fig5.csv", core::to_csv_fig5(result_->fault_map));
}

TEST_F(GoldenTest, HeadlineNumbersMatch) {
  check("headline.txt", headline_text(result_->headline));
}

// ---------------------------------------------------------------------------
// Campaign checkpoint bytes
// ---------------------------------------------------------------------------

/// Halt steps at which checkpoint.json is pinned.  The campaign has 21
/// reliability steps, then 5 power series of 8 voltages (61 steps): 2, 5
/// and 20 halt inside the reliability phase, 21 at its last step, 22 at
/// the first power step, 24 and 29 inside the first and second series,
/// and 60 one step before the end.
constexpr unsigned kCheckpointHalts[] = {2, 5, 20, 21, 22, 24, 29, 60};

class CheckpointGoldenTest : public ::testing::Test {
 protected:
  /// Runs the artifact campaign once per halt step, each into its own
  /// directory, and keeps the checkpoint.json it leaves behind.
  static void SetUpTestSuite() {
    paths_ = new std::vector<std::string>;
    texts_ = new std::vector<std::string>;
    for (const unsigned halt : kCheckpointHalts) {
      const std::filesystem::path dir =
          std::filesystem::path("golden_test_tmp") /
          ("ckpt_halt_" + std::to_string(halt));
      std::filesystem::remove_all(dir);
      core::CampaignConfig config = fast_campaign();
      config.dry_run = false;
      config.output_dir = dir.string();
      config.halt_after_steps = halt;
      board::Vcu128Board board(tiny_board());
      core::Campaign campaign(board, config);
      auto run = campaign.run();
      ASSERT_TRUE(run.is_ok()) << run.status().to_string();
      ASSERT_TRUE(run.value().halted) << "halt " << halt;
      const std::string path = (dir / "checkpoint.json").string();
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.good()) << "no checkpoint after halt " << halt;
      std::ostringstream text;
      text << in.rdbuf();
      paths_->push_back(path);
      texts_->push_back(text.str());
    }
  }

  static void TearDownTestSuite() {
    delete paths_;
    paths_ = nullptr;
    delete texts_;
    texts_ = nullptr;
  }

  static std::vector<std::string>* paths_;
  static std::vector<std::string>* texts_;
};

std::vector<std::string>* CheckpointGoldenTest::paths_ = nullptr;
std::vector<std::string>* CheckpointGoldenTest::texts_ = nullptr;

TEST_F(CheckpointGoldenTest, HaltedCheckpointBytesMatch) {
  std::string rows;
  for (std::size_t i = 0; i < texts_->size(); ++i) {
    // FNV-1a over the file's bytes.
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const unsigned char c : (*texts_)[i]) {
      digest = (digest ^ c) * 0x100000001b3ull;
    }
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "halt=%u bytes=%zu fnv1a=%016llx\n",
                  kCheckpointHalts[i], (*texts_)[i].size(),
                  static_cast<unsigned long long>(digest));
    rows += buffer;
  }
  check_golden("checkpoint_fingerprints.txt", rows);
}

TEST_F(CheckpointGoldenTest, HaltedFileReencodesToItself) {
  for (std::size_t i = 0; i < texts_->size(); ++i) {
    auto loaded =
        core::load_checkpoint((*paths_)[i], tiny_board().geometry);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_EQ(core::checkpoint_to_json(loaded.value()), (*texts_)[i])
        << "halt " << kCheckpointHalts[i];
  }
}

// ---------------------------------------------------------------------------
// Serving fleet fingerprint matrix
// ---------------------------------------------------------------------------

enum class Source { kUniform, kStreaming, kPlane };

const char* source_name(Source source) {
  switch (source) {
    case Source::kUniform:
      return "uniform";
    case Source::kStreaming:
      return "streaming";
    case Source::kPlane:
      return "plane";
  }
  return "?";
}

struct FleetCell {
  mitigate::MitigationKind scheme = mitigate::MitigationKind::kSecded;
  Source source = Source::kUniform;
  bool chaos = false;
  unsigned threads = 1;
};

struct FleetRun {
  runtime::FleetReport report;
  std::uint64_t rot = 0;
  std::uint64_t bursts = 0;
  std::uint64_t kills = 0;
};

/// One cell on a fresh test_tiny board at 950 mV.  Chaos adds bit rot,
/// weak-cell bursts and whole-PC kills through ChaosInjector::storm_tick.
/// `halt_after` > 0 stops the fleet at that barrier, checkpoints it, and
/// finishes the run on a second fresh board and fleet from the checkpoint.
FleetRun run_cell(const FleetCell& cell, std::uint64_t halt_after = 0) {
  chaos::ChaosConfig chaos_config;
  chaos_config.seed = 11;
  if (cell.chaos) {
    chaos_config.bit_rot_rate = 1e-3;
    chaos_config.weak_burst_rate = 2e-4;
    chaos_config.pc_kill_rate = 6e-4;
    chaos_config.burst_cells = 4;
  }
  serve::PlaneConfig plane_config;
  plane_config.tenants = serve::make_tenant_set(
      4,
      {serve::WorkloadMix::kZipfian, serve::WorkloadMix::kStreaming,
       serve::WorkloadMix::kPointerChase, serve::WorkloadMix::kUniform},
      /*ops=*/1500, /*footprint_beats=*/256, /*quota_per_epoch=*/128);
  plane_config.seed = 21;
  plane_config.chunk_beats = 16;
  serve::RequestPlane plane(plane_config);

  const auto make_config = [&](chaos::ChaosInjector& injector) {
    runtime::FleetConfig config;
    config.scheme = cell.scheme;
    config.stripe_width = 4;
    config.rebuild_beats_per_epoch = 8;
    config.ops_per_pc = 512;
    config.ops_per_epoch = 64;
    config.seed = 21;
    config.threads = cell.threads;
    config.channel.spare_fraction = 0.25;
    if (cell.source == Source::kStreaming) config.streaming_passes = 4;
    if (cell.source == Source::kPlane) config.source = &plane;
    if (cell.chaos) {
      config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
        return injector.storm_tick(pc, tick);
      };
    }
    return config;
  };

  FleetRun out;
  board::Vcu128Board board(tiny_board());
  EXPECT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  chaos::ChaosInjector injector(board, chaos_config);
  runtime::FleetConfig config = make_config(injector);
  config.halt_after_epochs = halt_after;
  runtime::ServingFleet fleet(board, config);
  auto result = fleet.run();
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  if (!result.is_ok()) return out;
  out.report = result.value();
  const auto note_chaos = [&out](const chaos::ChaosInjector& inj) {
    out.rot += inj.injected(chaos::FaultKind::kBitRot);
    out.bursts += inj.injected(chaos::FaultKind::kWeakCellBurst);
    out.kills += inj.injected(chaos::FaultKind::kPcKill);
  };
  note_chaos(injector);
  if (halt_after == 0) return out;

  EXPECT_TRUE(out.report.halted) << "run finished before the halt barrier";
  const runtime::FleetCheckpoint ck = fleet.checkpoint();
  board::Vcu128Board fresh(tiny_board());
  chaos::ChaosInjector resumed_injector(fresh, chaos_config);
  runtime::ServingFleet resumed(fresh, make_config(resumed_injector));
  EXPECT_TRUE(resumed.restore(ck).is_ok());
  auto rest = resumed.run();
  EXPECT_TRUE(rest.is_ok()) << rest.status().to_string();
  if (!rest.is_ok()) return out;
  out.report = rest.value();
  note_chaos(resumed_injector);
  return out;
}

std::string fleet_row(const FleetCell& cell, const std::string& tag,
                      const FleetRun& run) {
  const runtime::FleetReport& r = run.report;
  char buffer[320];
  std::snprintf(
      buffer, sizeof(buffer),
      "%s %s chaos=%d %s fleet=%016llx data=%016llx tenant=%016llx "
      "ops=%llu reads=%llu writes=%llu injected=%llu/%llu/%llu\n",
      mitigate::to_string(cell.scheme), source_name(cell.source),
      cell.chaos ? 1 : 0, tag.c_str(),
      static_cast<unsigned long long>(r.fingerprint),
      static_cast<unsigned long long>(r.data_fingerprint),
      static_cast<unsigned long long>(r.tenant_fingerprint),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.reads),
      static_cast<unsigned long long>(r.writes),
      static_cast<unsigned long long>(run.rot),
      static_cast<unsigned long long>(run.bursts),
      static_cast<unsigned long long>(run.kills));
  return buffer;
}

TEST(FleetGoldenTest, FingerprintMatrixMatches) {
  std::string rows;
  for (const auto scheme : {mitigate::MitigationKind::kSecded,
                            mitigate::MitigationKind::kDected,
                            mitigate::MitigationKind::kStripe}) {
    for (const Source source :
         {Source::kUniform, Source::kStreaming, Source::kPlane}) {
      for (const bool chaos : {false, true}) {
        FleetCell cell{scheme, source, chaos, 1};
        const FleetRun serial = run_cell(cell);
        rows += fleet_row(cell, "threads=1", serial);
        cell.threads = 4;
        const FleetRun parallel = run_cell(cell);
        rows += fleet_row(cell, "threads=4", parallel);

        const std::string where = fleet_row(cell, "", serial);
        EXPECT_EQ(serial.report.corrupt_reads, 0u) << where;
        if (chaos) {
          EXPECT_GT(serial.rot, 0u) << where;
          EXPECT_GT(serial.bursts, 0u) << where;
          EXPECT_GT(serial.kills, 0u) << where;
        }
        EXPECT_EQ(parallel.report.corrupt_reads, 0u) << where;
        EXPECT_EQ(serial.report.fingerprint, parallel.report.fingerprint)
            << where;
        EXPECT_EQ(serial.report.data_fingerprint,
                  parallel.report.data_fingerprint)
            << where;
        EXPECT_EQ(serial.report.tenant_fingerprint,
                  parallel.report.tenant_fingerprint)
            << where;
      }
    }
    // Kill + resume: a halt mid-run, a checkpoint, and a restore onto a
    // fresh board must finish byte-identical to the uninterrupted run.
    const FleetCell cell{scheme, Source::kUniform, true, 1};
    const FleetRun whole = run_cell(cell);
    const FleetRun resumed = run_cell(cell, /*halt_after=*/3);
    rows += fleet_row(cell, "resume", resumed);
    EXPECT_EQ(resumed.report.corrupt_reads, 0u);
    EXPECT_EQ(resumed.report.fingerprint, whole.report.fingerprint)
        << mitigate::to_string(scheme);
    EXPECT_EQ(resumed.report.data_fingerprint, whole.report.data_fingerprint)
        << mitigate::to_string(scheme);
    EXPECT_EQ(resumed.report.ops, whole.report.ops);
  }
  check_golden("fleet_fingerprints.txt", rows);
}

// ---------------------------------------------------------------------------
// Channel-level serve_trace
// ---------------------------------------------------------------------------

struct ChannelCell {
  unsigned pc = 0;
  int mv = 1200;
  bool streaming = false;
  double spare = 0.05;
  bool burst = false;  // a 64/64 weak-cell burst on the PC before serving
};

/// One ReliableChannel::serve_trace run on a fresh test_tiny board: the
/// report counters, the ChannelStats fields the fleet fingerprint folds,
/// the ladder trace and the journal, each as one row.
std::string channel_row(const ChannelCell& cell) {
  board::Vcu128Board board(tiny_board());
  EXPECT_TRUE(board.set_hbm_voltage(Millivolts{cell.mv}).is_ok());
  if (cell.burst) board.injector().add_burst(cell.pc, 64, 64);
  runtime::ReliableChannelConfig config;
  config.spare_fraction = cell.spare;
  runtime::ReliableChannel channel(board, cell.pc, config);
  const workload::AccessTrace trace =
      cell.streaming
          ? workload::make_streaming(channel.capacity(), 4)
          : workload::make_uniform_random(channel.capacity(), 2048, 0.25,
                                          0x60D5EED);
  auto served = channel.serve_trace(trace, 5);
  EXPECT_TRUE(served.is_ok()) << served.status().to_string();
  const runtime::ServeReport report =
      served.is_ok() ? served.value() : runtime::ServeReport{};

  const runtime::ChannelStats& cs = channel.stats();
  std::uint64_t ladder = 0;
  for (const runtime::LadderEvent& event : channel.ladder_trace()) {
    ladder = mix_seed(ladder, static_cast<std::uint64_t>(event.rung));
    ladder = mix_seed(ladder, static_cast<std::uint64_t>(event.voltage.value));
    ladder = mix_seed(ladder, event.op);
  }
  std::uint64_t journal = 0;
  for (std::uint64_t beat = 0; beat < channel.capacity(); ++beat) {
    if (!channel.journal_live(beat)) continue;
    journal = mix_seed(journal, beat);
    for (const std::uint64_t word : channel.journal_beat(beat)) {
      journal = mix_seed(journal, word);
    }
  }
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "pc=%u mv=%d %s spare=%.2f burst=%d | ops=%llu reads=%llu "
      "writes=%llu corrupt=%llu escalated=%llu | corr=%llu/%llu unc=%llu "
      "retired=%llu migrated=%llu jmig=%llu parked=%llu verify=%llu "
      "refresh=%llu jserved=%llu recon=%llu rebuilt=%llu scrub=%llu/%llu/"
      "%llu/%llu | ladder=%zu:%016llx final_mv=%d | journal=%016llx\n",
      cell.pc, cell.mv, cell.streaming ? "streaming" : "uniform", cell.spare,
      cell.burst ? 1 : 0, u(report.ops), u(report.reads), u(report.writes),
      u(report.corrupt_reads), u(report.escalated_reads),
      u(cs.corrected_words), u(cs.corrected_check_words),
      u(cs.uncorrectable_blocked), u(cs.rows_retired), u(cs.beats_migrated),
      u(cs.journal_migrations), u(cs.beats_parked), u(cs.verify_caught),
      u(cs.journal_refreshes), u(cs.journal_served_reads),
      u(cs.reconstructed_reads), u(cs.rebuilt_beats), u(cs.scrub_beats),
      u(cs.scrub_corrected), u(cs.scrub_uncorrectable),
      u(cs.scrub_blocks_skipped), channel.ladder_trace().size(), u(ladder),
      board.hbm_voltage().value, u(journal));
  return buffer;
}

TEST(ChannelGoldenTest, ServeTraceMatches) {
  constexpr unsigned kWeakPc = 4;
  const std::vector<ChannelCell> cells = {
      {0, 1200, false, 0.05, false},
      {kWeakPc, 950, false, 0.25, false},
      {kWeakPc, 950, true, 0.25, false},
      {kWeakPc, 930, false, 0.25, false},
      {kWeakPc, 930, true, 0.25, false},
      {kWeakPc, 1200, false, 0.0, true},
  };
  std::string rows;
  for (const ChannelCell& cell : cells) rows += channel_row(cell);
  check_golden("channel_serve.txt", rows);
}

}  // namespace
}  // namespace hbmvolt
