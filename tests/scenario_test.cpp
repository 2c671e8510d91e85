// Cross-module scenario tests: the user stories a downstream system
// would actually implement, composed from the library's pieces.

#include <gtest/gtest.h>

#include "board/config_io.hpp"
#include "board/vcu128.hpp"
#include "core/governor.hpp"
#include "core/reliability_tester.hpp"
#include "core/tradeoff.hpp"
#include "ecc/ecc_channel.hpp"
#include "memtest/march.hpp"
#include "mitigate/row_retirement.hpp"

namespace hbmvolt {
namespace {

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

// Story 1: characterize offline, plan an operating point, deploy it, and
// verify in the field with a March test.
TEST(ScenarioTest, CharacterizePlanDeployVerify) {
  board::Vcu128Board board(tiny_board());

  // Characterize.
  core::ReliabilityConfig rel;
  rel.sweep = {Millivolts{1000}, Millivolts{850}, 10};
  rel.batch_size = 1;
  core::ReliabilityTester tester(board, rel);
  const auto map = std::move(tester.run()).value();

  // Plan: 8 PCs, tolerate 1e-3.
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  const auto plan = analyzer.plan(8, 1e-3);
  ASSERT_TRUE(plan.has_value());

  // Deploy.
  ASSERT_TRUE(board.set_hbm_voltage(plan->voltage).is_ok());
  ASSERT_TRUE(board.responding());

  // Verify each planned PC with March C-.  Unit note: the fault map's
  // rate() is flips per *tested bit* (each cell contributes two tested
  // bits, one per pattern, and a stuck cell flips under exactly one), so
  // the equivalent of March's unique-faulty-cell count is
  // faulty_cells / (2 * cells).
  const unsigned per_stack = board.geometry().pcs_per_stack();
  for (const unsigned pc : plan->pcs) {
    memtest::MarchRunner runner(board.stack(pc / per_stack),
                                pc % per_stack);
    auto result = runner.run(memtest::march_c_minus());
    ASSERT_TRUE(result.is_ok());
    const double equivalent_rate =
        static_cast<double>(result.value().faulty_cells) /
        (2.0 * static_cast<double>(result.value().cells));
    EXPECT_LE(equivalent_rate, 1e-3) << "pc " << pc;
  }
}

// Story 2: ECC-aware retirement keeps more capacity than naive
// retirement while remaining error-free end to end.
TEST(ScenarioTest, EccAwareRetirementComposition) {
  board::Vcu128Board board(tiny_board());
  const Millivolts v{905};  // deep enough for multi-fault rows
  auto& injector = board.injector();

  const auto naive = mitigate::RetirementMap::build(injector, v);
  const auto ecc_aware =
      mitigate::RetirementMap::build_filtered(injector, v, 2);
  ASSERT_GT(naive.rows_retired_total(), 0u);
  // Filtering keeps strictly more capacity whenever single-fault rows
  // exist (they do at this voltage on this seed).
  EXPECT_LT(ecc_aware.rows_retired_total(), naive.rows_retired_total());

  // Compose: skip the ECC-aware retirement's rows, protect the rest with
  // SECDED.  The weak PC18 (stack 1, local 2) is the stress case.
  ASSERT_TRUE(board.set_hbm_voltage(v).is_ok());
  auto& stack = board.stack(1);
  const unsigned pc_global = stack.global_pc(2);
  ecc::EccChannel ecc_channel(stack, 2);

  // Walk every surviving data beat through the ECC layer.  Everything in
  // the surviving space decodes clean or corrected -- never lost.
  std::uint64_t checked = 0;
  for (std::uint64_t beat = 0; beat < ecc_channel.data_beats(); ++beat) {
    if (ecc_aware.beat_retired(pc_global, beat)) continue;
    ASSERT_TRUE(ecc_channel.write_beat(beat, hbm::kBeatAllOnes).is_ok());
    auto outcome = ecc_channel.read_beat(beat);
    ASSERT_TRUE(outcome.is_ok());
    EXPECT_EQ(outcome.value().data, hbm::kBeatAllOnes) << beat;
    EXPECT_EQ(outcome.value().uncorrectable, 0u) << beat;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// Story 3: a hot deployment loads its own INI profile; the governor
// lands at a shallower point than on the 35 degC lab board.
TEST(ScenarioTest, HotBoardGovernsShallower) {
  auto ini = IniFile::parse(
      "[geometry]\n"
      "bits_per_pc = 16384\nbanks_per_pc = 2\nbeats_per_row = 8\n"
      "[faults]\n"
      "temperature_c = 85\n"
      "[monitor]\n"
      "noise_sigma_amps = 0\n");
  ASSERT_TRUE(ini.is_ok());
  auto hot_config = board::board_config_from_ini(ini.value());
  ASSERT_TRUE(hot_config.is_ok());
  board::Vcu128Board hot(hot_config.value());
  board::Vcu128Board lab(tiny_board());

  core::GovernorConfig governor_config;
  governor_config.tolerable_rate = 0.0;
  governor_config.probe_beats = lab.geometry().beats_per_pc();
  governor_config.settle_probes = 2;

  auto hot_result = core::UndervoltGovernor(hot, governor_config).run();
  auto lab_result = core::UndervoltGovernor(lab, governor_config).run();
  ASSERT_TRUE(hot_result.is_ok());
  ASSERT_TRUE(lab_result.is_ok());
  EXPECT_EQ(lab_result.value().settled.value, 980);
  EXPECT_GT(hot_result.value().settled.value,
            lab_result.value().settled.value);
}

// Story 4: after a crash mid-experiment, the full pipeline still
// completes and the crash is visible in the record.
TEST(ScenarioTest, CrashMidSweepIsRecoverable) {
  board::Vcu128Board board(tiny_board());
  core::ReliabilityConfig rel;
  rel.sweep = {Millivolts{830}, Millivolts{795}, 5};
  rel.batch_size = 1;
  rel.crash_policy = core::CrashPolicy::kPowerCycleAndContinue;
  core::ReliabilityTester tester(board, rel);
  const auto map = std::move(tester.run()).value();

  unsigned crashes = 0;
  for (const auto v : map.voltages()) {
    const auto* observation = map.at(v);
    if (observation != nullptr && observation->crashed) ++crashes;
  }
  EXPECT_GE(crashes, 2u);  // 805, 800, 795 are below V_critical
  EXPECT_TRUE(board.responding());
  EXPECT_EQ(board.hbm_voltage().value, 1200);
  // Data at surviving voltages is intact.
  EXPECT_GT(map.device_record(Millivolts{830}).bits_tested, 0u);
}

}  // namespace
}  // namespace hbmvolt
