// Unit tests for src/core: voltage sweeps, Algorithm 1, guardband
// extraction, power/fault characterizers, trade-off analysis, reports.

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "core/fault_characterizer.hpp"
#include "core/guardband.hpp"
#include "core/power_characterizer.hpp"
#include "core/reliability_tester.hpp"
#include "core/report.hpp"
#include "core/tradeoff.hpp"
#include "core/voltage_sweep.hpp"

namespace hbmvolt {
namespace {

using board::BoardConfig;
using board::Vcu128Board;
using core::CrashPolicy;
using core::ReliabilityConfig;
using core::ReliabilityTester;
using core::SweepConfig;
using core::VoltageSweep;

BoardConfig tiny_config() {
  BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

// ------------------------------------------------------------ SweepGrid

TEST(SweepGridTest, PaperGridHas40Points) {
  const auto grid = core::sweep_grid(SweepConfig{});
  ASSERT_EQ(grid.size(), 40u);  // 1200 .. 810 inclusive, 10 mV steps
  EXPECT_EQ(grid.front().value, 1200);
  EXPECT_EQ(grid.back().value, 810);
}

TEST(SweepGridTest, CustomStep) {
  const auto grid =
      core::sweep_grid({Millivolts{1000}, Millivolts{900}, 50});
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid[1].value, 950);
}

// ---------------------------------------------------------- VoltageSweep

TEST(VoltageSweepTest, VisitsEveryPointAboveCritical) {
  Vcu128Board board(tiny_config());
  std::vector<int> visited;
  VoltageSweep sweep(board, {Millivolts{1000}, Millivolts{900}, 20});
  ASSERT_TRUE(sweep
                  .run([&](Millivolts v) { visited.push_back(v.value); })
                  .is_ok());
  EXPECT_EQ(visited, (std::vector<int>{1000, 980, 960, 940, 920, 900}));
  // Board restored to nominal afterwards.
  EXPECT_EQ(board.hbm_voltage().value, 1200);
}

TEST(VoltageSweepTest, StopPolicyAbortsAtCrash) {
  Vcu128Board board(tiny_config());
  std::vector<int> visited;
  std::vector<int> crashes;
  VoltageSweep sweep(board, {Millivolts{830}, Millivolts{790}, 10},
                     CrashPolicy::kStop);
  ASSERT_TRUE(sweep
                  .run([&](Millivolts v) { visited.push_back(v.value); },
                       [&](Millivolts v) { crashes.push_back(v.value); })
                  .is_ok());
  EXPECT_EQ(visited, (std::vector<int>{830, 820, 810}));
  EXPECT_EQ(crashes, (std::vector<int>{800}));
  EXPECT_TRUE(board.responding());  // power-cycled on exit
}

TEST(VoltageSweepTest, ContinuePolicyRecordsEveryCrash) {
  Vcu128Board board(tiny_config());
  std::vector<int> crashes;
  VoltageSweep sweep(board, {Millivolts{820}, Millivolts{790}, 10},
                     CrashPolicy::kPowerCycleAndContinue);
  ASSERT_TRUE(sweep
                  .run([](Millivolts) {},
                       [&](Millivolts v) { crashes.push_back(v.value); })
                  .is_ok());
  EXPECT_EQ(crashes, (std::vector<int>{800, 790}));
  EXPECT_TRUE(board.responding());
}

// ----------------------------------------------------- ReliabilityTester

class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest() : board_(tiny_config()) {}

  faults::FaultMap run_map(SweepConfig sweep, unsigned batch = 1,
                           CrashPolicy policy = CrashPolicy::kStop) {
    ReliabilityConfig config;
    config.sweep = sweep;
    config.batch_size = batch;
    config.crash_policy = policy;
    ReliabilityTester tester(board_, config);
    auto result = tester.run();
    EXPECT_TRUE(result.is_ok());
    return std::move(result).value();
  }

  Vcu128Board board_;
};

TEST_F(ReliabilityTest, GuardbandShowsNoFaults) {
  const auto map = run_map({Millivolts{1200}, Millivolts{980}, 20});
  for (const auto v : map.voltages()) {
    EXPECT_EQ(map.device_record(v).total_flips(), 0u) << v.value;
    EXPECT_GT(map.device_record(v).bits_tested, 0u);
  }
}

TEST_F(ReliabilityTest, FirstFlipsAtPaperVoltages) {
  const auto map = run_map({Millivolts{1000}, Millivolts{950}, 10});
  ASSERT_TRUE(map.highest_faulty_voltage().has_value());
  EXPECT_EQ(map.highest_faulty_voltage()->value, 970);
  // 1->0 appears at 0.97 V, 0->1 only at 0.96 V.
  EXPECT_GT(map.device_record(Millivolts{970}).flips_1to0, 0u);
  EXPECT_EQ(map.device_record(Millivolts{970}).flips_0to1, 0u);
  EXPECT_GT(map.device_record(Millivolts{960}).flips_0to1, 0u);
}

TEST_F(ReliabilityTest, EverythingFaultyDeepInUnsafeRegion) {
  const auto map = run_map({Millivolts{840}, Millivolts{840}, 10});
  // With both patterns, every bit reads wrong under one of them:
  // rate = flips / (2 * bits per pattern)... each pattern tests all bits.
  const auto record = map.device_record(Millivolts{840});
  EXPECT_DOUBLE_EQ(record.rate(), 0.5);  // all cells flip in one direction
  // Every cell is stuck: flips_1to0 + flips_0to1 == total cells.
  EXPECT_EQ(record.total_flips(),
            board_.geometry().total_bits());
}

TEST_F(ReliabilityTest, CrashRecordedWithContinuePolicy) {
  const auto map = run_map({Millivolts{820}, Millivolts{800}, 10}, 1,
                           CrashPolicy::kPowerCycleAndContinue);
  const auto* observation = map.at(Millivolts{800});
  ASSERT_NE(observation, nullptr);
  EXPECT_TRUE(observation->crashed);
  EXPECT_FALSE(map.at(Millivolts{810})->crashed);
}

TEST_F(ReliabilityTest, BatchSizeMultipliesTestedBits) {
  const auto map1 = run_map({Millivolts{1000}, Millivolts{1000}, 10}, 1);
  const auto map3 = run_map({Millivolts{1000}, Millivolts{1000}, 10}, 3);
  EXPECT_EQ(map3.device_record(Millivolts{1000}).bits_tested,
            3 * map1.device_record(Millivolts{1000}).bits_tested);
}

TEST_F(ReliabilityTest, MemBeatsLimitsCoverage) {
  ReliabilityConfig config;
  config.sweep = {Millivolts{1000}, Millivolts{1000}, 10};
  config.batch_size = 1;
  config.mem_beats = 4;
  ReliabilityTester tester(board_, config);
  const auto map = std::move(tester.run()).value();
  // 4 beats * 256 b * 2 patterns per PC.
  EXPECT_EQ(map.pc_record(Millivolts{1000}, 0).bits_tested, 4u * 256 * 2);
}

TEST_F(ReliabilityTest, SweepIsDeterministic) {
  const auto a = run_map({Millivolts{960}, Millivolts{900}, 20});
  const auto b = run_map({Millivolts{960}, Millivolts{900}, 20});
  for (const auto v : a.voltages()) {
    for (unsigned pc = 0; pc < 32; ++pc) {
      EXPECT_EQ(a.pc_record(v, pc).flips_1to0, b.pc_record(v, pc).flips_1to0);
      EXPECT_EQ(a.pc_record(v, pc).flips_0to1, b.pc_record(v, pc).flips_0to1);
    }
  }
}

// -------------------------------------------------------------- Guardband

TEST_F(ReliabilityTest, GuardbandAnalysis) {
  const auto map = run_map({Millivolts{1200}, Millivolts{810}, 10}, 1,
                           CrashPolicy::kStop);
  const auto result = core::analyze_guardband(map, Millivolts{1200});
  EXPECT_EQ(result.v_min.value, 980);
  EXPECT_EQ(result.v_first_fault.value, 970);
  EXPECT_EQ(result.v_critical.value, 810);
  EXPECT_NEAR(result.guardband_fraction, 0.1833, 0.0001);
  EXPECT_FALSE(result.crash_observed);  // grid stops at V_critical
}

TEST_F(ReliabilityTest, GuardbandSeesCrashWhenSweepGoesBelowCritical) {
  const auto map = run_map({Millivolts{1200}, Millivolts{800}, 10}, 1,
                           CrashPolicy::kPowerCycleAndContinue);
  const auto result = core::analyze_guardband(map, Millivolts{1200});
  EXPECT_TRUE(result.crash_observed);
  EXPECT_EQ(result.v_critical.value, 810);
}

TEST(GuardbandTest, FindGuardbandConvenience) {
  Vcu128Board board(tiny_config());
  ReliabilityConfig config;
  config.sweep = {Millivolts{1000}, Millivolts{960}, 10};
  config.batch_size = 1;
  auto result = core::find_guardband(board, config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().v_first_fault.value, 970);
}

// ----------------------------------------------------- PowerCharacterizer

class PowerCharTest : public ::testing::Test {
 protected:
  PowerCharTest() : board_(tiny_config()) {}

  core::PowerCharacterization run(core::PowerSweepConfig config = {}) {
    config.samples = 4;
    config.traffic_beats = 8;
    core::PowerCharacterizer characterizer(board_, config);
    auto result = characterizer.run();
    EXPECT_TRUE(result.is_ok());
    return std::move(result).value();
  }

  Vcu128Board board_;
};

TEST_F(PowerCharTest, SeriesCoverConfiguredPortCounts) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{1200}, Millivolts{1100}, 50};
  config.port_counts = {0, 16, 32};
  const auto data = run(config);
  ASSERT_EQ(data.series.size(), 3u);
  EXPECT_EQ(data.series[0].ports, 0u);
  EXPECT_DOUBLE_EQ(data.series[2].utilization, 1.0);
  EXPECT_EQ(data.series[1].voltages.size(), 3u);
}

TEST_F(PowerCharTest, NormalizationReferenceIsMaxPortsAtNominal) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{1200}, Millivolts{1150}, 50};
  config.port_counts = {8, 32};
  const auto data = run(config);
  const auto& full = data.series[1];
  EXPECT_NEAR(data.normalized(full, 0), 1.0, 0.02);
  // Idle series sits near 1/3 at nominal.
  const auto& partial = data.series[0];
  EXPECT_LT(data.normalized(partial, 0), 1.0);
}

TEST_F(PowerCharTest, SavingsFactorsMatchPaper) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{1200}, Millivolts{850}, 10};
  config.port_counts = {0, 16, 32};
  const auto data = run(config);
  for (const auto& series : data.series) {
    const auto at_980 = data.savings_factor(series, Millivolts{980});
    ASSERT_TRUE(at_980.has_value());
    EXPECT_NEAR(*at_980, 1.5, 0.06) << series.ports;
    const auto at_850 = data.savings_factor(series, Millivolts{850});
    ASSERT_TRUE(at_850.has_value());
    EXPECT_NEAR(*at_850, 2.3, 0.15) << series.ports;
  }
}

TEST_F(PowerCharTest, AlphaClfFlatInGuardbandDropsBelow) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{1200}, Millivolts{850}, 10};
  config.port_counts = {32};
  const auto data = run(config);
  const auto& series = data.series[0];
  for (std::size_t i = 0; i < series.voltages.size(); ++i) {
    const double value = data.alpha_clf_normalized(series, i);
    if (series.voltages[i] >= Millivolts{980}) {
      EXPECT_NEAR(value, 1.0, 0.03) << series.voltages[i].value;  // anchor 10
    }
    if (series.voltages[i] == Millivolts{850}) {
      EXPECT_NEAR(value, 0.86, 0.04);  // ~14% drop
    }
  }
}

TEST_F(PowerCharTest, PowerMonotoneInVoltage) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{1200}, Millivolts{900}, 50};
  config.port_counts = {32};
  const auto data = run(config);
  const auto& series = data.series[0];
  for (std::size_t i = 1; i < series.power.size(); ++i) {
    EXPECT_LT(series.power[i].value, series.power[i - 1].value);
  }
}

// ----------------------------------------------------- FaultCharacterizer

class FaultCharTest : public ::testing::Test {
 protected:
  FaultCharTest() : board_(tiny_config()), characterizer_(board_) {}

  faults::FaultMap full_map() {
    ReliabilityConfig config;
    config.sweep = {Millivolts{1000}, Millivolts{845}, 5};
    config.batch_size = 1;
    auto result = characterizer_.characterize(config);
    EXPECT_TRUE(result.is_ok());
    return std::move(result).value();
  }

  Vcu128Board board_;
  core::FaultCharacterizer characterizer_;
};

TEST_F(FaultCharTest, StackVariationMatchesPaperDirection) {
  const auto map = full_map();
  const auto variation = core::analyze_stack_variation(map);
  EXPECT_EQ(variation.better_stack, 0u);  // HBM0 fares better
  EXPECT_GT(variation.samples, 5u);
  EXPECT_GT(variation.average_gap, 0.05);
  EXPECT_LT(variation.average_gap, 0.35);
}

TEST_F(FaultCharTest, PatternVariationMatchesPaper) {
  const auto map = full_map();
  const auto variation = core::analyze_pattern_variation(map);
  ASSERT_TRUE(variation.first_1to0.has_value());
  ASSERT_TRUE(variation.first_0to1.has_value());
  EXPECT_EQ(variation.first_1to0->value, 970);
  EXPECT_EQ(variation.first_0to1->value, 960);
  // 0->1 flips outnumber 1->0 on average (paper: +21%).
  EXPECT_GT(variation.average_0to1_excess, 0.0);
  EXPECT_LT(variation.average_0to1_excess, 0.6);
}

TEST_F(FaultCharTest, PerPcOnsetsIdentifyWeakPcs) {
  const auto map = full_map();
  const auto onsets = core::per_pc_onsets(map);
  ASSERT_EQ(onsets.size(), 32u);
  // Weak PCs fault earliest.
  ASSERT_TRUE(onsets[18].has_value());
  EXPECT_EQ(onsets[18]->value, 970);
  // Strong PCs stay clean above 0.945 V.
  for (const unsigned pc : faults::paper_strong_pcs()) {
    if (onsets[pc].has_value()) {
      EXPECT_LT(onsets[pc]->value, 950) << "pc " << pc;
    }
  }
}

TEST_F(FaultCharTest, ClusteringReport) {
  const auto stats = characterizer_.clustering(18, Millivolts{930});
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.fraction_in_densest_5pct_rows, 0.15);
  // Injector voltage is restored.
  EXPECT_EQ(board_.injector().voltage().value, 1200);
}

// ------------------------------------------------------- TradeoffAnalyzer

class TradeoffTest : public ::testing::Test {
 protected:
  TradeoffTest() : board_(tiny_config()) {}

  faults::FaultMap make_map() {
    ReliabilityConfig config;
    config.sweep = {Millivolts{1000}, Millivolts{850}, 10};
    config.batch_size = 1;
    ReliabilityTester tester(board_, config);
    return std::move(tester.run()).value();
  }

  Vcu128Board board_;
};

TEST_F(TradeoffTest, UsablePcsMonotoneInTolerableRate) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  core::TradeoffConfig config;
  const auto points = analyzer.analyze(config);
  ASSERT_FALSE(points.empty());
  for (const auto& point : points) {
    for (std::size_t i = 1; i < point.usable_pcs.size(); ++i) {
      EXPECT_GE(point.usable_pcs[i], point.usable_pcs[i - 1])
          << "voltage " << point.voltage.value;
    }
  }
}

TEST_F(TradeoffTest, AllPcsUsableInGuardband) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  const auto points = analyzer.analyze(core::TradeoffConfig{});
  EXPECT_EQ(points.front().voltage.value, 1000);
  EXPECT_EQ(points.front().usable_pcs.front(), 32u);  // zero tolerance
}

TEST_F(TradeoffTest, SevenFaultFreePcsAt950) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  core::TradeoffConfig config;
  config.tolerable_rates = {0.0};
  for (const auto& point : analyzer.analyze(config)) {
    if (point.voltage == Millivolts{950}) {
      EXPECT_EQ(point.usable_pcs[0], 7u);  // Fig 6 anchor
      EXPECT_NEAR(point.savings_factor, 1.6, 0.05);  // paper: "up to 1.6x"
    }
  }
}

TEST_F(TradeoffTest, SavingsFactorPureV2WithoutModel) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  EXPECT_NEAR(analyzer.savings_factor(Millivolts{900}), 16.0 / 9.0, 1e-9);
  EXPECT_DOUBLE_EQ(analyzer.savings_factor(Millivolts{0}), 1.0);
}

TEST_F(TradeoffTest, SavingsFactorWithModelIncludesAlpha) {
  const auto map = make_map();
  core::TradeoffAnalyzer with_model(map, Millivolts{1200},
                                    &board_.power_model());
  core::TradeoffAnalyzer without(map, Millivolts{1200});
  // In the deep unsafe region, stuck cells buy extra savings.
  EXPECT_GT(with_model.savings_factor(Millivolts{850}),
            without.savings_factor(Millivolts{850}));
  // In the guardband they agree.
  EXPECT_NEAR(with_model.savings_factor(Millivolts{1000}),
              without.savings_factor(Millivolts{1000}), 1e-9);
}

TEST_F(TradeoffTest, PlanFindsDeepestSatisfyingVoltage) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  // Fault-free plan with 7 PCs: can go at least down to 0.95 V.
  const auto plan = analyzer.plan(7, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->voltage.value, 950);
  EXPECT_EQ(plan->pcs.size(), 7u);
  // The chosen PCs really are fault-free at the chosen voltage.
  for (const unsigned pc : plan->pcs) {
    EXPECT_DOUBLE_EQ(map.pc_record(plan->voltage, pc).rate(), 0.0);
  }
}

TEST_F(TradeoffTest, PlanRequiresFeasibility) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  // 33 PCs don't exist.
  EXPECT_FALSE(analyzer.plan(33, 1.0).has_value());
  // All 32 PCs fault-free: only guardband voltages qualify; plan exists.
  const auto plan = analyzer.plan(32, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->voltage.value, 980);
}

TEST_F(TradeoffTest, HigherToleranceNeverRaisesPlanVoltage) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  const auto strict = analyzer.plan(16, 0.0);
  const auto loose = analyzer.plan(16, 0.01);
  ASSERT_TRUE(strict.has_value());
  ASSERT_TRUE(loose.has_value());
  EXPECT_LE(loose->voltage.value, strict->voltage.value);
  EXPECT_GE(loose->savings_factor, strict->savings_factor);
}

// ---------------------------------------------------------------- Report

TEST_F(TradeoffTest, RendersContainPaperLandmarks) {
  const auto map = make_map();
  core::TradeoffAnalyzer analyzer(map, Millivolts{1200});
  core::TradeoffConfig config;
  const auto points = analyzer.analyze(config);

  const std::string fig4 = core::render_fig4(map);
  EXPECT_NE(fig4.find("HBM0"), std::string::npos);
  EXPECT_NE(fig4.find("0.97V"), std::string::npos);

  const std::string fig5 = core::render_fig5(map);
  EXPECT_NE(fig5.find("NF"), std::string::npos);
  EXPECT_NE(fig5.find("PC31"), std::string::npos);

  const std::string fig6 = core::render_fig6(points, config);
  EXPECT_NE(fig6.find("fault-free"), std::string::npos);

  const std::string csv = core::to_csv_fig6(points, config);
  // Header + one row per (voltage, rate).
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, 1 + static_cast<std::ptrdiff_t>(
                          points.size() * config.tolerable_rates.size()));
}

TEST_F(PowerCharTest, Fig2And3RendersAndCsv) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{1200}, Millivolts{1000}, 50};
  config.port_counts = {0, 32};
  const auto data = run(config);
  const std::string fig2 = core::render_fig2(data, 50);
  EXPECT_NE(fig2.find("Fig 2"), std::string::npos);
  EXPECT_NE(fig2.find("32 ports"), std::string::npos);
  const std::string fig3 = core::render_fig3(data, 50);
  EXPECT_NE(fig3.find("alpha"), std::string::npos);
  const std::string csv = core::to_csv_fig2(data);
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, 1 + 2 * 5);  // header + 2 series * 5 voltages
}

TEST(ReportTest, PcHeatmapShowsDensityAndShape) {
  const auto geometry = hbm::HbmGeometry::test_tiny();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));

  // The header line mentions the glyphs; assert on the body only.
  const auto body = [](const std::string& rendered) {
    return rendered.substr(rendered.find('\n') + 1);
  };

  // Clean overlay: all '.'.
  const std::string clean =
      body(core::render_pc_heatmap(geometry, faults::FaultOverlay{}));
  EXPECT_NE(clean.find('.'), std::string::npos);
  EXPECT_EQ(clean.find('#'), std::string::npos);
  // One line per row.
  const auto lines = std::count(clean.begin(), clean.end(), '\n');
  EXPECT_EQ(lines, static_cast<std::ptrdiff_t>(geometry.rows_per_bank()));

  // Faulty overlay: density glyphs appear.
  injector.set_voltage(Millivolts{880});
  const std::string faulty =
      body(core::render_pc_heatmap(geometry, injector.overlay(18)));
  EXPECT_NE(faulty.find_first_of("123456789#"), std::string::npos);

  // All-faulty: every cell saturated.
  injector.set_voltage(Millivolts{840});
  const std::string saturated =
      body(core::render_pc_heatmap(geometry, injector.overlay(18)));
  EXPECT_EQ(saturated.find('.'), std::string::npos);
  EXPECT_NE(saturated.find('#'), std::string::npos);
}

TEST(ReportTest, HeadlineTableRendersAllRows) {
  core::HeadlineNumbers numbers;
  numbers.guardband.v_min = Millivolts{980};
  numbers.guardband.v_first_fault = Millivolts{970};
  numbers.guardband.v_critical = Millivolts{810};
  numbers.guardband.guardband_fraction = 0.1833;
  numbers.savings_at_vmin = 1.5;
  numbers.savings_at_850mv = 2.32;
  numbers.idle_fraction = 0.33;
  numbers.pattern_variation.first_1to0 = Millivolts{970};
  numbers.pattern_variation.first_0to1 = Millivolts{960};
  numbers.pattern_variation.average_0to1_excess = 0.21;
  numbers.alpha_drop_at_850mv = 0.14;
  const std::string table = core::render_headline(numbers);
  EXPECT_NE(table.find("guardband"), std::string::npos);
  EXPECT_NE(table.find("2.3x"), std::string::npos);
  EXPECT_NE(table.find("0.98V"), std::string::npos);
  EXPECT_NE(table.find("+21%"), std::string::npos);
}

}  // namespace
}  // namespace hbmvolt
