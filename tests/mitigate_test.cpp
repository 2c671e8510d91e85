// Unit tests for row retirement, plus the new TG data patterns and the
// fault model's temperature extension.

#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "axi/traffic_gen.hpp"
#include "ecc/ecc_channel.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/stack.hpp"
#include "mitigate/row_retirement.hpp"
#include "mitigate/scheme.hpp"

namespace hbmvolt {
namespace {

using mitigate::RetirementMap;

class RetirementTest : public ::testing::Test {
 protected:
  RetirementTest()
      : geometry_(hbm::HbmGeometry::test_tiny()),
        injector_(faults::FaultModel(geometry_, faults::FaultModelConfig{})) {}

  hbm::HbmGeometry geometry_;
  faults::FaultInjector injector_;
};

TEST_F(RetirementTest, GuardbandVoltageRetiresNothing) {
  const auto map = RetirementMap::build(injector_, Millivolts{1000});
  EXPECT_EQ(map.rows_retired_total(), 0u);
  EXPECT_DOUBLE_EQ(map.capacity_fraction(), 1.0);
}

TEST_F(RetirementTest, RetiredRowsCoverEveryStuckCell) {
  const auto map = RetirementMap::build(injector_, Millivolts{920});
  injector_.set_voltage(Millivolts{920});
  std::uint64_t stuck_total = 0;
  for (unsigned pc = 0; pc < geometry_.total_pcs(); ++pc) {
    injector_.overlay(pc).for_each(
        [&](std::uint64_t bit, faults::StuckPolarity) {
          ++stuck_total;
          EXPECT_TRUE(map.beat_retired(pc, bit / geometry_.bits_per_beat));
        });
  }
  EXPECT_GT(stuck_total, 0u);
  EXPECT_GT(map.rows_retired_total(), 0u);
}

TEST_F(RetirementTest, SurvivingBeatsAreFaultFree) {
  const Millivolts v{910};
  const auto map = RetirementMap::build(injector_, v);
  injector_.set_voltage(v);
  hbm::HbmStack stack(geometry_, 0, injector_, 3);
  stack.on_voltage_change(v);

  std::uint64_t surviving = 0;
  for (unsigned pc = 0; pc < geometry_.pcs_per_stack(); ++pc) {
    for (std::uint64_t beat = 0; beat < geometry_.beats_per_pc(); ++beat) {
      if (map.beat_retired(pc, beat)) continue;
      ASSERT_TRUE(stack.write_beat(pc, beat, hbm::kBeatAllOnes).is_ok());
      auto data = stack.read_beat(pc, beat);
      ASSERT_TRUE(data.is_ok());
      EXPECT_EQ(data.value(), hbm::kBeatAllOnes)
          << "pc " << pc << " beat " << beat;
      ++surviving;
    }
  }
  EXPECT_GT(surviving, 0u);
}

TEST_F(RetirementTest, MonotoneInVoltage) {
  const auto shallow = RetirementMap::build(injector_, Millivolts{940});
  const auto deep = RetirementMap::build(injector_, Millivolts{900});
  EXPECT_GE(deep.rows_retired_total(), shallow.rows_retired_total());
  EXPECT_LE(deep.capacity_fraction(), shallow.capacity_fraction());
}

TEST_F(RetirementTest, ClusteringMakesRetirementCheap) {
  // With clustering, many stuck cells share few rows; with uniform
  // placement, the same cell count spreads over many more rows.
  faults::WeakCellConfig uniform;
  uniform.cluster_count = 0;
  faults::FaultInjector uniform_injector(
      faults::FaultModel(geometry_, faults::FaultModelConfig{}), uniform);

  const Millivolts v{905};
  const auto clustered = RetirementMap::build(injector_, v);
  const auto spread = RetirementMap::build(uniform_injector, v);
  EXPECT_LT(clustered.rows_retired_total(), spread.rows_retired_total());
}

TEST_F(RetirementTest, RestoresInjectorVoltage) {
  injector_.set_voltage(Millivolts{1000});
  (void)RetirementMap::build(injector_, Millivolts{880});
  EXPECT_EQ(injector_.voltage().value, 1000);
}

// --------------------------------------------------------- TG patterns

class PatternTest : public ::testing::Test {
 protected:
  PatternTest()
      : geometry_(hbm::HbmGeometry::test_tiny()),
        injector_(faults::FaultModel(geometry_, faults::FaultModelConfig{})),
        stack_(geometry_, 0, injector_, 3) {}

  void set_voltage(Millivolts v) {
    injector_.set_voltage(v);
    stack_.on_voltage_change(v);
  }

  hbm::HbmGeometry geometry_;
  faults::FaultInjector injector_;
  hbm::HbmStack stack_;
};

TEST_F(PatternTest, CommandDataGenerators) {
  axi::TgCommand command;
  command.kind = axi::PatternKind::kSolid;
  command.pattern = hbm::kBeatAllOnes;
  EXPECT_EQ(axi::command_data(command, 7), hbm::kBeatAllOnes);

  command.kind = axi::PatternKind::kCheckerboard;
  EXPECT_EQ(axi::command_data(command, 0)[0], 0x5555555555555555ull);
  EXPECT_EQ(axi::command_data(command, 1)[0], 0xAAAAAAAAAAAAAAAAull);

  command.kind = axi::PatternKind::kAddressAsData;
  EXPECT_EQ(axi::command_data(command, 5)[2], 5u * 4 + 2);

  command.kind = axi::PatternKind::kRandom;
  command.pattern_seed = 9;
  const auto a = axi::command_data(command, 3);
  EXPECT_EQ(a, axi::command_data(command, 3));  // reproducible
  EXPECT_NE(a, axi::command_data(command, 4));
  command.pattern_seed = 10;
  EXPECT_NE(a, axi::command_data(command, 3));  // seed-dependent
}

class PatternKindSweep
    : public PatternTest,
      public ::testing::WithParamInterface<axi::PatternKind> {};

TEST_P(PatternKindSweep, CleanAtNominalFaultyBelowGuardband) {
  axi::TrafficGenerator tg(stack_, 4);
  axi::TgCommand command;
  command.kind = GetParam();
  command.pattern = hbm::kBeatAllOnes;
  ASSERT_TRUE(tg.run(command).is_ok());
  EXPECT_EQ(tg.stats().total_flips(), 0u);

  set_voltage(Millivolts{880});
  tg.reset_stats();
  ASSERT_TRUE(tg.run(command).is_ok());
  EXPECT_GT(tg.stats().total_flips(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PatternKindSweep,
                         ::testing::Values(axi::PatternKind::kSolid,
                                           axi::PatternKind::kCheckerboard,
                                           axi::PatternKind::kAddressAsData,
                                           axi::PatternKind::kRandom));

TEST_F(PatternTest, CheckerboardExposesBothPolarities) {
  set_voltage(Millivolts{870});
  axi::TrafficGenerator tg(stack_, 4);
  axi::TgCommand command;
  command.kind = axi::PatternKind::kCheckerboard;
  ASSERT_TRUE(tg.run(command).is_ok());
  // A checkerboard writes ~half the cells to 1 and half to 0, so both
  // flip directions appear in a single pass (solid patterns need two).
  EXPECT_GT(tg.stats().flips_1to0, 0u);
  EXPECT_GT(tg.stats().flips_0to1, 0u);
}

TEST_F(PatternTest, SolidPatternsTogetherSeeEveryStuckCell) {
  set_voltage(Millivolts{880});
  axi::TrafficGenerator tg(stack_, 4);
  axi::TgCommand ones{axi::MacroOp::kWriteRead, 0, 0, hbm::kBeatAllOnes,
                      true};
  axi::TgCommand zeros{axi::MacroOp::kWriteRead, 0, 0, hbm::kBeatAllZeros,
                       true};
  ASSERT_TRUE(tg.run(ones).is_ok());
  ASSERT_TRUE(tg.run(zeros).is_ok());
  EXPECT_EQ(tg.stats().total_flips(),
            injector_.overlay(4).total_count());
}

// -------------------------------------------------------- Temperature

TEST(TemperatureTest, ReferencePointKeepsAnchors) {
  faults::FaultModelConfig config;
  config.temperature_c = 35.0;
  const faults::FaultModel model(hbm::HbmGeometry::test_tiny(), config);
  EXPECT_EQ(model.onset_voltage(18).value, 970);
}

TEST(TemperatureTest, HotterSiliconFaultsEarlier) {
  faults::FaultModelConfig hot;
  hot.temperature_c = 85.0;
  const faults::FaultModel hot_model(hbm::HbmGeometry::test_tiny(), hot);
  const faults::FaultModel ref(hbm::HbmGeometry::test_tiny(),
                               faults::FaultModelConfig{});
  // +50 degC at 0.25 mV/degC: onsets shift up ~12-13 mV.
  for (unsigned pc = 0; pc < 32; ++pc) {
    const int shift =
        hot_model.onset_voltage(pc).value - ref.onset_voltage(pc).value;
    EXPECT_GE(shift, 12) << pc;
    EXPECT_LE(shift, 13) << pc;
  }
  // More stuck cells at any unsafe voltage.
  EXPECT_GT(hot_model.device_stuck_fraction(Millivolts{900}),
            ref.device_stuck_fraction(Millivolts{900}));
}

TEST_F(RetirementTest, FilteredThresholdMatchesRowFaultCounts) {
  // build_filtered(2) semantics, exactly: a retired row holds >= 2 stuck
  // cells, a retained row at most 1 -- the single fault SECDED absorbs.
  const Millivolts v{930};
  const auto map = RetirementMap::build_filtered(injector_, v, 2);
  injector_.set_voltage(v);
  std::uint64_t retained_rows_with_fault = 0;
  for (unsigned pc = 0; pc < geometry_.total_pcs(); ++pc) {
    std::map<std::pair<unsigned, std::uint64_t>, unsigned> counts;
    injector_.overlay(pc).for_each(
        [&](std::uint64_t bit, faults::StuckPolarity) {
          const auto loc =
              hbm::decompose_beat(geometry_, bit / geometry_.bits_per_beat);
          ++counts[{loc.bank, loc.row}];
        });
    for (const auto& [key, count] : counts) {
      if (count >= 2) {
        EXPECT_TRUE(map.row_retired(pc, key.first, key.second))
            << "pc " << pc << " bank " << key.first << " row " << key.second
            << " has " << count << " faults but was retained";
      } else {
        EXPECT_FALSE(map.row_retired(pc, key.first, key.second));
        ++retained_rows_with_fault;
      }
    }
  }
  // The filter must actually be keeping some single-fault rows, or the
  // test proves nothing.
  EXPECT_GT(retained_rows_with_fault, 0u);
  EXPECT_GT(map.rows_retired_total(), 0u);
  // ...and the ECC-aware map keeps more capacity than blanket retirement.
  const auto blanket = RetirementMap::build(injector_, v);
  EXPECT_GT(map.capacity_fraction(), blanket.capacity_fraction());
}

TEST_F(RetirementTest, ThresholdTwoPlusSecdedHasZeroUncorrectable) {
  // The contract the runtime's retire rung leans on: after filtered
  // retirement at threshold 2, every retained beat decodes cleanly
  // through SECDED -- at most one stuck bit per codeword remains.
  const Millivolts v{930};
  const auto map = RetirementMap::build_filtered(injector_, v, 2);
  injector_.set_voltage(v);
  hbm::HbmStack stack(geometry_, 0, injector_, 3);
  stack.on_voltage_change(v);
  for (unsigned pc = 0; pc < geometry_.pcs_per_stack(); ++pc) {
    ecc::EccChannel ecc(stack, pc);
    for (std::uint64_t beat = 0; beat < ecc.data_beats(); ++beat) {
      if (map.beat_retired(pc, beat)) continue;
      if (map.beat_retired(pc, ecc.parity_beat_of(beat))) continue;
      ASSERT_TRUE(ecc.write_beat(beat, hbm::kBeatAllOnes).is_ok());
      auto got = ecc.read_beat(beat);
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value().uncorrectable, 0u)
          << "pc " << pc << " beat " << beat;
      EXPECT_EQ(got.value().data, hbm::kBeatAllOnes);
    }
  }
}

TEST_F(RetirementTest, RebuildCoversMidRunWeakCellBurst) {
  // Online re-retirement: a weak-cell burst lands mid-run (stuck at
  // every voltage), and a rebuild of the filtered map picks up the new
  // fault clusters that cross the threshold.
  const Millivolts v{950};
  const unsigned pc = 4;  // weak PC with a real population at 950 mV
  const auto before = RetirementMap::build_filtered(injector_, v, 2);

  injector_.add_burst(pc, 64, 64);
  const auto after = RetirementMap::build_filtered(injector_, v, 2);
  EXPECT_GT(after.rows_retired_total(), before.rows_retired_total());
  EXPECT_LT(after.capacity_fraction(), before.capacity_fraction());

  // The rebuilt map again satisfies the threshold contract on the
  // bursted PC: every >= 2-fault row is retired.
  injector_.set_voltage(v);
  std::map<std::pair<unsigned, std::uint64_t>, unsigned> counts;
  injector_.overlay(pc).for_each(
      [&](std::uint64_t bit, faults::StuckPolarity) {
        const auto loc =
            hbm::decompose_beat(geometry_, bit / geometry_.bits_per_beat);
        ++counts[{loc.bank, loc.row}];
      });
  ASSERT_FALSE(counts.empty());
  for (const auto& [key, count] : counts) {
    if (count >= 2) {
      EXPECT_TRUE(after.row_retired(pc, key.first, key.second));
    }
  }
}

TEST(MitigationSchemeTest, RegistryDescribesEveryScheme) {
  using mitigate::MitigationKind;
  const auto& secded = mitigate::scheme_info(MitigationKind::kSecded);
  EXPECT_STREQ(secded.name, "secded");
  EXPECT_EQ(secded.codec, ecc::WordCodec::kSecded);
  EXPECT_FALSE(secded.striped);
  EXPECT_DOUBLE_EQ(secded.check_overhead, 1.0 / 8.0);

  const auto& dected = mitigate::scheme_info(MitigationKind::kDected);
  EXPECT_STREQ(dected.name, "dected");
  EXPECT_EQ(dected.codec, ecc::WordCodec::kDected);
  EXPECT_FALSE(dected.striped);
  EXPECT_DOUBLE_EQ(dected.check_overhead, 2.0 / 8.0);

  const auto& stripe = mitigate::scheme_info(MitigationKind::kStripe);
  EXPECT_STREQ(stripe.name, "stripe");
  EXPECT_EQ(stripe.codec, ecc::WordCodec::kSecded);
  EXPECT_TRUE(stripe.striped);

  for (unsigned k = 0; k < mitigate::kMitigationKindCount; ++k) {
    const auto kind = static_cast<MitigationKind>(k);
    EXPECT_STREQ(mitigate::to_string(kind),
                 mitigate::scheme_info(kind).name);
  }
}

TEST(MitigationSchemeTest, ParseRoundTripsAndRejectsJunk) {
  using mitigate::MitigationKind;
  for (unsigned k = 0; k < mitigate::kMitigationKindCount; ++k) {
    const auto kind = static_cast<MitigationKind>(k);
    MitigationKind parsed = MitigationKind::kSecded;
    ASSERT_TRUE(mitigate::parse_mitigation(mitigate::to_string(kind),
                                           &parsed));
    EXPECT_EQ(parsed, kind);
  }
  MitigationKind untouched = MitigationKind::kDected;
  EXPECT_FALSE(mitigate::parse_mitigation("raid6", &untouched));
  EXPECT_FALSE(mitigate::parse_mitigation("", &untouched));
  EXPECT_FALSE(mitigate::parse_mitigation("SECDED", &untouched));
  EXPECT_EQ(untouched, MitigationKind::kDected);
}

TEST(TemperatureTest, ColderSiliconGainsMargin) {
  faults::FaultModelConfig cold;
  cold.temperature_c = 15.0;
  const faults::FaultModel cold_model(hbm::HbmGeometry::test_tiny(), cold);
  const faults::FaultModel ref(hbm::HbmGeometry::test_tiny(),
                               faults::FaultModelConfig{});
  EXPECT_LT(cold_model.onset_voltage(18).value,
            ref.onset_voltage(18).value);
}

}  // namespace
}  // namespace hbmvolt
