// Unit tests for src/hbm: geometry/addressing, memory arrays, and the
// stack state machine.

#include <vector>

#include <gtest/gtest.h>

#include "axi/controller.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/geometry.hpp"
#include "hbm/ip_registers.hpp"
#include "hbm/memory_array.hpp"
#include "hbm/stack.hpp"

namespace hbmvolt {
namespace {

using hbm::Beat;
using hbm::HbmGeometry;
using hbm::HbmStack;
using hbm::MemoryArray;
using hbm::PcId;

// -------------------------------------------------------------- Geometry

TEST(GeometryTest, Vcu128MatchesBoardSpec) {
  const auto g = HbmGeometry::vcu128();
  EXPECT_TRUE(g.validate().is_ok());
  EXPECT_EQ(g.stacks, 2u);
  EXPECT_EQ(g.pcs_per_stack(), 16u);       // 8 MCs x 2 PCs
  EXPECT_EQ(g.total_pcs(), 32u);           // paper: 32 AXI ports
  EXPECT_EQ(g.bits_per_pc, 1ull << 31);    // 256 MB per PC
  EXPECT_EQ(g.bits_per_stack(), 32ull << 30);  // 4 GB per stack
  EXPECT_EQ(g.total_bits(), 64ull << 30);      // 8 GB total
  // Paper: memSize = 256M beats for the whole HBM = 8M per PC.
  EXPECT_EQ(g.beats_per_pc(), 8ull << 20);
  EXPECT_EQ(g.beats_per_pc() * g.total_pcs(), 256ull << 20);
}

TEST(GeometryTest, DefaultsValidate) {
  EXPECT_TRUE(HbmGeometry::simulation_default().validate().is_ok());
  EXPECT_TRUE(HbmGeometry::test_tiny().validate().is_ok());
}

struct BadGeometryCase {
  const char* name;
  HbmGeometry geometry;
};

class GeometryValidation : public ::testing::TestWithParam<BadGeometryCase> {};

TEST_P(GeometryValidation, RejectsBadConfig) {
  EXPECT_FALSE(GetParam().geometry.validate().is_ok()) << GetParam().name;
}

std::vector<BadGeometryCase> bad_geometries() {
  std::vector<BadGeometryCase> cases;
  {
    auto g = HbmGeometry::test_tiny();
    g.stacks = 0;
    cases.push_back({"zero stacks", g});
  }
  {
    auto g = HbmGeometry::test_tiny();
    g.bits_per_beat = 100;  // not a multiple of 64
    cases.push_back({"beat width", g});
  }
  {
    auto g = HbmGeometry::test_tiny();
    g.bits_per_pc = 1000;  // not a multiple of beat width
    cases.push_back({"capacity", g});
  }
  {
    auto g = HbmGeometry::test_tiny();
    g.banks_per_pc = 0;
    cases.push_back({"banks", g});
  }
  {
    auto g = HbmGeometry::test_tiny();
    g.beats_per_row = 7;  // does not tile beats_per_pc
    cases.push_back({"rows", g});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Bad, GeometryValidation,
                         ::testing::ValuesIn(bad_geometries()),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (auto& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

TEST(GeometryTest, PcIdRoundTrip) {
  const auto g = HbmGeometry::simulation_default();
  for (unsigned global = 0; global < g.total_pcs(); ++global) {
    const PcId id = PcId::from_global(g, global);
    EXPECT_EQ(id.global(g), global);
    EXPECT_LT(id.stack, g.stacks);
    EXPECT_LT(id.index, g.pcs_per_stack());
  }
}

TEST(GeometryTest, PcIdChannelMapping) {
  const auto g = HbmGeometry::simulation_default();
  // Two consecutive PCs share a memory channel.
  EXPECT_EQ((PcId{0, 0}.channel(g)), 0u);
  EXPECT_EQ((PcId{0, 1}.channel(g)), 0u);
  EXPECT_EQ((PcId{0, 2}.channel(g)), 1u);
  EXPECT_EQ((PcId{0, 15}.channel(g)), 7u);
}

TEST(GeometryTest, BeatDecomposeComposeRoundTrip) {
  const auto g = HbmGeometry::simulation_default();
  for (std::uint64_t beat = 0; beat < g.beats_per_pc(); ++beat) {
    const auto loc = hbm::decompose_beat(g, beat);
    EXPECT_LT(loc.bank, g.banks_per_pc);
    EXPECT_LT(loc.row, g.rows_per_bank());
    EXPECT_LT(loc.column, g.beats_per_row);
    EXPECT_EQ(hbm::compose_beat(g, loc), beat);
  }
}

TEST(GeometryTest, ColumnBitsAreLowest) {
  const auto g = HbmGeometry::simulation_default();
  // Consecutive beats within a row differ only in column.
  const auto a = hbm::decompose_beat(g, 0);
  const auto b = hbm::decompose_beat(g, 1);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(b.column, a.column + 1);
  // Crossing beats_per_row switches bank before row.
  const auto c = hbm::decompose_beat(g, g.beats_per_row);
  EXPECT_EQ(c.bank, 1u);
  EXPECT_EQ(c.row, 0u);
  EXPECT_EQ(c.column, 0u);
}

// ----------------------------------------------------------- MemoryArray

TEST(MemoryArrayTest, BeatsRoundTrip) {
  MemoryArray array(1 << 14, 1);
  const Beat pattern = {0x0123456789ABCDEFull, ~0ull, 0, 0x5555AAAA5555AAAAull};
  array.write_beat(3, pattern);
  EXPECT_EQ(array.read_beat(3), pattern);
}

TEST(MemoryArrayTest, BitAccessorsMatchBeatView) {
  MemoryArray array(1 << 12, 2);
  array.fill(hbm::kBeatAllZeros);
  array.write_bit(256 + 65, true);  // beat 1, word 1, bit 1
  const Beat beat = array.read_beat(1);
  EXPECT_EQ(beat[1], 2ull);
  EXPECT_TRUE(array.read_bit(256 + 65));
  array.write_bit(256 + 65, false);
  EXPECT_FALSE(array.read_bit(256 + 65));
}

TEST(MemoryArrayTest, PowerUpContentIsSeedDeterministic) {
  MemoryArray a(1 << 12, 42);
  MemoryArray b(1 << 12, 42);
  MemoryArray c(1 << 12, 43);
  EXPECT_EQ(a.read_beat(0), b.read_beat(0));
  EXPECT_NE(a.read_beat(0), c.read_beat(0));
}

TEST(MemoryArrayTest, FillCoversWholeArray) {
  MemoryArray array(1 << 12, 3);
  array.fill(hbm::kBeatAllOnes);
  for (std::uint64_t beat = 0; beat < array.beats(); ++beat) {
    EXPECT_EQ(array.read_beat(beat), hbm::kBeatAllOnes);
  }
}

TEST(MemoryArrayTest, ScrambleLosesData) {
  MemoryArray array(1 << 12, 4);
  array.fill(hbm::kBeatAllOnes);
  array.scramble(99);
  bool all_ones = true;
  for (std::uint64_t beat = 0; beat < array.beats() && all_ones; ++beat) {
    all_ones = array.read_beat(beat) == hbm::kBeatAllOnes;
  }
  EXPECT_FALSE(all_ones);
}

TEST(MemoryArrayTest, BackingStoreIsLazy) {
  MemoryArray array(1 << 12, 5);
  EXPECT_FALSE(array.materialized());
  // First touch materializes and yields the same power-up contents an
  // eager twin would have had.
  MemoryArray twin(1 << 12, 5);
  (void)twin.words();
  EXPECT_EQ(array.read_beat(2), twin.read_beat(2));
  EXPECT_TRUE(array.materialized());
  // Scramble drops the store again; contents still follow the new seed.
  array.scramble(77);
  EXPECT_FALSE(array.materialized());
  MemoryArray reseeded(1 << 12, 77);
  EXPECT_EQ(array.read_beat(0), reseeded.read_beat(0));
}

TEST(MemoryArrayTest, WholeArrayFillSkipsPowerUpScramble) {
  MemoryArray array(1 << 12, 6);
  ASSERT_FALSE(array.materialized());
  array.fill(hbm::kBeatAllOnes);  // no point scrambling: all overwritten
  EXPECT_TRUE(array.materialized());
  for (std::uint64_t beat = 0; beat < array.beats(); ++beat) {
    ASSERT_EQ(array.read_beat(beat), hbm::kBeatAllOnes);
  }
}

TEST(MemoryArrayTest, FillRangeMatchesPerBeatWrites) {
  MemoryArray bulk(1 << 12, 7);
  MemoryArray reference(1 << 12, 7);
  const auto pattern = hbm::WordPattern::hashed(31);
  bulk.fill_range(3, 5, pattern);
  for (std::uint64_t beat = 3; beat < 8; ++beat) {
    Beat data;
    for (unsigned w = 0; w < 4; ++w) data[w] = pattern.word(beat * 4 + w);
    reference.write_beat(beat, data);
  }
  for (std::uint64_t beat = 0; beat < bulk.beats(); ++beat) {
    ASSERT_EQ(bulk.read_beat(beat), reference.read_beat(beat)) << beat;
  }
}

TEST(MemoryArrayTest, CompareRangeCountsFlipsAndDiffs) {
  MemoryArray array(1 << 12, 8);
  array.fill(hbm::kBeatAllZeros);
  array.write_bit(4 * 256 + 7, true);    // beat 4: one 0->1 "flip"
  array.write_bit(6 * 256 + 200, true);  // beat 6
  const auto zeros = hbm::WordPattern::repeat(hbm::kBeatAllZeros);
  std::vector<std::uint64_t> diff(array.beats() * 4, 0);
  const auto flips = hbm::compare_range(0, array.words(), zeros, diff.data());
  EXPECT_EQ(flips.flips_0to1, 2u);
  EXPECT_EQ(flips.flips_1to0, 0u);
  EXPECT_EQ(flips.mismatched_beats, 2u);
  EXPECT_EQ(diff[4 * 4 + 0], 1ull << 7);
  EXPECT_EQ(diff[6 * 4 + 3], 1ull << (200 - 192));
  // Against all-ones, every other bit is a 1->0 flip.
  const auto ones = hbm::WordPattern::repeat(hbm::kBeatAllOnes);
  const auto inverse = hbm::compare_range(0, array.words(), ones);
  EXPECT_EQ(inverse.flips_1to0, (1u << 12) - 2);
  EXPECT_EQ(inverse.mismatched_beats, array.beats());
}

// ----------------------------------------------------------------- Stack

class StackTest : public ::testing::Test {
 protected:
  StackTest()
      : geometry_(HbmGeometry::test_tiny()),
        injector_(faults::FaultModel(geometry_, make_fault_config())),
        stack_(geometry_, 0, injector_, 7) {}

  static faults::FaultModelConfig make_fault_config() {
    return faults::FaultModelConfig{};  // paper-calibrated defaults
  }

  void set_voltage(Millivolts v) {
    injector_.set_voltage(v);
    stack_.on_voltage_change(v);
  }

  HbmGeometry geometry_;
  faults::FaultInjector injector_;
  HbmStack stack_;
};

TEST_F(StackTest, StartsOperationalAtNominal) {
  EXPECT_EQ(stack_.state(), HbmStack::State::kOperational);
  EXPECT_TRUE(stack_.responding());
}

TEST_F(StackTest, WriteReadRoundTripAtNominal) {
  const Beat pattern = {1, 2, 3, 4};
  ASSERT_TRUE(stack_.write_beat(5, 17, pattern).is_ok());
  auto data = stack_.read_beat(5, 17);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), pattern);
}

TEST_F(StackTest, OutOfRangeAccessRejected) {
  EXPECT_EQ(stack_.write_beat(99, 0, hbm::kBeatAllOnes).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(stack_.write_beat(0, geometry_.beats_per_pc(), hbm::kBeatAllOnes)
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(stack_.read_beat(0, geometry_.beats_per_pc()).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(StackTest, CrashesBelowCritical) {
  set_voltage(Millivolts{800});
  EXPECT_EQ(stack_.state(), HbmStack::State::kCrashed);
  EXPECT_EQ(stack_.write_beat(0, 0, hbm::kBeatAllOnes).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(stack_.read_beat(0, 0).status().code(), StatusCode::kUnavailable);
}

TEST_F(StackTest, CrashLatchesAcrossVoltageRestore) {
  set_voltage(Millivolts{800});
  set_voltage(Millivolts{1200});
  EXPECT_EQ(stack_.state(), HbmStack::State::kCrashed);
}

TEST_F(StackTest, PowerCycleRecoversFromCrash) {
  set_voltage(Millivolts{800});
  set_voltage(Millivolts{0});
  EXPECT_EQ(stack_.state(), HbmStack::State::kPoweredOff);
  set_voltage(Millivolts{1200});
  EXPECT_EQ(stack_.state(), HbmStack::State::kOperational);
}

TEST_F(StackTest, PowerLossScramblesContents) {
  ASSERT_TRUE(stack_.write_beat(0, 0, hbm::kBeatAllOnes).is_ok());
  set_voltage(Millivolts{0});
  set_voltage(Millivolts{1200});
  auto data = stack_.read_beat(0, 0);
  ASSERT_TRUE(data.is_ok());
  EXPECT_NE(data.value(), hbm::kBeatAllOnes);
}

TEST_F(StackTest, PoweredOffRejectsAccess) {
  set_voltage(Millivolts{0});
  EXPECT_EQ(stack_.read_beat(0, 0).status().code(), StatusCode::kUnavailable);
}

TEST_F(StackTest, GuardbandVoltageReadsAreClean) {
  const Beat pattern = hbm::kBeatAllOnes;
  set_voltage(Millivolts{980});
  for (unsigned pc = 0; pc < geometry_.pcs_per_stack(); ++pc) {
    ASSERT_TRUE(stack_.write_beat(pc, 0, pattern).is_ok());
    auto data = stack_.read_beat(pc, 0);
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ(data.value(), pattern) << "PC " << pc;
  }
}

TEST_F(StackTest, DeepUndervoltFlipsBits) {
  set_voltage(Millivolts{850});
  std::uint64_t flips = 0;
  for (unsigned pc = 0; pc < geometry_.pcs_per_stack(); ++pc) {
    for (std::uint64_t beat = 0; beat < geometry_.beats_per_pc(); ++beat) {
      ASSERT_TRUE(stack_.write_beat(pc, beat, hbm::kBeatAllOnes).is_ok());
      auto data = stack_.read_beat(pc, beat);
      ASSERT_TRUE(data.is_ok());
      for (int w = 0; w < 4; ++w) {
        flips += static_cast<unsigned>(
            __builtin_popcountll(~data.value()[w]));
      }
    }
  }
  EXPECT_GT(flips, 0u);
}

TEST_F(StackTest, GlobalPcIndexing) {
  HbmStack stack1(geometry_, 1, injector_, 8);
  EXPECT_EQ(stack_.global_pc(3), 3u);
  EXPECT_EQ(stack1.global_pc(3), geometry_.pcs_per_stack() + 3);
}

// -------------------------------------------------------------- IP core

class IpCoreTest : public StackTest {
 protected:
  IpCoreTest() : controller_(stack_), ip_(controller_, Celsius{35.0}) {}

  axi::StackController controller_;
  hbm::HbmIpCore ip_;
};

TEST_F(IpCoreTest, IdAndStatus) {
  EXPECT_EQ(ip_.read(hbm::HbmIpCore::kRegId).value(),
            hbm::HbmIpCore::kIdValue);
  const auto status = ip_.read(hbm::HbmIpCore::kRegStatus).value();
  EXPECT_TRUE(status & hbm::HbmIpCore::kStatusInitDone);
  EXPECT_TRUE(status & hbm::HbmIpCore::kStatusResponding);
  EXPECT_FALSE(status & hbm::HbmIpCore::kStatusCattrip);
}

TEST_F(IpCoreTest, PortEnableRegisterDrivesController) {
  ASSERT_TRUE(ip_.write(hbm::HbmIpCore::kRegPortEnable, 0x0F0F).is_ok());
  EXPECT_EQ(controller_.enabled_ports(), 8u);
  EXPECT_EQ(ip_.read(hbm::HbmIpCore::kRegPortEnable).value(), 0x0F0Fu);
}

TEST_F(IpCoreTest, CtrlSwitchEnableAndSoftReset) {
  ASSERT_TRUE(ip_.write(hbm::HbmIpCore::kRegCtrl,
                        hbm::HbmIpCore::kCtrlSwitchEnable)
                  .is_ok());
  EXPECT_TRUE(controller_.switch_network().enabled());
  EXPECT_TRUE(ip_.read(hbm::HbmIpCore::kRegCtrl).value() &
              hbm::HbmIpCore::kCtrlSwitchEnable);

  // Route a port, then soft-reset: stats and routes clear.
  ASSERT_TRUE(controller_.switch_network().route(0, 5).is_ok());
  controller_.set_enabled_count(2);
  (void)controller_.run({axi::MacroOp::kWrite, 0, 4, hbm::kBeatAllOnes,
                         false});
  ASSERT_TRUE(ip_.write(hbm::HbmIpCore::kRegCtrl,
                        hbm::HbmIpCore::kCtrlSoftReset)
                  .is_ok());
  EXPECT_EQ(controller_.aggregate_stats().beats_written, 0u);
  EXPECT_EQ(controller_.switch_network().target_pc(0), 0u);
}

TEST_F(IpCoreTest, BeatCountersAccumulate) {
  controller_.set_enabled_count(2);
  (void)controller_.run({axi::MacroOp::kWriteRead, 0, 8, hbm::kBeatAllOnes,
                         false});
  const std::uint64_t beats =
      ip_.read(hbm::HbmIpCore::kRegBeatCountLo).value() |
      (static_cast<std::uint64_t>(
           ip_.read(hbm::HbmIpCore::kRegBeatCountHi).value())
       << 32);
  EXPECT_EQ(beats, 2u * 8 * 2);  // 2 ports x 8 beats x (write+read)
}

TEST_F(IpCoreTest, TemperatureAndCattrip) {
  EXPECT_EQ(ip_.read(hbm::HbmIpCore::kRegTemperature).value(), 35u);
  ip_.set_temperature(Celsius{106.0});
  EXPECT_EQ(ip_.read(hbm::HbmIpCore::kRegTemperature).value(), 106u);
  EXPECT_TRUE(ip_.read(hbm::HbmIpCore::kRegStatus).value() &
              hbm::HbmIpCore::kStatusCattrip);
}

TEST_F(IpCoreTest, SlverrCounterSeesCrash) {
  set_voltage(Millivolts{800});
  controller_.set_enabled_count(1);
  (void)controller_.run({axi::MacroOp::kWrite, 0, 1, hbm::kBeatAllOnes,
                         false});
  EXPECT_GT(ip_.read(hbm::HbmIpCore::kRegSlverrCount).value(), 0u);
  const auto status = ip_.read(hbm::HbmIpCore::kRegStatus).value();
  EXPECT_FALSE(status & hbm::HbmIpCore::kStatusResponding);
}

TEST_F(IpCoreTest, ReadOnlyAndUnknownRegisters) {
  EXPECT_EQ(ip_.write(hbm::HbmIpCore::kRegId, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ip_.write(hbm::HbmIpCore::kRegStatus, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ip_.read(0x100).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ip_.write(0x100, 0).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hbmvolt
