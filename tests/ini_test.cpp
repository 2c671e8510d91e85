// Unit tests for the INI parser and the BoardConfig <-> INI mapping.

#include <gtest/gtest.h>

#include "board/config_io.hpp"
#include "common/ini.hpp"

namespace hbmvolt {
namespace {

TEST(IniTest, ParsesSectionsAndKeys) {
  auto ini = IniFile::parse(
      "top = 1\n"
      "[geometry]\n"
      "stacks = 2\n"
      "bits_per_pc = 16384   ; inline comment\n"
      "\n"
      "# full-line comment\n"
      "[power]\n"
      "idle_fraction = 0.333\n");
  ASSERT_TRUE(ini.is_ok());
  EXPECT_EQ(ini.value().get("", "top"), "1");
  EXPECT_EQ(ini.value().get("geometry", "stacks"), "2");
  EXPECT_EQ(ini.value().get("geometry", "bits_per_pc"), "16384");
  EXPECT_EQ(ini.value().get("power", "idle_fraction"), "0.333");
  EXPECT_FALSE(ini.value().get("power", "missing").has_value());
}

TEST(IniTest, TrimsWhitespace) {
  auto ini = IniFile::parse("[ s ]\n  key with spaces   =   value text  \n");
  ASSERT_TRUE(ini.is_ok());
  EXPECT_EQ(ini.value().get("s", "key with spaces"), "value text");
}

TEST(IniTest, LaterDuplicateWins) {
  auto ini = IniFile::parse("[a]\nk = 1\nk = 2\n");
  ASSERT_TRUE(ini.is_ok());
  EXPECT_EQ(ini.value().get("a", "k"), "2");
}

TEST(IniTest, SyntaxErrorsReportLineNumbers) {
  auto missing_eq = IniFile::parse("[a]\njust a token\n");
  ASSERT_FALSE(missing_eq.is_ok());
  EXPECT_NE(missing_eq.status().message().find("line 2"), std::string::npos);

  auto bad_section = IniFile::parse("[unterminated\n");
  ASSERT_FALSE(bad_section.is_ok());
  EXPECT_NE(bad_section.status().message().find("line 1"),
            std::string::npos);

  auto empty_key = IniFile::parse("[a]\n = value\n");
  EXPECT_FALSE(empty_key.is_ok());
}

TEST(IniTest, TypedGetters) {
  auto parsed = IniFile::parse(
      "[t]\n"
      "d = 1.5\n"
      "i = -42\n"
      "u = 0x10\n"
      "bad = zzz\n");
  ASSERT_TRUE(parsed.is_ok());
  const auto& ini = parsed.value();
  EXPECT_DOUBLE_EQ(ini.get_double("t", "d").value(), 1.5);
  EXPECT_EQ(ini.get_int("t", "i").value(), -42);
  EXPECT_EQ(ini.get_uint64("t", "u").value(), 16u);
  EXPECT_EQ(ini.get_double("t", "bad").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ini.get_double("t", "absent").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ini.get_uint64("t", "i").status().code(),
            StatusCode::kInvalidArgument);  // negative
}

TEST(IniTest, RoundTripThroughToString) {
  IniFile ini;
  ini.set("alpha", "x", "1");
  ini.set("beta", "y", "hello world");
  ini.set("", "global", "g");
  auto reparsed = IniFile::parse(ini.to_string());
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_EQ(reparsed.value().get("alpha", "x"), "1");
  EXPECT_EQ(reparsed.value().get("beta", "y"), "hello world");
  EXPECT_EQ(reparsed.value().get("", "global"), "g");
}

TEST(IniTest, LoadMissingFileIsNotFound) {
  EXPECT_EQ(IniFile::load("/nonexistent/file.ini").status().code(),
            StatusCode::kNotFound);
}

// --------------------------------------------------------- BoardConfig IO

TEST(ConfigIoTest, EmptyIniGivesDefaults) {
  auto config = board::board_config_from_ini(IniFile{});
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().geometry.total_pcs(), 32u);
  EXPECT_EQ(config.value().fault_config.v_first_flip.value, 970);
}

TEST(ConfigIoTest, OverridesApply) {
  auto ini = IniFile::parse(
      "[geometry]\n"
      "bits_per_pc = 16384\n"
      "banks_per_pc = 2\n"
      "beats_per_row = 8\n"
      "[faults]\n"
      "temperature_c = 85\n"
      "v_first_flip_mv = 960\n"
      "[power]\n"
      "p_full_load_w = 30\n"
      "[board]\n"
      "seed = 99\n");
  ASSERT_TRUE(ini.is_ok());
  auto config = board::board_config_from_ini(ini.value());
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().geometry.bits_per_pc, 16384u);
  EXPECT_DOUBLE_EQ(config.value().fault_config.temperature_c, 85.0);
  EXPECT_EQ(config.value().fault_config.v_first_flip.value, 960);
  EXPECT_DOUBLE_EQ(config.value().power_config.p_full_load.value, 30.0);
  EXPECT_EQ(config.value().seed, 99u);
}

TEST(ConfigIoTest, InvalidGeometryRejected) {
  auto ini = IniFile::parse("[geometry]\nbits_per_pc = 1000\n");
  ASSERT_TRUE(ini.is_ok());
  EXPECT_FALSE(board::board_config_from_ini(ini.value()).is_ok());
}

TEST(ConfigIoTest, ParseErrorPropagates) {
  auto ini = IniFile::parse("[power]\nidle_fraction = abc\n");
  ASSERT_TRUE(ini.is_ok());
  EXPECT_EQ(board::board_config_from_ini(ini.value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfigIoTest, FullRoundTrip) {
  board::BoardConfig original;
  original.geometry = hbm::HbmGeometry::test_tiny();
  original.fault_config.temperature_c = 55.0;
  original.power_config.idle_fraction = 0.25;
  original.seed = 0xABCDEF;
  original.port_efficiency = 0.5;
  original.weak_config.cluster_count = 3;

  const IniFile ini = board::board_config_to_ini(original);
  auto reparsed = IniFile::parse(ini.to_string());
  ASSERT_TRUE(reparsed.is_ok());
  auto loaded = board::board_config_from_ini(reparsed.value());
  ASSERT_TRUE(loaded.is_ok());
  const auto& config = loaded.value();

  EXPECT_EQ(config.geometry.bits_per_pc, original.geometry.bits_per_pc);
  EXPECT_EQ(config.geometry.banks_per_pc, original.geometry.banks_per_pc);
  EXPECT_DOUBLE_EQ(config.fault_config.temperature_c, 55.0);
  EXPECT_DOUBLE_EQ(config.power_config.idle_fraction, 0.25);
  EXPECT_EQ(config.seed, 0xABCDEFu);
  EXPECT_DOUBLE_EQ(config.port_efficiency, 0.5);
  EXPECT_EQ(config.weak_config.cluster_count, 3u);
  // A board built from the round-tripped config behaves identically.
  board::Vcu128Board a(original);
  board::Vcu128Board b(config);
  (void)a.set_hbm_voltage(Millivolts{900});
  (void)b.set_hbm_voltage(Millivolts{900});
  EXPECT_EQ(a.injector().overlay(18).total_count(),
            b.injector().overlay(18).total_count());
}

}  // namespace
}  // namespace hbmvolt
