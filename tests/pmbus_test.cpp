// Unit tests for src/pmbus: LINEAR11/16 formats, PEC, the bus, and the
// ISL68301 regulator model + host driver.

#include <cmath>

#include <gtest/gtest.h>

#include "pmbus/bus.hpp"
#include "pmbus/commands.hpp"
#include "pmbus/isl68301.hpp"
#include "pmbus/linear.hpp"
#include "pmbus/pec.hpp"

namespace hbmvolt {
namespace {

using pmbus::Command;
using power::Isl68301;
using power::Isl68301Driver;

// -------------------------------------------------------------- LINEAR11

TEST(Linear11Test, ZeroRoundTrips) {
  EXPECT_DOUBLE_EQ(pmbus::linear11_decode(pmbus::linear11_encode(0.0)), 0.0);
}

TEST(Linear11Test, KnownEncoding) {
  // 1.0 with exponent -10 => mantissa 1024 doesn't fit; encoder picks the
  // smallest exponent with |Y| <= 1023.  Whatever it picks must decode
  // back exactly for powers of two.
  EXPECT_DOUBLE_EQ(pmbus::linear11_decode(pmbus::linear11_encode(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(pmbus::linear11_decode(pmbus::linear11_encode(0.5)), 0.5);
  EXPECT_DOUBLE_EQ(pmbus::linear11_decode(pmbus::linear11_encode(-2.0)), -2.0);
}

TEST(Linear11Test, DecodeHandlesNegativeMantissaAndExponent) {
  // Y = -1 (0x7FF), N = -1 (0x1F) -> -1 * 2^-1 = -0.5.
  const std::uint16_t word = static_cast<std::uint16_t>((0x1F << 11) | 0x7FF);
  EXPECT_DOUBLE_EQ(pmbus::linear11_decode(word), -0.5);
}

class Linear11RoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(Linear11RoundTrip, EncodeDecodeWithinResolution) {
  const double value = GetParam();
  const double decoded = pmbus::linear11_decode(pmbus::linear11_encode(value));
  // Relative error bounded by the 10-bit mantissa resolution; absolute
  // error floor is half an LSB at the smallest exponent (2^-16).
  EXPECT_NEAR(decoded, value, std::max(std::abs(value) / 512.0, 0x1.0p-16));
}

INSTANTIATE_TEST_SUITE_P(Values, Linear11RoundTrip,
                         ::testing::Values(0.001, 0.035, 0.5, 1.2, 3.3, 12.0,
                                           35.0, 250.0, 1000.0, -0.7, -48.0));

TEST(Linear11Test, ClampsOutOfRange) {
  // Far beyond the format's maximum (1023 * 2^15).
  const double huge = 1e12;
  const double decoded = pmbus::linear11_decode(pmbus::linear11_encode(huge));
  EXPECT_DOUBLE_EQ(decoded, 1023.0 * 32768.0);
}

// -------------------------------------------------------------- LINEAR16

TEST(Linear16Test, VoltageRoundTripAtTypicalExponent) {
  const int exp = -12;  // 1/4096 V per LSB
  for (const double v : {0.0, 0.81, 0.98, 1.2, 1.5}) {
    auto mantissa = pmbus::linear16_encode(v, exp);
    ASSERT_TRUE(mantissa.is_ok());
    EXPECT_NEAR(pmbus::linear16_decode(mantissa.value(), exp), v, 1.0 / 4096);
  }
}

TEST(Linear16Test, RejectsNegative) {
  EXPECT_FALSE(pmbus::linear16_encode(-0.1, -12).is_ok());
}

TEST(Linear16Test, RejectsOverflow) {
  EXPECT_FALSE(pmbus::linear16_encode(17.0, -12).is_ok());  // > 65535/4096
}

TEST(VoutModeTest, RoundTripsExponent) {
  for (int exp = -16; exp <= 15; ++exp) {
    auto decoded = pmbus::vout_mode_exponent(pmbus::make_vout_mode(exp));
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), exp);
  }
}

TEST(VoutModeTest, RejectsNonLinearModes) {
  EXPECT_FALSE(pmbus::vout_mode_exponent(0x40).is_ok());  // VID mode bits
}

// ------------------------------------------------------------------- PEC

TEST(PecTest, StandardCheckValue) {
  // CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(pmbus::pec_crc8(data), 0xF4);
}

TEST(PecTest, EmptyIsZero) {
  EXPECT_EQ(pmbus::pec_crc8(std::span<const std::uint8_t>{}), 0x00);
}

TEST(PecTest, IncrementalMatchesBatch) {
  const std::uint8_t data[] = {0xA0, 0x21, 0x34, 0x12};
  std::uint8_t crc = 0;
  for (const auto b : data) crc = pmbus::pec_crc8_step(crc, b);
  EXPECT_EQ(crc, pmbus::pec_crc8(data));
}

TEST(PecTest, SensitiveToEveryBit) {
  const std::uint8_t base[] = {0xC0, 0x21, 0x00, 0x0F};
  const std::uint8_t reference = pmbus::pec_crc8(base);
  for (int byte = 0; byte < 4; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t mutated[4] = {base[0], base[1], base[2], base[3]};
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(pmbus::pec_crc8(mutated), reference)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// ------------------------------------------------------------------- Bus

class EchoDevice : public pmbus::SlaveDevice {
 public:
  explicit EchoDevice(std::uint8_t address) : address_(address) {}
  [[nodiscard]] std::uint8_t address() const noexcept override {
    return address_;
  }
  Result<std::uint16_t> read_word(std::uint8_t command) override {
    return static_cast<std::uint16_t>(command * 0x0101u);
  }
  Status write_word(std::uint8_t command, std::uint16_t value) override {
    last_command = command;
    last_value = value;
    return Status::ok();
  }
  std::uint8_t last_command = 0;
  std::uint16_t last_value = 0;

 private:
  std::uint8_t address_;
};

TEST(BusTest, AttachRejectsDuplicateAddress) {
  pmbus::Bus bus;
  EchoDevice a(0x40);
  EchoDevice b(0x40);
  EXPECT_TRUE(bus.attach(&a).is_ok());
  EXPECT_EQ(bus.attach(&b).code(), StatusCode::kFailedPrecondition);
}

TEST(BusTest, UnknownAddressNacks) {
  pmbus::Bus bus;
  EXPECT_EQ(bus.read_word(0x55, 0x01).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bus.write_byte(0x55, 0x01, 0x02).code(), StatusCode::kNotFound);
}

TEST(BusTest, WordTransactionsReachDevice) {
  pmbus::Bus bus;
  EchoDevice device(0x21);
  ASSERT_TRUE(bus.attach(&device).is_ok());
  ASSERT_TRUE(bus.write_word(0x21, 0x07, 0xBEEF).is_ok());
  EXPECT_EQ(device.last_command, 0x07);
  EXPECT_EQ(device.last_value, 0xBEEF);
  auto word = bus.read_word(0x21, 0x03);
  ASSERT_TRUE(word.is_ok());
  EXPECT_EQ(word.value(), 0x0303);
}

TEST(BusTest, PecDetectsWireCorruption) {
  pmbus::Bus bus;
  EchoDevice device(0x21);
  ASSERT_TRUE(bus.attach(&device).is_ok());
  bus.set_wire_corruptor([](std::vector<std::uint8_t>& frame) {
    frame[2] ^= 0x01;  // flip one data bit in flight
  });
  const Status status = bus.write_word(0x21, 0x07, 0x1234);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bus.pec_error_count(), 1u);
  // The device never saw the corrupted write.
  EXPECT_EQ(device.last_value, 0u);
}

class PecCorruptionPosition : public ::testing::TestWithParam<int> {};

TEST_P(PecCorruptionPosition, AnySingleBitFlipIsCaught) {
  pmbus::Bus bus;
  EchoDevice device(0x21);
  ASSERT_TRUE(bus.attach(&device).is_ok());
  const int bit = GetParam();
  bus.set_wire_corruptor([bit](std::vector<std::uint8_t>& frame) {
    const std::size_t byte = static_cast<std::size_t>(bit / 8) % frame.size();
    frame[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  });
  EXPECT_EQ(bus.write_word(0x21, 0x07, 0x5A5A).code(), StatusCode::kDataLoss);
}

INSTANTIATE_TEST_SUITE_P(Bits, PecCorruptionPosition,
                         ::testing::Range(0, 40));

TEST(BusTest, CorruptionPassesWithoutPec) {
  pmbus::Bus bus;
  bus.set_pec_enabled(false);
  EchoDevice device(0x21);
  ASSERT_TRUE(bus.attach(&device).is_ok());
  bus.set_wire_corruptor([](std::vector<std::uint8_t>& frame) {
    frame[2] ^= 0x01;
  });
  // Without PEC the corrupted value is silently accepted -- the hazard
  // PEC exists to prevent.
  ASSERT_TRUE(bus.write_word(0x21, 0x07, 0x1234).is_ok());
  EXPECT_EQ(device.last_value, 0x1235);
}

TEST(BusTest, CountsTransactions) {
  pmbus::Bus bus;
  EchoDevice device(0x21);
  ASSERT_TRUE(bus.attach(&device).is_ok());
  (void)bus.write_word(0x21, 0x01, 1);
  (void)bus.read_word(0x21, 0x01);
  EXPECT_EQ(bus.transaction_count(), 2u);
}

// -------------------------------------------------------------- ISL68301

class Isl68301Test : public ::testing::Test {
 protected:
  Isl68301Test() : regulator_(Isl68301::Config{}) {
    EXPECT_TRUE(bus_.attach(&regulator_).is_ok());
  }

  pmbus::Bus bus_;
  Isl68301 regulator_;
};

TEST_F(Isl68301Test, PowersUpAtNominal) {
  EXPECT_EQ(regulator_.vout_nominal().value, 1200);
  EXPECT_TRUE(regulator_.output_enabled());
}

TEST_F(Isl68301Test, VoutCommandChangesOutput) {
  Isl68301Driver driver(bus_, 0x60);
  ASSERT_TRUE(driver.set_uv_fault_limit(Millivolts{0}).is_ok());
  ASSERT_TRUE(driver.set_vout(Millivolts{980}).is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 980);
}

TEST_F(Isl68301Test, VoutListenerFires) {
  std::vector<int> seen;
  regulator_.add_vout_listener(
      [&seen](Millivolts v) { seen.push_back(v.value); });
  Isl68301Driver driver(bus_, 0x60);
  ASSERT_TRUE(driver.set_uv_fault_limit(Millivolts{0}).is_ok());
  ASSERT_TRUE(driver.set_vout(Millivolts{1100}).is_ok());
  ASSERT_TRUE(driver.set_vout(Millivolts{1100}).is_ok());  // no change
  ASSERT_TRUE(driver.set_vout(Millivolts{900}).is_ok());
  EXPECT_EQ(seen, (std::vector<int>{1100, 900}));
}

TEST_F(Isl68301Test, RejectsVoutAboveMax) {
  Isl68301Driver driver(bus_, 0x60);
  EXPECT_FALSE(driver.set_vout(Millivolts{1600}).is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 1200);
}

TEST_F(Isl68301Test, UvFaultLatchesOutputOff) {
  Isl68301Driver driver(bus_, 0x60);
  // Default UV fault limit is 1.08 V; commanding 0.9 V must latch off.
  ASSERT_TRUE(driver.set_vout(Millivolts{900}).is_ok());
  EXPECT_TRUE(regulator_.uv_fault_latched());
  EXPECT_EQ(regulator_.vout_nominal().value, 0);
  auto status = driver.read_status_vout();
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(status.value() & pmbus::kStatusVoutUvFault);
  // Raising the command alone does not clear the latch.
  ASSERT_TRUE(driver.set_vout(Millivolts{1200}).is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 0);
  // CLEAR_FAULTS recovers.
  ASSERT_TRUE(driver.clear_faults().is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 1200);
}

TEST_F(Isl68301Test, LoweredUvLimitAllowsUndervolting) {
  Isl68301Driver driver(bus_, 0x60);
  ASSERT_TRUE(driver.set_uv_fault_limit(Millivolts{100}).is_ok());
  ASSERT_TRUE(driver.set_vout(Millivolts{810}).is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 810);
  EXPECT_FALSE(regulator_.uv_fault_latched());
}

TEST_F(Isl68301Test, OperationOffKillsOutput) {
  ASSERT_TRUE(
      bus_.write_byte(0x60, static_cast<std::uint8_t>(Command::kOperation),
                      0x00)
          .is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 0);
  ASSERT_TRUE(
      bus_.write_byte(0x60, static_cast<std::uint8_t>(Command::kOperation),
                      pmbus::kOperationOn)
          .is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 1200);
}

TEST_F(Isl68301Test, MarginingSelectsMarginVoltages) {
  ASSERT_TRUE(bus_.write_byte(0x60,
                              static_cast<std::uint8_t>(Command::kOperation),
                              pmbus::kOperationOn | pmbus::kOperationMarginHigh)
                  .is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 1260);
  ASSERT_TRUE(bus_.write_byte(0x60,
                              static_cast<std::uint8_t>(Command::kOperation),
                              pmbus::kOperationOn | pmbus::kOperationMarginLow)
                  .is_ok());
  EXPECT_EQ(regulator_.vout_nominal().value, 1140);
}

TEST_F(Isl68301Test, TelemetryReflectsLoadModel) {
  regulator_.set_load_model([](Millivolts) { return Amps{10.0}; });
  Isl68301Driver driver(bus_, 0x60);
  auto iout = driver.read_iout();
  ASSERT_TRUE(iout.is_ok());
  EXPECT_NEAR(iout.value().value, 10.0, 0.05);
  auto vout = driver.read_vout();
  ASSERT_TRUE(vout.is_ok());
  // Droop: 10 A * 0.2 mOhm = 2 mV.
  EXPECT_EQ(vout.value().value, 1198);
  auto pout = driver.read_pout();
  ASSERT_TRUE(pout.is_ok());
  EXPECT_NEAR(pout.value().value, 11.98, 0.1);
}

TEST_F(Isl68301Test, TemperatureIsPaperOperatingPoint) {
  Isl68301Driver driver(bus_, 0x60);
  auto temperature = driver.read_temperature();
  ASSERT_TRUE(temperature.is_ok());
  EXPECT_NEAR(temperature.value().value, 35.0, 0.5);
}

TEST_F(Isl68301Test, MfrBlocksIdentifyDevice) {
  auto model = regulator_.read_block(
      static_cast<std::uint8_t>(Command::kMfrModel));
  ASSERT_TRUE(model.is_ok());
  const std::string name(model.value().begin(), model.value().end());
  EXPECT_EQ(name, "ISL68301");
}

TEST_F(Isl68301Test, ResetRestoresDefaults) {
  Isl68301Driver driver(bus_, 0x60);
  ASSERT_TRUE(driver.set_uv_fault_limit(Millivolts{0}).is_ok());
  ASSERT_TRUE(driver.set_vout(Millivolts{850}).is_ok());
  regulator_.reset();
  EXPECT_EQ(regulator_.vout_nominal().value, 1200);
  // The UV limit is back at its default, so undervolting latches again.
  ASSERT_TRUE(driver.set_vout(Millivolts{850}).is_ok());
  EXPECT_TRUE(regulator_.uv_fault_latched());
}

TEST_F(Isl68301Test, UnknownCommandNacks) {
  EXPECT_EQ(regulator_.read_word(0xF0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(regulator_.write_byte(0xF0, 1).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hbmvolt
