#include "pmbus/bus.hpp"

#include <utility>

#include "pmbus/pec.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::pmbus {

Status Bus::attach(SlaveDevice* device) {
  HBMVOLT_REQUIRE(device != nullptr, "cannot attach null device");
  const auto address = device->address();
  if (devices_.contains(address)) {
    return failed_precondition("bus address already in use");
  }
  devices_.emplace(address, device);
  return Status::ok();
}


Status Bus::begin_transaction(std::uint8_t address, std::uint8_t command) {
  if (!hook_) return Status::ok();
  Status injected = hook_(address, command);
  if (injected.is_ok()) return injected;
  if (injected.code() == StatusCode::kNotFound) {
    ++nacks_;
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count("pmbus.nacks");
    }
  }
  return injected;
}

Result<SlaveDevice*> Bus::find(std::uint8_t address) {
  const auto it = devices_.find(address);
  if (it == devices_.end()) {
    ++nacks_;
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count("pmbus.nacks");
    }
    return not_found("no device ACKed the address");
  }
  return it->second;
}

Result<std::vector<std::uint8_t>> Bus::transfer(
    std::vector<std::uint8_t> frame) {
  ++transactions_;
  if (auto* tel = telemetry::Telemetry::active()) {
    tel->count("pmbus.transactions");
  }
  if (!pec_enabled_) {
    if (corruptor_) corruptor_(frame);
    return frame;
  }
  frame.push_back(pec_crc8(frame));
  if (corruptor_) corruptor_(frame);
  const std::uint8_t received_pec = frame.back();
  frame.pop_back();
  if (pec_crc8(frame) != received_pec) {
    ++pec_errors_;
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count("pmbus.pec_errors");
    }
    return data_loss("PEC mismatch on wire");
  }
  return frame;
}

Status Bus::write_byte(std::uint8_t address, std::uint8_t command,
                       std::uint8_t value) {
  HBMVOLT_RETURN_IF_ERROR(begin_transaction(address, command));
  auto device = find(address);
  if (!device.is_ok()) return device.status();
  // Frame: address(W), command, data.
  auto frame = transfer({static_cast<std::uint8_t>(address << 1), command,
                         value});
  if (!frame.is_ok()) return frame.status();
  const auto& bytes = frame.value();
  return device.value()->write_byte(bytes[1], bytes[2]);
}

Status Bus::write_word(std::uint8_t address, std::uint8_t command,
                       std::uint16_t value) {
  HBMVOLT_RETURN_IF_ERROR(begin_transaction(address, command));
  auto device = find(address);
  if (!device.is_ok()) return device.status();
  // Frame: address(W), command, data low, data high (SMBus little-endian).
  auto frame = transfer({static_cast<std::uint8_t>(address << 1), command,
                         static_cast<std::uint8_t>(value & 0xFF),
                         static_cast<std::uint8_t>(value >> 8)});
  if (!frame.is_ok()) return frame.status();
  const auto& bytes = frame.value();
  const auto word = static_cast<std::uint16_t>(bytes[2] | (bytes[3] << 8));
  return device.value()->write_word(bytes[1], word);
}

Status Bus::send_byte(std::uint8_t address, std::uint8_t command) {
  HBMVOLT_RETURN_IF_ERROR(begin_transaction(address, command));
  auto device = find(address);
  if (!device.is_ok()) return device.status();
  auto frame = transfer({static_cast<std::uint8_t>(address << 1), command});
  if (!frame.is_ok()) return frame.status();
  return device.value()->send_byte(frame.value()[1]);
}

Result<std::uint8_t> Bus::read_byte(std::uint8_t address,
                                    std::uint8_t command) {
  HBMVOLT_RETURN_IF_ERROR(begin_transaction(address, command));
  auto device = find(address);
  if (!device.is_ok()) return device.status();
  auto value = device.value()->read_byte(command);
  if (!value.is_ok()) return value.status();
  // Frame: address(W), command, address(R), data.
  auto frame = transfer({static_cast<std::uint8_t>(address << 1), command,
                         static_cast<std::uint8_t>((address << 1) | 1),
                         value.value()});
  if (!frame.is_ok()) return frame.status();
  return frame.value()[3];
}

Result<std::uint16_t> Bus::read_word(std::uint8_t address,
                                     std::uint8_t command) {
  HBMVOLT_RETURN_IF_ERROR(begin_transaction(address, command));
  auto device = find(address);
  if (!device.is_ok()) return device.status();
  auto value = device.value()->read_word(command);
  if (!value.is_ok()) return value.status();
  auto frame = transfer({static_cast<std::uint8_t>(address << 1), command,
                         static_cast<std::uint8_t>((address << 1) | 1),
                         static_cast<std::uint8_t>(value.value() & 0xFF),
                         static_cast<std::uint8_t>(value.value() >> 8)});
  if (!frame.is_ok()) return frame.status();
  const auto& bytes = frame.value();
  return static_cast<std::uint16_t>(bytes[3] | (bytes[4] << 8));
}

}  // namespace hbmvolt::pmbus
