// PMBus (SMBus) bus model.
//
// The bus routes master transactions to registered slave devices by 7-bit
// address and models the wire framing including Packet Error Checking:
// each transaction is serialized to its byte frame, the PEC CRC is
// computed over it, and an optional error-injection hook can corrupt bytes
// in flight so tests can verify that PEC catches the corruption -- the
// same end-to-end path a real host driver exercises.

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "pmbus/device.hpp"

namespace hbmvolt::pmbus {

class Bus {
 public:
  /// Registers a slave.  The bus does not take ownership; the device must
  /// outlive the bus.  Fails if the address is already taken.
  Status attach(SlaveDevice* device);

  /// Enables PEC framing for all subsequent transactions.
  void set_pec_enabled(bool enabled) noexcept { pec_enabled_ = enabled; }
  [[nodiscard]] bool pec_enabled() const noexcept { return pec_enabled_; }

  /// Error-injection hook: called with the serialized frame before delivery;
  /// may mutate it (e.g. flip a bit).  Used by tests and fault-injection
  /// benches.  Pass nullptr to clear.
  using WireCorruptor = std::function<void(std::vector<std::uint8_t>&)>;
  void set_wire_corruptor(WireCorruptor corruptor) {
    corruptor_ = std::move(corruptor);
  }

  /// Fault-injection hook, consulted once at the start of every master
  /// transaction, *before* the address phase.  A non-OK return aborts the
  /// transaction with that status and no device is touched -- kNotFound
  /// models an address NACK, kUnavailable an unresponsive device.  This
  /// is what makes injected faults figure-neutral under retry: the slave
  /// never sees the failed attempt, so no device state (or RNG stream)
  /// advances.  Pass nullptr to clear.  See src/chaos/.
  using TransactionHook =
      std::function<Status(std::uint8_t address, std::uint8_t command)>;
  void set_transaction_hook(TransactionHook hook) {
    hook_ = std::move(hook);
  }

  // Master-side transactions.  kNotFound if no device ACKs the address.
  Status write_byte(std::uint8_t address, std::uint8_t command,
                    std::uint8_t value);
  Status write_word(std::uint8_t address, std::uint8_t command,
                    std::uint16_t value);
  Status send_byte(std::uint8_t address, std::uint8_t command);
  Result<std::uint8_t> read_byte(std::uint8_t address, std::uint8_t command);
  Result<std::uint16_t> read_word(std::uint8_t address, std::uint8_t command);

  /// Number of completed transactions (for test observability).
  [[nodiscard]] std::uint64_t transaction_count() const noexcept {
    return transactions_;
  }
  /// Number of transactions rejected due to PEC mismatch.
  [[nodiscard]] std::uint64_t pec_error_count() const noexcept {
    return pec_errors_;
  }
  /// Number of transactions that ended in an address NACK (kNotFound) --
  /// real (no device at the address) or injected.  Deliberately separate
  /// from pec_error_count(): a NACK means the transfer never happened,
  /// while a PEC error (kDataLoss) means it happened and arrived corrupt,
  /// and retry policy may treat the two differently.
  [[nodiscard]] std::uint64_t nack_count() const noexcept { return nacks_; }

 private:
  /// Pre-address-phase gate: runs the injection hook and accounts NACKs.
  Status begin_transaction(std::uint8_t address, std::uint8_t command);

  Result<SlaveDevice*> find(std::uint8_t address);

  /// Frames `payload` bytes, applies corruption, and validates PEC.
  /// Returns the (possibly corrupted) payload on success.
  Result<std::vector<std::uint8_t>> transfer(std::vector<std::uint8_t> frame);

  std::unordered_map<std::uint8_t, SlaveDevice*> devices_;
  bool pec_enabled_ = true;
  WireCorruptor corruptor_;
  TransactionHook hook_;
  std::uint64_t transactions_ = 0;
  std::uint64_t pec_errors_ = 0;
  std::uint64_t nacks_ = 0;
};

}  // namespace hbmvolt::pmbus
