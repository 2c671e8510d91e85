#include "chaos/chaos.hpp"

#include "common/log.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::chaos {

double ChaosSchedule::rate(FaultKind kind) const noexcept {
  switch (kind) {
    case FaultKind::kPmbusNack:
      return config_.pmbus_nack_rate;
    case FaultKind::kWireCorrupt:
      return config_.wire_corrupt_rate;
    case FaultKind::kInaDropout:
      return config_.ina_dropout_rate;
    case FaultKind::kAxiFail:
      return config_.axi_fail_rate;
    case FaultKind::kSpuriousCrash:
      return config_.spurious_crash_rate;
    case FaultKind::kWeakCellBurst:
      return config_.weak_burst_rate;
    case FaultKind::kBitRot:
      return config_.bit_rot_rate;
    case FaultKind::kPcKill:
      return config_.pc_kill_rate;
    case FaultKind::kTenantSurge:
      return config_.tenant_surge_rate;
  }
  return 0.0;
}

namespace {

std::uint64_t schedule_bits(std::uint64_t seed, FaultKind kind,
                            std::uint64_t salt, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) noexcept {
  const std::uint64_t kind_seed =
      mix_seed(seed, salt + static_cast<std::uint64_t>(kind));
  return splitmix64(stream_seed(kind_seed, a, b, c));
}

}  // namespace

bool ChaosSchedule::fires(FaultKind kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) const noexcept {
  const double r = rate(kind);
  if (r <= 0.0) return false;
  const std::uint64_t u =
      schedule_bits(config_.seed, kind, 0xF12E5, a, b, c);
  return (static_cast<double>(u >> 11) * 0x1.0p-53) < r;
}

std::uint64_t ChaosSchedule::draw(FaultKind kind, std::uint64_t a,
                                  std::uint64_t b,
                                  std::uint64_t c) const noexcept {
  return schedule_bits(config_.seed, kind, 0xD2A35, a, b, c);
}

bool ChaosInjector::Site::spin(const ChaosSchedule& schedule, FaultKind kind,
                               std::uint64_t key, unsigned cooldown_events) {
  const std::uint64_t event = events++;
  if (cooldown > 0) {
    --cooldown;
    return false;
  }
  if (!schedule.fires(kind, key, event, 0)) return false;
  cooldown = cooldown_events;
  return true;
}

ChaosInjector::ChaosInjector(board::Vcu128Board& board, ChaosConfig config)
    : board_(board),
      schedule_(config),
      alive_(std::make_shared<std::atomic<bool>>(true)) {
  const ChaosConfig& cfg = schedule_.config();
  if (cfg.pmbus_nack_rate > 0.0 || cfg.ina_dropout_rate > 0.0 ||
      cfg.regulator_dies_after >= 0 || cfg.monitor_dies_after >= 0) {
    board_.bus().set_transaction_hook(
        [this](std::uint8_t address, std::uint8_t command) {
          return on_transaction(address, command);
        });
  }
  if (cfg.wire_corrupt_rate > 0.0) {
    board_.bus().set_wire_corruptor(
        [this](std::vector<std::uint8_t>& frame) { on_frame(frame); });
  }
  if (cfg.axi_fail_rate > 0.0) {
    board_.set_axi_fault_hook([this](std::uint64_t run, unsigned stack,
                                     unsigned port, unsigned attempt) {
      return on_axi(run, stack, port, attempt);
    });
  }
  if (cfg.spurious_crash_rate > 0.0) {
    // The listener list is append-only, so this callback outlives the
    // injector -- it keeps the alive flag (by value) and bails once the
    // injector is gone.
    std::shared_ptr<std::atomic<bool>> alive = alive_;
    board_.regulator_model().add_vout_listener([this, alive](Millivolts v) {
      if (!alive->load(std::memory_order_acquire)) return;
      on_vout(v);
    });
  }
}

ChaosInjector::~ChaosInjector() {
  alive_->store(false, std::memory_order_release);
  board_.bus().set_transaction_hook(nullptr);
  board_.bus().set_wire_corruptor(nullptr);
  board_.set_axi_fault_hook(nullptr);
}

void ChaosInjector::note(FaultKind kind) {
  injected_[static_cast<unsigned>(kind)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (auto* tel = telemetry::Telemetry::active()) {
    switch (kind) {
      case FaultKind::kPmbusNack:
        tel->count("chaos.injected.pmbus_nack");
        break;
      case FaultKind::kWireCorrupt:
        tel->count("chaos.injected.wire_corrupt");
        break;
      case FaultKind::kInaDropout:
        tel->count("chaos.injected.ina_dropout");
        break;
      case FaultKind::kAxiFail:
        tel->count("chaos.injected.axi_fail");
        break;
      case FaultKind::kSpuriousCrash:
        tel->count("chaos.injected.spurious_crash");
        break;
      case FaultKind::kWeakCellBurst:
        tel->count("chaos.injected.weak_cell_burst");
        break;
      case FaultKind::kBitRot:
        tel->count("chaos.injected.bit_rot");
        break;
      case FaultKind::kPcKill:
        tel->count("chaos.injected.pc_kill");
        break;
      case FaultKind::kTenantSurge:
        tel->count("chaos.injected.tenant_surge");
        break;
    }
    tel->count("chaos.injected.total");
  }
}

Status ChaosInjector::on_transaction(std::uint8_t address,
                                     std::uint8_t command) {
  (void)command;
  const ChaosConfig& cfg = schedule_.config();
  const std::uint8_t regulator = board_.config().regulator_config.address;
  const std::uint8_t monitor = board_.config().monitor_config.address;

  // Persistent deaths first: once the transaction budget is spent the
  // component never answers again and no transient logic runs.
  if (address == regulator) {
    ++regulator_txns_;
    if (cfg.regulator_dies_after >= 0 &&
        regulator_txns_ >
            static_cast<std::uint64_t>(cfg.regulator_dies_after)) {
      note(FaultKind::kPmbusNack);
      return not_found("chaos: regulator permanently NACKs");
    }
  } else if (address == monitor) {
    ++monitor_txns_;
    if (cfg.monitor_dies_after >= 0 &&
        monitor_txns_ > static_cast<std::uint64_t>(cfg.monitor_dies_after)) {
      note(FaultKind::kInaDropout);
      return unavailable("chaos: power monitor permanently unresponsive");
    }
  }

  if (cfg.pmbus_nack_rate > 0.0 &&
      nack_sites_[address].spin(schedule_, FaultKind::kPmbusNack, address,
                                cfg.cooldown)) {
    note(FaultKind::kPmbusNack);
    return not_found("chaos: injected PMBus NACK");
  }
  if (address == monitor && cfg.ina_dropout_rate > 0.0 &&
      dropout_site_.spin(schedule_, FaultKind::kInaDropout, address,
                         cfg.cooldown)) {
    note(FaultKind::kInaDropout);
    return unavailable("chaos: injected power monitor dropout");
  }
  return Status::ok();
}

void ChaosInjector::on_frame(std::vector<std::uint8_t>& frame) {
  if (frame.empty()) return;
  // Only corrupt frames PEC will audit: without PEC a flipped bit would
  // be silently *delivered*, which is data corruption, not a transient
  // fault the retry layer can absorb.
  if (!board_.bus().pec_enabled()) return;
  if (!wire_site_.spin(schedule_, FaultKind::kWireCorrupt, 0,
                       schedule_.config().cooldown)) {
    return;
  }
  note(FaultKind::kWireCorrupt);
  // Single-bit flip at a drawn position: CRC-8 detects every single-bit
  // error, so the transaction always fails with kDataLoss and retries.
  const std::uint64_t u = schedule_.draw(FaultKind::kWireCorrupt,
                                         wire_site_.events, frame.size(), 0);
  const std::size_t byte = static_cast<std::size_t>(u % frame.size());
  const unsigned bit = static_cast<unsigned>((u >> 32) % 8);
  frame[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

Status ChaosInjector::on_axi(std::uint64_t run, unsigned stack, unsigned port,
                             unsigned attempt) {
  // Pure decision (runs concurrently from sweep workers): only the first
  // attempt of a dispatch can fail, so one retry always recovers and the
  // retried attempt replays against untouched TG state.
  if (attempt != 0) return Status::ok();
  const std::uint64_t key =
      (static_cast<std::uint64_t>(stack) << 32) | port;
  if (!schedule_.fires(FaultKind::kAxiFail, run, key, 0)) {
    return Status::ok();
  }
  note(FaultKind::kAxiFail);
  return unavailable("chaos: injected AXI dispatch failure");
}

bool ChaosInjector::storm_tick(unsigned pc_global, std::uint64_t tick) {
  // Pure fire decisions from (seed, pc, tick) -- no Site state, so
  // distinct PCs can tick concurrently (mutations below are PC-local).
  bool fired = false;
  const hbm::HbmGeometry& geometry = board_.geometry();
  if (schedule_.fires(FaultKind::kWeakCellBurst, pc_global, tick, 0)) {
    note(FaultKind::kWeakCellBurst);
    const std::uint64_t cells = schedule_.config().burst_cells;
    board_.injector().add_burst(pc_global, cells, cells);
    HBMVOLT_LOG_INFO("chaos: weak-cell burst of %llu cells/polarity on PC %u",
                     static_cast<unsigned long long>(cells), pc_global);
    fired = true;
  }
  if (schedule_.fires(FaultKind::kBitRot, pc_global, tick, 1)) {
    note(FaultKind::kBitRot);
    const std::uint64_t u =
        schedule_.draw(FaultKind::kBitRot, pc_global, tick, 1);
    const std::uint64_t bit = u % geometry.bits_per_pc;
    const hbm::PcId pc = hbm::PcId::from_global(geometry, pc_global);
    hbm::MemoryArray& array = board_.stack(pc.stack).array(pc.index);
    array.write_bit(bit, !array.read_bit(bit));
    fired = true;
  }
  if (schedule_.fires(FaultKind::kPcKill, pc_global, tick, 2)) {
    const hbm::PcId pc = hbm::PcId::from_global(geometry, pc_global);
    hbm::HbmStack& stack = board_.stack(pc.stack);
    if (!stack.pc_killed(pc.index)) {
      note(FaultKind::kPcKill);
      HBMVOLT_LOG_INFO("chaos: pseudo-channel %u killed outright", pc_global);
      stack.kill_pc(pc.index);
      fired = true;
    }
  }
  return fired;
}

std::uint64_t ChaosInjector::surge_tick(std::uint64_t tenant,
                                        std::uint64_t epoch) {
  if (!schedule_.fires(FaultKind::kTenantSurge, tenant, epoch, 0)) return 1;
  note(FaultKind::kTenantSurge);
  const std::uint64_t multiplier = schedule_.config().surge_multiplier;
  return multiplier > 1 ? multiplier : 1;
}

void ChaosInjector::on_vout(Millivolts v) {
  // Power-down transitions are not crash opportunities: the stacks are
  // off, and counting them would let a power cycle burn the cooldown the
  // watchdog relies on.
  if (v.value <= 0) return;
  if (!crash_site_.spin(schedule_, FaultKind::kSpuriousCrash, 0,
                        schedule_.config().cooldown)) {
    return;
  }
  note(FaultKind::kSpuriousCrash);
  const std::uint64_t u =
      schedule_.draw(FaultKind::kSpuriousCrash, crash_site_.events, 0, 0);
  const unsigned stacks = board_.geometry().stacks;
  const unsigned victim = static_cast<unsigned>(u % stacks);
  HBMVOLT_LOG_INFO("chaos: spurious crash of stack %u at %d mV", victim,
                   v.value);
  board_.stack(victim).force_crash();
}

}  // namespace hbmvolt::chaos
