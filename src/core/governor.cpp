#include "core/governor.hpp"

#include "common/log.hpp"
#include "core/voltage_sweep.hpp"

namespace hbmvolt::core {

UndervoltGovernor::UndervoltGovernor(board::Vcu128Board& board,
                                     GovernorConfig config)
    : board_(board), config_(config) {
  HBMVOLT_REQUIRE(config_.step_mv > 0, "step must be positive");
  HBMVOLT_REQUIRE(config_.backoff_steps > 0, "backoff must be positive");
  HBMVOLT_REQUIRE(config_.probe_beats > 0, "probe needs at least one beat");
}

Result<double> UndervoltGovernor::probe() {
  if (!board_.responding()) {
    return unavailable("device not responding");
  }
  const std::uint64_t beats =
      std::min(config_.probe_beats, board_.geometry().beats_per_pc());
  std::uint64_t flips = 0;
  std::uint64_t bits = 0;
  for (const auto& pattern : {hbm::kBeatAllOnes, hbm::kBeatAllZeros}) {
    axi::TgCommand command{axi::MacroOp::kWriteRead, 0, beats, pattern,
                           /*check=*/true};
    for (const auto& result : board_.run_traffic(command)) {
      if (!result.stack_responding) {
        return unavailable("stack stopped responding during probe");
      }
      const auto totals = result.totals();
      flips += totals.total_flips();
      bits += totals.bits_checked;
    }
  }
  return bits == 0 ? 0.0
                   : static_cast<double>(flips) / static_cast<double>(bits);
}

Result<GovernorResult> UndervoltGovernor::run() {
  GovernorResult result;
  const Millivolts v_nom = board_.config().regulator_config.vout_default;
  HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(v_nom));
  board_.set_active_ports(board_.total_ports());

  Millivolts current = v_nom;
  Millivolts last_good = v_nom;
  Millivolts hold{0};  // nonzero once we've backed off
  unsigned clean_in_a_row = 0;

  while (result.probes < config_.max_probes) {
    ++result.probes;
    auto rate = probe();

    GovernorStep step;
    step.voltage = current;

    if (!rate.is_ok()) {
      step.crashed = true;
      // Crash watchdog (shared with VoltageSweep): a chaos-injected crash
      // recovers under a power-cycle + re-apply recheck, and the governor
      // re-probes the same voltage instead of backing off -- spurious
      // crashes must not inflate the settled voltage.
      auto recovered = crash_watchdog_recover(
          board_, current, config_.crash_retries, "governor");
      if (!recovered.is_ok()) return recovered.status();
      board_.set_active_ports(board_.total_ports());
      if (recovered.value()) {
        step.spurious = true;
        step.action = GovernorStep::Action::kRetry;
        result.trace.push_back(step);
        continue;
      }
      // Genuine crash: power-cycle, return to last-known-good + margin,
      // hold.
      step.action = GovernorStep::Action::kPowerCycle;
      result.trace.push_back(step);
      HBMVOLT_RETURN_IF_ERROR(board_.power_cycle());
      board_.set_active_ports(board_.total_ports());
      hold = Millivolts{last_good.value + config_.step_mv};
      current = hold;
      HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(current));
      clean_in_a_row = 0;
      continue;
    }
    step.measured_rate = rate.value();

    if (rate.value() > config_.tolerable_rate) {
      // Violation: back off and hold there.
      hold = Millivolts{current.value +
                        config_.step_mv * config_.backoff_steps};
      if (hold > v_nom) hold = v_nom;
      step.action = GovernorStep::Action::kBackoff;
      result.trace.push_back(step);
      current = hold;
      HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(current));
      clean_in_a_row = 0;
      continue;
    }

    last_good = current;
    if (hold.value != 0 || current <= config_.floor) {
      // Holding (post-backoff or at the floor): count clean probes.
      step.action = GovernorStep::Action::kHold;
      result.trace.push_back(step);
      if (++clean_in_a_row >= config_.settle_probes) {
        result.converged = true;
        break;
      }
      continue;
    }

    // Still exploring downwards.
    step.action = GovernorStep::Action::kLower;
    result.trace.push_back(step);
    current = Millivolts{current.value - config_.step_mv};
    if (current < config_.floor) current = config_.floor;
    HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(current));
  }

  result.settled = board_.hbm_voltage();
  const double v = result.settled.volts();
  if (v > 0) {
    const double nominal = v_nom.volts();
    result.savings_factor = (nominal / v) * (nominal / v);
  }
  return result;
}

}  // namespace hbmvolt::core
