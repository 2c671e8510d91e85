#include "core/voltage_sweep.hpp"

#include <string>

#include "common/log.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::core {

std::vector<Millivolts> sweep_grid(const SweepConfig& config) {
  HBMVOLT_REQUIRE(config.step_mv > 0, "sweep step must be positive");
  HBMVOLT_REQUIRE(config.start >= config.stop, "sweep must descend");
  std::vector<Millivolts> grid;
  for (int mv = config.start.value; mv >= config.stop.value;
       mv -= config.step_mv) {
    grid.push_back(Millivolts{mv});
  }
  return grid;
}

VoltageSweep::VoltageSweep(board::Vcu128Board& board, SweepConfig config,
                           CrashPolicy policy)
    : board_(board), config_(config), policy_(policy) {}

Result<bool> crash_watchdog_recover(board::Vcu128Board& board, Millivolts v,
                                    unsigned retries,
                                    const char* counter_prefix) {
  unsigned recoveries = 0;
  while (!board.responding() && recoveries < retries) {
    ++recoveries;
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count(std::string(counter_prefix) + ".crash_retries");
    }
    HBMVOLT_RETURN_IF_ERROR(board.power_cycle());
    HBMVOLT_RETURN_IF_ERROR(board.set_hbm_voltage(v));
  }
  if (!board.responding()) return false;
  if (recoveries > 0) {
    HBMVOLT_LOG_INFO("spurious crash at %d mV recovered after %u power "
                     "cycle(s)",
                     v.value, recoveries);
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count(std::string(counter_prefix) +
                 ".spurious_crashes_recovered");
    }
  }
  return true;
}

Status VoltageSweep::run(const std::function<void(Millivolts)>& body,
                         const std::function<void(Millivolts)>& on_crash,
                         const std::vector<SweepSkip>& skip,
                         const StepFn& on_step) {
  bool crashed_any = false;
  for (const Millivolts v : sweep_grid(config_)) {
    // Resume: replay a checkpointed point without touching the board.
    // A checkpointed crash replays the policy decision too -- under kStop
    // the original run ended at this point, so the resumed one must.
    const SweepSkip* done = nullptr;
    for (const SweepSkip& s : skip) {
      if (s.v == v) {
        done = &s;
        break;
      }
    }
    if (done != nullptr) {
      if (done->crashed) {
        crashed_any = true;
        if (policy_ == CrashPolicy::kStop) break;
      }
      continue;
    }

    telemetry::Span step_span("sweep.step", v.value);
    HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(v));
    // Crash watchdog: a genuine undervolt crash is deterministic -- a
    // power cycle and re-applied voltage crashes the stack again.  A
    // spurious (injected) crash recovers, and the retry rounds are
    // figure-neutral (seeded re-scramble, content-independent faults).
    auto recovered = crash_watchdog_recover(board_, v, crash_retries_);
    if (!recovered.is_ok()) return recovered.status();
    if (!recovered.value()) {
      HBMVOLT_LOG_INFO("HBM crashed at %d mV", v.value);
      crashed_any = true;
      if (auto* tel = telemetry::Telemetry::active()) {
        tel->count("sweep.crashes");
      }
      if (on_crash) on_crash(v);
      if (on_step && !on_step(v)) {
        return unavailable("sweep halted by step callback");
      }
      if (policy_ == CrashPolicy::kStop) break;
      HBMVOLT_RETURN_IF_ERROR(board_.power_cycle());
      // The power cycle restored nominal voltage; continue the sweep from
      // the next grid point (which will crash again if below critical --
      // callers normally stop their grids at V_critical).
      continue;
    }
    body(v);
    if (auto* tel = telemetry::Telemetry::active()) tel->count("sweep.steps");
    if (on_step && !on_step(v)) {
      // Halt *without* the restore below: the caller is simulating the
      // process dying here, and a resumed run must find board-independent
      // state (the checkpoint), not a tidied-up board.
      return unavailable("sweep halted by step callback");
    }
  }
  // Restore a sane state for whatever runs next.
  if (!board_.responding() || crashed_any) {
    HBMVOLT_RETURN_IF_ERROR(board_.power_cycle());
  }
  return board_.set_hbm_voltage(
      board_.config().regulator_config.vout_default);
}

}  // namespace hbmvolt::core
