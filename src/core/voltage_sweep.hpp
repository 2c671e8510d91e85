// Voltage sweep driver: walks VCC_HBM down a millivolt grid (the paper's
// V_nom -> V_critical in 10 mV steps) and invokes a measurement body at
// each point, handling crashes per policy.
//
// Two robustness features live here:
//
//  * A crash watchdog.  A non-responding stack at a given voltage is
//    either a genuine undervolt crash (deterministic: the voltage is
//    below the stack's critical point, so a power cycle + re-set crashes
//    it again) or a spurious injected crash (see src/chaos/).  The
//    watchdog power-cycles and re-applies the voltage up to
//    `crash_retries` times; only a crash that survives the recheck is
//    recorded.  Extra power cycles are figure-neutral: the array
//    re-scramble is seed-deterministic and the fault model is
//    content-independent.
//
//  * Resumability.  `run` takes the list of grid points a previous
//    (interrupted) run already completed and skips them without touching
//    the board, plus an `on_step` callback after each completed point --
//    the campaign checkpoints there.  `on_step` returning false
//    halts the sweep *without* the end-of-sweep restore, simulating the
//    process dying mid-campaign.

#pragma once

#include <functional>
#include <vector>

#include "board/vcu128.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace hbmvolt::core {

struct SweepConfig {
  Millivolts start{1200};
  Millivolts stop{810};
  int step_mv = 10;
};

/// Grid points from start down to stop, inclusive.
[[nodiscard]] std::vector<Millivolts> sweep_grid(const SweepConfig& config);

enum class CrashPolicy {
  kStop,                  // abort the sweep at the first crash
  kPowerCycleAndContinue  // record, power-cycle, keep sweeping
};

/// The crash watchdog, shared by the sweep and the adaptive governor.
/// While the board is unresponsive, power-cycles and re-applies `v`, up
/// to `retries` rounds.  Returns true when the board responds afterwards
/// (the crash was spurious and recovered -- or there was no crash at
/// all), false when the crash survives every recheck (a genuine
/// undervolt crash: deterministic, so re-applying `v` reproduces it).
/// Retry rounds and recoveries are counted in telemetry as
/// `<counter_prefix>.crash_retries` and
/// `<counter_prefix>.spurious_crashes_recovered`.
Result<bool> crash_watchdog_recover(board::Vcu128Board& board, Millivolts v,
                                    unsigned retries,
                                    const char* counter_prefix = "sweep");

/// One already-completed grid point, as recorded by a checkpoint.
struct SweepSkip {
  Millivolts v{0};
  /// The point completed *as a crash*: replay the policy decision (under
  /// kStop the sweep ends here) without re-touching the board.
  bool crashed = false;
};

class VoltageSweep {
 public:
  VoltageSweep(board::Vcu128Board& board, SweepConfig config,
               CrashPolicy policy = CrashPolicy::kStop);

  /// Crash-watchdog budget: how many power-cycle + re-apply rounds to try
  /// before believing a non-responding board really crashed (default 2).
  void set_crash_retries(unsigned retries) noexcept {
    crash_retries_ = retries;
  }

  /// Post-step callback: fires after each completed grid point (measured
  /// or crash-recorded).  Returning false halts the sweep immediately.
  using StepFn = std::function<bool(Millivolts)>;

  /// Runs `body(v)` at every grid voltage the device survives.  When a
  /// voltage crashes the stacks, `on_crash(v)` fires instead of body and
  /// the policy decides whether to continue.  The board is returned to
  /// nominal voltage afterwards (power-cycled if it crashed).  Grid points
  /// in `skip` are replayed from a checkpoint (body and on_crash do not
  /// fire for them), and `on_step` fires after each newly completed point.
  Status run(const std::function<void(Millivolts)>& body,
             const std::function<void(Millivolts)>& on_crash = nullptr,
             const std::vector<SweepSkip>& skip = {},
             const StepFn& on_step = nullptr);

 private:
  board::Vcu128Board& board_;
  SweepConfig config_;
  CrashPolicy policy_;
  unsigned crash_retries_ = 2;
};

}  // namespace hbmvolt::core
