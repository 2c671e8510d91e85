// Adaptive undervolting governor: an online controller that finds and
// holds the deepest safe operating voltage, instead of relying on a
// static offline characterization.
//
// The paper's trade-off (Fig 6) assumes a fault map measured in the lab;
// production systems prefer closed-loop adaptive guardbanding (cf. Zu et
// al. [71], Papadimitriou et al. [42] from the paper's related work).
// This governor implements the canonical scheme on the HBM model:
//
//   probe:  run a quick pattern test at the current voltage
//   lower:  while measured fault rate <= tolerance, step down
//   raise:  on violation, step up `backoff_steps` and hold (hysteresis)
//   crash:  on a non-responding device, power-cycle and hold at the
//           last-known-good voltage plus margin
//
// The probe uses a small memory slice, so convergence costs a tiny
// fraction of a full Algorithm-1 sweep.

#pragma once

#include <cstdint>
#include <vector>

#include "board/vcu128.hpp"
#include "common/status.hpp"

namespace hbmvolt::core {

struct GovernorConfig {
  /// Acceptable fault rate during the probe (0 = fault-free operation).
  double tolerable_rate = 0.0;
  int step_mv = 10;
  /// Steps to back off above the first violating voltage.
  int backoff_steps = 1;
  /// Beats probed per PC per check (small on purpose).
  std::uint64_t probe_beats = 64;
  /// Lowest setpoint the governor may try.
  Millivolts floor{820};
  /// Consecutive clean probes required before declaring convergence.
  unsigned settle_probes = 3;
  /// Safety cap on total probes.
  unsigned max_probes = 200;
  /// Crash-watchdog budget (see core::crash_watchdog_recover): rounds of
  /// power-cycle + re-apply before a probe crash is believed.  Spurious
  /// injected crashes recover under the recheck and are re-probed at the
  /// same voltage, so they no longer inflate the settled voltage.
  unsigned crash_retries = 2;
};

struct GovernorStep {
  Millivolts voltage{0};
  double measured_rate = 0.0;
  bool crashed = false;
  /// The crash recovered under the watchdog recheck (chaos-injected, not
  /// a real undervolt crash); the probe is retried at the same voltage.
  bool spurious = false;
  enum class Action { kLower, kHold, kBackoff, kPowerCycle, kRetry } action;
};

struct GovernorResult {
  Millivolts settled{0};
  double savings_factor = 1.0;
  unsigned probes = 0;
  bool converged = false;
  std::vector<GovernorStep> trace;
};

class UndervoltGovernor {
 public:
  UndervoltGovernor(board::Vcu128Board& board, GovernorConfig config);

  /// Runs the control loop from nominal voltage until convergence (or
  /// the probe budget runs out).  Leaves the board at the settled
  /// voltage.
  Result<GovernorResult> run();

 private:
  /// One probe at the current voltage: write/read the probe slice on
  /// every PC, return measured fault rate (or crash).
  Result<double> probe();

  board::Vcu128Board& board_;
  GovernorConfig config_;
};

}  // namespace hbmvolt::core
