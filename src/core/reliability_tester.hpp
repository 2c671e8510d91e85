// Algorithm 1 of the paper: reliability assessment via sequential access.
//
//   for voltage := V_nom downto V_critical in 10 mV steps:
//     VCC_HBM := voltage
//     for b := 0 .. batchSize-1:
//       reset_axi_ports()
//       write dataPattern over memSize beats; read back; count mismatches
//
// Both data patterns (all 1s -> exposes 1->0 flips, all 0s -> exposes
// 0->1 flips) run at every voltage, and flip counts are recorded per
// pseudo-channel into a FaultMap.  The batch size defaults to the paper's
// 130 runs (7% error margin at 90% confidence -- see common/stats.hpp);
// simulation callers typically lower it since the model's fault sets are
// deterministic at fixed voltage.

#pragma once

#include "board/vcu128.hpp"
#include "common/status.hpp"
#include "core/voltage_sweep.hpp"
#include "faults/fault_map.hpp"

namespace hbmvolt::core {

class ThreadPool;

struct ReliabilityConfig {
  SweepConfig sweep{};                       // 1200 -> 810, 10 mV
  unsigned batch_size = 130;
  /// Beats tested per PC and batch; 0 = the whole PC (paper: memSize=256M
  /// beats for the full-HBM test, 8M for a single PC, at real capacity).
  std::uint64_t mem_beats = 0;
  /// Test the all-ones pattern (1->0 flips).
  bool pattern_ones = true;
  /// Test the all-zeros pattern (0->1 flips).
  bool pattern_zeros = true;
  CrashPolicy crash_policy = CrashPolicy::kStop;
  /// Crash-watchdog budget forwarded to the sweep (see VoltageSweep).
  unsigned crash_retries = 2;
};

class ReliabilityTester {
 public:
  ReliabilityTester(board::Vcu128Board& board, ReliabilityConfig config);

  /// Post-step checkpoint hook: fires after each completed voltage step
  /// with the map accumulated so far; returning false halts the run (the
  /// sweep returns kUnavailable and no fault map is produced).
  using StepFn = std::function<bool(Millivolts, const faults::FaultMap&)>;

  /// Full-device test: every AXI port of both stacks.  With a pool, the
  /// 32 per-PC pattern tests of each voltage step fan out across workers;
  /// the resulting FaultMap is byte-identical to the serial run.  With
  /// `restored`, the map of checkpointed steps, those steps are replayed
  /// from it instead of re-measured: the sweep skips its voltages, and a
  /// crashed one replays the crash policy.
  Result<faults::FaultMap> run(ThreadPool* pool = nullptr,
                               const faults::FaultMap* restored = nullptr,
                               const StepFn& on_step = nullptr);

 private:
  board::Vcu128Board& board_;
  ReliabilityConfig config_;
};

}  // namespace hbmvolt::core
