// Power measurement experiments (paper §II-C.1 and §III-A, Figs 2 and 3):
// sweep VCC_HBM while running traffic at several bandwidth-utilization
// rates (by enabling subsets of the 32 AXI ports) and record INA226 power
// readings.  Derived quantities: normalized power (Fig 2), normalized
// alpha*C_L*f = P/V^2 (Fig 3), and savings factors at the paper's
// landmark voltages.

#pragma once

#include <optional>
#include <vector>

#include "board/vcu128.hpp"
#include "common/status.hpp"
#include "core/voltage_sweep.hpp"

namespace hbmvolt::core {

class ThreadPool;

struct PowerSweepConfig {
  SweepConfig sweep{};                      // 1200 -> 810, 10 mV
  /// Port counts to measure; the paper plots 0/25/50/75/100% utilization.
  std::vector<unsigned> port_counts = {0, 8, 16, 24, 32};
  /// Host-side samples averaged per reading (on top of INA averaging).
  unsigned samples = 8;
  /// Beats of traffic run per enabled port before each reading, to put
  /// real transactions on the wire during the measurement.
  std::uint64_t traffic_beats = 64;
};

/// One measured series: power vs voltage at a fixed port count.
struct PowerSeries {
  unsigned ports = 0;
  double utilization = 0.0;
  std::vector<Millivolts> voltages;  // descending
  std::vector<Watts> power;

  [[nodiscard]] std::optional<Watts> power_at(Millivolts v) const;
};

struct PowerCharacterization {
  std::vector<PowerSeries> series;
  /// Normalization reference: power at v_nom in the highest-ports series
  /// (the paper normalizes to 1.2 V at 310 GB/s).
  Watts reference{0.0};
  Millivolts v_nom{1200};

  /// Fig 2 value: P(series, v) / reference.
  [[nodiscard]] double normalized(const PowerSeries& s, std::size_t i) const;
  /// Fig 3 value: (P/V^2) normalized to the same series' value at v_nom.
  [[nodiscard]] double alpha_clf_normalized(const PowerSeries& s,
                                            std::size_t i) const;
  /// Power-savings factor P(v_nom)/P(v) within one series.
  [[nodiscard]] std::optional<double> savings_factor(const PowerSeries& s,
                                                     Millivolts v) const;

  /// The characterization of `series` (complete or partial), referenced
  /// to the nominal-voltage power of the series with the most ports (0
  /// when that series has no nominal row).
  [[nodiscard]] static PowerCharacterization from_series(
      std::vector<PowerSeries> series, Millivolts v_nom);
};

class PowerCharacterizer {
 public:
  PowerCharacterizer(board::Vcu128Board& board, PowerSweepConfig config);

  /// Post-row checkpoint hook: fires after each measured (voltage, power)
  /// row with the in-progress series; returning false halts the run (it
  /// returns kUnavailable).
  using StepFn = std::function<bool(const PowerSeries&)>;

  /// Runs the sweep.  Measurements go through the board's snapshot path
  /// (per-step frozen rail + counter-seeded per-sample noise) whether or
  /// not a pool is given, so serial and parallel runs agree bit-for-bit.
  /// Rows of a `restored` series with a configured port count are
  /// replayed instead of re-measured (the caller must also restore the
  /// board's power-snapshot sequence number so later samples draw the
  /// original noise streams).
  Result<PowerCharacterization> run(ThreadPool* pool = nullptr,
                                    std::vector<PowerSeries> restored = {},
                                    const StepFn& on_step = nullptr);

 private:
  board::Vcu128Board& board_;
  PowerSweepConfig config_;
};

}  // namespace hbmvolt::core
