// Row retirement: trade capacity for correctness below the guardband.
//
// The paper's fault map enables a three-factor trade-off at pseudo-
// channel granularity (Fig 6).  Because faults cluster in small regions
// (paper §I bullet 3), a finer-grained mitigation is far cheaper: retire
// exactly the DRAM rows that contain stuck cells at the target voltage
// and keep the rest of the PC -- the Chang et al. [12] style of
// mitigation, built here on this model's fault maps.  The
// ext_row_retirement bench quantifies the capacity cost, and how much
// clustering reduces it.

#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/geometry.hpp"

namespace hbmvolt::mitigate {

/// Immutable set of retired rows per PC at one voltage.
class RetirementMap {
 public:
  /// Scans every PC's stuck-cell overlay at voltage v and retires each
  /// (bank, row) containing at least one stuck cell.
  static RetirementMap build(faults::FaultInjector& injector, Millivolts v);

  /// ECC-aware variant: retires only rows containing at least
  /// `min_faults_per_row` stuck cells.  With SECDED below (one corrected
  /// bit per 72-bit codeword), threshold 2 keeps every row whose faults
  /// the code can absorb, cutting the capacity cost of retirement.
  static RetirementMap build_filtered(faults::FaultInjector& injector,
                                      Millivolts v,
                                      unsigned min_faults_per_row);

  [[nodiscard]] Millivolts voltage() const noexcept { return voltage_; }

  [[nodiscard]] bool row_retired(unsigned pc_global, unsigned bank,
                                 std::uint64_t row) const;
  [[nodiscard]] bool beat_retired(unsigned pc_global,
                                  std::uint64_t beat) const;

  [[nodiscard]] std::uint64_t rows_retired(unsigned pc_global) const;
  [[nodiscard]] std::uint64_t rows_retired_total() const;
  [[nodiscard]] std::uint64_t rows_per_pc() const noexcept {
    return geometry_.rows_per_bank() * geometry_.banks_per_pc;
  }

  /// Fraction of the device's capacity that survives retirement.
  [[nodiscard]] double capacity_fraction() const;

 private:
  explicit RetirementMap(const hbm::HbmGeometry& geometry)
      : geometry_(geometry) {}

  void retire_overlay(unsigned pc_global, const faults::FaultOverlay& overlay,
                      unsigned min_faults_per_row = 1);

  [[nodiscard]] std::uint64_t row_index(unsigned bank,
                                        std::uint64_t row) const {
    return row * geometry_.banks_per_pc + bank;
  }

  hbm::HbmGeometry geometry_;
  Millivolts voltage_{0};
  // Per PC, a bitmap over (row, bank) pairs.
  std::vector<std::vector<bool>> retired_;
};

}  // namespace hbmvolt::mitigate
