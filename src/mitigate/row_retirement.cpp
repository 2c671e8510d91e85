#include "mitigate/row_retirement.hpp"

#include "common/status.hpp"

namespace hbmvolt::mitigate {

RetirementMap RetirementMap::build(faults::FaultInjector& injector,
                                   Millivolts v) {
  return build_filtered(injector, v, 1);
}

RetirementMap RetirementMap::build_filtered(faults::FaultInjector& injector,
                                            Millivolts v,
                                            unsigned min_faults_per_row) {
  HBMVOLT_REQUIRE(min_faults_per_row >= 1, "threshold must be positive");
  RetirementMap map(injector.model().geometry());
  map.voltage_ = v;
  map.retired_.resize(map.geometry_.total_pcs());

  const Millivolts restore = injector.voltage();
  injector.set_voltage(v);
  for (unsigned pc = 0; pc < map.geometry_.total_pcs(); ++pc) {
    map.retire_overlay(pc, injector.overlay(pc), min_faults_per_row);
  }
  injector.set_voltage(restore);
  return map;
}

void RetirementMap::retire_overlay(unsigned pc_global,
                                   const faults::FaultOverlay& overlay,
                                   unsigned min_faults_per_row) {
  if (overlay.empty()) return;
  std::vector<std::uint32_t> counts(rows_per_pc(), 0);
  overlay.for_each([&](std::uint64_t bit, faults::StuckPolarity) {
    const auto loc =
        hbm::decompose_beat(geometry_, bit / geometry_.bits_per_beat);
    ++counts[row_index(loc.bank, loc.row)];
  });
  auto& rows = retired_[pc_global];
  for (std::size_t row = 0; row < counts.size(); ++row) {
    if (counts[row] >= min_faults_per_row) {
      if (rows.empty()) rows.assign(rows_per_pc(), false);
      rows[row] = true;
    }
  }
}

bool RetirementMap::row_retired(unsigned pc_global, unsigned bank,
                                std::uint64_t row) const {
  HBMVOLT_REQUIRE(pc_global < retired_.size(), "PC index out of range");
  const auto& rows = retired_[pc_global];
  if (rows.empty()) return false;
  return rows[row_index(bank, row)];
}

bool RetirementMap::beat_retired(unsigned pc_global,
                                 std::uint64_t beat) const {
  const auto loc = hbm::decompose_beat(geometry_, beat);
  return row_retired(pc_global, loc.bank, loc.row);
}

std::uint64_t RetirementMap::rows_retired(unsigned pc_global) const {
  HBMVOLT_REQUIRE(pc_global < retired_.size(), "PC index out of range");
  std::uint64_t count = 0;
  for (const bool retired : retired_[pc_global]) count += retired ? 1 : 0;
  return count;
}

std::uint64_t RetirementMap::rows_retired_total() const {
  std::uint64_t count = 0;
  for (unsigned pc = 0; pc < retired_.size(); ++pc) {
    count += rows_retired(pc);
  }
  return count;
}

double RetirementMap::capacity_fraction() const {
  const auto total = static_cast<double>(rows_per_pc() * retired_.size());
  return 1.0 - static_cast<double>(rows_retired_total()) / total;
}

}  // namespace hbmvolt::mitigate
