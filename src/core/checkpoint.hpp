// Campaign checkpoint: everything a killed-and-restarted campaign needs
// to resume and still produce byte-identical artifacts.
//
// The checkpoint is written to <output_dir>/checkpoint.json after every
// completed sweep step (atomically: tmp file + rename, so a kill mid-write
// leaves the previous checkpoint intact).  It records
//
//  * a config fingerprint -- resume silently starts fresh when the
//    campaign's physics-relevant configuration changed;
//  * the merged FaultMap of the completed reliability steps and the power
//    series measured so far -- the campaign's own result types;
//  * the board's power-snapshot sequence number, so resumed measurements
//    draw the exact noise streams the original run would have.
//
// Serialization detail that byte-identity depends on: Watts values are
// stored as 16-digit hex bit patterns of the IEEE-754 double, never as
// decimal text -- a decimal round-trip is one ulp away from a diff in
// fig2.csv.  Counters are exact JSON integers.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/power_characterizer.hpp"
#include "faults/fault_map.hpp"

namespace hbmvolt::core {

struct CampaignCheckpoint {
  static constexpr int kVersion = 1;

  explicit CampaignCheckpoint(const hbm::HbmGeometry& geometry)
      : fault_map(geometry) {}

  /// Fingerprint of the physics-relevant campaign config (see
  /// campaign.cpp); a mismatch means the checkpoint belongs to a
  /// different experiment and resume must start fresh.
  std::uint64_t fingerprint = 0;
  bool reliability_done = false;
  /// One observation per completed reliability step (crash steps too).
  faults::FaultMap fault_map;
  /// One (possibly partial) series per port count, in measurement order.
  std::vector<PowerSeries> power;
  /// Board power-snapshot sequence number at checkpoint time.
  std::uint64_t power_snapshot_seq = 0;
};

/// Serializes to the checkpoint.json text (stable field order).
[[nodiscard]] std::string checkpoint_to_json(const CampaignCheckpoint& ckpt);

/// Parses checkpoint.json text for a board of `geometry`; kDataLoss on
/// malformed or version-mismatched input, and on parseable input the
/// campaign cannot resume from: a reliability row with a PC count other
/// than the geometry's, a negative or non-integer counter or voltage, or
/// a voltage repeated in the reliability rows or within one power series.
[[nodiscard]] Result<CampaignCheckpoint> checkpoint_from_json(
    std::string_view text, const hbm::HbmGeometry& geometry);

/// Atomically writes the checkpoint to `path` (tmp file + rename).
[[nodiscard]] Status save_checkpoint(const CampaignCheckpoint& ckpt,
                                     const std::string& path);

/// Loads a checkpoint; kNotFound when the file does not exist, kDataLoss
/// when it exists but cannot be parsed (see checkpoint_from_json).
[[nodiscard]] Result<CampaignCheckpoint> load_checkpoint(
    const std::string& path, const hbm::HbmGeometry& geometry);

}  // namespace hbmvolt::core
